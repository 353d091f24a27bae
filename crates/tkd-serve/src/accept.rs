//! The accept loop the server and the shard worker share: a blocking
//! listener whose thread accepts each connection the moment it arrives
//! and hands it to a connection thread of its own.
//!
//! Nothing polls. A blocked `accept` returns only for a connection, so a
//! stop sets its owner's flag first and then wakes the loop with a
//! loopback connection to the bound port ([`Acceptor::join`]); the loop
//! reads the flag after every accept and returns. Only a failed `accept`
//! (`EMFILE`, `ECONNABORTED`), or a connection thread that cannot be
//! started, backs off briefly before the next try.
//! Finished connection threads are joined as the loop goes, so a
//! long-lived listener holds a thread stack per *open* connection, not
//! one per connection it ever served.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The pause after a failed `accept` before the next one.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// The deadline of one wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running accept loop and its connection threads.
pub struct Acceptor {
    /// Where a wake-up connection goes: the bound address, loopback if
    /// bound to an unspecified one.
    wake: SocketAddr,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Accept on `listener`, a blocking one, until `stopping` reads true
    /// after an accept; each connection runs `serve` on a thread of its
    /// own.
    ///
    /// # Errors
    /// The listener's own error if its bound address cannot be read.
    pub fn spawn(
        listener: TcpListener,
        stopping: impl Fn() -> bool + Send + 'static,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let thread = {
            let conns = Arc::clone(&conns);
            let serve = Arc::new(serve);
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if stopping() {
                    return;
                }
                let mut conns = lock(&conns);
                for done in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                let spawned = accepted.and_then(|(stream, _)| {
                    let serve = Arc::clone(&serve);
                    std::thread::Builder::new().spawn(move || serve(stream))
                });
                match spawned {
                    Ok(handle) => conns.push(handle),
                    // The refused connection, if any, closes here.
                    Err(_) => {
                        drop(conns);
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            })
        };
        Ok(Acceptor {
            wake,
            conns,
            thread: Some(thread),
        })
    }

    /// The connection threads the loop holds: every open connection,
    /// plus those that finished since the last accept.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        lock(&self.conns).len()
    }

    /// Stop the loop and join it, then join every connection thread.
    /// The owner's `stopping` flag must already read true. A wake-up
    /// connection is retried until one lands or the loop has returned,
    /// so a join never waits on a connection that will not come.
    pub fn join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        // Held until the loop has returned, so the wake-up it accepts is
        // still open when it does.
        let mut _wake = None;
        while !thread.is_finished() {
            match TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT) {
                Ok(stream) => {
                    _wake = Some(stream);
                    break;
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        let _ = thread.join();
        for h in std::mem::take(&mut *lock(&self.conns)) {
            let _ = h.join();
        }
    }
}

/// The connection list, also after a panic elsewhere poisoned its lock:
/// every change to it is one push or one removal, so it is whole at
/// every step, and a stop — a drop included — never panics on it.
fn lock(conns: &Mutex<Vec<JoinHandle<()>>>) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}
