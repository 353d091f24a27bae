//! A shard worker accepts a connection the moment it arrives and stops
//! without waiting on one.
//!
//! The listener blocks in `accept`; nothing polls it. So a fresh
//! connection's first answer comes back in well under the 5 ms poll a
//! polled listener slept, and `stop`, `kill` and a drop wake the blocked
//! accept with a loopback connection and return within a second, whether
//! or not a connection was ever made, with idle connections open, and on
//! a listener bound to the unspecified address.

use std::net::{Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};
use tkd_cluster::{Worker, WorkerConfig};
use tkd_serve::{Client, ClusterRequest, ClusterResponse};

/// How long any stop may take.
const STOP_BUDGET: Duration = Duration::from_secs(1);

/// The worker's address as a client dials it: loopback for a listener
/// bound to the unspecified address.
fn dial(worker: &Worker) -> SocketAddr {
    let mut addr = worker.local_addr();
    if addr.ip().is_unspecified() {
        addr.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    addr
}

/// One exchange every worker answers: a `tau_update` at `tau`, which
/// must not go below an earlier one.
fn tau_call(client: &mut Client, tau: u64) {
    let answer = client.cluster_call(&ClusterRequest::TauUpdate { tau });
    assert_eq!(answer.expect("tau acked"), ClusterResponse::TauAck { tau });
}

/// Open `n` connections that each got one answer and then sit idle.
fn idle_clients(worker: &Worker, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| {
            let mut client = Client::connect(dial(worker)).expect("connect");
            tau_call(&mut client, 0);
            client
        })
        .collect()
}

#[test]
fn a_fresh_connection_is_answered_without_an_accept_poll() {
    let worker = Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker start");
    let mut took: Vec<Duration> = (0..20)
        .map(|tau| {
            let start = Instant::now();
            let mut client = Client::connect(dial(&worker)).expect("connect");
            tau_call(&mut client, tau);
            start.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-answer {median:?} over 20 connections"
    );
    worker.stop();
}

/// One way to end a worker.
type Stop = fn(Worker);

#[test]
fn stop_kill_and_drop_return_promptly() {
    let stops: [(&str, Stop); 3] = [
        ("stop", Worker::stop),
        ("kill", Worker::kill),
        ("drop", drop::<Worker>),
    ];
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for (name, stop) in stops {
            for idle in [0, 3] {
                let worker = Worker::start(bind, WorkerConfig::default()).expect("worker start");
                let addr = dial(&worker);
                let clients = idle_clients(&worker, idle);
                let start = Instant::now();
                stop(worker);
                let took = start.elapsed();
                assert!(
                    took < STOP_BUDGET,
                    "{name} on {bind} with {idle} idle connections took {took:?}"
                );
                // The listener is closed with the worker.
                assert!(Client::connect_with(addr, Duration::from_millis(200)).is_err());
                drop(clients);
            }
        }
    }
}
