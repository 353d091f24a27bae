//! The server accepts a connection the moment it arrives and stops
//! without waiting on one.
//!
//! The listener blocks in `accept`; nothing polls it. So a fresh
//! connection's first answer comes back in well under the 25 ms a polled
//! listener averaged (≈ 12.5 ms), and a stop — `stop`, a client's
//! `shutdown` then `join`, or a drop — wakes the blocked accept with a
//! loopback connection and returns within a second, whether or not a
//! connection was ever made, with idle connections open, and on a
//! listener bound to the unspecified address.

use std::net::{Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};
use tkd_core::DynamicEngine;
use tkd_serve::{Client, ServeConfig, Server};

/// How long any stop may take.
const STOP_BUDGET: Duration = Duration::from_secs(1);

fn start(bind: &str) -> Server {
    let engine = DynamicEngine::new(tkd_model::fixtures::fig3_sample());
    Server::start(engine, bind, ServeConfig::default()).expect("bind")
}

/// The server's address as a client dials it: loopback for a listener
/// bound to the unspecified address.
fn dial(server: &Server) -> SocketAddr {
    let mut addr = server.local_addr();
    if addr.ip().is_unspecified() {
        addr.set_ip(Ipv4Addr::LOCALHOST.into());
    }
    addr
}

/// Open `n` connections that each got one answer and then sit idle.
fn idle_clients(server: &Server, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| {
            let mut client = Client::connect(dial(server)).expect("connect");
            client.stats().expect("stats answer");
            client
        })
        .collect()
}

#[test]
fn a_fresh_connection_is_answered_without_an_accept_poll() {
    let server = start("127.0.0.1:0");
    let mut took: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let mut client = Client::connect(dial(&server)).expect("connect");
            client.stats().expect("stats answer");
            start.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-answer {median:?} over 20 connections"
    );
    server.stop().expect("the engine comes back");
}

#[test]
fn stop_returns_promptly() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for idle in [0, 3] {
            let server = start(bind);
            let clients = idle_clients(&server, idle);
            let start = Instant::now();
            server.stop().expect("the engine comes back");
            let took = start.elapsed();
            assert!(
                took < STOP_BUDGET,
                "stop on {bind} with {idle} idle connections took {took:?}"
            );
            drop(clients);
        }
    }
}

#[test]
fn join_after_a_shutdown_frame_returns_promptly() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = start(bind);
        let clients = idle_clients(&server, 2);
        Client::connect(dial(&server))
            .expect("connect")
            .shutdown()
            .expect("shutdown acked");
        let start = Instant::now();
        server.join().expect("the engine comes back");
        let took = start.elapsed();
        assert!(took < STOP_BUDGET, "join on {bind} took {took:?}");
        drop(clients);
    }
}

#[test]
fn drop_returns_promptly() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for idle in [0, 3] {
            let server = start(bind);
            let addr = dial(&server);
            let clients = idle_clients(&server, idle);
            let start = Instant::now();
            drop(server);
            let took = start.elapsed();
            assert!(
                took < STOP_BUDGET,
                "drop on {bind} with {idle} idle connections took {took:?}"
            );
            // The listener is closed with the server.
            assert!(Client::connect_with(addr, Duration::from_millis(200)).is_err());
            drop(clients);
        }
    }
}
