//! A long-lived connection must not accumulate finished waiter threads.
//! Every admitted request gets its own waiter thread; once that thread
//! has exited, its stack stays mapped until the handle is joined or
//! dropped, so a node that only joins at connection close grows by one
//! stack mapping per request. The node reaps finished waiters as new
//! requests arrive, which keeps the process's mapping count flat.
//!
//! This is its own test binary so that no other test allocates in the
//! process while the mappings are counted.

use cdd_core::{Algorithm, Priority};
use cdd_net::auth::{token_for, DEFAULT_SECRET};
use cdd_net::frame::{read_frame, write_frame, Frame, NetRequest, WorkSpec};
use cdd_net::node::{serve, NodeConfig};
use std::net::TcpStream;

/// Memory mappings of this process (Linux: one line of `/proc/self/maps`
/// each). An exited but unjoined thread keeps its stack and guard page
/// here, although it no longer appears under `/proc/self/task`.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps").lines().count()
}

/// Send one request and read its reply frames through the final response.
fn round_trip(stream: &mut TcpStream, id: u64) {
    // The same work every time: the first request solves it and every
    // later one is a cache hit, so the loop is fast and each request still
    // gets its own waiter thread.
    let request = Frame::Request(NetRequest {
        id,
        tenant: "t".to_string(),
        token: token_for("t", DEFAULT_SECRET),
        priority: Priority::Normal,
        deadline_ms: None,
        algorithm: Algorithm::Sa,
        iterations: 20,
        seed: 7,
        work: WorkSpec::ById { n: 10, k: 1, h: Some(0.4) },
        trace: None,
    });
    write_frame(stream, &request).expect("write request");
    loop {
        match read_frame(stream).expect("read reply") {
            Some(Frame::Response(r)) => {
                assert_eq!(r.id, id);
                return;
            }
            Some(Frame::Chunk(_)) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

#[test]
fn sequential_requests_on_one_connection_do_not_retain_waiter_stacks() {
    let node = serve(NodeConfig::default()).expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    // Warm up first, so the solve's own allocations are in the baseline.
    round_trip(&mut stream, 0);
    let before = mappings();
    for id in 1..=300 {
        round_trip(&mut stream, id);
    }
    let grown = mappings().saturating_sub(before);
    drop(stream);
    node.begin_shutdown();
    node.join();
    // Retaining every waiter adds two mappings per request (about 600
    // here); reaping them leaves allocator noise only.
    assert!(grown <= 64, "{grown} new mappings after 300 sequential requests on one connection");
}
