//! net-repeat: an in-process `cdd_net::node` on loopback, warmed with the
//! workload's works and then asked for them again and again on one
//! connection.
//!
//! The node spawns one waiter thread per admitted request and joins them
//! only when the connection closes. Each unjoined thread keeps its stack
//! mapping (about 8–11 KiB resident, 2 MiB of address space, two memory
//! maps), so a connection that stays open aborts the process after about
//! 32.7k requests (`vm.max_map_count` = 65,530 ÷ 2). The timed phase holds
//! one connection and never reconnects, so `peak_rss_mb` and
//! `net.rss_kib_per_request` show that growth; its request count is capped
//! at [`MAX_REQUESTS_PER_CONNECTION`], below the abort.

use crate::check::{answer_ok, status_kib, Outcome};
use crate::inproc::service_config;
use crate::trace::{Layer, Tracer};
use crate::workload::BenchRequest;
use cdd_core::Cost;
use cdd_net::auth;
use cdd_net::frame::{
    assemble_sequence, read_frame, Frame, NetRequest, NetResponse, NodeStats, WorkSpec,
};
use cdd_net::node::{serve, NodeConfig, NodeHandle, NodeReport};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests one timed connection may carry: below the ~32.7k waiter
/// threads at which the node's process aborts (see the module docs).
pub const MAX_REQUESTS_PER_CONNECTION: usize = 20_000;

/// Requests in flight on the connection: one per service device.
pub const WINDOW: usize = 2;

/// The wire request for a workload entry (catalog id, valid token).
pub fn net_request(id: u64, r: &BenchRequest) -> NetRequest {
    let e = &r.entry;
    NetRequest {
        id,
        tenant: e.tenant.clone(),
        token: auth::token_for(&e.tenant, auth::DEFAULT_SECRET),
        priority: e.priority,
        deadline_ms: None,
        algorithm: e.algorithm,
        iterations: e.iterations,
        seed: e.seed,
        work: WorkSpec::ById {
            n: e.id.n as u64,
            k: e.id.k,
            h: e.id.h,
        },
        trace: None,
    }
}

/// One client connection: buffered frame reads, direct writes.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(node: &NodeHandle) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(node.addr).map_err(|e| format!("connect {}: {e}", node.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.writer
            .write_all(&frame.encode())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Frame, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err("node closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The node's live service counters.
    pub fn stats(&mut self) -> Result<NodeStats, String> {
        self.send(&Frame::Stats { full: false })?;
        match self.recv()? {
            Frame::StatsReply(envelope) => Ok(envelope.stats),
            other => Err(format!(
                "expected a stats reply, got a {} frame",
                other.label()
            )),
        }
    }
}

/// What a run of requests on one connection measured.
#[derive(Default)]
pub struct Drive {
    pub attempted: u64,
    pub passed: u64,
    pub cache_hits: u64,
    /// Latency of every answered request, microseconds.
    pub latencies_us: Vec<f64>,
    /// Per work: its best (lowest) latency, microseconds (infinite when
    /// never answered).
    pub best_us: Vec<f64>,
    pub wall: Duration,
    pub problems: Vec<String>,
}

/// Closed loop on one connection with [`WINDOW`] requests in flight:
/// request `i` asks for work `i % works.len()`. Sends `budget` requests, or
/// fewer when `deadline` passes first (never fewer than `works.len()`).
/// `check(work, response, sequence)` judges each answer.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    conn: &mut Conn,
    works: &[BenchRequest],
    budget: usize,
    deadline: Option<Instant>,
    tracer: &Tracer,
    request_base: u64,
    check: &mut dyn FnMut(usize, &NetResponse, &[u32]) -> bool,
) -> Drive {
    struct InFlight {
        id: u64,
        root: crate::trace::Open,
        net: crate::trace::Open,
        sequence: Vec<u8>,
    }
    let mut d = Drive {
        best_us: vec![f64::INFINITY; works.len()],
        ..Drive::default()
    };
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let mut sent = 0usize;
    let start = Instant::now();
    let send_next = |conn: &mut Conn, in_flight: &mut VecDeque<InFlight>, sent: &mut usize| {
        let more =
            *sent < budget && (*sent < works.len() || deadline.is_none_or(|t| Instant::now() < t));
        if !more {
            return Ok(());
        }
        let id = request_base + *sent as u64;
        let root = tracer.begin(Layer::Bench, "request", id, 0);
        let net = tracer.begin(Layer::Net, "roundtrip", id, root.id());
        let frame = Frame::Request(net_request(id, &works[*sent % works.len()]));
        *sent += 1;
        in_flight.push_back(InFlight {
            id,
            root,
            net,
            sequence: Vec::new(),
        });
        conn.send(&frame)
    };
    for _ in 0..WINDOW {
        if let Err(e) = send_next(conn, &mut in_flight, &mut sent) {
            d.problems.push(e);
        }
    }
    while !in_flight.is_empty() && d.problems.is_empty() {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(e) => {
                d.problems.push(e);
                break;
            }
        };
        let (id, done) = match &frame {
            Frame::Chunk(c) => (c.id, false),
            Frame::Response(r) => (r.id, true),
            Frame::Error(e) => (e.id, true),
            other => {
                d.problems
                    .push(format!("unexpected {} frame", other.label()));
                break;
            }
        };
        let Some(pos) = in_flight.iter().position(|f| f.id == id) else {
            d.problems.push(format!("reply for unknown request {id}"));
            break;
        };
        if let Frame::Chunk(c) = &frame {
            in_flight[pos].sequence.extend_from_slice(&c.data);
        }
        if !done {
            continue;
        }
        let f = in_flight.remove(pos).expect("position is in range");
        let latency = tracer.end(f.net);
        if let Err(e) = send_next(conn, &mut in_flight, &mut sent) {
            d.problems.push(e);
        }
        d.attempted += 1;
        let work = ((f.id - request_base) % works.len() as u64) as usize;
        match frame {
            Frame::Response(r) => {
                let us = latency.as_secs_f64() * 1e6;
                d.latencies_us.push(us);
                d.best_us[work] = d.best_us[work].min(us);
                d.cache_hits += u64::from(r.cache_hit);
                let ok = match assemble_sequence(&f.sequence) {
                    Ok(seq) => check(work, &r, &seq),
                    Err(_) => false,
                };
                d.passed += u64::from(ok);
                if !ok {
                    d.problems
                        .push(format!("request {} answered wrongly", f.id));
                }
            }
            Frame::Error(e) => d
                .problems
                .push(format!("request {} failed: {}", f.id, e.detail)),
            _ => unreachable!("only terminal frames reach here"),
        }
        tracer.end(f.root);
    }
    d.attempted += in_flight.len() as u64;
    d.wall = start.elapsed();
    d
}

/// A started node whose cache holds every work's answer.
pub struct WarmNode {
    pub node: NodeHandle,
    /// The verified answer to each work.
    pub answers: Vec<(Cost, Vec<u32>)>,
}

/// Start a node with the benchmark's service config and solve every work
/// once on a connection of its own (closed afterwards, so its waiter
/// threads are joined). Each answer is checked with the exact evaluator.
pub fn start_warm(
    works: &[BenchRequest],
    tracer: &Tracer,
    request_base: u64,
) -> Result<WarmNode, String> {
    let node = serve(NodeConfig {
        service: service_config(),
        ..Default::default()
    })
    .map_err(|e| format!("node: {e}"))?;
    let mut answers = vec![(0, Vec::new()); works.len()];
    let mut check = |w: usize, r: &NetResponse, seq: &[u32]| {
        answers[w] = (r.objective, seq.to_vec());
        answer_ok(
            &works[w].request.instance,
            seq,
            r.objective,
            r.degraded || r.cpu_fallback,
        )
    };
    let warm = {
        let mut conn = Conn::open(&node)?;
        drive(
            &mut conn,
            works,
            works.len(),
            None,
            tracer,
            request_base,
            &mut check,
        )
    };
    if !warm.problems.is_empty() || warm.passed != works.len() as u64 {
        node.begin_shutdown();
        node.join();
        return Err(format!("warm-up failed: {:?}", warm.problems));
    }
    Ok(WarmNode { node, answers })
}

impl WarmNode {
    /// The warmed outcomes, as the outcome hash sees them.
    pub fn outcomes(&self, works: &[BenchRequest]) -> Vec<Outcome> {
        works
            .iter()
            .zip(&self.answers)
            .map(|(w, (objective, seq))| Outcome {
                content_key: w.request.content_key(),
                objective: *objective,
                sequence: seq.clone(),
            })
            .collect()
    }

    pub fn stop(self) -> NodeReport {
        self.node.begin_shutdown();
        self.node.join()
    }
}

/// The repeat phase's measurements.
pub struct Repeat {
    pub drive: Drive,
    /// Resident memory added per request while the connection stayed open.
    pub rss_kib_per_request: f64,
    /// Cache hits ÷ requests the service saw during the phase.
    pub cache_hit_share: f64,
}

/// Ask for the warmed works again on one fresh connection: `budget`
/// requests or until `deadline`. Every answer must equal the verified
/// warm-up answer byte for byte.
pub fn repeat(
    warm: &WarmNode,
    works: &[BenchRequest],
    budget: usize,
    deadline: Option<Instant>,
    tracer: &Tracer,
    request_base: u64,
) -> Result<Repeat, String> {
    assert!(
        budget <= MAX_REQUESTS_PER_CONNECTION,
        "the node aborts past ~32.7k requests per connection"
    );
    let mut conn = Conn::open(&warm.node)?;
    let before = conn.stats()?;
    let rss_before = status_kib("VmRSS");
    let mut check = |w: usize, r: &NetResponse, seq: &[u32]| {
        let (objective, sequence) = &warm.answers[w];
        !r.degraded && r.objective == *objective && seq == sequence.as_slice()
    };
    let drive = drive(
        &mut conn,
        works,
        budget,
        deadline,
        tracer,
        request_base,
        &mut check,
    );
    let rss_after = status_kib("VmRSS");
    let after = conn.stats()?;
    let seen = (after.cache_hits + after.cache_misses + after.coalesced)
        - (before.cache_hits + before.cache_misses + before.coalesced);
    let hits = after.cache_hits - before.cache_hits;
    Ok(Repeat {
        rss_kib_per_request: (rss_after - rss_before) / drive.attempted.max(1) as f64,
        cache_hit_share: hits as f64 / seen.max(1) as f64,
        drive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{entries, materialise, Workload};

    #[test]
    fn every_repeated_request_is_a_cache_hit() {
        let works = materialise(&entries(Workload::NetRepeat, 9));
        let tracer = Tracer::new(false);
        let warm = start_warm(&works, &tracer, 0).expect("warm-up");
        let r = repeat(&warm, &works, 200, None, &tracer, 1000).expect("repeat");
        warm.stop();
        assert!(r.drive.problems.is_empty(), "{:?}", r.drive.problems);
        assert_eq!(
            (r.drive.attempted, r.drive.passed, r.drive.cache_hits),
            (200, 200, 200)
        );
        assert_eq!(r.cache_hit_share, 1.0, "service.cache_hit_share is 1");
    }
}
