//! The traced run's layer probe: for each list request, time the calls the
//! request's path makes into each layer's public functions, one span per
//! call, outside the closed loop so nothing else runs beside them.

use crate::check::answer_ok;
use crate::inproc::service_config;
use crate::net::net_request;
use crate::trace::{Layer, Tracer};
use crate::workload::BenchRequest;
use cdd_core::eval::evaluator_for;
use cdd_core::JobSequence;
use cdd_gpu::{run_gpu_solve, Backend, GpuRunResult, GpuSolveSpec};
use cdd_net::frame::{chunk_sequence, Frame, NetResponse};
use cdd_service::SolverService;
use std::hint::black_box;
use std::time::Duration;

/// Calls per micro-timed function and request: enough that one span
/// covers tens of microseconds even at n = 10.
const REPS: usize = 32;

/// Sequences the evaluator is timed over, like a 64-chain ensemble.
const PERMUTATIONS: usize = 64;

/// List requests that also run on the simulator (one of each class).
const SIM_SUBSET: usize = 8;

/// Cache hits timed per request against a warm in-process service.
const HITS: usize = 32;

/// Span request ids of the probe, apart from the timed phase's.
pub const PROBE_BASE: u64 = 1 << 40;

/// Raw per-layer measurements over the list requests.
#[derive(Default)]
pub struct Probe {
    pub instantiate_us: Vec<f64>,
    pub content_key_us: Vec<f64>,
    /// Per request: nanoseconds per `evaluate` call.
    pub eval_ns: Vec<f64>,
    pub gpu_solve_s: Vec<f64>,
    pub gpu_evaluations: u64,
    pub gpu_launches: u64,
    /// Σ evaluations × ns per evaluation of the same request, seconds.
    pub gpu_evaluator_s: f64,
    pub sim_solve_s: Vec<f64>,
    /// Native solve seconds of the requests that also ran on the simulator.
    pub sim_native_s: Vec<f64>,
    pub service_overhead_ms: Vec<f64>,
    pub hit_latency_us: Vec<f64>,
    /// Per request: Σ over its request, chunk and response frames.
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub frame_bytes: u64,
    pub problems: Vec<String>,
}

fn per_call(d: Duration, calls: usize) -> f64 {
    d.as_secs_f64() / calls as f64
}

/// Deterministic permutations of `0..n` (SplitMix64-driven shuffles).
fn permutations(n: usize, count: usize, mut state: u64) -> Vec<Vec<u32>> {
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let mut p: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                p.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            p
        })
        .collect()
}

/// Probe every list request; see the module docs.
pub fn run(list: &[BenchRequest], tracer: &Tracer) -> Probe {
    let config = service_config();
    let spec = |backend| GpuSolveSpec {
        blocks: config.blocks,
        block_size: config.block_size,
        device: config.device_spec.clone(),
        backend,
        ..Default::default()
    };
    let (native, sim) = (spec(Backend::Native), spec(Backend::Sim));
    let services = [
        SolverService::start(config.clone()),
        SolverService::start(config.clone()),
    ];
    let mut p = Probe::default();
    for (h, br) in list.iter().enumerate() {
        let id = PROBE_BASE + h as u64;
        let req = &br.request;
        let inst = &req.instance;
        let root = tracer.begin(Layer::Bench, "probe", id, 0);
        let r = root.id();

        let (_, d) = tracer.span(Layer::Instances, "instantiate", id, r, || {
            for _ in 0..REPS {
                black_box(black_box(&br.entry.id).instantiate());
            }
        });
        p.instantiate_us.push(per_call(d, REPS) * 1e6);
        let (_, d) = tracer.span(Layer::Core, "content_key", id, r, || {
            for _ in 0..REPS {
                black_box(black_box(req).content_key());
            }
        });
        p.content_key_us.push(per_call(d, REPS) * 1e6);
        let evaluator = evaluator_for(inst);
        let perms = permutations(inst.n(), PERMUTATIONS, req.seed);
        let (_, d) = tracer.span(Layer::Core, "evaluate", id, r, || {
            for _ in 0..REPS {
                for perm in &perms {
                    black_box(evaluator.evaluate(black_box(perm)));
                }
            }
        });
        let eval_s = per_call(d, REPS * PERMUTATIONS);
        p.eval_ns.push(eval_s * 1e9);

        // Each solve path runs twice, interleaved (direct, service,
        // direct, service on a second fresh service), and keeps its
        // faster run: the first run of a request warms caches the second
        // one finds, whichever path it takes.
        let mut gpu_runs = Vec::new();
        let mut service_runs = Vec::new();
        for svc in &services {
            let (gpu, d) = tracer.span(Layer::Gpu, "run_gpu_solve", id, r, || {
                run_gpu_solve(inst, req.algorithm, req.iterations, req.seed, &native)
            });
            gpu_runs.push((gpu, d));
            let request = req.clone();
            let (miss, d) = tracer.span(Layer::Service, "solve_miss", id, r, || svc.solve(request));
            service_runs.push((miss, d));
        }
        let gpu_s = gpu_runs
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let service_s = service_runs
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let Some(Ok(gpu)) = gpu_runs.pop().map(|(g, _)| g) else {
            p.problems.push(format!("probe {h}: native solve failed"));
            tracer.end(root);
            continue;
        };
        if !answer_ok(inst, gpu.best.as_slice(), gpu.objective, false) {
            p.problems
                .push(format!("probe {h}: native answer is wrong"));
        }
        p.gpu_solve_s.push(gpu_s);
        p.gpu_evaluations += gpu.evaluations;
        p.gpu_launches += gpu.kernel_launches as u64;
        p.gpu_evaluator_s += gpu.evaluations as f64 * eval_s;

        if h < SIM_SUBSET {
            let (on_sim, d) = tracer.span(Layer::Sim, "run_gpu_solve", id, r, || {
                run_gpu_solve(inst, req.algorithm, req.iterations, req.seed, &sim)
            });
            if !on_sim.as_ref().is_ok_and(|s| same_outcome(s, &gpu)) {
                p.problems
                    .push(format!("probe {h}: simulator and native outcomes differ"));
            }
            p.sim_solve_s.push(d.as_secs_f64());
            p.sim_native_s.push(gpu_s);
        }

        p.service_overhead_ms.push((service_s - gpu_s) * 1e3);
        let same = |m: &Result<cdd_core::SolveOutcome, cdd_core::SuiteError>| {
            m.as_ref().is_ok_and(|o| {
                !o.cache_hit && o.objective == gpu.objective && o.sequence == gpu.best
            })
        };
        if !service_runs.iter().all(|(m, _)| same(m)) {
            p.problems.push(format!(
                "probe {h}: service answer differs from the direct solve"
            ));
            tracer.end(root);
            continue;
        }
        let service = &services[0];
        for _ in 0..HITS {
            let request = req.clone();
            let (hit, d) = tracer.span(Layer::Service, "solve_hit", id, r, || {
                service.solve(request)
            });
            if !hit.is_ok_and(|o| o.cache_hit) {
                p.problems
                    .push(format!("probe {h}: repeat was not a cache hit"));
            }
            p.hit_latency_us.push(d.as_secs_f64() * 1e6);
        }

        let frames = wire_frames(id, br, &gpu.best, gpu.objective);
        p.frame_bytes += frames
            .iter()
            .map(|(_, bytes)| bytes.len() as u64)
            .sum::<u64>();
        let (_, d) = tracer.span(Layer::Net, "encode", id, r, || {
            for _ in 0..REPS {
                for (f, _) in &frames {
                    black_box(black_box(f).encode());
                }
            }
        });
        p.encode_us.push(per_call(d, REPS) * 1e6);
        let (decoded, d) = tracer.span(Layer::Net, "decode_body", id, r, || {
            let mut ok = true;
            for _ in 0..REPS {
                for (f, bytes) in &frames {
                    ok &= Frame::decode_body(black_box(&bytes[4..])).is_ok_and(|g| g == *f);
                }
            }
            ok
        });
        if !decoded {
            p.problems
                .push(format!("probe {h}: a frame did not decode to itself"));
        }
        p.decode_us.push(per_call(d, REPS) * 1e6);
        tracer.end(root);
    }
    for svc in services {
        svc.shutdown();
    }
    p
}

fn same_outcome(a: &GpuRunResult, b: &GpuRunResult) -> bool {
    a.objective == b.objective && a.best == b.best && a.evaluations == b.evaluations
}

/// A request's frames as the node path carries them: the request, the
/// answer's sequence chunks and the response, each with its encoding.
fn wire_frames(
    id: u64,
    br: &BenchRequest,
    sequence: &JobSequence,
    objective: i64,
) -> Vec<(Frame, Vec<u8>)> {
    let mut frames = vec![Frame::Request(net_request(id, br))];
    frames.extend(
        chunk_sequence(id, sequence.as_slice())
            .into_iter()
            .map(Frame::Chunk),
    );
    frames.push(Frame::Response(NetResponse {
        id,
        objective,
        modeled_seconds: 0.0,
        evaluations: 0,
        cache_hit: true,
        device: None,
        cpu_fallback: false,
        degraded: false,
        wall_ms: 0.0,
        flight: None,
    }));
    frames
        .into_iter()
        .map(|f| {
            let bytes = f.encode();
            (f, bytes)
        })
        .collect()
}

/// Summary helpers the report uses.
impl Probe {
    pub fn gpu_solve_total_s(&self) -> f64 {
        self.gpu_solve_s.iter().sum()
    }

    pub fn launch_overhead_us(&self) -> f64 {
        (self.gpu_solve_total_s() - self.gpu_evaluator_s) / self.gpu_launches.max(1) as f64 * 1e6
    }

    pub fn evaluator_share(&self) -> f64 {
        self.gpu_evaluator_s / self.gpu_solve_total_s()
    }

    pub fn sim_native_ratio(&self) -> f64 {
        self.sim_solve_s.iter().sum::<f64>() / self.sim_native_s.iter().sum::<f64>()
    }
}
