//! **cdd-chaos-bench** — measure what resilience costs.
//!
//! ```text
//! cargo run --release -p cdd-service --bin cdd-chaos-bench -- \
//!     [--requests 96] [--devices 2] [--seed 2016] [--iterations 150] \
//!     [--sizes 10,20] [--crash-rates 0.0,0.05,0.20] [--crash-horizon 16] \
//!     [--out BENCH_pr6.json]
//! ```
//!
//! Replays one fixed generated workload through the solver service at a
//! sweep of worker-crash rates (default 0%, 5%, 20% per launch window) and
//! records, per rate: throughput, latency percentiles, supervisor restarts,
//! retries scheduled, and degraded answers. The 0% row is the baseline —
//! the delta against it is the overhead of supervision plus the cost of
//! re-running crashed work. Results go to `BENCH_pr6.json` in the
//! repository root (override with `--out`).
//!
//! The per-rate (request, fitness, degraded) outcome set is deterministic;
//! only the wall-clock columns vary between invocations (DESIGN.md §12).

use cdd_bench::workload::generate_mixed;
use cdd_bench::Args;
use cdd_service::{ServiceConfig, ServiceReport, SolverService};
use cuda_sim::FaultPlan;
use std::collections::VecDeque;

struct ChaosRun {
    crash_rate: f64,
    report: ServiceReport,
    degraded_answers: u64,
}

/// Run the whole workload through a fresh service with the given
/// worker-crash rate and collect its shutdown report.
fn run_at_rate(
    entries: &[cdd_bench::workload::WorkloadEntry],
    devices: usize,
    seed: u64,
    crash_rate: f64,
    crash_horizon: u64,
) -> ChaosRun {
    let fault = if crash_rate > 0.0 {
        Some(
            FaultPlan::with_rates(seed ^ 0xC4A0_5BAD, 0.0, 0.0, 0.0)
                .with_worker_crash(crash_rate, crash_horizon),
        )
    } else {
        None
    };
    let config = ServiceConfig {
        devices,
        queue_capacity: entries.len().max(64),
        fault,
        ..Default::default()
    };
    let service = SolverService::start(config);
    let window = (4 * devices).max(1);
    let mut outstanding: VecDeque<u64> = VecDeque::new();
    let mut degraded_answers = 0u64;
    let mut drain = |service: &SolverService, outstanding: &mut VecDeque<u64>| {
        let ticket = outstanding.pop_front().expect("window non-empty");
        let outcome = service.wait(ticket);
        match outcome.result {
            Ok(o) => {
                if o.degraded {
                    degraded_answers += 1;
                }
            }
            Err(e) => panic!("chaos bench request failed outright: {e}"),
        }
    };
    for entry in entries {
        let ticket = service.submit(entry.to_request()).expect("queue sized for the workload");
        outstanding.push_back(ticket);
        if outstanding.len() >= window {
            drain(&service, &mut outstanding);
        }
    }
    while !outstanding.is_empty() {
        drain(&service, &mut outstanding);
    }
    let report = service.shutdown();
    ChaosRun { crash_rate, report, degraded_answers }
}

fn main() {
    let args = Args::parse();
    let requests = args.get_or("requests", 96usize);
    let devices = args.get_or("devices", 2usize).max(1);
    let seed = args.get_or("seed", 2016u64);
    let iterations = args.get_or("iterations", 150u64);
    let sizes = args.get_list_or("sizes", &[10usize, 20]);
    let rates = args.get_list_or("crash-rates", &[0.0f64, 0.05, 0.20]);
    let horizon = args.get_or("crash-horizon", 16u64);
    let out = args.get("out").unwrap_or("BENCH_pr6.json").to_string();
    args.finish();

    let entries = generate_mixed(requests, seed, iterations, &sizes);
    eprintln!(
        "cdd-chaos-bench: {requests} requests x {} crash rates over {devices} devices",
        rates.len()
    );

    let mut runs = Vec::new();
    for &rate in &rates {
        eprintln!("  crash rate {rate}...");
        runs.push(run_at_rate(&entries, devices, seed, rate, horizon));
    }

    let baseline_rps = runs
        .first()
        .map(|r| r.report.completed as f64 / r.report.wall_seconds.max(1e-9))
        .unwrap_or(0.0);
    let mut lines = Vec::new();
    for run in &runs {
        let r = &run.report;
        let (p50, p95) = match r.metrics.histogram("timing_request_wall_ms", &[]) {
            Some(h) => (h.quantile(0.50), h.quantile(0.95)),
            None => (0.0, 0.0),
        };
        let rps = r.completed as f64 / r.wall_seconds.max(1e-9);
        lines.push(format!(
            "    {{\"crash_rate\":{},\"completed\":{},\"failed\":{},\"wall_seconds\":{},\
             \"throughput_rps\":{:.3},\"throughput_vs_clean\":{:.4},\"latency_p50_ms\":{:.3},\
             \"latency_p95_ms\":{:.3},\"worker_restarts\":{},\"retries\":{},\"degraded\":{},\
             \"breaker_opened\":{}}}",
            run.crash_rate,
            r.completed,
            r.failed,
            r.wall_seconds,
            rps,
            if baseline_rps > 0.0 { rps / baseline_rps } else { 0.0 },
            p50,
            p95,
            r.restarts,
            r.retried,
            run.degraded_answers,
            r.devices.iter().map(|d| d.breaker.opened).sum::<u64>(),
        ));
    }

    let json = format!(
        "{{\n\
         \x20 \"bench\": \"pr6_chaos_resilience\",\n\
         \x20 \"pipeline\": \"solver_service\",\n\
         \x20 \"host\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},\n\
         \x20 \"config\": {{\"requests\": {requests}, \"devices\": {devices}, \"seed\": {seed}, \
         \"iterations\": {iterations}, \"crash_horizon\": {horizon}, \"retry_budget\": 2}},\n\
         \x20 \"note\": \"One fixed workload replayed at increasing worker-crash rates. \
         Crashed workers are restarted by the supervisor and their jobs retried with \
         deterministic backoff; every request is still answered (completed == requests, \
         degraded answers come from the CPU oracle when the retry budget is exhausted). \
         Throughput and latency columns are wall-clock and vary between hosts; the \
         completed/restart/retry/degraded columns are deterministic per rate.\",\n\
         \x20 \"runs\": [\n{}\n  ]\n\
         }}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        std::env::consts::OS,
        std::env::consts::ARCH,
        lines.join(",\n"),
    );
    std::fs::write(&out, json).expect("bench output writable");

    for run in &runs {
        let r = &run.report;
        println!(
            "crash rate {:>5}: {}/{} completed, {:.1} req/s, {} restarts, {} retries, {} degraded",
            run.crash_rate,
            r.completed,
            requests,
            r.completed as f64 / r.wall_seconds.max(1e-9),
            r.restarts,
            r.retried,
            run.degraded_answers,
        );
    }
    println!("wrote {out}");
}
