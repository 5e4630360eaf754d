//! perfbench: one workload against the native solve path per process.
//!
//! ```text
//! perfbench --workload <solve-small|solve-large|net-repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around every layer call, probes each layer
//! and prints the per-layer metrics. Either way every answer is checked,
//! the metrics are printed by name with their units, and the last line of
//! standard output is one JSON result object. A failed check makes the
//! result `"correct": false` and the exit code 1. See `NOTES.md`.

mod check;
mod inproc;
mod net;
mod probe;
mod trace;
mod workload;

use check::{median, outcome_hash, quality_ratio, quantile, status_kib, Host, Outcome};
use probe::Probe;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{materialise, Workload};

/// Client threads of the in-process closed loop: one request in flight per
/// service device.
pub const CLIENT_THREADS: usize = 2;

/// Requests in flight in every workload's closed loop: one per service
/// device (solve-* clients, net-repeat's window).
const IN_FLIGHT: usize = CLIENT_THREADS;
const _: () = assert!(net::WINDOW == IN_FLIGHT);

/// Connections net-repeat holds open at once.
const CONNECTIONS: usize = 1;

/// Fewest rounds in a run. A solve-* round answers the workload's list
/// once on the run's service; a net-repeat round starts a node, warms it
/// and asks for the works on one fresh connection until it reaches
/// `net::MAX_REQUESTS_PER_CONNECTION` or a fifth of the run's seconds.
/// Rounds continue until the timed phases add up to the run's seconds.
const MIN_PHASES: usize = 5;

/// Repeat requests of the traced run's loopback probe on solve-*.
const NET_PROBE_REQUESTS: usize = 4_000;

/// Requests whose spans the Chrome trace file keeps (all spans are
/// checked); net-repeat records over 200k requests per traced run.
const TRACE_FILE_REQUESTS: usize = 4_096;

/// Span request-id bases of the loopback phases.
const NET_WARM_BASE: u64 = 2 << 40;
const NET_REPEAT_BASE: u64 = 3 << 40;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_share", "share"),
    ("quality_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.eval_ns", "ns"),
    ("core.content_key_us", "us"),
    ("instances.instantiate_us", "us"),
    ("gpu.solve_ms_p50", "ms"),
    ("gpu.busy_s", "s"),
    ("gpu.evaluations", "count"),
    ("gpu.kernel_launches", "count"),
    ("gpu.launch_overhead_us", "us"),
    ("gpu.evaluator_share", "share"),
    ("sim.solve_ms_p50", "ms"),
    ("sim.native_ratio", "ratio"),
    ("service.overhead_ms_p50", "ms"),
    ("service.hit_latency_us_p50", "us"),
    ("service.cache_hit_share", "share"),
    ("service.worker_utilization", "share"),
    ("service.failed", "count"),
    ("service.rejected", "count"),
    ("service.retried", "count"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.bytes_per_request", "bytes"),
    ("net.overhead_us_p50", "us"),
    ("net.rss_kib_per_request", "KiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
    })
}

/// One timed phase.
struct Phase {
    attempted: u64,
    passed: u64,
    wall_s: f64,
    /// Answers per second of the timed phase.
    throughput_rps: f64,
    /// Per list request: its best latency in this phase, milliseconds.
    best_ms: Vec<f64>,
    /// Answers timed in this phase.
    samples: usize,
}

impl Phase {
    fn new(
        attempted: u64,
        passed: u64,
        wall: Duration,
        samples: usize,
        best_ms: Vec<f64>,
    ) -> Phase {
        Phase {
            attempted,
            passed,
            wall_s: wall.as_secs_f64(),
            throughput_rps: samples as f64 / wall.as_secs_f64(),
            best_ms,
            samples,
        }
    }
}

/// What one workload run measured.
#[derive(Default)]
struct Run {
    phases: Vec<Phase>,
    /// Seconds of each set-up.
    setups: Vec<f64>,
    /// Outcome hash and quality ratio of the list's requests as generated.
    det: Option<(u64, f64)>,
    problems: Vec<String>,
    /// Per-layer metrics, traced runs only.
    layers: Vec<(&'static str, f64)>,
}

impl Run {
    /// Whether another phase is due: at least [`MIN_PHASES`], and timed
    /// phases summing to the run's seconds.
    fn wants_phase(&self, seconds: f64) -> bool {
        self.phases.len() < MIN_PHASES
            || self.phases.iter().map(|p| p.wall_s).sum::<f64>() < seconds
    }

    /// Record the outcomes of the list's requests as generated; every
    /// record after the first must repeat it exactly.
    fn record_outcomes(&mut self, outcomes: &[Outcome], quality: f64) {
        let det = (outcome_hash(outcomes), quality);
        match self.det {
            None => self.det = Some(det),
            Some((hash, q)) if (hash, q.to_bits()) != (det.0, det.1.to_bits()) => self
                .problems
                .push("the list's outcomes differ between rounds".to_string()),
            Some(_) => {}
        }
    }

    /// Per list request: its best latency over every round, milliseconds.
    /// The best of many tries is the latency the host's other tenants
    /// disturb least (see NOTES.md, "Noise").
    fn best_ms(&self) -> Vec<f64> {
        let mut best = self.phases[0].best_ms.clone();
        for p in &self.phases[1..] {
            for (b, ms) in best.iter_mut().zip(&p.best_ms) {
                *b = b.min(*ms);
            }
        }
        best
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host nproc={} loadavg={}", host.nproc, host.loadavg);
    if CLIENT_THREADS > host.nproc || CONNECTIONS > host.nproc {
        eprintln!(
            "perfbench: refusing a load generator of {CLIENT_THREADS} threads and {CONNECTIONS} \
             connection(s) on {} core(s): it would measure the OS scheduler's queue, not the service",
            host.nproc
        );
        std::process::exit(2);
    }
    let tracer = Tracer::new(args.trace);
    let run = match args.workload {
        Workload::SolveSmall | Workload::SolveLarge => run_in_process(&args, &tracer),
        Workload::NetRepeat => run_net_repeat(&args, &tracer),
    };
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        finish_trace(&args, &tracer, &mut run);
    }
    report(&args, run);
}

fn run_in_process(args: &Args, tracer: &Tracer) -> Result<Run, String> {
    let w = args.workload;
    let entries = workload::entries(w, args.seed);
    // The probe runs first, so nothing else runs beside the measured
    // service.
    let probed = tracer
        .on()
        .then(|| probe_with_net(&materialise(&entries), tracer));
    let mut run = Run::default();
    // The first set-up's service answers every round; after each round
    // the benchmark sets up once more and shuts that service down at once,
    // so the set-ups sample the same stretch of time as the rounds.
    let set_up = |run: &mut Run| {
        let t = Instant::now();
        let list = materialise(&entries);
        let service = cdd_service::SolverService::start(inproc::service_config());
        run.setups.push(t.elapsed().as_secs_f64());
        (list, service)
    };
    let (list, service) = set_up(&mut run);
    while run.wants_phase(args.seconds) {
        let round = run.phases.len() as u64;
        let phase = inproc::closed_loop(&service, &list, round, tracer);
        let timed = inproc::summarise(&list, round, &phase);
        if round == 0 {
            run.record_outcomes(&timed.outcomes, timed.quality_ratio);
        }
        run.phases.push(Phase::new(
            timed.attempted,
            timed.passed,
            timed.wall,
            timed.latency_ms.iter().filter(|ms| ms.is_finite()).count(),
            timed.latency_ms,
        ));
        run.problems.extend(timed.problems);
        set_up(&mut run).1.shutdown();
    }
    let report = service.shutdown();
    inproc::print_classes(&list, &run.best_ms());
    if let Some(probed) = probed {
        let (probe, repeat) = probed?;
        run.problems.extend(repeat.drive.problems.iter().cloned());
        let hit_share =
            (report.cache.hits + report.cache.coalesced) as f64 / report.submitted.max(1) as f64;
        run.layers = layer_metrics(&probe, &report, hit_share, &repeat);
        run.problems.extend(probe.problems);
    }
    Ok(run)
}

/// The layer probe plus, for solve-*, a loopback node that answers the
/// list's requests and then repeats them, for the `net.*` path metrics.
fn probe_with_net(
    list: &[workload::BenchRequest],
    tracer: &Tracer,
) -> Result<(Probe, net::Repeat), String> {
    let probe = probe::run(list, tracer);
    let warm = net::start_warm(list, tracer, NET_WARM_BASE)?;
    let repeat = net::repeat(
        &warm,
        list,
        NET_PROBE_REQUESTS,
        None,
        tracer,
        NET_REPEAT_BASE,
    );
    warm.stop();
    Ok((probe, repeat?))
}

fn run_net_repeat(args: &Args, tracer: &Tracer) -> Result<Run, String> {
    let entries = workload::entries(Workload::NetRepeat, args.seed);
    let probe = tracer
        .on()
        .then(|| probe::run(&materialise(&entries), tracer));
    let mut run = Run::default();
    let mut last = None;
    while run.wants_phase(args.seconds) {
        let t = Instant::now();
        let works = materialise(&entries);
        let warm = net::start_warm(&works, &Tracer::new(false), NET_WARM_BASE)?;
        run.setups.push(t.elapsed().as_secs_f64());
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / MIN_PHASES as f64);
        let base = (run.phases.len() as u64) << 32;
        let repeat = net::repeat(
            &warm,
            &works,
            net::MAX_REQUESTS_PER_CONNECTION,
            Some(deadline),
            tracer,
            base,
        );
        let outcomes = warm.outcomes(&works);
        let node_report = warm.stop();
        let repeat = repeat?;
        let d = &repeat.drive;
        let quality = quality_ratio(
            works
                .iter()
                .zip(&outcomes)
                .map(|(w, o)| (&w.request.instance, o.objective)),
        );
        run.record_outcomes(&outcomes, quality);
        run.phases.push(Phase::new(
            d.attempted,
            d.passed,
            d.wall,
            d.latencies_us.len(),
            d.best_us.iter().map(|us| us / 1e3).collect(),
        ));
        run.problems.extend(d.problems.iter().cloned());
        last = Some((node_report, repeat));
    }
    if let Some(probe) = probe {
        let (node_report, repeat) = last.expect("at least one phase");
        run.layers = layer_metrics(
            &probe,
            &node_report.service,
            repeat.cache_hit_share,
            &repeat,
        );
        run.problems.extend(probe.problems);
    }
    Ok(run)
}

/// The per-layer metrics from the probe, the measured run's service
/// report and the run's loopback repeat phase.
fn layer_metrics(
    p: &Probe,
    service: &cdd_service::ServiceReport,
    cache_hit_share: f64,
    repeat: &net::Repeat,
) -> Vec<(&'static str, f64)> {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (utilization, busy_s) = inproc::device_busy(service);
    let hit_us = median(&p.hit_latency_us);
    vec![
        ("core.eval_ns", mean(&p.eval_ns)),
        ("core.content_key_us", mean(&p.content_key_us)),
        ("instances.instantiate_us", mean(&p.instantiate_us)),
        ("gpu.solve_ms_p50", median(&p.gpu_solve_s) * 1e3),
        ("gpu.busy_s", busy_s),
        ("gpu.evaluations", p.gpu_evaluations as f64),
        ("gpu.kernel_launches", p.gpu_launches as f64),
        ("gpu.launch_overhead_us", p.launch_overhead_us()),
        ("gpu.evaluator_share", p.evaluator_share()),
        ("sim.solve_ms_p50", median(&p.sim_solve_s) * 1e3),
        ("sim.native_ratio", p.sim_native_ratio()),
        ("service.overhead_ms_p50", median(&p.service_overhead_ms)),
        ("service.hit_latency_us_p50", hit_us),
        ("service.cache_hit_share", cache_hit_share),
        ("service.worker_utilization", utilization),
        ("service.failed", service.failed as f64),
        ("service.rejected", service.rejected as f64),
        ("service.retried", service.retried as f64),
        ("net.encode_us", mean(&p.encode_us)),
        ("net.decode_us", mean(&p.decode_us)),
        (
            "net.bytes_per_request",
            p.frame_bytes as f64 / p.gpu_solve_s.len().max(1) as f64,
        ),
        (
            "net.overhead_us_p50",
            median(&repeat.drive.latencies_us) - hit_us,
        ),
        ("net.rss_kib_per_request", repeat.rss_kib_per_request),
    ]
}

/// Check the span tree, print per-layer self time and write the Chrome
/// trace under `.bench_out/`.
fn finish_trace(args: &Args, tracer: &Tracer, run: &mut Run) {
    let spans = tracer.finish();
    let st = trace::self_times(&spans);
    let total: u64 = st.by_layer.values().sum();
    println!(
        "trace: {} spans, {} requests; self time by layer:",
        spans.len(),
        st.requests
    );
    for (layer, ns) in &st.by_layer {
        println!(
            "  {:<16} {:>12.3} ms  {:>6.2} %",
            layer.name(),
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    run.problems.extend(st.problems.into_iter().take(8));
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let sink = trace::chrome_trace(
        &spans,
        &format!("perfbench {}", args.workload.name()),
        TRACE_FILE_REQUESTS,
    );
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, sink.render_chrome_json()))
    {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => run
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

/// Print every metric with its unit, the deterministic companions and the
/// JSON result line; exit 1 when a check failed.
fn report(args: &Args, run: Run) {
    let phases = &run.phases;
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed = attempted - phases.iter().map(|p| p.passed).sum::<u64>();
    let best = run.best_ms();
    let det = run.det.unwrap_or((0, f64::NAN));
    let mut problems = run.problems;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = run
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            metrics.push((name, value, unit));
        }
    } else {
        let values = [
            IN_FLIGHT as f64 * 1e3 / (best.iter().sum::<f64>() / best.len() as f64),
            quantile(&best, 0.5),
            quantile(&best, 0.9),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            det.1,
            median(&run.setups),
            status_kib("VmHWM") / 1024.0,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("metric {name:<28} {value:>16.6} {unit}");
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a number"));
        }
    }
    for (i, p) in phases.iter().enumerate() {
        println!(
            "round {i}: {} latencies over {:.3} s, {:.2} req/s, best p50 {:.4} ms",
            p.samples,
            p.wall_s,
            p.throughput_rps,
            quantile(&p.best_ms, 0.5)
        );
    }
    println!(
        "samples: {} latencies in {} rounds, each of the {} list requests at its best \
         over them; {attempted} attempted, {failed} failed",
        phases.iter().map(|p| p.samples).sum::<usize>(),
        phases.len(),
        phases[0].best_ms.len()
    );
    println!(
        "set-up: {} times, median {:.4} ms, min {:.4} ms, max {:.4} ms",
        run.setups.len(),
        median(&run.setups) * 1e3,
        run.setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        run.setups.iter().copied().fold(0.0, f64::max) * 1e3
    );
    let mut det_line = format!(
        "det workload={} seed={} outcome_hash={:016x} quality_ratio={:?} success_share={:?}",
        args.workload.name(),
        args.seed,
        det.0,
        det.1,
        (attempted - failed) as f64 / attempted.max(1) as f64
    );
    for name in [
        "gpu.evaluations",
        "gpu.kernel_launches",
        "net.bytes_per_request",
    ] {
        if let Some((_, v)) = run.layers.iter().find(|(n, _)| *n == name) {
            det_line.push_str(&format!(" {name}={v}"));
        }
    }
    println!("{det_line}");
    for p in problems.iter().take(16) {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_and_counts_fit_the_result_schema() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "metric names are used once");
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn benchmark_json_and_layer_map_name_every_metric() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let spec = std::fs::read_to_string(dir.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let map = std::fs::read_to_string(dir.join("layers.json")).expect("layers.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in PER_LAYER {
            assert!(
                map.contains(&format!("\"{name}\"")),
                "layers.json lacks {name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", w.name())),
                "workload {}",
                w.name()
            );
        }
    }
}
