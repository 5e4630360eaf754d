//! solve-small and solve-large: a closed loop of in-process clients
//! against one long-lived `SolverService` on the native backend.

use crate::check::{answer_ok, quality_ratio, quantile, Outcome};
use crate::trace::{Layer, Tracer};
use crate::workload::{round_request, BenchRequest};
use crate::CLIENT_THREADS;
use cdd_core::{SolveOutcome, SuiteError};
use cdd_service::{Backend, ServiceConfig, ServiceReport, SolverService};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The service under test: two devices on the native backend, every
/// other setting at its default (1 × 64 geometry, queue 64, cache 256).
/// The backend is set explicitly because `Backend::default()` is the
/// simulator.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        devices: 2,
        backend: Backend::Native,
        ..Default::default()
    }
}

/// One timed request.
pub struct Sample {
    /// Index into the list.
    pub index: usize,
    pub latency: Duration,
    pub result: Result<SolveOutcome, SuiteError>,
}

/// The closed loop's answers, in no particular order.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: Duration,
}

/// Run round `round` of the closed loop over the whole list:
/// `CLIENT_THREADS` clients each send the list's next request (as
/// [`round_request`] makes it) and wait for its answer, so exactly
/// `CLIENT_THREADS` requests are in flight, one per device.
pub fn closed_loop(
    service: &SolverService,
    list: &[BenchRequest],
    round: u64,
    tracer: &Tracer,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let samples = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out distinct indices.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= list.len() {
                            return out;
                        }
                        let id = (round << 32) | index as u64;
                        let root = tracer.begin(Layer::Bench, "request", id, 0);
                        let request = round_request(&list[index], round);
                        let (result, latency) =
                            tracer.span(Layer::Service, "solve", id, root.id(), || {
                                service.solve(request)
                            });
                        tracer.end(root);
                        out.push(Sample {
                            index,
                            latency,
                            result,
                        });
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Phase {
        samples,
        wall: start.elapsed(),
    }
}

/// What one pass over the list hands back to the report.
pub struct Timed {
    pub attempted: u64,
    pub passed: u64,
    /// Latency of each list request, milliseconds (NaN when unanswered).
    pub latency_ms: Vec<f64>,
    pub wall: Duration,
    /// Outcomes of the list's requests (hash and quality input).
    pub outcomes: Vec<Outcome>,
    pub quality_ratio: f64,
    pub problems: Vec<String>,
}

/// Check every sample of round `round` against its request and summarise
/// the pass.
pub fn summarise(list: &[BenchRequest], round: u64, phase: &Phase) -> Timed {
    let mut passed = 0;
    let mut latency_ms = vec![f64::NAN; list.len()];
    let mut rows: Vec<(usize, Outcome)> = Vec::new();
    let mut problems = Vec::new();
    for s in &phase.samples {
        let req = &list[s.index].request;
        match &s.result {
            Ok(out) => {
                latency_ms[s.index] = s.latency.as_secs_f64() * 1e3;
                let ok = !out.cpu_fallback
                    && answer_ok(
                        &req.instance,
                        out.sequence.as_slice(),
                        out.objective,
                        out.degraded,
                    );
                passed += u64::from(ok);
                if !ok {
                    problems.push(format!("request {} answered wrongly", s.index));
                }
                rows.push((
                    s.index,
                    Outcome {
                        content_key: round_request(&list[s.index], round).content_key(),
                        objective: out.objective,
                        sequence: out.sequence.as_slice().to_vec(),
                    },
                ));
            }
            Err(e) => problems.push(format!("request {} failed: {e}", s.index)),
        }
    }
    rows.sort_by_key(|(i, _)| *i);
    let quality = quality_ratio(
        rows.iter()
            .map(|(i, o)| (&list[*i].request.instance, o.objective)),
    );
    Timed {
        attempted: phase.samples.len() as u64,
        passed,
        latency_ms,
        wall: phase.wall,
        outcomes: rows.into_iter().map(|(_, o)| o).collect(),
        quality_ratio: quality,
        problems,
    }
}

/// `algorithm/kind/n` of a request.
fn class_label(r: &BenchRequest) -> String {
    let kind = if r.entry.id.h.is_some() {
        "cdd"
    } else {
        "ucddcp"
    };
    format!("{}/{kind}/n{}", r.entry.algorithm, r.entry.id.n)
}

/// Print each class's best latencies next to the p50 and p90 over the
/// list, to show whether a percentile falls in a gap between classes
/// (where a small shift would move it far).
pub fn print_classes(list: &[BenchRequest], best_ms: &[f64]) {
    let mut by_class: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, ms) in list.iter().zip(best_ms) {
        by_class.entry(class_label(r)).or_default().push(*ms);
    }
    println!(
        "classes: best latency p50 {:.3} ms, p90 {:.3} ms over the list",
        quantile(best_ms, 0.5),
        quantile(best_ms, 0.9)
    );
    for (class, lat) in &by_class {
        println!(
            "  {class:<18} {:>3} requests  min {:>9.3}  max {:>9.3} ms",
            lat.len(),
            lat.iter().copied().fold(f64::INFINITY, f64::min),
            lat.iter().copied().fold(0.0, f64::max),
        );
    }
}

/// Mean device utilization and total device busy seconds of a report.
pub fn device_busy(report: &ServiceReport) -> (f64, f64) {
    let busy: f64 = report
        .devices
        .iter()
        .map(|d| d.usage.busy_wall_seconds)
        .sum();
    let util =
        report.devices.iter().map(|d| d.utilization).sum::<f64>() / report.devices.len() as f64;
    (util, busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{entries, materialise, Workload};

    #[test]
    fn unique_solve_requests_never_hit_the_cache() {
        let list = materialise(&entries(Workload::SolveSmall, 5));
        let list = &list[..48];
        let service = SolverService::start(service_config());
        let tracer = Tracer::new(false);
        let mut attempted = 0;
        for round in 0..3 {
            let timed = summarise(list, round, &closed_loop(&service, list, round, &tracer));
            assert!(timed.problems.is_empty(), "{:?}", timed.problems);
            assert_eq!((timed.attempted, timed.passed), (48, 48));
            assert!(timed.latency_ms.iter().all(|ms| ms.is_finite()));
            attempted += timed.attempted;
        }
        let report = service.shutdown();
        assert_eq!(
            report.cache.hits + report.cache.coalesced,
            0,
            "service.cache_hit_share is 0"
        );
        assert_eq!(report.cache.misses, attempted);
    }
}
