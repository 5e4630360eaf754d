//! The three workloads and their seeded request lists.
//!
//! Every request is drawn with the repository's own workload generator
//! (`cdd_bench::workload::generate_unique_tenants`), so solve-* lists hold
//! only distinct content keys. The draws are then bucketed into the eight
//! request classes (SA/DPSO × CDD/UCDDCP × two sizes) and interleaved, one
//! request of each class in turn, so a list has the same class mix, and
//! the latency percentiles the same blend of solve costs, on every seed.
//!
//! A list is short: every round of a run answers all of it, and a
//! request's latency is the best it got over the rounds.

use cdd_bench::workload::{generate_unique_tenants, WorkloadEntry, DEFAULT_TENANTS};
use cdd_core::{Algorithm, SolveRequest};
use std::collections::BTreeMap;

/// Generation budget of every request.
pub const ITERATIONS: u64 = 200;

/// Request classes in a list: algorithm × problem kind × size.
pub const CLASSES: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, unique content, n ∈ {10, 20}: launch framework and
    /// service hand-off dominate.
    SolveSmall,
    /// In-process, unique content, n ∈ {500, 1000}: the evaluator scan
    /// dominates.
    SolveLarge,
    /// Loopback node, 16 works repeated as cache hits: frame codec, node
    /// admission and the service cache path; no solver work.
    NetRepeat,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [
        Workload::SolveSmall,
        Workload::SolveLarge,
        Workload::NetRepeat,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveSmall => "solve-small",
            Workload::SolveLarge => "solve-large",
            Workload::NetRepeat => "net-repeat",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The two job counts the workload's requests use.
    pub fn sizes(self) -> [usize; 2] {
        match self {
            Workload::SolveSmall => [10, 20],
            Workload::SolveLarge | Workload::NetRepeat => [500, 1000],
        }
    }

    /// Requests per class in the workload's list. Every round answers the
    /// whole list, and a request's latency is its best over the rounds, so
    /// the list is short enough to be answered many times in a run: about
    /// 0.2 s a pass for solve-small, 0.4 s for solve-large on a 2-core
    /// host. net-repeat's list is its 16 repeated works.
    fn per_class(self) -> usize {
        match self {
            Workload::SolveSmall => 16,
            Workload::SolveLarge => 2,
            Workload::NetRepeat => 2,
        }
    }
}

/// A generated request: the workload line it came from and the
/// materialised service request (instance included).
#[derive(Debug, Clone)]
pub struct BenchRequest {
    pub entry: WorkloadEntry,
    pub request: SolveRequest,
}

/// The class of an entry: `(algorithm, is CDD, n)`.
fn class_of(e: &WorkloadEntry) -> (u8, bool, usize) {
    let algorithm = match e.algorithm {
        Algorithm::Sa => 0,
        Algorithm::Dpso => 1,
    };
    (algorithm, e.id.h.is_some(), e.id.n)
}

/// The workload's list for `seed`, class-interleaved (no instances yet).
pub fn entries(workload: Workload, seed: u64) -> Vec<WorkloadEntry> {
    let per_class = workload.per_class();
    let mut draws = per_class * CLASSES * 2;
    loop {
        let mut buckets: BTreeMap<(u8, bool, usize), Vec<WorkloadEntry>> = BTreeMap::new();
        for e in
            generate_unique_tenants(draws, seed, ITERATIONS, &workload.sizes(), DEFAULT_TENANTS)
        {
            let bucket = buckets.entry(class_of(&e)).or_default();
            if bucket.len() < per_class {
                bucket.push(e);
            }
        }
        if buckets.len() == CLASSES && buckets.values().all(|b| b.len() == per_class) {
            let buckets: Vec<Vec<WorkloadEntry>> = buckets.into_values().collect();
            return (0..per_class)
                .flat_map(|i| buckets.iter().map(move |b| b[i].clone()))
                .collect();
        }
        draws *= 2;
    }
}

/// Materialise a list: instantiate each entry's problem instance.
pub fn materialise(entries: &[WorkloadEntry]) -> Vec<BenchRequest> {
    entries
        .iter()
        .map(|entry| BenchRequest {
            request: entry.to_request(),
            entry: entry.clone(),
        })
        .collect()
}

/// The request a solve-* round sends for a list entry: round 0 sends it
/// as generated; a later round changes only the solver seed, so the
/// service's cache never answers it while the solve does the same work
/// (launches and evaluations do not depend on the seed).
pub fn round_request(r: &BenchRequest, round: u64) -> SolveRequest {
    let mut request = r.request.clone();
    request.seed = request
        .seed
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic_and_changes_with_the_seed() {
        for w in Workload::ALL {
            let a = entries(w, 7);
            assert_eq!(a, entries(w, 7), "{}", w.name());
            assert_ne!(a, entries(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn every_prefix_of_a_list_cycles_through_the_eight_classes() {
        for w in Workload::ALL {
            let pool = entries(w, 11);
            assert_eq!(pool.len(), w.per_class() * CLASSES);
            for block in pool.chunks(CLASSES) {
                let classes: BTreeSet<_> = block.iter().map(class_of).collect();
                assert_eq!(classes.len(), CLASSES, "{}", w.name());
            }
            assert!(pool
                .iter()
                .all(|e| w.sizes().contains(&e.id.n) && e.iterations == ITERATIONS));
        }
    }

    #[test]
    fn solve_requests_have_unique_content_keys() {
        for w in [
            Workload::SolveSmall,
            Workload::SolveLarge,
            Workload::NetRepeat,
        ] {
            let pool = materialise(&entries(w, 3));
            let keys: BTreeSet<u64> = pool.iter().map(|r| r.request.content_key()).collect();
            assert_eq!(keys.len(), pool.len(), "{}", w.name());
        }
    }

    #[test]
    fn later_rounds_change_only_the_solver_seed() {
        let list = materialise(&entries(Workload::SolveLarge, 3));
        let mut keys = BTreeSet::new();
        for round in 0..4 {
            for r in &list {
                let request = round_request(r, round);
                assert_eq!(request.instance, r.request.instance);
                assert_eq!(request.iterations, r.request.iterations);
                assert_eq!((round == 0), (request.seed == r.request.seed));
                keys.insert(request.content_key());
            }
        }
        assert_eq!(keys.len(), 4 * list.len(), "no round repeats a content key");
    }

    #[test]
    fn net_repeat_has_sixteen_works() {
        assert_eq!(entries(Workload::NetRepeat, 1).len(), 16);
    }
}
