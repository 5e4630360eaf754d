//! Answer checks, the outcome hash, order statistics and host readings.

use cdd_core::eval::evaluator_for;
use cdd_core::{degraded_outcome, Cost, Instance};

/// Whether an answer is a correct, non-degraded solution of `inst`: the
/// sequence is a permutation of the instance's jobs and the exact
/// evaluator reproduces the returned objective.
pub fn answer_ok(inst: &Instance, sequence: &[u32], objective: Cost, degraded: bool) -> bool {
    if degraded || sequence.len() != inst.n() {
        return false;
    }
    let mut seen = vec![false; sequence.len()];
    for &job in sequence {
        match seen.get_mut(job as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return false,
        }
    }
    evaluator_for(inst).evaluate(sequence) == objective
}

/// One answered list request, as the outcome hash and quality see it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    pub content_key: u64,
    pub objective: Cost,
    pub sequence: Vec<u32>,
}

/// FNV-1a (64-bit) over the sorted outcome set: request content key,
/// objective and sequence of every row.
pub fn outcome_hash(outcomes: &[Outcome]) -> u64 {
    let mut rows: Vec<&Outcome> = outcomes.iter().collect();
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        eat(row.content_key);
        eat(row.objective as u64);
        eat(row.sequence.len() as u64);
        for &job in &row.sequence {
            eat(u64::from(job));
        }
    }
    h
}

/// Mean over `(instance, objective)` pairs of objective ÷ the V-shaped
/// heuristic's objective on the same instance (lower is better).
pub fn quality_ratio<'a>(answers: impl IntoIterator<Item = (&'a Instance, Cost)>) -> f64 {
    let ratios: Vec<f64> = answers
        .into_iter()
        .map(|(inst, objective)| objective as f64 / degraded_outcome(inst).objective as f64)
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Nearest-rank quantile of unsorted samples (`q` in `(0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in KiB.
pub fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Host cores and the 1/5/15-minute load averages at start.
pub struct Host {
    pub nproc: usize,
    pub loadavg: String,
}

impl Host {
    pub fn probe() -> Host {
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: loadavg
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::JobSequence;

    #[test]
    fn answer_check_rejects_bad_sequences_and_objectives() {
        let inst = Instance::paper_example_cdd();
        let seq = JobSequence::identity(5);
        assert!(answer_ok(&inst, seq.as_slice(), 81, false));
        assert!(
            !answer_ok(&inst, seq.as_slice(), 80, false),
            "wrong objective"
        );
        assert!(!answer_ok(&inst, seq.as_slice(), 81, true), "degraded");
        assert!(
            !answer_ok(&inst, &[0, 1, 2, 3, 3], 81, false),
            "repeated job"
        );
        assert!(
            !answer_ok(&inst, &[0, 1, 2, 3, 9], 81, false),
            "job out of range"
        );
        assert!(
            !answer_ok(&inst, &[0, 1, 2, 3], 81, false),
            "short sequence"
        );
    }

    #[test]
    fn outcome_hash_ignores_order_but_not_content() {
        let a = Outcome {
            content_key: 1,
            objective: 5,
            sequence: vec![0, 1],
        };
        let b = Outcome {
            content_key: 2,
            objective: 7,
            sequence: vec![1, 0],
        };
        let h = outcome_hash(&[a.clone(), b.clone()]);
        assert_eq!(h, outcome_hash(&[b.clone(), a.clone()]));
        let c = Outcome { objective: 6, ..b };
        assert_ne!(h, outcome_hash(&[a, c]));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
    }
}
