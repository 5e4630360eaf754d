//! The O(n) fixed-sequence optimizer for the **CDD** problem
//! (Lässig, Awasthi, Kramer 2014 — reference [7] of the paper).
//!
//! For a fixed job order, an optimal schedule has no machine idle time
//! between jobs (Cheng & Kahlbacher 1991), so it is fully described by the
//! start time `s ≥ 0` of the first job. The total penalty is a convex
//! piecewise-linear function of `s`, and an optimal schedule has either
//! `s = 0` or some job completing exactly at the due date (Hall, Kubiak &
//! Sethi 1991). The paper's Theorem 1 yields the O(n) procedure implemented
//! here:
//!
//! 1. Start every job as early as possible (`s = 0`); let `τ` be the last
//!    position completing at or before `d`, `pe = Σ α` over positions
//!    `1..=τ` and `pl = Σ β` over positions `τ+1..=n`.
//! 2. If `pl ≥ pe`, shifting right cannot improve: `s = 0` is optimal.
//! 3. Otherwise shift right so position `τ` completes exactly at `d`, then
//!    keep shifting job-by-job (each shift makes position `τ` tardy and
//!    aligns position `τ−1` with `d`) while the updated sums still satisfy
//!    `pl < pe`.
//!
//! The functions in this module operate on raw parallel arrays
//! (`P`, `α`, `β` indexed by *job id*, plus the sequence `position → job`)
//! so the identical code runs inside `cuda-sim` GPU kernels and on the CPU.

use crate::{Cost, Instance, JobSequence, Time};

/// Result of optimizing one job sequence for the CDD problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CddSequenceSolution {
    /// Minimal total weighted earliness/tardiness penalty.
    pub objective: Cost,
    /// Optimal start time of the first job (the right-shift applied to the
    /// packed-at-zero schedule).
    pub shift: Time,
    /// `r`: the number of sequence positions completing at or before the due
    /// date in the optimal schedule (1-based index of the *due-date
    /// position*). If `r > 0` and the schedule was shifted, position `r`
    /// completes exactly at `d`.
    pub due_position: usize,
}

/// Compute the optimal right-shift for a packed schedule of `seq` and the
/// resulting due-date position `r` (see [`CddSequenceSolution::due_position`]).
///
/// `p`, `alpha`, `beta` are indexed by **job id**; `seq[k]` is the job id
/// processed at position `k`. Runs in O(n) with zero allocation.
pub fn cdd_optimal_shift_raw(
    p: &[Time],
    alpha: &[Time],
    beta: &[Time],
    d: Time,
    seq: &[u32],
) -> (Time, usize) {
    // Pass 1: packed completion times; find τ (last position with C ≤ d)
    // and the penalty-rate sums on each side of the due date.
    let mut c: Time = 0;
    let mut tau: usize = 0;
    let mut c_tau: Time = 0;
    let mut pe: Time = 0;
    let mut pl: Time = 0;
    for (k, &j) in seq.iter().enumerate() {
        let j = j as usize;
        c += p[j];
        if c <= d {
            tau = k + 1;
            c_tau = c;
            pe += alpha[j];
        } else {
            pl += beta[j];
        }
    }
    if tau == 0 || pl >= pe {
        // All jobs tardy, or right-shifting gains nothing: packed is optimal.
        return (0, tau);
    }
    // Align position τ with the due date (gain (pe − pl) per unit shifted).
    let mut shift = d - c_tau;
    // Keep shifting while making position τ tardy still pays off
    // (Theorem 1, Case 2(ii)).
    while tau >= 1 {
        let j = seq[tau - 1] as usize;
        let pe_next = pe - alpha[j];
        let pl_next = pl + beta[j];
        if pl_next < pe_next {
            shift += p[j];
            pe = pe_next;
            pl = pl_next;
            tau -= 1;
        } else {
            break;
        }
    }
    (shift, tau)
}

/// Total CDD penalty of the packed schedule of `seq` right-shifted by
/// `shift`. O(n), zero allocation.
pub fn cdd_objective_with_shift(
    p: &[Time],
    alpha: &[Time],
    beta: &[Time],
    d: Time,
    seq: &[u32],
    shift: Time,
) -> Cost {
    let mut c = shift;
    let mut obj: Cost = 0;
    for &j in seq {
        let j = j as usize;
        c += p[j];
        if c < d {
            obj += alpha[j] * (d - c);
        } else {
            obj += beta[j] * (c - d);
        }
    }
    obj
}

/// Optimal CDD objective for one sequence, on raw arrays. This is the
/// *fitness function* evaluated by every metaheuristic thread (CPU and GPU).
///
/// One forward pass over the sequence, with no second evaluation pass: it
/// finds `τ`, `pe` and `pl` as [`cdd_optimal_shift_raw`] does and also sums
/// `Σ α·C` over the positions completing at or before `d` and `Σ β·C`
/// over the others (`C` = packed completion time). The right-shift walk
/// then moves each position it makes tardy from one sum to the other, and
/// the objective follows in closed form from the final shift `s`:
///
/// ```text
/// (d − s)·pe − Σ α·C + Σ β·C + (s − d)·pl
/// ```
///
/// Every position before the final due-date position completes at or
/// before `d` after the shift and every later one at or after it, so this
/// equals [`cdd_objective_with_shift`] at the optimal shift exactly. The
/// sums use wrapping integer arithmetic: the result is exact whenever the
/// objective itself fits in an `i64`, even if an intermediate sum does not.
///
/// `p`, `alpha`, `beta` are indexed by **job id**; every id in `seq` must
/// index all three (checked once, up front).
#[inline]
pub fn cdd_objective_raw(
    p: &[Time],
    alpha: &[Time],
    beta: &[Time],
    d: Time,
    seq: &[u32],
) -> Cost {
    // One vectorizable pass validates every job id against the shortest
    // array; afterwards each gather below is in bounds by construction.
    let limit = p.len().min(alpha.len()).min(beta.len());
    assert!(
        seq.iter().all(|&j| (j as usize) < limit),
        "cdd_objective_raw: sequence contains a job id outside the instance"
    );

    let mut c: Time = 0;
    let mut tau: usize = 0;
    let mut c_tau: Time = 0;
    let mut pe: Time = 0;
    let mut pl: Time = 0;
    let mut alpha_c: Cost = 0;
    let mut beta_c: Cost = 0;
    for (k, &job) in seq.iter().enumerate() {
        let j = job as usize;
        // SAFETY: every id in `seq` was validated above against the
        // shortest of the three arrays.
        unsafe {
            c = c.wrapping_add(*p.get_unchecked(j));
            if c <= d {
                let aj = *alpha.get_unchecked(j);
                tau = k + 1;
                c_tau = c;
                pe = pe.wrapping_add(aj);
                alpha_c = alpha_c.wrapping_add(aj.wrapping_mul(c));
            } else {
                let bj = *beta.get_unchecked(j);
                pl = pl.wrapping_add(bj);
                beta_c = beta_c.wrapping_add(bj.wrapping_mul(c));
            }
        }
    }

    let mut shift: Time = 0;
    if tau > 0 && pl < pe {
        // Align position τ with the due date, then keep shifting while
        // making position τ tardy still pays off (Theorem 1, Case 2(ii)).
        shift = d - c_tau;
        while tau >= 1 {
            // SAFETY: `tau - 1 < seq.len()` and every id was validated.
            let j = unsafe { *seq.get_unchecked(tau - 1) } as usize;
            let (pj, aj, bj) =
                unsafe { (*p.get_unchecked(j), *alpha.get_unchecked(j), *beta.get_unchecked(j)) };
            let pe_next = pe - aj;
            let pl_next = pl + bj;
            if pl_next >= pe_next {
                break;
            }
            // Position τ turns tardy: its term moves from the α·C sum to
            // the β·C sum, and its predecessor becomes the aligned one.
            alpha_c = alpha_c.wrapping_sub(aj.wrapping_mul(c_tau));
            beta_c = beta_c.wrapping_add(bj.wrapping_mul(c_tau));
            c_tau -= pj;
            shift += pj;
            pe = pe_next;
            pl = pl_next;
            tau -= 1;
        }
    }
    (d - shift)
        .wrapping_mul(pe)
        .wrapping_sub(alpha_c)
        .wrapping_add(beta_c)
        .wrapping_add((shift - d).wrapping_mul(pl))
}

/// Optimize one job sequence of a CDD (or UCDDCP, ignoring compression)
/// instance: returns the optimal shift, due-date position and objective.
///
/// # Panics
/// Panics if `seq.len() != inst.n()` (debug builds assert the permutation
/// invariant too; [`JobSequence`] guarantees it in safe code).
pub fn optimize_cdd_sequence(inst: &Instance, seq: &JobSequence) -> CddSequenceSolution {
    assert_eq!(
        seq.len(),
        inst.n(),
        "sequence length {} does not match instance size {}",
        seq.len(),
        inst.n()
    );
    debug_assert!(seq.is_valid_permutation());
    let (p, _, a, b, _) = inst.to_arrays();
    let (shift, r) = cdd_optimal_shift_raw(&p, &a, &b, inst.due_date(), seq.as_slice());
    let objective = cdd_objective_with_shift(&p, &a, &b, inst.due_date(), seq.as_slice(), shift);
    CddSequenceSolution { objective, shift, due_position: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    /// The paper's worked example (Section IV-A): data of Table I, d = 16,
    /// identity sequence. The paper walks the algorithm to an optimum of 81
    /// with job 2 (1-based) finishing at the due date.
    #[test]
    fn paper_illustration_reaches_81() {
        let inst = Instance::paper_example_cdd();
        let seq = JobSequence::identity(5);
        let sol = optimize_cdd_sequence(&inst, &seq);
        assert_eq!(sol.objective, 81);
        // Final schedule: C = {11, 16, 18, 22, 26} → shift 5, job at position
        // 2 (1-based) completes at d = 16.
        assert_eq!(sol.shift, 5);
        assert_eq!(sol.due_position, 2);
    }

    /// Intermediate quantities of the paper's walk-through: packed completion
    /// times {6,11,13,17,21}, DT = {-10,-5,-3,1,5}, pe = 22, pl = 5.
    #[test]
    fn paper_illustration_packed_penalty() {
        let inst = Instance::paper_example_cdd();
        let (p, _, a, b, _) = inst.to_arrays();
        let seq = JobSequence::identity(5);
        // Packed (shift 0): E = {10,5,3}, T = {1,5}
        // → 7·10 + 9·5 + 6·3 + 3·1 + 2·5 = 70+45+18+3+10 = 146.
        let packed = cdd_objective_with_shift(&p, &a, &b, 16, seq.as_slice(), 0);
        assert_eq!(packed, 146);
        // After the first alignment (shift 3): job 3 at d.
        let aligned = cdd_objective_with_shift(&p, &a, &b, 16, seq.as_slice(), 3);
        // E = {7,2,0}, T = {4,8} → 49+18+0+12+16 = 95.
        assert_eq!(aligned, 95);
    }

    #[test]
    fn all_tardy_when_due_date_zero() {
        let inst = Instance::cdd_from_arrays(&[3, 2], &[5, 5], &[1, 1], 0).unwrap();
        let seq = JobSequence::identity(2);
        let sol = optimize_cdd_sequence(&inst, &seq);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 0);
        // C = {3,5}: T = {3,5} → 3+5 = 8.
        assert_eq!(sol.objective, 8);
    }

    #[test]
    fn no_shift_when_tardiness_dominates() {
        // β large: packing at zero is optimal even though job 1 is early.
        let inst = Instance::cdd_from_arrays(&[2, 2], &[1, 1], &[100, 100], 3).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.shift, 0);
        // C = {2,4}: E1 = 1 → 1, T2 = 1 → 100. Total 101.
        assert_eq!(sol.objective, 101);
    }

    #[test]
    fn unrestricted_all_alpha_zero_stays_packed() {
        // Earliness free: packed schedule already costs 0.
        let inst = Instance::cdd_from_arrays(&[4, 4], &[0, 0], &[7, 7], 100).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.objective, 0);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 2);
    }

    #[test]
    fn unrestricted_shifts_to_due_date() {
        // One job, huge due date: job should complete exactly at d.
        let inst = Instance::cdd_from_arrays(&[5], &[3], &[4], 50).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(1));
        assert_eq!(sol.objective, 0);
        assert_eq!(sol.shift, 45);
        assert_eq!(sol.due_position, 1);
    }

    #[test]
    fn single_job_restricted() {
        let inst = Instance::cdd_from_arrays(&[10], &[3], &[4], 4).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(1));
        // C = 10 > 4 always (cannot start before 0): T = 6 → 24.
        assert_eq!(sol.objective, 24);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 0);
    }

    #[test]
    fn sequence_order_matters() {
        let inst = Instance::paper_example_cdd();
        let a = optimize_cdd_sequence(&inst, &JobSequence::identity(5)).objective;
        let b = optimize_cdd_sequence(
            &inst,
            &JobSequence::from_vec(vec![4, 3, 2, 1, 0]).unwrap(),
        )
        .objective;
        assert_ne!(a, b);
    }

    #[test]
    fn tie_between_shift_and_no_shift_is_consistent() {
        // pe == pl: both packed and shifted schedules are optimal; the
        // algorithm must return the packed one and still be optimal.
        let inst = Instance::cdd_from_arrays(&[2, 2], &[3, 0], &[0, 3], 2).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.shift, 0);
        // C = {2,4}: job 1 on time (E = 0), job 2 tardy by 2 → β·T = 3·2 = 6.
        assert_eq!(sol.objective, 6);
    }

    /// The single-pass `cdd_objective_raw` must equal the two-pass oracle
    /// (`cdd_optimal_shift_raw` + `cdd_objective_with_shift`) on every size
    /// class, on all three due-date regimes (`d = 0`, restrictive,
    /// `d ≥ Σ p`) and with data at the 2²⁰ value cap the fitness kernel
    /// accepts, where the `Σ α·C` / `Σ β·C` sums reach ~2⁶⁰ at n = 1000.
    #[test]
    fn single_pass_objective_matches_two_pass_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const VALUE_CAP: Time = 1 << 20;
        let mut rng = StdRng::seed_from_u64(0xCDD0);
        for case in 0..600usize {
            let n = [0usize, 1, 2, 5, 50, 1000][case % 6];
            let (lo, hi) = match (case / 6) % 4 {
                0 => (1, 20),
                1 => (0, 20),
                2 => (VALUE_CAP / 2, VALUE_CAP),
                _ => (VALUE_CAP, VALUE_CAP),
            };
            let p: Vec<Time> = (0..n).map(|_| rng.gen_range(lo.max(1)..=hi)).collect();
            let a: Vec<Time> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
            let b: Vec<Time> = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
            let sum_p: Time = p.iter().sum();
            let d = match (case / 24) % 3 {
                0 => 0,
                1 => rng.gen_range(0..=sum_p),
                _ => sum_p + rng.gen_range(0..=VALUE_CAP),
            };
            let seq = JobSequence::random(n, &mut rng);
            let s = seq.as_slice();
            let (shift, _) = cdd_optimal_shift_raw(&p, &a, &b, d, s);
            let oracle = cdd_objective_with_shift(&p, &a, &b, d, s, shift);
            assert_eq!(
                cdd_objective_raw(&p, &a, &b, d, s),
                oracle,
                "case {case}: n={n} d={d} values {lo}..={hi}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "job id outside the instance")]
    fn raw_objective_rejects_out_of_range_job_ids() {
        let p = [1, 2, 3];
        cdd_objective_raw(&p, &p, &p[..2], 4, &[0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn mismatched_sequence_length_panics() {
        let inst = Instance::paper_example_cdd();
        optimize_cdd_sequence(&inst, &JobSequence::identity(3));
    }
}
