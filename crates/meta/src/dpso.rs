//! Discrete Particle Swarm Optimization — the paper's Algorithm 2, with the
//! permutation update rule of Pan et al. (Eq. 3):
//!
//! ```text
//! pᵢ(t+1) = c₂ ⊕ F₃( c₁ ⊕ F₂( w ⊕ F₁(pᵢ(t)), pᵢᵇ(t) ), g(t) )
//! ```
//!
//! * `F₁` — *velocity*: swap two random positions (applied with prob. `w`);
//! * `F₂` — *cognition*: one-point crossover with the particle's personal
//!   best (prob. `c₁`);
//! * `F₃` — *social*: two-point crossover with the swarm best (prob. `c₂`);
//! * `c ⊕ F(x)` applies `F` with probability `c`, else keeps `x`.

use crate::perturb::random_swap;
use crate::MetaResult;
use cdd_core::eval::SequenceEvaluator;
use cdd_core::{Cost, JobSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DPSO parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DpsoParams {
    /// Swarm size (one particle per GPU thread in the parallel version).
    pub particles: usize,
    /// Generations (the paper evaluates 1000 and 5000).
    pub iterations: u64,
    /// Velocity probability `w` (apply F₁).
    pub w: f64,
    /// Cognition probability `c₁` (apply F₂ with the personal best).
    pub c1: f64,
    /// Social probability `c₂` (apply F₃ with the swarm best).
    pub c2: f64,
}

impl Default for DpsoParams {
    fn default() -> Self {
        DpsoParams { particles: 30, iterations: 1000, w: 0.9, c1: 0.8, c2: 0.8 }
    }
}

impl DpsoParams {
    /// `DPSO₁₀₀₀` with the given swarm size.
    pub fn paper_1000(particles: usize) -> Self {
        DpsoParams { particles, iterations: 1000, ..Default::default() }
    }

    /// `DPSO₅₀₀₀` with the given swarm size.
    pub fn paper_5000(particles: usize) -> Self {
        DpsoParams { particles, iterations: 5000, ..Default::default() }
    }
}

/// Mark the jobs of `kept` in `present` (resized to `n`, all other entries
/// cleared).
fn mark_present(kept: &[u32], n: usize, present: &mut Vec<bool>) {
    present.clear();
    present.resize(n, false);
    for &j in kept {
        present[j as usize] = true;
    }
}

/// Write `b`'s jobs not marked in `present`, in `b`'s order, to
/// `out[start..]` and return the index after the last one. Branch-free:
/// every job is written and the cursor only advances past absent ones, so
/// `out` needs one spare slot past the last absent job.
fn compact_absent(b: &[u32], present: &[bool], out: &mut [u32], start: usize) -> usize {
    let mut k = start;
    for &j in b {
        out[k] = j;
        k += usize::from(!present[j as usize]);
    }
    k
}

/// One-point crossover `F₂`: keep `a`'s prefix up to `cut` (exclusive), then
/// append `b`'s remaining jobs in `b`'s order. Always yields a permutation.
///
/// `present` is caller-owned scratch (any contents), so repeated calls
/// allocate nothing once `present` and `out` have grown to `n` and `n + 1`.
pub fn one_point_crossover(
    a: &[u32],
    b: &[u32],
    cut: usize,
    present: &mut Vec<bool>,
    out: &mut Vec<u32>,
) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(cut <= a.len());
    let n = a.len();
    mark_present(&a[..cut], n, present);
    out.clear();
    out.resize(n + 1, 0);
    out[..cut].copy_from_slice(&a[..cut]);
    let end = compact_absent(b, present, out, cut);
    debug_assert_eq!(end, n, "a permutation leaves exactly n − cut absent jobs");
    out.truncate(n);
}

/// Two-point crossover `F₃`: keep `a`'s segment `[lo, hi)` *in place*, fill
/// the remaining positions with `b`'s other jobs in `b`'s order. Always
/// yields a permutation.
///
/// `present` is caller-owned scratch, as in [`one_point_crossover`].
pub fn two_point_crossover(
    a: &[u32],
    b: &[u32],
    lo: usize,
    hi: usize,
    present: &mut Vec<bool>,
    out: &mut Vec<u32>,
) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(lo <= hi && hi <= a.len());
    let n = a.len();
    mark_present(&a[lo..hi], n, present);
    out.clear();
    out.resize(n + 1, 0);
    // `b`'s other jobs land in `out[..n − (hi − lo)]`: the first `lo` are
    // already in place, the rest move behind the kept segment.
    let end = compact_absent(b, present, out, 0);
    debug_assert_eq!(end, n - (hi - lo), "a permutation leaves exactly n − (hi − lo) absent jobs");
    out.copy_within(lo..lo + (n - hi), hi);
    out[lo..hi].copy_from_slice(&a[lo..hi]);
    out.truncate(n);
}

/// A runnable DPSO optimizer bound to a fitness function.
pub struct Dpso<'a, E: SequenceEvaluator + ?Sized> {
    eval: &'a E,
    params: DpsoParams,
}

impl<'a, E: SequenceEvaluator + ?Sized> Dpso<'a, E> {
    /// Bind `params` to a fitness function.
    pub fn new(eval: &'a E, params: DpsoParams) -> Self {
        Dpso { eval, params }
    }

    /// The bound parameters.
    pub fn params(&self) -> &DpsoParams {
        &self.params
    }

    /// Run the swarm from random initial particles derived from `seed`.
    pub fn run(&self, seed: u64) -> MetaResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.eval.n();
        let m = self.params.particles.max(1);

        // Initialize population (Algorithm 2, lines 1–2).
        let mut positions: Vec<JobSequence> =
            (0..m).map(|_| JobSequence::random(n, &mut rng)).collect();
        let mut evaluations = 0u64;
        let mut pbest: Vec<JobSequence> = positions.clone();
        let mut pbest_cost: Vec<Cost> = positions
            .iter()
            .map(|p| {
                evaluations += 1;
                self.eval.evaluate(p.as_slice())
            })
            .collect();
        let (mut gbest_idx, _) = pbest_cost
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("swarm is non-empty");
        let mut gbest = pbest[gbest_idx].clone();
        let mut gbest_cost = pbest_cost[gbest_idx];

        let mut scratch: Vec<u32> = Vec::with_capacity(n + 1);
        let mut present: Vec<bool> = Vec::with_capacity(n);
        for _ in 0..self.params.iterations {
            for i in 0..m {
                // λ = w ⊕ F₁(p)
                if rng.gen::<f64>() < self.params.w {
                    random_swap(&mut positions[i], &mut rng);
                }
                // δ = c₁ ⊕ F₂(λ, pbest)
                if n >= 2 && rng.gen::<f64>() < self.params.c1 {
                    let cut = rng.gen_range(1..n);
                    one_point_crossover(
                        positions[i].as_slice(),
                        pbest[i].as_slice(),
                        cut,
                        &mut present,
                        &mut scratch,
                    );
                    positions[i] =
                        JobSequence::from_vec(scratch.clone()).expect("crossover is closed");
                }
                // x = c₂ ⊕ F₃(δ, g)
                if n >= 2 && rng.gen::<f64>() < self.params.c2 {
                    let mut lo = rng.gen_range(0..n);
                    let mut hi = rng.gen_range(0..n);
                    if lo > hi {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    two_point_crossover(
                        positions[i].as_slice(),
                        gbest.as_slice(),
                        lo,
                        hi + 1,
                        &mut present,
                        &mut scratch,
                    );
                    positions[i] =
                        JobSequence::from_vec(scratch.clone()).expect("crossover is closed");
                }
                // Evaluate; update personal best (Algorithm 2, lines 4, 7).
                let cost = self.eval.evaluate(positions[i].as_slice());
                evaluations += 1;
                if cost < pbest_cost[i] {
                    pbest_cost[i] = cost;
                    pbest[i].clone_from(&positions[i]);
                }
            }
            // Update swarm best (line 5).
            let (idx, &cost) = pbest_cost
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .expect("swarm is non-empty");
            if cost < gbest_cost {
                gbest_cost = cost;
                gbest_idx = idx;
                gbest.clone_from(&pbest[gbest_idx]);
            }
        }
        MetaResult { best: gbest, objective: gbest_cost, evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::eval::CddEvaluator;
    use cdd_core::exact::best_sequence_bruteforce;
    use cdd_core::Instance;

    use proptest::prelude::*;

    /// The allocating, branchy one-point operator the compacting version
    /// replaced, kept as its oracle.
    fn one_point_oracle(a: &[u32], b: &[u32], cut: usize) -> Vec<u32> {
        let mut out = a[..cut].to_vec();
        let mut present = vec![false; a.len()];
        for &j in &a[..cut] {
            present[j as usize] = true;
        }
        for &j in b {
            if !present[j as usize] {
                out.push(j);
            }
        }
        out
    }

    /// The allocating, branchy two-point operator the compacting version
    /// replaced, kept as its oracle.
    fn two_point_oracle(a: &[u32], b: &[u32], lo: usize, hi: usize) -> Vec<u32> {
        let n = a.len();
        let mut present = vec![false; n];
        for &j in &a[lo..hi] {
            present[j as usize] = true;
        }
        let mut out = vec![u32::MAX; n];
        out[lo..hi].copy_from_slice(&a[lo..hi]);
        let mut fill = b.iter().filter(|&&j| !present[j as usize]);
        for k in (0..lo).chain(hi..n) {
            out[k] = *fill.next().expect("counts match by construction");
        }
        out
    }

    #[test]
    fn one_point_crossover_is_closed() {
        let a = [0u32, 1, 2, 3, 4];
        let b = [4u32, 3, 2, 1, 0];
        let (mut present, mut out) = (Vec::new(), Vec::new());
        for cut in 0..=5 {
            one_point_crossover(&a, &b, cut, &mut present, &mut out);
            let seq = JobSequence::from_vec(out.clone()).unwrap();
            assert!(seq.is_valid_permutation());
        }
        // cut = 2: prefix [0,1], then b's order skipping 0,1 → [4,3,2].
        one_point_crossover(&a, &b, 2, &mut present, &mut out);
        assert_eq!(out, vec![0, 1, 4, 3, 2]);
    }

    #[test]
    fn two_point_crossover_is_closed_and_keeps_segment() {
        let a = [0u32, 1, 2, 3, 4];
        let b = [4u32, 3, 2, 1, 0];
        let (mut present, mut out) = (Vec::new(), Vec::new());
        two_point_crossover(&a, &b, 1, 4, &mut present, &mut out);
        // Segment [1,2,3] kept in place; remaining (4,0) from b's order.
        assert_eq!(out, vec![4, 1, 2, 3, 0]);
        for lo in 0..=5 {
            for hi in lo..=5 {
                two_point_crossover(&a, &b, lo, hi, &mut present, &mut out);
                assert!(JobSequence::from_vec(out.clone()).unwrap().is_valid_permutation());
            }
        }
    }

    /// Two random permutations of `0..n` plus cut points `x ≤ y ≤ n`.
    fn parents() -> impl Strategy<Value = (Vec<u32>, Vec<u32>, usize, usize)> {
        (1usize..=64, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(n, sa, sb, sc)| {
            let mut rng = StdRng::seed_from_u64(sa);
            let a = JobSequence::random(n, &mut rng).as_slice().to_vec();
            let mut rng = StdRng::seed_from_u64(sb);
            let b = JobSequence::random(n, &mut rng).as_slice().to_vec();
            let mut rng = StdRng::seed_from_u64(sc);
            let mut x = rng.gen_range(0..=n);
            let mut y = rng.gen_range(0..=n);
            if x > y {
                std::mem::swap(&mut x, &mut y);
            }
            (a, b, x, y)
        })
    }

    proptest! {
        /// The compacting operators reproduce the old bodies exactly, with
        /// scratch buffers reused (and left dirty) across calls.
        #[test]
        fn crossovers_match_their_oracles(case in parents()) {
            let (a, b, x, y) = case;
            let mut present = vec![true; 3];
            let mut out = vec![7u32; 2];
            one_point_crossover(&a, &b, x, &mut present, &mut out);
            prop_assert_eq!(&out, &one_point_oracle(&a, &b, x));
            two_point_crossover(&a, &b, x, y, &mut present, &mut out);
            prop_assert_eq!(&out, &two_point_oracle(&a, &b, x, y));
        }
    }

    #[test]
    fn dpso_finds_small_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let eval = CddEvaluator::new(&inst);
        let dpso = Dpso::new(&eval, DpsoParams { particles: 20, iterations: 300, ..Default::default() });
        let r = dpso.run(7);
        assert_eq!(r.objective, optimum);
        assert_eq!(r.objective, eval.evaluate(r.best.as_slice()));
    }

    #[test]
    fn dpso_is_deterministic_per_seed() {
        let inst = Instance::paper_example_ucddcp();
        let eval = cdd_core::eval::UcddcpEvaluator::new(&inst);
        let dpso = Dpso::new(&eval, DpsoParams { particles: 8, iterations: 50, ..Default::default() });
        assert_eq!(dpso.run(3).objective, dpso.run(3).objective);
    }

    #[test]
    fn evaluations_counted() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let dpso = Dpso::new(&eval, DpsoParams { particles: 10, iterations: 20, ..Default::default() });
        let r = dpso.run(1);
        assert_eq!(r.evaluations, 10 + 10 * 20);
    }

    #[test]
    fn single_particle_swarm_works() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let dpso = Dpso::new(&eval, DpsoParams { particles: 1, iterations: 50, ..Default::default() });
        let r = dpso.run(2);
        assert!(r.objective >= 1);
        assert!(r.best.is_valid_permutation());
    }
}
