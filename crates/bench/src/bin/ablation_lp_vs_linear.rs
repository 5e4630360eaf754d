//! **Section III ablation** — "LP solvers are quite slow when run
//! iteratively on some general heuristic algorithm": compare the two-phase
//! simplex on the fixed-sequence LP against the O(n) algorithms, on both
//! runtime and (identical) optima.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin ablation_lp_vs_linear -- \
//!     [--sizes 10,20,40,60] [--reps 50]
//! ```

use cdd_bench::{render_markdown, results_dir, write_csv, Args, Table};
use cdd_core::{optimize_cdd_sequence, optimize_ucddcp_sequence, JobSequence};
use cdd_instances::{cdd_instance, ucddcp_instance};
use cdd_lp::{solve_cdd_sequence_lp, solve_ucddcp_sequence_lp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let sizes = args.get_list_or("sizes", &[10usize, 20, 40, 60]);
    let reps = args.get_or("reps", 50u32);
    let seed = args.get_or("seed", 2016u64);
    args.finish();

    let mut table = Table::new(vec![
        "Jobs",
        "problem",
        "linear-us",
        "simplex-us",
        "slowdown-x",
        "avg-pivots",
        "optima-agree",
    ]);

    for &n in &sizes {
        for problem in ["cdd", "ucddcp"] {
            let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
            let inst = if problem == "cdd" {
                cdd_instance(n, 1, 0.6)
            } else {
                ucddcp_instance(n, 1)
            };
            let seqs: Vec<JobSequence> =
                (0..reps).map(|_| JobSequence::random(n, &mut rng)).collect();

            let t = Instant::now();
            let linear: Vec<i64> = seqs
                .iter()
                .map(|s| {
                    if problem == "cdd" {
                        optimize_cdd_sequence(&inst, s).objective
                    } else {
                        optimize_ucddcp_sequence(&inst, s).objective
                    }
                })
                .collect();
            let linear_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;

            let t = Instant::now();
            let mut pivots = 0usize;
            let lp: Vec<f64> = seqs
                .iter()
                .map(|s| {
                    let sol = if problem == "cdd" {
                        solve_cdd_sequence_lp(&inst, s).expect("feasible LP")
                    } else {
                        solve_ucddcp_sequence_lp(&inst, s).expect("feasible LP")
                    };
                    pivots += sol.pivots;
                    sol.objective
                })
                .collect();
            let simplex_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;

            let agree = linear
                .iter()
                .zip(&lp)
                .all(|(&a, &b)| (a as f64 - b).abs() < 1e-5);
            table.push(vec![
                n.to_string(),
                problem.to_string(),
                format!("{linear_us:.1}"),
                format!("{simplex_us:.1}"),
                format!("{:.0}", simplex_us / linear_us.max(1e-9)),
                format!("{:.0}", pivots as f64 / reps as f64),
                agree.to_string(),
            ]);
            eprintln!("  n = {n} ({problem}): done");
        }
    }

    println!("\nLP (two-phase simplex) vs O(n) linear algorithm, per sequence optimization:\n");
    println!("{}", render_markdown(&table));
    println!(
        "Identical optima, orders-of-magnitude slower LP — the reason the paper's layer (ii) \
         uses the specialized linear algorithms of [7]/[8]."
    );
    write_csv(&table, &results_dir().join("ablation_lp_vs_linear.csv")).expect("write results");
}
