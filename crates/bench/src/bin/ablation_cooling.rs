//! **Section VI ablation** — the paper's cooling rate: "the exponential
//! cooling rate of 0.88 has been adopted in this work, which is inferred
//! from our experiments over a range of cooling rates". Sweep the rate (and
//! two alternative schedules) at a fixed budget.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin ablation_cooling -- \
//!     [--n 100] [--iters 1000] [--chains 16] [--instances 5]
//! ```

use cdd_bench::{render_markdown, results_dir, write_csv, Args, Table};
use cdd_core::eval::evaluator_for;
use cdd_instances::InstanceId;
use cdd_meta::{AsyncEnsemble, Cooling, SaParams};

fn main() {
    let args = Args::parse();
    let n = args.get_or("n", 100usize);
    let iters = args.get_or("iters", 1000u64);
    let chains = args.get_or("chains", 16usize);
    let instances = args.get_or("instances", 5u32);
    let seed = args.get_or("seed", 2016u64);
    args.finish();

    let schedules: Vec<(String, Cooling)> = [0.5, 0.7, 0.8, 0.88, 0.95, 0.99]
        .iter()
        .map(|&r| (format!("exp-{r}"), Cooling::Exponential { rate: r }))
        .chain([
            ("harmonic".to_string(), Cooling::Harmonic),
            ("linear".to_string(), Cooling::Linear { step: 1.0, floor: 0.01 }),
        ])
        .collect();

    let mut headers = vec!["schedule".to_string()];
    headers.extend((1..=instances).map(|k| format!("inst-{k}")));
    headers.push("avg-%-over-best".into());
    let mut table = Table::new(headers);

    // Collect objectives per schedule per instance.
    let mut results: Vec<Vec<i64>> = vec![Vec::new(); schedules.len()];
    for k in 1..=instances {
        let inst = InstanceId::cdd(n, k, 0.6).instantiate();
        let eval = evaluator_for(&inst);
        for (s, (_, cooling)) in schedules.iter().enumerate() {
            let r = AsyncEnsemble::new(
                eval.as_ref(),
                chains,
                SaParams { iterations: iters, cooling: *cooling, ..Default::default() },
            )
            .run(seed + k as u64);
            results[s].push(r.objective);
        }
        eprintln!("  instance {k}/{instances}: done");
    }

    // Per-instance best across schedules → relative excess.
    let best_per_instance: Vec<i64> = (0..instances as usize)
        .map(|i| results.iter().map(|r| r[i]).min().expect("non-empty"))
        .collect();
    for (s, (name, _)) in schedules.iter().enumerate() {
        let mut row = vec![name.clone()];
        let mut excess = 0.0;
        for i in 0..instances as usize {
            row.push(results[s][i].to_string());
            excess += 100.0 * (results[s][i] - best_per_instance[i]) as f64
                / best_per_instance[i] as f64;
        }
        row.push(format!("{:.2}", excess / instances as f64));
        table.push(row);
    }

    println!(
        "\nCooling-schedule sweep (CDD, n = {n}, {chains} chains x {iters} iterations):\n"
    );
    println!("{}", render_markdown(&table));
    println!("The paper's μ = 0.88 should sit at or near the lowest average excess.");
    write_csv(&table, &results_dir().join("ablation_cooling.csv")).expect("write results");
}
