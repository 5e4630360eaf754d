//! **Table II / Fig. 12** — average `%Δ` of the four parallel algorithms on
//! the CDD benchmark, per job size, relative to the best-known table.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin table2_cdd_quality -- \
//!     [--sizes 10,20,50,100,200] [--ks 1,2] [--blocks 4] [--block-size 192] [--full] \
//!     [--fault-seed S --launch-failure-rate P --bit-flip-rate P --hang-rate P] \
//!     [--resume] [--max-cells N]
//! ```
//!
//! Completed cells are journaled to `results/table2_cdd_quality.journal.jsonl`
//! after every cell; `--resume` replays the journal and continues from where
//! a killed run stopped, producing byte-identical CSVs. `--max-cells` bounds
//! the cells executed this invocation (journal replays are free).
//!
//! Paper shape to reproduce: SA stays within ~2 % at every size (SA₅₀₀₀
//! under ~0.5 %), while DPSO degrades sharply from n ≈ 100 upward.

use cdd_bench::campaign::{best_known_path, ensure_best_known, run_quality_suite};
use cdd_bench::{
    campaign_from_args, gpu_algorithms, render_markdown, results_dir, write_csv, Args,
    CampaignObserver, Journal, Table,
};
use cdd_instances::{BestKnown, InstanceId, PAPER_H_VALUES};

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let cfg = campaign_from_args(&args, &[10, 20, 50, 100]);
    let ks = args.get_list_or("ks", &[1u32]);
    let ks: Vec<u32> = if full { (1..=10).collect() } else { ks };
    let resume = args.flag("resume");
    let max_cells = args.get("max-cells").map(|s| s.parse().expect("--max-cells: integer"));
    let mut observer = CampaignObserver::from_args(&args);
    args.finish();

    let mut ids: Vec<InstanceId> = Vec::new();
    for &n in &cfg.sizes {
        for &k in &ks {
            for &h in &PAPER_H_VALUES {
                ids.push(InstanceId::cdd(n, k, h));
            }
        }
    }

    let path = best_known_path();
    let mut best = BestKnown::load(&path).expect("best-known file readable");
    let computed = ensure_best_known(&ids, &mut best, 24, 8000);
    if computed > 0 {
        best.save(&path).expect("best-known file writable");
        eprintln!("computed {computed} missing best-known entries");
    }

    eprintln!(
        "Table II campaign: {} instances x 4 algorithms, ensemble {} ({}x{})",
        ids.len(),
        cfg.ensemble(),
        cfg.blocks,
        cfg.block_size
    );
    if let Some(plan) = &cfg.fault {
        eprintln!("fault injection: {plan:?}");
    }
    let journal_path = results_dir().join("table2_cdd_quality.journal.jsonl");
    let mut journal =
        Journal::open(&journal_path, resume).expect("journal readable");
    if !journal.is_empty() {
        eprintln!("resuming: {} cells replayed from {}", journal.len(), journal_path.display());
    }
    let (rows, detail) =
        run_quality_suite(&cfg, &ids, &best, Some(&mut journal), max_cells, Some(&mut observer));
    observer.finish().expect("metrics/trace outputs writable");

    let mut table = Table::new(vec!["Jobs", "SA1000", "SA5000", "DPSO1000", "DPSO5000"]);
    for r in &rows {
        let mut cells = vec![r.n.to_string()];
        cells.extend(r.deltas.iter().map(|d| format!("{d:.3}")));
        table.push(cells);
    }

    println!("\nTable II — average %Δ per job size (CDD), relative to best-known:\n");
    println!("{}", render_markdown(&table));
    println!(
        "(Fig. 12 is this table as a bar chart; series CSV at {}/table2_cdd_quality.csv)",
        results_dir().display()
    );
    let _ = gpu_algorithms();

    write_csv(&table, &results_dir().join("table2_cdd_quality.csv")).expect("write results");
    write_csv(&detail, &results_dir().join("table2_cdd_quality_detail.csv"))
        .expect("write results");
}
