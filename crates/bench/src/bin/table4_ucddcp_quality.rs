//! **Table IV / Fig. 15** — average `%Δ` of the four parallel algorithms on
//! the UCDDCP benchmark, per job size, relative to the best-known table.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin table4_ucddcp_quality -- \
//!     [--sizes 10,20,50,100,200] [--ks 1,2,3] [--full] \
//!     [--fault-seed S --launch-failure-rate P --bit-flip-rate P --hang-rate P] \
//!     [--resume] [--max-cells N]
//! ```
//!
//! Completed cells are journaled to
//! `results/table4_ucddcp_quality.journal.jsonl`; `--resume` continues a
//! killed campaign with byte-identical CSVs, `--max-cells` bounds the cells
//! executed per invocation.
//!
//! Paper shape to reproduce: SA₅₀₀₀ can *beat* the best-known values
//! (negative `%Δ`) because the reference is a finite-budget CPU heuristic,
//! while DPSO again degrades with size.

use cdd_bench::campaign::{best_known_path, ensure_best_known, run_quality_suite};
use cdd_bench::{
    campaign_from_args, render_markdown, results_dir, write_csv, Args, CampaignObserver, Journal,
    Table,
};
use cdd_instances::{BestKnown, InstanceId};

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let cfg = campaign_from_args(&args, &[10, 20, 50, 100]);
    let ks = args.get_list_or("ks", &[1u32, 2]);
    let ks: Vec<u32> = if full { (1..=10).collect() } else { ks };
    let resume = args.flag("resume");
    let max_cells = args.get("max-cells").map(|s| s.parse().expect("--max-cells: integer"));
    let mut observer = CampaignObserver::from_args(&args);
    args.finish();

    let mut ids: Vec<InstanceId> = Vec::new();
    for &n in &cfg.sizes {
        for &k in &ks {
            ids.push(InstanceId::ucddcp(n, k));
        }
    }

    let path = best_known_path();
    let mut best = BestKnown::load(&path).expect("best-known file readable");
    let computed = ensure_best_known(&ids, &mut best, 24, 8000);
    if computed > 0 {
        best.save(&path).expect("best-known file writable");
    }

    eprintln!(
        "Table IV campaign: {} instances x 4 algorithms, ensemble {}",
        ids.len(),
        cfg.ensemble()
    );
    if let Some(plan) = &cfg.fault {
        eprintln!("fault injection: {plan:?}");
    }
    let journal_path = results_dir().join("table4_ucddcp_quality.journal.jsonl");
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

    println!("\nTable IV — average %Δ per job size (UCDDCP), relative to best-known:\n");
    println!("{}", render_markdown(&table));
    println!("(negative values improve on the best-known reference, as in the paper's Fig. 15)");

    write_csv(&table, &results_dir().join("table4_ucddcp_quality.csv")).expect("write results");
    write_csv(&detail, &results_dir().join("table4_ucddcp_quality_detail.csv"))
        .expect("write results");
}
