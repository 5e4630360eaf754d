//! **Table III / Figs. 13–14** — speed-ups of the parallel algorithms on
//! the CDD problem relative to the two CPU baselines, plus the runtime
//! curves.
//!
//! Baseline substitution (DESIGN.md §2): `[7]` = our sequential SA, `[18]` =
//! our (μ+λ) ES, both given the same total fitness-evaluation budget as the
//! GPU ensemble and *measured* on this host; GPU time is the `cuda-sim`
//! model, transfers included.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin table3_cdd_speedup -- \
//!     [--sizes 10,20,50,100,200] [--full]
//! ```
//!
//! Paper shape to reproduce: speed-ups grow with n and flatten at the top
//! end; SA₅₀₀₀ costs about 5× SA₁₀₀₀.

use cdd_bench::campaign::run_speedup_suite;
use cdd_bench::{campaign_from_args, render_markdown, results_dir, write_csv, Args, CampaignObserver};
use cdd_instances::InstanceId;

fn main() {
    let args = Args::parse();
    let cfg = campaign_from_args(&args, &[10, 20, 50, 100, 200]);
    let h = args.get_or("h", 0.6f64);
    let mut observer = CampaignObserver::from_args(&args);
    args.finish();

    eprintln!("Table III campaign: sizes {:?}, ensemble {}", cfg.sizes, cfg.ensemble());
    let (speedup, runtime) =
        run_speedup_suite(&cfg, |n| InstanceId::cdd(n, 1, h), true, Some(&mut observer));
    observer.finish().expect("metrics/trace outputs writable");

    println!("\nTable III — speed-ups vs the work-matched CPU baselines (CDD):\n");
    println!("{}", render_markdown(&speedup));
    println!("Fig. 14 runtime series (modeled GPU s, measured CPU s):\n");
    println!("{}", render_markdown(&runtime));

    write_csv(&speedup, &results_dir().join("table3_cdd_speedup.csv")).expect("write results");
    write_csv(&runtime, &results_dir().join("fig14_cdd_runtimes.csv")).expect("write results");
    println!("(Figs. 13/14 plot these two CSVs in {})", results_dir().display());
}
