//! **Table V / Figs. 16–17** — speed-ups and runtimes of the parallel
//! algorithms on the UCDDCP problem relative to the `[8]`-style CPU
//! baseline (our sequential SA; Table V has a single baseline, unlike
//! Table III).
//!
//! ```text
//! cargo run --release -p cdd-bench --bin table5_ucddcp_speedup -- \
//!     [--sizes 10,20,50,100,200] [--full]
//! ```
//!
//! Paper shape to reproduce: sub-1 speed-ups for tiny n (launch/transfer
//! overhead dominates), growing and then saturating with n.

use cdd_bench::campaign::run_speedup_suite;
use cdd_bench::{campaign_from_args, render_markdown, results_dir, write_csv, Args, CampaignObserver};
use cdd_instances::InstanceId;

fn main() {
    let args = Args::parse();
    let cfg = campaign_from_args(&args, &[10, 20, 50, 100, 200]);
    let mut observer = CampaignObserver::from_args(&args);
    args.finish();

    eprintln!("Table V campaign: sizes {:?}, ensemble {}", cfg.sizes, cfg.ensemble());
    let (speedup, runtime) =
        run_speedup_suite(&cfg, |n| InstanceId::ucddcp(n, 1), false, Some(&mut observer));
    observer.finish().expect("metrics/trace outputs writable");

    println!("\nTable V — speed-ups vs the work-matched CPU baseline (UCDDCP):\n");
    println!("{}", render_markdown(&speedup));
    println!("Fig. 16 runtime series (modeled GPU s, measured CPU s):\n");
    println!("{}", render_markdown(&runtime));

    write_csv(&speedup, &results_dir().join("table5_ucddcp_speedup.csv")).expect("write results");
    write_csv(&runtime, &results_dir().join("fig16_ucddcp_runtimes.csv")).expect("write results");
    println!("(Fig. 17 plots the speed-up CSV in {})", results_dir().display());
}
