//! **Section VIII tuning** — the paper's block-size finding: "the
//! theoretical limit … is 1024. However, … the best results for both the
//! problems are achieved with a block size of 192."
//!
//! Sweep the block size at a fixed ensemble, comparing modeled runtime
//! (occupancy/serialization effects) and solution quality.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin tuning_block_size -- \
//!     [--n 100] [--ensemble 768] [--iters 500] \
//!     [--block-sizes 64,96,128,192,256,384,512,768,1024]
//! ```

use cdd_bench::{render_markdown, results_dir, write_csv, Args, Table};
use cdd_gpu::{run_gpu_sa, GpuSaParams};
use cdd_instances::InstanceId;

fn main() {
    let args = Args::parse();
    let n = args.get_or("n", 100usize);
    let ensemble = args.get_or("ensemble", 768usize);
    let iters = args.get_or("iters", 500u64);
    let block_sizes =
        args.get_list_or("block-sizes", &[64usize, 96, 128, 192, 256, 384, 512, 768, 1024]);
    let seed = args.get_or("seed", 2016u64);
    args.finish();

    let inst = InstanceId::cdd(n, 1, 0.6).instantiate();
    let mut table = Table::new(vec![
        "block-size",
        "blocks",
        "objective",
        "modeled-s",
        "kernel-s",
    ]);

    for &bs in &block_sizes {
        let blocks = ensemble.div_ceil(bs).max(1);
        let r = run_gpu_sa(
            &inst,
            &GpuSaParams {
                blocks,
                block_size: bs,
                iterations: iters,
                seed,
                ..Default::default()
            },
        )
        .expect("block sizes within device limits");
        table.push(vec![
            bs.to_string(),
            blocks.to_string(),
            r.objective.to_string(),
            format!("{:.6}", r.modeled_seconds),
            format!("{:.6}", r.kernel_seconds),
        ]);
        eprintln!("  block size {bs}: done");
    }

    println!(
        "\nBlock-size sweep (CDD, n = {n}, ensemble {ensemble}, {iters} generations):\n"
    );
    println!("{}", render_markdown(&table));
    println!(
        "Mid-sized blocks keep all SMs busy; a single 1024-thread block leaves \
         SMs idle — the effect behind the paper's choice of 192."
    );
    write_csv(&table, &results_dir().join("tuning_block_size.csv")).expect("write results");
}
