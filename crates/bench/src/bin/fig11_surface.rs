//! **Fig. 11** — modeled runtime of the parallel UCDDCP fitness evaluation
//! as a function of the thread count (population size) and the number of
//! generations.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin fig11_surface -- \
//!     [--n 200] [--threads 96,192,384,768,1536] [--gens 200,500,1000,2000] [--block-size 192]
//! ```
//!
//! Paper shape to reproduce: runtime grows with both axes; beyond the
//! device's concurrent-block capacity, extra threads serialize block
//! processing through the SMs (the effect Section VIII discusses).

use cdd_bench::campaign::{instance_seed, run_algo_on_instance, AlgoKind};
use cdd_bench::{campaign_from_args, render_markdown, results_dir, write_csv, Args, Table};
use cdd_gpu::{run_gpu_sa, GpuSaParams};
use cdd_instances::InstanceId;

fn main() {
    let args = Args::parse();
    let n = args.get_or("n", 200usize);
    let threads = args.get_list_or("threads", &[96usize, 192, 384, 768, 1536]);
    let gens = args.get_list_or("gens", &[200u64, 500, 1000, 2000]);
    // Shared campaign flags (--block-size, --seed, fault flags) parse through
    // the same helper as the table binaries.
    let cfg = campaign_from_args(&args, &[]);
    args.finish();
    let (block_size, seed) = (cfg.block_size, cfg.seed);

    let id = InstanceId::ucddcp(n, 1);
    let inst = id.instantiate();

    let mut headers = vec!["threads".to_string()];
    headers.extend(gens.iter().map(|g| format!("gens-{g}-s")));
    let mut table = Table::new(headers);

    for &t in &threads {
        let blocks = t.div_ceil(block_size).max(1);
        let mut row = vec![t.to_string()];
        for &g in &gens {
            let r = run_gpu_sa(
                &inst,
                &GpuSaParams {
                    blocks,
                    block_size: block_size.min(t),
                    iterations: g,
                    seed: instance_seed(seed, &id),
                    ..Default::default()
                },
            )
            .expect("valid configuration");
            row.push(format!("{:.6}", r.modeled_seconds));
        }
        table.push(row);
        eprintln!("  threads = {t}: done");
    }

    println!("\nFig. 11 — modeled runtime (s) of parallel SA on UCDDCP, n = {n}:\n");
    println!("{}", render_markdown(&table));
    write_csv(&table, &results_dir().join("fig11_surface.csv")).expect("write results");

    // Sanity anchor the surface against one standard configuration.
    let anchor = run_algo_on_instance(
        &inst,
        AlgoKind::Sa1000,
        &cdd_bench::CampaignConfig { sizes: vec![n], ..Default::default() },
        instance_seed(seed, &id),
    )
    .expect("clean device run succeeds");
    println!(
        "(reference: paper configuration 4x192 @1000 gens -> {:.6} modeled s)",
        anchor.modeled_seconds
    );
}
