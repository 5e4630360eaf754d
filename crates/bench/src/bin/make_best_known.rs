//! Produce (or refresh) the best-known table every `%Δ` refers to.
//!
//! The reference solver is a CPU asynchronous SA ensemble — the stand-in for
//! the published best solutions of Lässig et al. [7] (CDD) and Awasthi et
//! al. [8] (UCDDCP); see DESIGN.md §2.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin make_best_known -- \
//!     [--sizes 10,20,50,100,200] [--ks 1,2] [--chains 24] [--iters 8000] [--full]
//! ```

use cdd_bench::campaign::{best_known_path, instance_seed, reference_best};
use cdd_bench::Args;
use cdd_instances::{BestKnown, InstanceId, PAPER_H_VALUES, PAPER_SIZES};

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let sizes = args.get_list_or("sizes", &[10usize, 20, 50, 100, 200]);
    let sizes: Vec<usize> = if full { PAPER_SIZES.to_vec() } else { sizes };
    let ks = args.get_list_or("ks", &[1u32, 2]);
    let ks: Vec<u32> = if full { (1..=10).collect() } else { ks };
    let chains = args.get_or("chains", 24usize);
    let iters = args.get_or("iters", 8000u64);
    args.finish();

    let mut ids: Vec<InstanceId> = Vec::new();
    for &n in &sizes {
        for &k in &ks {
            for &h in &PAPER_H_VALUES {
                ids.push(InstanceId::cdd(n, k, h));
            }
            ids.push(InstanceId::ucddcp(n, k));
        }
    }

    let path = best_known_path();
    let mut table = BestKnown::load(&path).expect("best-known file readable");
    eprintln!(
        "computing best-known for {} instances (chains {chains}, iters {iters}) -> {}",
        ids.len(),
        path.display()
    );
    let mut improved = 0;
    for (i, id) in ids.iter().enumerate() {
        let inst = id.instantiate();
        let obj = reference_best(&inst, chains, iters, 0xBE57 ^ instance_seed(0, id));
        if table.improve(&id.to_string(), obj) {
            improved += 1;
        }
        if (i + 1) % 20 == 0 {
            eprintln!("  {}/{} done", i + 1, ids.len());
            table.save(&path).expect("best-known file writable");
        }
    }
    table.save(&path).expect("best-known file writable");
    println!(
        "best-known table: {} entries ({improved} set/improved this run) at {}",
        table.len(),
        path.display()
    );
}
