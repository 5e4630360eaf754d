//! `net-bench` — the PR-7 multi-node benchmark: one mixed-tenant
//! workload driven through the framed socket path at increasing shard
//! counts.
//!
//! ```text
//! cargo run --release -p cdd-net --bin net-bench -- \
//!     [--requests 64] [--seed 2016] [--iterations 120] [--sizes 10,20] \
//!     [--tenants 4] [--connections 4] [--window 8] [--shards 1,2,3] \
//!     [--out BENCH_pr7.json]
//! ```
//!
//! For each shard count the bench boots that many in-process `cdd-node`
//! listeners plus a `cdd-router`, replays the identical workload over
//! several client connections, and records throughput, per-tenant mix,
//! and fleet-wide cache behaviour. It asserts the determinism contract
//! as it goes: every configuration's sorted outcome CSV must be
//! byte-identical to the single-node baseline's, and duplicate content
//! keys split across different client connections must produce at least
//! one cache/coalesced hit through the router (cross-node dedup).

use cdd_bench::workload::generate_mixed_tenants;
use cdd_bench::Args;
use cdd_net::client::{run_workload_sharded, sorted_outcome_csv};
use cdd_net::node::{serve as serve_node, NodeConfig};
use cdd_net::router::{serve as serve_router, RouterConfig};
use cdd_net::{auth, client as netclient};
use cdd_service::ServiceConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct RunRow {
    shards: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    cache_hits: u64,
    coalesced: u64,
    reroutes: u64,
    outcome_sha: String,
}

/// FNV-1a over the CSV bytes — enough to print "identical or not" in the
/// JSON without embedding whole CSVs.
fn content_sha(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn main() {
    let args = Args::parse();
    let requests = args.get_or("requests", 64usize);
    let seed = args.get_or("seed", 2016u64);
    let iterations = args.get_or("iterations", 120u64);
    let sizes = args.get_list_or("sizes", &[10usize, 20]);
    let tenants = args.get_or("tenants", 4usize);
    let connections = args.get_or("connections", 4usize);
    let window = args.get_or("window", 8usize);
    let shard_counts = args.get_list_or("shards", &[1usize, 2, 3]);
    let out = args.get("out").unwrap_or("BENCH_pr7.json").to_string();
    args.finish();

    let entries = generate_mixed_tenants(requests, seed, iterations, &sizes, tenants);
    let mut per_tenant: BTreeMap<String, usize> = BTreeMap::new();
    for e in &entries {
        *per_tenant.entry(e.tenant.clone()).or_insert(0) += 1;
    }

    let node_config = || NodeConfig {
        service: ServiceConfig {
            devices: 2,
            blocks: 2,
            block_size: 64,
            queue_capacity: 128,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
        ..NodeConfig::default()
    };

    let mut rows: Vec<RunRow> = Vec::new();
    let mut baseline_csv: Option<String> = None;
    for &shards in &shard_counts {
        let nodes: Vec<_> = (0..shards.max(1))
            .map(|_| serve_node(node_config()).expect("bind node"))
            .collect();
        let router = serve_router(RouterConfig {
            upstreams: nodes.iter().map(|n| n.addr.to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("bind router");
        let addr = router.addr.to_string();

        let started = std::time::Instant::now();
        let outcomes =
            run_workload_sharded(&addr, &entries, connections, window, auth::DEFAULT_SECRET)
                .expect("workload completed");
        let wall = started.elapsed().as_secs_f64();
        let stats = netclient::stats(&addr).expect("router stats");
        netclient::shutdown(&addr).expect("fleet shutdown");
        let router_report = router.join();
        for n in nodes {
            n.join();
        }

        let csv = sorted_outcome_csv(&outcomes);
        let base = baseline_csv.get_or_insert_with(|| csv.clone());
        assert_eq!(
            *base, csv,
            "sorted outcome set diverged at {shards} shards — determinism contract broken"
        );
        let dup_hits = stats.cache_hits + stats.coalesced;
        assert!(
            dup_hits >= 1,
            "expected at least one cache/coalesced hit from duplicate content keys \
             across {connections} connections, saw none"
        );
        println!(
            "{shards} shard(s): {:.2}s, {:.1} req/s, {} cache hits + {} coalesced, {} re-routes",
            wall,
            requests as f64 / wall.max(1e-9),
            stats.cache_hits,
            stats.coalesced,
            router_report.reroutes,
        );
        rows.push(RunRow {
            shards,
            wall_seconds: wall,
            throughput_rps: requests as f64 / wall.max(1e-9),
            cache_hits: stats.cache_hits,
            coalesced: stats.coalesced,
            reroutes: router_report.reroutes,
            outcome_sha: content_sha(&csv),
        });
    }

    let tenant_json: Vec<String> =
        per_tenant.iter().map(|(t, c)| format!("\"{t}\": {c}")).collect();
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            runs,
            "    {{\"shards\":{},\"wall_seconds\":{:.9},\"throughput_rps\":{:.3},\
\"cache_hits\":{},\"coalesced\":{},\"reroutes\":{},\"outcome_sha\":\"{}\"}}{}",
            r.shards,
            r.wall_seconds,
            r.throughput_rps,
            r.cache_hits,
            r.coalesced,
            r.reroutes,
            r.outcome_sha,
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"pr7_net_sharding\",\n  \"pipeline\": \"cdd_net\",\n  \
\"config\": {{\"requests\": {requests}, \"seed\": {seed}, \"iterations\": {iterations}, \
\"tenants\": {tenants}, \"connections\": {connections}, \"window\": {window}}},\n  \
\"tenant_mix\": {{{}}},\n  \
\"note\": \"One fixed mixed-tenant workload replayed through cdd-router at increasing \
shard counts (in-process nodes). outcome_sha is the FNV-1a of the sorted \
(request, fitness, degraded) CSV and must match across every row — the network path \
inherits the service determinism contract. Throughput columns are wall-clock and vary \
between hosts; cache columns depend only on routing, which is deterministic.\",\n  \
\"runs\": [\n{}  ]\n}}\n",
        tenant_json.join(", "),
        runs
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}; all {} shard configurations byte-identical", rows.len());
}
