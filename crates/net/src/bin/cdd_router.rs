//! `cdd-router` — content-key-sharded front for N `cdd-node` upstreams.
//!
//! ```text
//! cargo run --release -p cdd-net --bin cdd-router -- \
//!     --upstreams 127.0.0.1:4101,127.0.0.1:4102 \
//!     [--addr 127.0.0.1:0] [--secret cdd-net-dev-secret] \
//!     [--health-interval 100] [--max-attempts 8] [--backoff 10] \
//!     [--no-forward-shutdown] [--metrics-out results/router_metrics.prom]
//! ```
//!
//! Prints `cdd-router listening on <addr>` once bound. A client
//! `Shutdown` frame drains the upstreams too unless
//! `--no-forward-shutdown` is given.

use cdd_bench::Args;
use cdd_net::router::{serve, RouterConfig};
use std::io::Write as _;

fn main() {
    let args = Args::parse();
    let upstreams: Vec<String> = args
        .get("upstreams")
        .expect("--upstreams host:port[,host:port...] is required")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let config = RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        upstreams,
        secret: args.get("secret").unwrap_or(cdd_net::auth::DEFAULT_SECRET).to_string(),
        health_interval_ms: args.get_or("health-interval", 100u64),
        max_attempts: args.get_or("max-attempts", 8u32),
        backoff_base_ms: args.get_or("backoff", 10u64),
        forward_shutdown: !args.flag("no-forward-shutdown"),
    };
    let metrics_out = args.get("metrics-out").map(std::path::PathBuf::from);
    args.finish();
    let handle = serve(config).expect("bind router listener");
    println!("cdd-router listening on {}", handle.addr);
    std::io::stdout().flush().expect("flush stdout");

    let report = handle.join();
    if let Some(out) = metrics_out {
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).expect("metrics dir");
        }
        std::fs::write(&out, report.net_metrics.render_prometheus()).expect("write metrics");
        println!("cdd-router metrics at {}", out.display());
    }
    println!(
        "cdd-router done: {} routed, {} re-routed after upstream deaths",
        report.routed, report.reroutes
    );
}
