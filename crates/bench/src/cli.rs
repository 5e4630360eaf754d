//! A tiny flag parser shared by the bench binaries (no external CLI crate —
//! the offline dependency list is kept minimal), plus the flag→config
//! helpers every campaign binary shares ([`campaign_from_args`],
//! [`fault_plan_from_args`]) so the fault/seed/geometry flags are parsed in
//! exactly one place.

use crate::campaign::CampaignConfig;
use cdd_instances::PAPER_SIZES;
use cuda_sim::{FaultPlan, SimParallelism};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments: `--key value` pairs and bare `--flags`.
///
/// Every lookup records the name it asked for, so once a binary has read
/// all of its flags, [`finish`](Self::finish) can reject any flag it never
/// asked about (a typo such as `--devics 3` must not run silently with the
/// default).
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    known: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse the process arguments. `--key value` and `--key=value` both
    /// work; a `--key` followed by another `--…` (or nothing) is a flag.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    fn note(&self, name: &str) {
        self.known.borrow_mut().insert(name.to_string());
    }

    /// Whether the bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.note(name);
        self.flags.iter().any(|f| f == name)
    }

    /// String value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.note(name);
        self.values.get(name).map(|s| s.as_str())
    }

    /// Given flags (bare or with a value) that no lookup has asked about,
    /// in sorted order.
    fn unknown(&self) -> Vec<String> {
        let known = self.known.borrow();
        let given: BTreeSet<&String> = self.values.keys().chain(&self.flags).collect();
        given.into_iter().filter(|k| !known.contains(*k)).cloned().collect()
    }

    /// Call once every flag has been read: prints `unknown flag --name` for
    /// each flag no lookup asked about and exits with status 2 if there is
    /// any.
    pub fn finish(&self) {
        let unknown = self.unknown();
        if unknown.is_empty() {
            return;
        }
        for name in &unknown {
            eprintln!("unknown flag --{name}");
        }
        std::process::exit(2);
    }

    /// Parsed value of `--name`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(s) => s.parse().unwrap_or_else(|_| {
                panic!("--{name}: cannot parse {s:?} as {}", std::any::type_name::<T>())
            }),
            None => default,
        }
    }

    /// Comma-separated list of `--name`, or `default`.
    pub fn get_list_or<T>(&self, name: &str, default: &[T]) -> Vec<T>
    where
        T: std::str::FromStr + Clone,
    {
        match self.get(name) {
            Some(s) => s
                .split(',')
                .map(|x| {
                    x.trim().parse().unwrap_or_else(|_| {
                        panic!("--{name}: cannot parse element {x:?}")
                    })
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

/// Parse from an explicit iterator (testable) — same grammar as
/// [`Args::parse`].
impl FromIterator<String> for Args {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("warning: ignoring positional argument {a:?}");
                continue;
            };
            if let Some((k, v)) = key.split_once('=') {
                args.values.insert(k.to_string(), v.to_string());
            } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                args.values.insert(key.to_string(), it.next().expect("peeked"));
            } else {
                args.flags.push(key.to_string());
            }
        }
        args
    }
}

/// Build a fault plan from the shared CLI flags (`--fault-seed`,
/// `--launch-failure-rate`, `--bit-flip-rate`, `--hang-rate`,
/// `--worker-crash-rate`, `--worker-crash-horizon`); all-zero rates mean a
/// clean device (`None`).
pub fn fault_plan_from_args(args: &Args) -> Option<FaultPlan> {
    let launch_failure = args.get_or("launch-failure-rate", 0.0f64);
    let bit_flip = args.get_or("bit-flip-rate", 0.0f64);
    let hang = args.get_or("hang-rate", 0.0f64);
    let worker_crash = args.get_or("worker-crash-rate", 0.0f64);
    let seed = args.get_or("fault-seed", 0xFA17u64);
    let horizon = args.get_or("worker-crash-horizon", 128u64);
    if launch_failure == 0.0 && bit_flip == 0.0 && hang == 0.0 && worker_crash == 0.0 {
        return None;
    }
    Some(
        FaultPlan::with_rates(seed, launch_failure, bit_flip, hang)
            .with_worker_crash(worker_crash, horizon),
    )
}

/// Resolve the simulator's host-thread setting: the `--sim-threads` flag
/// (`serial`, `auto`, or a count) wins over the `CDD_SIM_THREADS`
/// environment variable; both default to `serial`. Every setting is
/// byte-identical in results — the knob only changes wall-clock time
/// (DESIGN.md §11).
pub fn sim_parallelism_from_args(args: &Args) -> SimParallelism {
    match args.get("sim-threads") {
        Some(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("--sim-threads: {e}")),
        None => SimParallelism::from_env().unwrap_or_default(),
    }
}

/// Parse the campaign flags shared by every table/figure binary — `--sizes`
/// (or `--full` for the paper's complete sweep), `--blocks`, `--block-size`,
/// `--seed`, `--sim-threads` and the fault-injection flags — into a
/// [`CampaignConfig`]. `default_sizes` is the binary's reduced default
/// sweep.
pub fn campaign_from_args(args: &Args, default_sizes: &[usize]) -> CampaignConfig {
    let sizes = args.get_list_or("sizes", default_sizes);
    let mut cfg = CampaignConfig {
        sizes: if args.flag("full") { PAPER_SIZES.to_vec() } else { sizes },
        blocks: args.get_or("blocks", 4usize),
        block_size: args.get_or("block-size", 192usize),
        seed: args.get_or("seed", 2016u64),
        fault: fault_plan_from_args(args),
        ..Default::default()
    };
    cfg.device.parallelism = sim_parallelism_from_args(args);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_iter(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_key_value_and_flags() {
        let a = args(&["--sizes", "10,20", "--full", "--seed=7"]);
        assert_eq!(a.get("sizes"), Some("10,20"));
        assert!(a.flag("full"));
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert!(!a.flag("quick"));
    }

    #[test]
    fn list_parsing() {
        let a = args(&["--sizes", "10, 20,50"]);
        assert_eq!(a.get_list_or("sizes", &[1usize]), vec![10, 20, 50]);
        assert_eq!(a.get_list_or("gens", &[1000u64, 5000]), vec![1000, 5000]);
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get_or("threads", 768usize), 768);
        assert!(a.get("missing").is_none());
    }

    #[test]
    fn flags_no_lookup_asked_about_are_unknown() {
        let a = args(&["--devics", "3", "--seed", "7", "--delta-eval", "--full"]);
        assert_eq!(a.unknown(), vec!["delta-eval", "devics", "full", "seed"]);
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert!(a.flag("full"));
        // A lookup of a flag that was not given still makes it known.
        assert_eq!(a.get_or("devices", 2usize), 2);
        assert_eq!(a.get_list_or("sizes", &[10usize]), vec![10]);
        assert_eq!(a.unknown(), vec!["delta-eval", "devics"]);
        let _ = a.get("devics");
        let _ = a.flag("delta-eval");
        assert!(a.unknown().is_empty());
        a.finish();
    }

    #[test]
    fn shared_helpers_know_every_flag_they_document() {
        let a = args(&[
            "--fault-seed", "5", "--worker-crash-horizon", "9", "--full", "--sim-threads", "2",
        ]);
        let _ = campaign_from_args(&a, &[10]);
        assert!(a.unknown().is_empty(), "{:?}", a.unknown());
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn bad_value_panics() {
        args(&["--seed", "x"]).get_or("seed", 0u64);
    }

    #[test]
    fn campaign_flags_parse_into_one_config() {
        let cfg = campaign_from_args(
            &args(&["--sizes", "10,20", "--blocks", "2", "--block-size", "64", "--seed", "9"]),
            &[10, 20, 50],
        );
        assert_eq!(cfg.sizes, vec![10, 20]);
        assert_eq!(cfg.blocks, 2);
        assert_eq!(cfg.block_size, 64);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.fault.is_none());

        let defaulted = campaign_from_args(&args(&[]), &[10, 20, 50]);
        assert_eq!(defaulted.sizes, vec![10, 20, 50]);
        assert_eq!(defaulted.ensemble(), 768, "paper geometry by default");

        let full = campaign_from_args(&args(&["--full", "--launch-failure-rate", "0.05"]), &[10]);
        assert_eq!(full.sizes, PAPER_SIZES.to_vec());
        assert!(full.fault.as_ref().is_some_and(FaultPlan::is_active));
    }

    #[test]
    fn sim_threads_flag_parses_all_spellings() {
        assert_eq!(
            sim_parallelism_from_args(&args(&["--sim-threads", "serial"])),
            SimParallelism::Serial
        );
        assert_eq!(
            sim_parallelism_from_args(&args(&["--sim-threads", "auto"])),
            SimParallelism::Auto
        );
        assert_eq!(
            sim_parallelism_from_args(&args(&["--sim-threads=4"])),
            SimParallelism::Threads(4)
        );
        let cfg = campaign_from_args(&args(&["--sim-threads", "2"]), &[10]);
        assert_eq!(cfg.device.parallelism, SimParallelism::Threads(2));
    }

    #[test]
    #[should_panic(expected = "--sim-threads")]
    fn sim_threads_rejects_garbage() {
        sim_parallelism_from_args(&args(&["--sim-threads", "lots"]));
    }
}
