#!/usr/bin/env python3
"""Build the perfbench program and run one workload, or repeat runs.

One run (what BENCHMARK.json's command does), from the repository root:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

The program's standard output passes through; its last line is the JSON
result and the exit code is the program's.

Repeat mode runs the workload N times, each in its own process, with seeds
seed, seed+1, ... (or the same seed with --same-seed) and prints, for every
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median next to the metric's bound in BENCHMARK.json. With
--same-seed it also checks that the deterministic companions (outcome hash,
quality ratio, success share, and on traced runs the exact counts) repeat
exactly:

    python3 perfbench/run.py --repeat 10 --workload solve-large --seed 1

Repeat runs last BENCHMARK.json's run_seconds unless --seconds is given.

The build goes to $CARGO_TARGET_DIR, or to .bench_build when it is unset.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build chatter goes to stderr: stdout ends with the result line.
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def take(args, flag, default=None):
    """Remove `flag value` from args and return the value."""
    if flag not in args:
        return default
    i = args.index(flag)
    if i + 1 >= len(args):
        sys.exit(f"run.py: {flag} needs a value")
    value = args[i + 1]
    del args[i:i + 2]
    return value


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat(binary, args, runs, same_seed):
    seed = int(take(args, "--seed", "1"))
    take(args, "--trace")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if "--seconds" not in args:
        args += ["--seconds", str(spec["run_seconds"])]
    values, dets, failures = {}, {}, 0
    for i in range(runs):
        run_seed = seed if same_seed else seed + i
        cmd = [binary] + args + ["--seed", str(run_seed), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures += 1
            print(f"run {i} (seed {run_seed}) failed, exit {done.returncode}:", file=sys.stderr)
            print(done.stdout + done.stderr, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        det = [line for line in lines if line.startswith("det ")]
        dets.setdefault(run_seed, set()).update(det)
        print(f"run {i} seed {run_seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), file=sys.stderr)
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = spread(vals)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = "-" if bound is None else (
            "ok" if share <= bound / 3 else ("within" if share <= bound else "OVER"))
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
    unstable = [s for s, d in dets.items() if len(d) > 1]
    for s in unstable:
        print(f"seed {s}: deterministic companions differ between runs:\n  " +
              "\n  ".join(sorted(dets[s])))
    return 1 if failures or unstable else 0


def main():
    args = sys.argv[1:]
    runs = take(args, "--repeat")
    same_seed = "--same-seed" in args
    if same_seed:
        args.remove("--same-seed")
    binary = build()
    if runs is None:
        sys.exit(subprocess.run([binary] + args).returncode)
    sys.exit(repeat(binary, args, int(runs), same_seed))


if __name__ == "__main__":
    main()
