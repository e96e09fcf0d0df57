#!/usr/bin/env python3
"""Alternating A/B pairs of two ecobench binaries on one workload.

  python3 scripts/ab_pairs.py BASE_ECOBENCH CHANGE_ECOBENCH \\
      --workload engine_mesh --seeds 1,2 --pairs 10 --seconds 3

For every seed, runs the two binaries alternately, one run of each per pair;
the binary that goes first swaps from pair to pair, so a slow drift of the
host weighs on both sides alike. Then prints, per seed and over all seeds,
each end-to-end metric of BENCHMARK.json with:

  * the median and quartile distance (q3 - q1) of each side's runs,
  * the ratio of the medians (change / base),
  * the median of the per-pair ratios,
  * the pairs the change won (better in the metric's direction).

Exits non-zero when a run fails its output checks, or when the fingerprint
or sim_makespan_us of a change run differs from the base run it is paired
with: a host-time comparison means nothing if the two sides simulated
different things. Running one binary against itself checks this script.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def die(msg):
    print(f"ab_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def end_to_end_metrics():
    """[(name, better)] from BENCHMARK.json's end_to_end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(cmd)} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("ECOBENCH_JSON ")]
    if not lines:
        die(f"{' '.join(cmd)} printed no result (exit {proc.returncode})")
    rec = json.loads(lines[-1][len("ECOBENCH_JSON "):])
    rec["correct"] = rec["correct"] and proc.returncode == 0
    return rec


def spread(values):
    """(median, q3 - q1) of the values."""
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def report(title, pairs, metrics):
    print(f"\n== {title}: {len(pairs)} pairs")
    print(f"   {'metric':<16} {'base median':>12} {'base iqr':>10} "
          f"{'change median':>14} {'change iqr':>10} {'ratio':>7} "
          f"{'pair ratio':>10} {'wins':>7}")
    for name, better in metrics:
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        b_med, b_iqr = spread(base)
        c_med, c_iqr = spread(change)
        ratio = c_med / b_med if b_med else float("nan")
        pair_ratios = [c / b for b, c in zip(base, change) if b]
        pair_ratio = (statistics.median(pair_ratios) if pair_ratios
                      else float("nan"))
        if better == "lower":
            wins = sum(c < b for b, c in zip(base, change))
        else:
            wins = sum(c > b for b, c in zip(base, change))
        print(f"   {name:<16} {b_med:>12.6g} {b_iqr:>10.3g} {c_med:>14.6g} "
              f"{c_iqr:>10.3g} {ratio:>7.4f} {pair_ratio:>10.4f} "
              f"{wins:>3}/{len(pairs):<3}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base", help="ecobench binary of the base tree")
    ap.add_argument("change", help="ecobench binary of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated seeds (default 1,2)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs per seed (default 10)")
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="ecobench --seconds per run (default 3)")
    args = ap.parse_args()
    if args.pairs < 1:
        die("--pairs must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        die("no seeds")
    metrics = end_to_end_metrics()

    bad = 0
    all_pairs = []
    for seed in seeds:
        pairs = []
        for i in range(args.pairs):
            order = (("base", args.base), ("change", args.change))
            if i % 2:
                order = order[::-1]
            got = {side: run_once(exe, args.workload, seed, args.seconds)
                   for side, exe in order}
            b, c = got["base"], got["change"]
            for side in ("base", "change"):
                if not got[side]["correct"]:
                    print(f"seed {seed} pair {i}: {side} run failed its "
                          f"checks: {got[side]['failures']}")
                    bad += 1
            for what, vb, vc in (
                    ("fingerprint", b["fingerprint"], c["fingerprint"]),
                    ("sim_makespan_us",
                     b["metrics"]["sim_makespan_us"]["value"],
                     c["metrics"]["sim_makespan_us"]["value"])):
                if vb != vc:
                    print(f"seed {seed} pair {i}: {what} differs: base {vb}, "
                          f"change {vc}")
                    bad += 1
            pairs.append((b, c))
            print(f"seed {seed} pair {i}: run_s_1t base "
                  f"{b['metrics']['run_s_1t']['value']:.6g} change "
                  f"{c['metrics']['run_s_1t']['value']:.6g}", flush=True)
        report(f"{args.workload}, seed {seed}", pairs, metrics)
        all_pairs += pairs
    if len(seeds) > 1:
        report(f"{args.workload}, seeds {args.seeds}", all_pairs, metrics)
    if bad:
        print(f"\nab_pairs: {bad} failed check(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
