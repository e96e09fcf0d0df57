#!/usr/bin/env python3
"""Build and run ecobench, the repository's end-to-end benchmark.

Every mode first builds bench/e2e (ecobench plus the module libraries it
links) into .bench_build/e2e, then runs one workload process at a time.

  python3 bench/e2e/run.py
      Full pass: every workload with its traced rep; prints every metric by
      name with its unit and writes bench-results/ecobench.json.
  python3 bench/e2e/run.py --repeat 2
      Two full passes in one invocation, then per-metric agreement: host
      end-to-end metrics within their BENCHMARK.json bound, simulated
      metrics and fingerprints identical.
  python3 bench/e2e/run.py --compare A.json B.json
      Per (workload, metric) verdicts between two results files.
  python3 bench/e2e/run.py --smoke
      All four workloads at about 1/20 size, every output check on.
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object
      with correct, attempted, failed and the end-to-end (--trace 0) or
      per-layer (--trace 1) metrics named in BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
RESULTS = ROOT / "bench-results"
# One workload process must finish well inside the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"missing {path}")
    return json.loads(path.read_text())


def build():
    """Configure once, then build; returns the ecobench executable."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no module sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die(f"build step failed: {' '.join(cmd)}")
    exe = BUILD / "ecobench"
    if not exe.is_file():
        die(f"build produced no {exe}")
    return exe


def run_workload(exe, workload, seed, seconds, trace_path=None):
    """Runs one workload process; returns its ECOBENCH_JSON record."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {WORKLOAD_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("ECOBENCH_JSON ")]
    if not lines:
        die(f"{workload} printed no result (exit {proc.returncode})")
    record = json.loads(lines[-1][len("ECOBENCH_JSON "):])
    record["correct"] = record["correct"] and proc.returncode == 0
    return record


def metric_specs(spec):
    """name -> (section, entry) for every metric BENCHMARK.json declares."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        for entry in spec[section]:
            out[entry["name"]] = (section, entry)
    return out


# --- one run of one workload -----------------------------------------------

def single_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; expected one of {names}")
    exe = build()
    trace_path = None
    if args.trace == 1:
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"{args.workload}.trace.json"
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rec = run_workload(exe, args.workload, args.seed, seconds, trace_path)
    for f in rec["failures"]:
        print(f"check failed: {f}", file=sys.stderr)
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        m = rec["metrics"].get(entry["name"])
        if m is None:
            die(f"ecobench reported no {entry['name']}")
        if m["unit"] != entry["unit"]:
            die(f"{entry['name']}: unit {m['unit']} != {entry['unit']}")
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if rec["correct"] else 1


# --- full passes -----------------------------------------------------------

def quartiles(values):
    """(q1, median, q3), statistics.quantiles(n=4) style."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(passes):
    """Per workload and metric: the values of every pass and their median."""
    summary = {}
    for rec_by_workload in passes:
        for w, rec in rec_by_workload.items():
            ws = summary.setdefault(w, {"fingerprints": [], "metrics": {}})
            ws["fingerprints"].append(rec["fingerprint"])
            for name, m in rec["metrics"].items():
                s = ws["metrics"].setdefault(
                    name, {"unit": m["unit"], "kind": m["kind"], "values": []})
                s["values"].append(m["value"])
    for ws in summary.values():
        for s in ws["metrics"].values():
            s["median"] = statistics.median(s["values"])
    return summary


def print_pass(rec_by_workload, specs):
    for w, rec in rec_by_workload.items():
        status = "correct" if rec["correct"] else "FAILED"
        print(f"\n== {w} (seed {rec['seed']}): {status}, attempted "
              f"{rec['attempted']}, failed {rec['failed']}, reps "
              f"{rec['reps_1t']}x1t + {rec['reps_4t']}x{rec['threads_4t']}t, "
              f"fingerprint {rec['fingerprint']}")
        for f in rec["failures"]:
            print(f"   check failed: {f}")
        for name, m in rec["metrics"].items():
            section = specs.get(name, ("unlisted", {}))[0]
            spread = ""
            if m["reps"] > 1:
                spread = (f"  [min {m['min']:.6g}, median {m['median']:.6g}, "
                          f"max {m['max']:.6g}, {m['reps']} reps]")
            base = f"  (base: {m['base']})" if "base" in m else ""
            print(f"   {name:<36} {m['value']:>16.8g} {m['unit']:<6} "
                  f"{m['kind']:<4} {section:<10}{spread}{base}")


def full_pass(exe, spec, seed, seconds):
    RESULTS.mkdir(exist_ok=True)
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        out[name] = run_workload(exe, name, seed, seconds,
                                 RESULTS / f"{name}.trace.json")
    return out


def agreement(summary, specs):
    """--repeat: host end-to-end metrics within their bound across passes,
    simulated metrics and fingerprints identical. Returns the failures."""
    bad = 0
    print("\n== agreement across passes")
    for w, ws in summary.items():
        if len(set(ws["fingerprints"])) != 1:
            print(f"   {w:<12} fingerprint  DIFFERS {ws['fingerprints']}")
            bad += 1
        for name, s in ws["metrics"].items():
            values = s["values"]
            if s["kind"] == "sim":
                if len(set(values)) != 1:
                    print(f"   {w:<12} {name:<36} DIFFERS {values}")
                    bad += 1
                continue
            section, entry = specs.get(name, (None, {}))
            if section != "end_to_end":
                continue
            spread = (max(values) - min(values)) / s["median"]
            ok = spread <= entry["bound"]
            bad += 0 if ok else 1
            print(f"   {w:<12} {name:<36} {'agree' if ok else 'DISAGREE':<9}"
                  f" spread {100 * spread:6.2f}% (bound "
                  f"{100 * entry['bound']:.0f}%) values "
                  f"{[round(v, 6) for v in values]}")
    print(f"   {'all metrics agree' if bad == 0 else f'{bad} disagreements'}")
    return bad


def passes_main(args, spec):
    exe = build()
    specs = metric_specs(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    passes = []
    for i in range(args.repeat):
        if args.repeat > 1:
            print(f"\n##### pass {i + 1} of {args.repeat}")
        passes.append(full_pass(exe, spec, args.seed, seconds))
        print_pass(passes[-1], specs)
    summary = summarize(passes)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "ecobench.json"
    path.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                                "passes": passes, "summary": summary},
                               indent=1))
    print(f"\nwrote {path}")
    failed = sum(1 for p in passes for r in p.values() if not r["correct"])
    if args.repeat > 1:
        failed += agreement(summary, specs)
    return 0 if failed == 0 else 1


# --- compare ---------------------------------------------------------------

# Fewest passes per file from which a run-to-run spread is taken.
MIN_PASSES = 3


def host_verdict(sa, sb, entry):
    """Bound check for one host end-to-end metric (choosing-metrics rules)."""
    va, vb = sa["values"], sb["values"]
    if min(len(va), len(vb)) < MIN_PASSES:
        return f"unresolved (spread needs {MIN_PASSES} passes per file)"
    lower = entry["better"] == "lower"
    if (max(vb) < min(va)) if lower else (min(vb) > max(va)):
        return "better (every B run)"
    qa, qb = quartiles(va), quartiles(vb)
    ma, mb = sa["median"], sb["median"]
    worse = ((mb - ma) if lower else (ma - mb)) / ma
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    if spread > entry["bound"]:
        return f"unresolved (spread {100 * spread:.1f}% > bound)"
    if worse > entry["bound"]:
        return f"REGRESSION (> {100 * entry['bound']:.0f}%)"
    return "ok"


def compare_main(args, spec):
    specs = metric_specs(spec)
    a = json.loads(Path(args.compare[0]).read_text())["summary"]
    b = json.loads(Path(args.compare[1]).read_text())["summary"]
    failures = 0

    def row(w, name, unit, left, right, change, verdict):
        print(f"{w:<12} {name:<36} {unit:<6} {left:<40} {right:<40} "
              f"{change:>8}  {verdict}")

    def cell(s):
        q = quartiles(s["values"])
        return f"{s['median']:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    row("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
        "change", "verdict")
    for w in a:
        if w not in b:
            row(w, "(workload)", "", "present", "missing", "", "FAIL")
            failures += 1
            continue
        fa, fb = a[w]["fingerprints"][0], b[w]["fingerprints"][0]
        if fa != fb:
            row(w, "fingerprint", "", fa, fb, "", "FAIL (simulated results)")
            failures += 1
        for name, sa in a[w]["metrics"].items():
            sb = b[w]["metrics"].get(name)
            if sb is None:
                continue
            ma, mb = sa["median"], sb["median"]
            change = f"{100 * (mb - ma) / ma:.2f}%" if ma else ""
            section, entry = specs.get(name, (None, {}))
            if sa["kind"] == "sim":
                verdict = ("same" if sa["values"] == sb["values"]
                           else "FAIL (simulated metric changed)")
            elif section != "end_to_end" or ma == 0 or mb == 0:
                verdict = "info (no bound)"
            else:
                verdict = host_verdict(sa, sb, entry)
            if verdict.startswith(("FAIL", "REGRESSION")):
                failures += 1
            row(w, name, sa["unit"], cell(sa), cell(sb), change, verdict)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare_main(args, spec)
    if args.smoke:
        return subprocess.run([str(build()), "--smoke"],
                              timeout=WORKLOAD_TIMEOUT_S).returncode
    if args.workload:
        return single_run(args, spec)
    if args.repeat < 1:
        die("--repeat must be at least 1")
    return passes_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
