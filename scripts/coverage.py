#!/usr/bin/env python3
"""Line coverage of src/ by what the results read.

Builds two Debug trees with `--coverage -O0`: the top-level project's
benches and examples, and ecobench from bench/e2e/CMakeLists.txt (its own
build, since bench/e2e/run.py builds RelWithDebInfo). Runs CI's bench
invocations (every bench with --json, the litmus and 100k-worker scale
smokes, the four --trace runs), every example, and ecobench's --smoke plus
one traced 1 s run per workload. Then unions both trees' `gcov
--json-format` records per src/ line and prints, per module, how many
executable lines were reached. Tests are not run: a line only a unit test
reaches counts as unreached.

    python3 scripts/coverage.py                 # build, run, report
    python3 scripts/coverage.py --report-only   # re-report the last run
    python3 scripts/coverage.py --list          # also print unreached lines

A src/*.cc that no linked object holds has no record at all; it is listed
as fully unreached, with its executable line count, apart from the
totals. Output lands in .coverage/ (override with --out).
"""

import argparse
import collections
import itertools
import json
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLAGS = ["-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=--coverage -O0",
         "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
# CI gives each bench 600 s; a -O0 coverage build runs several times slower.
BENCH_TIMEOUT_S = 1800
TRACED = ["bench_holistic", "bench_resilience", "bench_serve",
          "bench_repart"]


def sh(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    return subprocess.run([str(c) for c in cmd], **kw)


def targets(cmake_file, macro):
    text = (ROOT / cmake_file).read_text()
    return re.findall(rf"^{macro}\((\w+)\)", text, re.M)


def build(main, e2e, jobs):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    benches = targets("bench/CMakeLists.txt", "eco_add_bench")
    examples = targets("examples/CMakeLists.txt", "eco_add_example")
    for src, tree, tgts in ((ROOT, main, benches + examples),
                            (ROOT / "bench" / "e2e", e2e, ["ecobench"])):
        if sh(["cmake", "-S", src, "-B", tree, *gen, *FLAGS]).returncode:
            sys.exit("coverage: configure failed")
        if sh(["cmake", "--build", tree, "-j", jobs, "--target",
               *tgts]).returncode:
            sys.exit("coverage: build failed")
    # Counts accumulate across runs; start every measurement from zero.
    for tree in (main, e2e):
        for gcda in tree.rglob("*.gcda"):
            gcda.unlink()
    return benches, examples


def limit_address_space():
    # CI's scale smoke runs under `ulimit -v 4194304` (4 GiB).
    cap = 4 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_all(out, main, e2e, benches, examples):
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    runs = []
    for name in benches:
        args = [] if name == "bench_micro" else ["--json",
                                                 results / f"{name}.json"]
        runs.append(([main / "bench" / name, *args], None))
    runs.append(([main / "bench" / "bench_litmus"], None))
    runs.append(([main / "bench" / "bench_scale"], limit_address_space))
    for name in TRACED:
        runs.append(([main / "bench" / name, "--trace",
                      results / f"{name}.trace.json"], None))
    for name in examples:
        runs.append(([main / "examples" / name], None))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs.append(([e2e / "ecobench", "--smoke"], None))
    for w in spec["workloads"]:
        runs.append(([e2e / "ecobench", "--workload", w["name"], "--seed",
                      "1", "--seconds", "1", "--trace",
                      results / f"ecobench_{w['name']}.trace.json"], None))
    failed = []
    for cmd, preexec in runs:
        try:
            rc = sh(cmd, cwd=results, stdout=subprocess.DEVNULL,
                    preexec_fn=preexec, timeout=BENCH_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        if rc != 0:
            failed.append(f"{pathlib.Path(cmd[0]).name}: {rc}")
    for f in failed:
        print(f"coverage: warning: {f} (its counts up to exit still count)",
              file=sys.stderr)


def gcov_records(tree):
    """Yields (gcno path, gcov JSON document) for every object in `tree`."""
    for gcno in sorted(tree.rglob("*.gcno")):
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             str(gcno.parent), str(gcno)],
            cwd=gcno.parent, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        if proc.stdout.strip():
            yield gcno, json.loads(proc.stdout)


def src_path(name, cwd):
    path = pathlib.Path(cwd) / name  # `name` may already be absolute
    try:
        rel = path.resolve().relative_to(ROOT)
    except ValueError:
        return None
    return str(rel) if rel.parts[0] == "src" else None


def collect(trees):
    """Returns ({(file, line): reached}, {unlinked .cc: executable lines})."""
    lines = {}
    unlinked = {}
    linked = set()
    for tree in trees:
        for gcno, doc in gcov_records(tree):
            has_record = gcno.with_suffix(".gcda").exists()
            for f in doc.get("files", []):
                rel = src_path(f["file"],
                               doc.get("current_working_directory", "/"))
                if rel is None:
                    continue
                if not has_record:
                    if rel.endswith(".cc"):
                        unlinked[rel] = len({l["line_number"]
                                             for l in f["lines"]})
                    continue
                if rel.endswith(".cc"):
                    linked.add(rel)
                for l in f["lines"]:
                    key = (rel, l["line_number"])
                    lines[key] = lines.get(key, False) or l["count"] > 0
    for rel in linked:
        unlinked.pop(rel, None)
    return lines, unlinked


def ranges(numbers):
    """Line numbers as runs: [3, 4, 5, 9] -> ["3-5", "9"]."""
    out = []
    for _, run in itertools.groupby(enumerate(sorted(numbers)),
                                    lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        out.append(f"{run[0]}" if len(run) == 1 else f"{run[0]}-{run[-1]}")
    return out


def report(lines, unlinked, listing):
    modules = collections.defaultdict(lambda: [0, 0])
    missed = collections.defaultdict(list)
    for (rel, line), reached in lines.items():
        module = pathlib.Path(rel).parts[1]
        modules[module][0] += 1
        if not reached:
            modules[module][1] += 1
            missed[rel].append(line)
    print(f"\n{'module':<14}{'executable':>11}{'reached':>9}{'unreached':>11}")
    for module in sorted(modules, key=lambda m: (-modules[m][1], m)):
        total, unreached = modules[module]
        print(f"{module:<14}{total:>11}{total - unreached:>9}{unreached:>11}")
    total = sum(m[0] for m in modules.values())
    unreached = sum(m[1] for m in modules.values())
    print(f"{'all':<14}{total:>11}{total - unreached:>9}{unreached:>11}")
    if listing:
        print("\nunreached lines:")
        for rel in sorted(missed):
            print(f"  {rel}: {', '.join(ranges(missed[rel]))}")
    print(f"\nsrc/*.cc with no record (fully unreached): {len(unlinked)}")
    for rel in sorted(unlinked):
        print(f"  {rel} ({unlinked[rel]} executable lines)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(ROOT / ".coverage"))
    ap.add_argument("--jobs", default=str(min(4, os.cpu_count() or 1)))
    ap.add_argument("--report-only", action="store_true")
    ap.add_argument("--list", action="store_true",
                    help="print every unreached line range per file")
    args = ap.parse_args()
    out = pathlib.Path(args.out).resolve()
    main_tree, e2e_tree = out / "main", out / "e2e"
    if not args.report_only:
        benches, examples = build(main_tree, e2e_tree, args.jobs)
        run_all(out, main_tree, e2e_tree, benches, examples)
    lines, unlinked = collect([main_tree, e2e_tree])
    if not lines:
        sys.exit(f"coverage: no records under {out}")
    report(lines, unlinked, args.list)
    return 0


if __name__ == "__main__":
    sys.exit(main())
