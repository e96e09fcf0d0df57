#!/usr/bin/env python3
"""Regenerate the bench baseline dumps that CI gates against.

Runs the named benches (default: the gated set) with `--json`, then turns
the fresh dump into a *baseline*: deterministic columns (event counts,
windows, messages, hashes, live intervals) are kept exactly — CI hardware
cannot change them — while hardware-dependent columns are derated into
floors/ceilings so the gate only trips on structural collapses, not on
runner-vs-runner variance:

  * throughput columns ("/sec", "per_sec"): multiplied by 0.5 (a floor —
    CI fails only if it drops more than --fail-above below half the
    reference machine's throughput)
  * latency columns ("ns/op", and tail-percentile columns such as
    "p50 ns" / "p99 ns" / "p999 ns" / "max ns" from the serving benches):
    multiplied by 2.0 (a ceiling — p999 is matched as a whole token, not
    as a substring of p99)
  * wall-time and memory-footprint columns ("ms", "MB"): multiplied by 2.5
    with an absolute floor of 10 units (a ceiling — construction time and
    RSS growth gate structural regressions such as an accidental return
    to quadratic state, not allocator or scheduler noise on tiny rows)

Hash columns are kept exactly and compared exactly (bench_compare treats
any hash change as a failure) — they encode the engine's determinism, not
a performance number.

Re-run this script (and commit bench/baselines/) whenever bench workloads
or engine behavior change intentionally:

Byte-hop columns ("byte hops") are migration/forwarding traffic on the
simulated interconnect — deterministic in principle, but they shift with
every intentional workload retune, so they gate as x2 ceilings rather
than exact matches: only a locality collapse (remote traffic blowing up
past twice the reference) trips them.

Re-run this script (and commit bench/baselines/) whenever bench workloads
or engine behavior change intentionally:

    cmake --build build --target bench_simcore bench_mempath bench_scale \
        bench_serve bench_repart
    python3 scripts/update_baselines.py --build-dir build
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

GATED_BENCHES = ["bench_simcore", "bench_mempath", "bench_scale",
                 "bench_serve", "bench_repart"]
THROUGHPUT_DERATE = 0.5
LATENCY_INFLATE = 2.0
WALL_INFLATE = 2.5  # wall-time ("ms") and memory ("MB") ceilings
# Sub-millisecond / sub-megabyte measurements would otherwise produce
# ceilings so tight that scheduler or allocator noise on a shared runner
# trips them; the scaling gate cares about the big rows, so tiny ones
# get at least this much absolute headroom.
WALL_MIN_CEILING = 10.0
# Interconnect traffic ("byte hops"): a ceiling wide enough to survive
# intentional retunes, tight enough to catch a locality collapse.
BYTE_HOP_INFLATE = 2.0


def is_latency_column(name):
    """Latency columns gated as x2 ceilings: "ns/op" rates, and the
    serving benches' tail percentiles. Percentile names are matched as
    whole tokens ("p999 ns" must not be caught by a "p99" substring
    test, or renamed columns would silently inherit the wrong gate)."""
    if "ns/op" in name:
        return True
    tokens = name.split()
    return "ns" in tokens and any(
        t in ("p50", "p90", "p99", "p999", "max", "mean") for t in tokens)


def derate(doc):
    for table in doc.get("tables", []):
        headers = table.get("headers", [])
        for row in table.get("rows", []):
            for i, name in enumerate(headers):
                if i == 0 or i >= len(row):
                    continue
                try:
                    v = float(row[i])
                except (TypeError, ValueError):
                    continue
                if "/sec" in name or "per_sec" in name:
                    row[i] = f"{v * THROUGHPUT_DERATE:.6g}"
                elif is_latency_column(name):
                    row[i] = f"{v * LATENCY_INFLATE:.6g}"
                elif "ms" in name.split() or "MB" in name.split():
                    row[i] = f"{max(v * WALL_INFLATE, WALL_MIN_CEILING):.6g}"
                elif "byte hops" in name:
                    row[i] = f"{v * BYTE_HOP_INFLATE:.6g}"
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("benches", nargs="*", default=GATED_BENCHES)
    args = ap.parse_args()

    repo = pathlib.Path(__file__).resolve().parent.parent
    out_dir = repo / "bench" / "baselines"
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in args.benches:
        bench = repo / args.build_dir / "bench" / name
        if not bench.exists():
            sys.exit(f"error: {bench} not built")
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            subprocess.run(
                [str(bench), "--json", tmp.name],
                check=True, stdout=subprocess.DEVNULL)
            doc = json.loads(pathlib.Path(tmp.name).read_text())
        baseline = out_dir / f"{name}.json"
        baseline.write_text(json.dumps(derate(doc), indent=1) + "\n")
        print(f"wrote {baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
