#!/usr/bin/env python3
"""Compare two bench --json dumps and print a %-change table.

Usage:
    scripts/bench_compare.py BEFORE.json AFTER.json [--threshold PCT]
        [--fail-above PCT]
    scripts/bench_compare.py --self-test

Accepts either format the bench harness emits:
  * a --json dump: {"tables": [{"caption", "headers", "rows"}, ...]}
  * a captured stdout log containing one-line summaries such as
    MEMPATH_JSON {"remote_ops_per_sec": 1.2e6, ...}

Tables are matched by caption (falling back to position), rows by their
first column. Every numeric cell is compared; non-numeric cells are
ignored. Exits 1 if --threshold is given and any metric regressed by more
than PCT percent (a regression is a drop for */sec columns and a rise for
everything else, since the remaining units are times/counts). Latency
percentile columns ("p50 ns" / "p99 ns" / "p999 ns") therefore gate as
ceilings: committed baselines pre-inflate them x2 (update_baselines.py),
so only a genuine tail blow-up — not runner noise — can rise past the
threshold. Hash columns are compared exactly, as text (a float keeps
only 53 of a 64-bit hash's bits), and any drift fails. A
deterministic baseline column (hash or count) that is *absent* from the
fresh dump is a hard failure, not a silent skip — renaming or dropping a
gated column must force a baseline regeneration, never an empty diff.
A deterministic count column whose baseline is 0 has no percentage to
gate, so any non-zero fresh value fails.
--self-test checks that a one-bit change of a 64-bit hash fails, and that
a count pinned at 0 fails when it reads non-zero.
"""

import argparse
import json
import os
import re
import sys
import tempfile


def parse_file(path):
    """Return {table_key: {row_key: {col_name: value}}}; see to_cell."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    out = {}
    if isinstance(doc, dict) and "tables" in doc:
        for i, table in enumerate(doc["tables"]):
            caption = (table.get("caption") or f"table {i}").splitlines()[0]
            headers = table.get("headers") or []
            rows = {}
            for row in table.get("rows", []):
                cells = {}
                for name, cell in zip(headers[1:], row[1:]):
                    value = to_cell(name, cell)
                    if value is not None:
                        cells[name] = value
                rows[str(row[0])] = cells
            out[caption] = rows
        return out
    # Fall back to scanning for NAME_JSON {...} summary lines.
    for match in re.finditer(r"^(\w+_JSON)\s+(\{.*\})\s*$", text, re.M):
        try:
            flat = json.loads(match.group(2))
        except json.JSONDecodeError:
            continue
        rows = {}
        for key, value in flat.items():
            v = to_cell(key, value)
            if v is not None:
                rows[key] = {"value": v}
        out[match.group(1)] = rows
    if not out:
        sys.exit(f"error: {path}: neither a bench --json dump nor a log "
                 "with *_JSON summary lines")
    return out


def to_float(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def to_cell(column, cell):
    """Exact columns keep their text, every other column its float."""
    if exact_match(column):
        return None if cell is None else str(cell).strip()
    return to_float(cell)


def higher_is_better(column):
    return "/sec" in column or "per_sec" in column


def exact_match(column):
    """Hash columns encode determinism: any change at all is a failure,
    whatever its sign or magnitude."""
    return "hash" in column.lower()


# Count-like columns are deterministic too (simulated work, not wall
# clock): if one disappears from a fresh dump, that is a renamed or
# dropped column, not a faster machine.
COUNT_TOKENS = {"issued", "completed", "shed", "events", "windows",
                "messages", "moves", "forwards", "count", "tasks", "spills"}


def deterministic(column):
    """Columns whose *absence* from the fresh dump must hard-fail: a
    baseline hash or count column that no longer exists would otherwise
    pass silently (nothing compared, exit 0)."""
    lowered = column.lower()
    return exact_match(column) or any(
        t in COUNT_TOKENS for t in lowered.split())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("before", nargs="?")
    ap.add_argument("after", nargs="?")
    ap.add_argument("--self-test", action="store_true",
                    help="check that a one-bit hash change fails, then exit")
    ap.add_argument("--threshold", type=float, default=None,
                    help="fail if any metric regresses by more than PCT%%")
    ap.add_argument("--fail-above", type=float, default=None, metavar="PCT",
                    help="regression gate for CI: exit non-zero if any "
                         "metric regresses by more than PCT%% (synonym for "
                         "--threshold; the stricter of the two wins)")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.after is None:
        ap.error("BEFORE and AFTER are required")
    gates = [t for t in (args.threshold, args.fail_above) if t is not None]
    return compare(args.before, args.after,
                   min(gates) if gates else None)


def compare(before_path, after_path, gate):
    before = parse_file(before_path)
    after = parse_file(after_path)

    # Positional fallback lets renamed captions still line up.
    keys = [k for k in before if k in after]
    if not keys and len(before) == len(after):
        keys = list(before)
        after = dict(zip(before, after.values()))

    worst = 0.0
    rows = []
    missing = []
    for key in before:
        if key in keys:
            continue
        if any(deterministic(c) for r in before[key].values() for c in r):
            missing.append((key, "-", "table absent from the fresh dump"))
    for key in keys:
        for row_name, cells in before[key].items():
            other = after[key].get(row_name)
            if other is None:
                if any(deterministic(c) for c in cells):
                    missing.append((key, row_name,
                                    "row absent from the fresh dump"))
                continue
            for col, old in cells.items():
                new = other.get(col)
                if new is None and deterministic(col):
                    missing.append((key, row_name,
                                    f"column '{col}' absent from the fresh "
                                    "dump"))
                    continue
                if exact_match(col):
                    # Determinism gate: any drift fails regardless of the
                    # numeric threshold (hashes are not magnitudes).
                    change = None  # printed as a same/DIFFERS verdict
                    regression = 0.0 if new == old else float("inf")
                elif old == 0:
                    # No percentage exists against a zero baseline, but a
                    # count pinned at 0 (no sheds, no spills) must stay 0.
                    if new is None or not deterministic(col):
                        continue
                    change = 0.0 if new == 0 else float("inf")
                    regression = change
                else:
                    if new is None:
                        continue
                    change = 100.0 * (new - old) / old
                    regression = -change if higher_is_better(col) else change
                worst = max(worst, regression)
                rows.append((key, row_name, col, old, new, change))

    if not rows and not missing:
        sys.exit("error: no comparable metrics between the two files")

    name_w = max(len(f"{r[1]} [{r[2]}]") for r in rows)
    print(f"{'metric':<{name_w}}  {'before':>12}  {'after':>12}  {'change':>8}")
    last_key = None
    for key, row_name, col, old, new, change in rows:
        if key != last_key:
            print(f"-- {key}")
            last_key = key
        label = f"{row_name} [{col}]"
        if exact_match(col):
            verdict = "same" if new == old else "DIFFERS"
            print(f"{label:<{name_w}}  {old:>12}  {str(new):>12}  {verdict:>8}")
        else:
            print(f"{label:<{name_w}}  {old:>12.6g}  {new:>12.6g}  "
                  f"{change:>+7.1f}%")

    if missing:
        print("\nFAIL: deterministic baseline columns (hashes, counts) are "
              "missing from the fresh dump — a renamed or dropped column "
              "would otherwise pass silently:", file=sys.stderr)
        for key, row_name, what in missing:
            print(f"  {key} / {row_name}: {what}", file=sys.stderr)
        return 1
    if gate is not None and worst > gate:
        print(f"\nFAIL: worst regression {worst:.1f}% exceeds "
              f"threshold {gate:.1f}%", file=sys.stderr)
        return 1
    return 0


def self_test():
    """A one-bit change of a 64-bit hash must fail the gate, and so must a
    count pinned at 0 that reads non-zero; equal dumps must pass. As
    floats the two hashes below compare equal."""
    pinned = 13681594062957755459
    table = {"caption": "self-test", "headers": ["row", "events", "shed",
                                                 "hash"]}
    cases = [  # (events, shed, hash) of the fresh dump, expected exit
        (("7", "0", str(pinned)), 0),
        (("7", "0", str(pinned ^ 1)), 1),
        (("7", "191", str(pinned)), 1),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def dump(name, cells):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"tables": [dict(table, rows=[["a", *cells]])]}, f)
            return path
        base = dump("base.json", ("7", "0", str(pinned)))
        for i, (cells, want) in enumerate(cases):
            got = compare(base, dump(f"fresh{i}.json", cells), 60.0)
            if got != want:
                failures.append(f"events/shed/hash {cells} -> {got} "
                                f"(want {want})")
    if failures:
        print("self-test FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("self-test passed: a one-bit hash change and a non-zero count "
          "against a zero baseline both fail the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
