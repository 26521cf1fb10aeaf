#!/usr/bin/env python3
"""Print per-layer totals from the span files of traced benchmark runs.

    python3 bench/run.py --workload braid_ladder --seed 1 --seconds 45 --trace 1
    python3 bench/report.py bench/_work/*/trace-s*.json

For each file: every wrapped function's calls, failures, total and self
seconds and measured work per pass, the tracing overhead, and for the
braid ladder the rewrite and fold-line-check time of each rung next to the
single-run baseline recorded in ROADMAP.md.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from tracing import layer_totals, self_times

# ROADMAP.md re-anchor baseline for (s1 s2)^k closures, seconds per run
BASELINE = {8: (0.017, 0.08), 20: (0.56, 0.48), 40: (6.96, 1.40)}


def per_command(doc, passes: int) -> None:
    """Where each command's time goes: its three largest self times."""
    cmd_of = {op[0]: op[1] for op in doc["ops"]}
    op_time, self_time = defaultdict(float), defaultdict(lambda: defaultdict(float))
    for op in doc["ops"]:
        op_time[op[1]] += op[5]
    for own, span in zip(self_times(doc["spans"]), doc["spans"]):
        self_time[cmd_of[span[4]]][span[0]] += own
    for cmd, spent in sorted(op_time.items()):
        top = sorted(self_time[cmd].items(), key=lambda kv: -kv[1])[:3]
        parts = ", ".join(f"{n} {t / passes:.3f} s ({100 * t / spent:.0f}%)" for n, t in top)
        print(f"  {cmd}: {spent / passes:.3f} s per pass; largest self times: {parts}")


def per_rung(doc) -> None:
    """Rewrite time in each rung's bound and fold-line check in its layout."""
    ops = {op[0]: op for op in doc["ops"]}
    rewrite, fold, runs = defaultdict(float), defaultdict(float), defaultdict(set)
    for op in doc["ops"]:
        runs[(op[3], op[1])].add(op[0])
    for name, start, end, _parent, op, _error, _work in doc["spans"]:
        _, cmd, _diagram, c, _code, _elapsed = ops[op]
        if cmd == "bound" and name == "rewrite.normalize":
            rewrite[c] += end - start
        elif cmd == "layout" and name == "layout.check_fold_lines":
            fold[c] += end - start
    print("  rung   rewrite (bound)   baseline   fold-line check (layout)   baseline")
    for c in sorted({c for c, _ in runs} | set(BASELINE)):
        base = BASELINE.get(c)
        b_rw, b_fl = (f"{base[0]:8.3f} s", f"{base[1]:8.3f} s") if base else ("       -", "       -")
        if (c, "bound") not in runs:
            print(f"  c={c:<3}  not on the ladder  {b_rw}   {'':20}        {b_fl}")
            continue
        rw = rewrite[c] / len(runs[(c, "bound")])
        fl = fold[c] / max(1, len(runs[(c, "layout")]))
        print(f"  c={c:<3} {rw:12.3f} s    {b_rw}   {fl:18.3f} s          {b_fl}")


def report(path: Path) -> None:
    doc = json.loads(path.read_text())
    passes = doc["passes"]
    traced = sum(op[5] for op in doc["ops"])
    print(f"== {doc['workload']} seed {doc['seed']}: {passes} passes, "
          f"{len(doc['ops'])} traced ops, {traced / passes:.3f} s traced op time per pass")
    print(f"{'layer function':32} {'calls':>8} {'failed':>7} {'total s':>10} "
          f"{'self s':>10} {'work':>12}   (per pass)")
    totals = layer_totals(doc["spans"])
    for name in sorted(totals, key=lambda n: -totals[n]["self_s"]):
        t = totals[name]
        errors = ", ".join(f"{k} {v / passes:g}" for k, v in sorted(t["errors"].items()))
        print(f"{name:32} {t['calls'] / passes:8g} {sum(t['errors'].values()) / passes:7g} "
              f"{t['total_s'] / passes:10.4f} {t['self_s'] / passes:10.4f} "
              f"{t['work'] / passes:12g}   {errors}")
    overhead = doc["overhead_s"] / passes
    print(f"tracing overhead: {overhead:.4f} s per pass "
          f"({100 * overhead / (traced / passes - overhead):.2f}% of untraced op time)")
    per_command(doc, passes)
    if doc["workload"] == "braid_ladder":
        per_rung(doc)
    print()


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for arg in argv:
        report(Path(arg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
