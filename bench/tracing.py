"""Spans around the public functions of each ribbonfold module.

The tracer wraps functions from outside the package: it replaces the name
in every module that looks the function up, records one span per call and
puts the originals back on ``uninstall``. Nothing in ``src/`` changes, and
an untraced run never installs a wrapper.

A span is ``(name, start, end, parent, op, error, work)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the benchmark's
operation id, ``error`` the exception class name or None, and ``work`` a
size measured at the call (states, rows, segments) or None.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

Span = Tuple[str, float, float, int, int, Optional[str], Optional[int]]


def _states(args, result) -> int:
    return 1 << len(args[0].crossings)


def _rows(args, result) -> int:
    return len(result.rows)


def _segments(args, result) -> int:
    return len(result)


# (span name, defining module, function, modules to patch or None for every
# ribbonfold module that holds the function, work measure or None)
HOOKS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]], Optional[Callable]], ...] = (
    ("cli.run_command", "ribbonfold.cli", "run_command", None, None),
    ("ingest.parse_pd", "ribbonfold.ingest", "parse_pd", None, None),
    ("ingest.detect_nugatory", "ribbonfold.ingest", "detect_nugatory", None, None),
    ("model.validate_diagram", "ribbonfold.model", "validate_diagram", None, None),
    # only the per-move validation inside the rewrite stage
    ("model.check_bgd", "ribbonfold.model", "check_bgd", ("ribbonfold.rewrite",), None),
    ("leveling.find_leveling", "ribbonfold.leveling", "find_leveling", None, None),
    ("leveling.optimize_flips", "ribbonfold.leveling", "optimize_flips", None, None),
    ("expand.build_bgd", "ribbonfold.expand", "build_bgd", None, _rows),
    ("rewrite.normalize", "ribbonfold.rewrite", "normalize", None, _rows),
    ("rewrite.convert_block", "ribbonfold.rewrite", "convert_block", None, None),
    ("rewrite.switch_adjacent", "ribbonfold.rewrite", "switch_adjacent", None, None),
    ("layout.build_pile", "ribbonfold.layout", "build_pile", None, None),
    ("layout.check_fold_lines", "ribbonfold.layout", "check_fold_lines", None, _segments),
    ("layout.emit_svg", "ribbonfold.layout", "emit_svg", None, None),
    ("layout.core_diagram", "ribbonfold.layout", "core_diagram", None, None),
    ("invariants.jones_fingerprint", "ribbonfold.invariants", "jones_fingerprint", None, None),
    ("invariants.kauffman_bracket", "ribbonfold.invariants", "kauffman_bracket", None, _states),
    ("invariants.bgd_to_pd", "ribbonfold.invariants", "bgd_to_pd", None, None),
)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self.missing: Set[str] = set()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[6] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "ribbonfold" or n.startswith("ribbonfold.")]
        for name, home, attr, where, work in HOOKS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, fn, work)
            targets = loaded if where is None else [sys.modules[w] for w in where]
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_name, start, end, *_) in enumerate(spans)]


def layer_totals(spans: List[Span]) -> Dict[str, Dict]:
    """Per span name: calls, errors by class, total and self seconds, work."""
    out: Dict[str, Dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
                 "errors": defaultdict(int)}
    )
    for own, (name, start, end, _parent, _op, error, work) in zip(self_times(spans), spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        if error is not None:
            row["errors"][error] += 1
        if work is not None:
            row["work"] += work
    return out


def _get(t, name, key):
    return t[name][key] if name in t else 0


def _err(t, name, error):
    return t[name]["errors"].get(error, 0) if name in t else 0


def layer_metrics(spans: List[Span], passes: int, overhead_s: float) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, each per pass over the ops."""
    t = layer_totals(spans)
    switch_calls = _get(t, "rewrite.switch_adjacent", "calls")
    switch_refused = _err(t, "rewrite.switch_adjacent", "NotSwitchable")
    segments = [s[6] for s in spans if s[0] == "layout.check_fold_lines" and s[6]]
    m = {
        "rewrite.normalize_s": _get(t, "rewrite.normalize", "self_s"),
        "rewrite.normalize_total_s": _get(t, "rewrite.normalize", "total_s"),
        "model.check_bgd_calls": _get(t, "model.check_bgd", "calls"),
        "model.check_bgd_s": _get(t, "model.check_bgd", "self_s"),
        "rewrite.switch_calls": switch_calls,
        "rewrite.switch_refused": switch_refused,
        "rewrite.convert_calls": _get(t, "rewrite.convert_block", "calls"),
        "rewrite.rows_out": _get(t, "rewrite.normalize", "work"),
        "rewrite.stuck": _err(t, "rewrite.normalize", "RewriteError"),
        "layout.check_fold_lines_s": _get(t, "layout.check_fold_lines", "self_s"),
        "layout.fold_segments": sum(segments),
        "layout.fold_pairs": sum(s * (s - 1) // 2 for s in segments),
        "layout.emit_svg_s": _get(t, "layout.emit_svg", "self_s"),
        "layout.build_pile_s": _get(t, "layout.build_pile", "self_s"),
        "layout.core_diagram_s": _get(t, "layout.core_diagram", "self_s"),
        "layout.overlap": _err(t, "layout.check_fold_lines", "LayoutOverlap"),
        "invariants.jones_fingerprint_s": _get(t, "invariants.jones_fingerprint", "self_s"),
        "invariants.kauffman_bracket_s": _get(t, "invariants.kauffman_bracket", "self_s"),
        "invariants.states": _get(t, "invariants.kauffman_bracket", "work"),
        "invariants.bgd_to_pd_s": _get(t, "invariants.bgd_to_pd", "self_s"),
        "invariants.too_large": _err(t, "invariants.kauffman_bracket", "TooLarge"),
        "leveling.find_leveling_s": _get(t, "leveling.find_leveling", "self_s"),
        "leveling.optimize_flips_s": _get(t, "leveling.optimize_flips", "self_s"),
        "expand.build_bgd_s": _get(t, "expand.build_bgd", "self_s"),
        "expand.rows": _get(t, "expand.build_bgd", "work"),
        "ingest.parse_pd_s": _get(t, "ingest.parse_pd", "self_s"),
        "ingest.detect_nugatory_s": _get(t, "ingest.detect_nugatory", "self_s"),
        "model.validate_diagram_s": _get(t, "model.validate_diagram", "self_s"),
        "cli.run_command_s": _get(t, "cli.run_command", "self_s"),
    }
    m = {k: v / passes for k, v in m.items()}
    # a ratio, not a per-pass amount
    m["rewrite.switch_yield"] = (
        (switch_calls - switch_refused) / switch_calls if switch_calls else 0.0
    )
    m["trace.overhead_s"] = overhead_s / passes
    return m
