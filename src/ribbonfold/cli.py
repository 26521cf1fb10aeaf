"""Command-line surface for the folding pipeline.

Machine-readable JSON goes to stdout, human summaries to stderr, and
identical inputs with identical flags produce byte-identical outputs.
Exit codes: 0 success, 1 parse or validation problem (``InvalidDiagram``)
or a file that cannot be read or written, 2 precondition failure
(``PreconditionViolated``: reducible crossing, split diagram), 3 internal
check failure. A diagram is checked once, by ``find_leveling``, which
every command on PD input reaches before it computes anything else.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .bound import compute_bound, grid_bound, report_json, run_pipeline
from .expand import BgdFormatError, build_bgd, parse_bgd
from .ingest import (
    LabelError,
    PdSyntaxError,
    TableError,
    load_table,
    parse_pd,
)
from .invariants import bgd_to_pd, diagram_key, jones_fingerprint, same_map
from .leveling import (
    InvalidDiagram,
    NoLevelingFound,
    PreconditionViolated,
    best_flip,
    check_leveling,
    find_leveling,
    flip_choice,
    flip_variants,
)
from .layout import (
    LayoutConfig,
    LayoutOverlap,
    build_pile,
    core_diagram,
    core_specs,
    default_epsilon,
    emit_svg,
    ribbon_length,
    schedule_json,
)
from .model import (
    BinaryGridDiagram,
    PlanarDiagram,
    RibbonfoldError,
    RoutingError,
)
from .rewrite import RewriteError, normalize

__all__ = ["run_command", "main"]


class _Exit(Exception):
    """Carries an exit code and a message for stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _Exit(1, f"{self.prog}: {message}")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2))


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _detect_format(path: str, override: Optional[str]) -> str:
    if override:
        return override
    suffix = Path(path).suffix.lower()
    if suffix == ".pd":
        return "pd"
    if suffix == ".bgd":
        return "bgd"
    raise _Exit(1, f"cannot detect input format of {path!r}; pass --format")


@contextmanager
def _file(path: str, verb: str) -> Iterator[None]:
    """Report a file that cannot be read or written (or decoded) as exit 1."""
    try:
        yield
    except (OSError, UnicodeError) as e:
        raise _Exit(1, f"cannot {verb} {path}: {e}") from e


def _read(path: str) -> str:
    with _file(path, "read"):
        return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    with _file(path, "write"):
        Path(path).write_text(text, encoding="utf-8")


def _load_pd(path: str, allow_unknot: bool) -> PlanarDiagram:
    """Parse only: ``find_leveling`` checks the diagram."""
    return parse_pd(_read(path), allow_unknot=allow_unknot)


def _load_bgd(path: str) -> Tuple[BinaryGridDiagram, PlanarDiagram]:
    """Parse a grid and read its core back as a diagram; split cores are a
    precondition failure, anything else structurally wrong is a validation
    failure."""
    g = parse_bgd(_read(path))
    try:
        return g, bgd_to_pd(g)
    except RoutingError as e:
        code = 2 if any(i.code == "Disconnected" for i in e.issues) else 1
        raise _Exit(code, f"grid readback failed: {e}") from e


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _cmd_bound(ns) -> int:
    fmt = _detect_format(ns.input, ns.format)
    name = Path(ns.input).stem
    if fmt == "pd":
        d = _load_pd(ns.input, ns.allow_unknot)
        report = compute_bound(d, name=name)
    else:
        g, _ = _load_bgd(ns.input)
        report = grid_bound(g, name)
    doc = report_json(report)
    _emit_json(doc)
    linear = doc["theoretical_bound"]
    _say(
        f"{name}: {doc['crossings']} crossings, certified bound "
        f"{doc['certified_bound']}, closed form "
        + ("none" if linear is None else f"{linear:g}")
    )
    return 0


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def _cmd_layout(ns) -> int:
    fmt = _detect_format(ns.input, ns.format)
    if fmt == "pd":
        d = _load_pd(ns.input, ns.allow_unknot)
        gn = run_pipeline(d).normal if d.crossings else BinaryGridDiagram(())
    else:
        g, _ = _load_bgd(ns.input)
        gn = normalize(g)
    schedule = build_pile(gn)

    width = ns.width if ns.width is not None else Fraction(1)
    if width <= 0:
        raise _Exit(1, "width must be positive")
    eps = (
        ns.epsilon if ns.epsilon is not None
        else default_epsilon(schedule, width)
    )
    if eps <= 0:
        raise _Exit(1, "epsilon must be positive")
    cfg = LayoutConfig(width=width, epsilon=eps)
    try:
        svg = emit_svg(schedule, cfg)
    except LayoutOverlap as e:
        raise _Exit(1, str(e)) from e
    _write(ns.output, svg)
    if ns.schedule:
        doc = schedule_json(schedule, epsilon=eps, width=width)
        _write(ns.schedule, json.dumps(doc, indent=2) + "\n")
    _emit_json(
        {
            "svg": ns.output,
            "schedule": ns.schedule,
            "planes": len(schedule.planes),
            "caps": len(schedule.caps),
            "epsilon": float(eps),
            "width": float(width),
            "ribbon_length": float(ribbon_length(schedule, eps)),
        }
    )
    _say(
        f"{Path(ns.input).stem}: {len(schedule.planes)} planes, "
        f"{len(schedule.caps)} caps -> {ns.output}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _stage(stages: List[Dict[str, object]], name: str, ok: bool, detail: str):
    stages.append({"stage": name, "ok": bool(ok), "detail": detail})


def _verify_grid_stages(
    g: BinaryGridDiagram,
    fingerprint: Callable[[PlanarDiagram], Tuple[str, ...]],
    fp0: Tuple[str, ...],
    stages: List[Dict[str, object]],
    per_step: bool,
) -> None:
    trace: Optional[List] = [] if per_step else None
    gn = normalize(g, trace=trace)
    dn = bgd_to_pd(gn)
    ok = fingerprint(dn) == fp0
    if per_step and trace is not None:
        for _msg, gi in trace:
            if fingerprint(bgd_to_pd(gi)) != fp0:
                ok = False
        detail = f"{len(trace)} steps checked"
    else:
        detail = "endpoint checked"
    _stage(stages, "rewrite", ok, detail)

    s = build_pile(gn)
    # a core of cups and caps that reads as the normal form's rows is the
    # normal form's grid, which core_diagram would read back as dn again
    rows = [(r.shape, *r.extent, r.crossed_column) for r in gn.rows]
    core = dn if core_specs(s) == rows else core_diagram(s)
    _stage(
        stages,
        "layout",
        fingerprint(core) == fp0,
        f"{len(s.planes)} planes, {len(s.caps)} caps",
    )


def _cmd_verify(ns) -> int:
    fmt = _detect_format(ns.input, ns.format)
    stages: List[Dict[str, object]] = []
    # one oracle run per distinct map: many stages repeat a diagram's key,
    # and the rest read back as a map the oracle has already run on, as
    # given or turned over; equal maps have equal fingerprints
    seen: Dict[tuple, Tuple[str, ...]] = {}
    ran: List[Tuple[PlanarDiagram, Tuple[str, ...]]] = []

    def fingerprint(d: PlanarDiagram) -> Tuple[str, ...]:
        key = diagram_key(d)
        if key not in seen:
            fp = next((fp for e, fp in ran if same_map(e, d)), None)
            if fp is None:
                fp = jones_fingerprint(d)
                ran.append((d, fp))
            seen[key] = fp
        return seen[key]

    if fmt == "pd":
        d = _load_pd(ns.input, ns.allow_unknot)
        c = d.crossing_number
        if c == 0:
            payload = {
                "input": ns.input,
                "crossings": 0,
                "per_step": ns.per_step,
                "stages": [],
                "ok": True,
                "note": "no crossings: every stage is trivial",
            }
            _emit_json(payload)
            _say("trivial diagram: nothing to check")
            return 0
        ld = find_leveling(d)  # the gate, before the oracle sees d
        fp0 = fingerprint(d)
        leveled = not check_leveling(ld)
        _stage(
            stages,
            "leveling",
            leveled and fingerprint(ld.diagram) == fp0,
            f"order {list(ld.order)}",
        )
        variants = flip_variants(ld)
        best, choice = best_flip(variants)
        # each flip levels and keeps the link (the identity flip is ld,
        # checked above), and the pick that bound reads off the counts is
        # the built variants' pick
        flips_ok = choice == flip_choice(ld) and all(
            (leveled if fl is ld else not check_leveling(fl))
            and fingerprint(fl.diagram) == fp0 for _, fl in variants)
        _stage(stages, "flips", flips_ok, "4 variants")
        g = build_bgd(best)
        _stage(
            stages,
            "expansion",
            fingerprint(bgd_to_pd(g)) == fp0,
            f"{len(g.rows)} rows, flips x={choice.flip_x} y={choice.flip_y}",
        )
        _verify_grid_stages(g, fingerprint, fp0, stages, ns.per_step)
    else:
        g, d = _load_bgd(ns.input)
        c = g.crossing_number
        fp0 = fingerprint(d)
        _verify_grid_stages(g, fingerprint, fp0, stages, ns.per_step)

    ok = all(s["ok"] for s in stages)
    _emit_json(
        {
            "input": ns.input,
            "crossings": c,
            "per_step": ns.per_step,
            "stages": stages,
            "ok": ok,
        }
    )
    for s in stages:
        _say(f"{'ok ' if s['ok'] else 'FAIL'} {s['stage']}: {s['detail']}")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = [
    "name",
    "crossings",
    "certified_bound",
    "theoretical_floor",
    "theoretical_bound",
    "tian_bound",
    "denne_bound",
    "note",
]


def _table_row(item: Tuple[str, PlanarDiagram]) -> List[str]:
    name, diagram = item
    try:
        doc = report_json(compute_bound(diagram, name=name))
    except PreconditionViolated as e:
        raise type(e)(f"{name}: {e}") from e
    return ["" if doc[k] is None else str(doc[k]) for k in _TABLE_COLUMNS]


def _cmd_table(ns) -> int:
    if ns.jobs < 1:
        raise _Exit(1, "jobs must be at least 1")
    with _file(ns.input, "read"):
        entries = load_table(ns.input)
    items = [(e.name, e.diagram) for e in entries]
    # the pool starts all its workers at once, so never more than rows
    workers = min(ns.jobs, len(items))
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_table_row, items))
    else:
        rows = [_table_row(item) for item in items]
    with _file(ns.output, "write"), open(
            ns.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows(rows)
    _emit_json({"entries": len(rows), "output": ns.output})
    _say(f"{len(rows)} entries -> {ns.output}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """A Fraction flag value; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ribbonfold",
        description="Certified folded-ribbon length bounds for knot diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, unknot=True):
        p.add_argument("input", help="input file (.pd or .bgd)")
        p.add_argument(
            "--format", choices=["pd", "bgd"], help="override extension detection"
        )
        if unknot:
            p.add_argument(
                "--allow-unknot",
                action="store_true",
                help="accept crossingless input and report the trivial bound",
            )

    p = sub.add_parser("bound", help="print the certified bound report as JSON")
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("layout", help="emit the fold schematic as SVG")
    common(p)
    p.add_argument("-o", "--output", required=True, help="SVG output path")
    p.add_argument("--schedule", help="also write the fold schedule JSON here")
    p.add_argument(
        "--epsilon",
        type=_fraction,
        help="wing/cap allowance in width units (default: auto)",
    )
    p.add_argument("--width", type=_fraction, help="ribbon width (default 1)")
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("verify", help="check knot-type preservation per stage")
    common(p)
    p.add_argument(
        "--per-step",
        action="store_true",
        help="check every rewrite step, not just stage endpoints",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="batch-run a knot table CSV")
    p.add_argument("input", help="CSV with columns name,crossings,pd")
    p.add_argument("-o", "--output", required=True, help="result CSV path")
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel workers (default 1)"
    )
    p.set_defaults(func=_cmd_table)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Run one CLI invocation and return its exit code."""
    try:
        ns = _build_parser().parse_args(list(argv))
        return ns.func(ns)
    except SystemExit as e:  # argparse exits after printing --help
        return e.code
    except _Exit as e:
        _say(f"error: {e}")
        return e.code
    # InvalidDiagram is a PreconditionViolated, so it is caught first
    except (PdSyntaxError, LabelError, BgdFormatError, LayoutOverlap,
            InvalidDiagram) as e:
        _say(f"error: {e}")
        return 1
    except TableError as e:
        _say(f"error: bad table: {e}")
        return 1
    except PreconditionViolated as e:
        _say(f"error: {e}")
        return 2
    except (NoLevelingFound, RewriteError, RoutingError, RibbonfoldError) as e:
        _say(f"internal check failure: {e}")
        return 3
    except Exception as e:  # anything unexpected is an internal failure
        _say(f"internal check failure: {type(e).__name__}: {e}")
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
