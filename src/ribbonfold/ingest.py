"""PD-code parsing, nugatory-crossing detection, and knot-table loading.

PD text is a whitespace-separated list of tokens ``X(a,b,c,d)``: the four
edge labels around one crossing in counterclockwise order, first label on
the incoming under-strand. Labels must be 1..2n, each appearing exactly
twice. The bundled corpus is a CSV ``name,crossings,pd`` with the pd field
quoted.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Tuple

from .model import (
    Crossing,
    PlanarDiagram,
    RibbonfoldError,
    validate_diagram,
)

_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


class PdSyntaxError(RibbonfoldError):
    """Malformed PD text (bad token, wrong arity, stray characters)."""


class LabelError(RibbonfoldError):
    """Edge labels violate the 1..2n-each-twice pairing rule."""


class TableError(RibbonfoldError):
    """One or more knot-table rows failed to parse or validate."""

    def __init__(self, rows: List[Tuple[int, str]]):
        self.rows = rows
        super().__init__(
            "; ".join(f"row {ln}: {msg}" for ln, msg in rows)
        )


def parse_pd(text: str, allow_unknot: bool = False) -> PlanarDiagram:
    """Parse PD text into a diagram (crossings in token order, over_pair 1)."""
    stripped = text.strip()
    if not stripped:
        if allow_unknot:
            return PlanarDiagram((), free_loops=1)
        raise PdSyntaxError(
            "no crossings in input (a bare unknot needs allow_unknot)"
        )
    tuples = []
    pos = 0
    for m in _TOKEN.finditer(stripped):
        gap = stripped[pos : m.start()]
        if gap.strip():
            raise PdSyntaxError(f"unrecognized input near {gap.strip()[:40]!r}")
        tuples.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    tail = stripped[pos:]
    if tail.strip():
        raise PdSyntaxError(f"unrecognized input near {tail.strip()[:40]!r}")

    d = PlanarDiagram(
        tuple(Crossing(i, t, over_pair=1) for i, t in enumerate(tuples))
    )
    ends = d.edge_darts
    expected = set(range(1, 2 * len(tuples) + 1))
    if ends.keys() != expected:
        missing, extra = sorted(expected - ends.keys()), sorted(ends.keys() - expected)
        raise LabelError(
            f"labels must be 1..{len(expected)}: missing {missing}, unexpected {extra}")
    wrong = sorted(e for e, darts in ends.items() if len(darts) != 2)
    if wrong:
        raise LabelError(f"labels not appearing exactly twice: {wrong}")
    return d


def emit_pd(d: PlanarDiagram) -> str:
    """Inverse of parse_pd. Crossings with over_pair 0 are rotated one slot
    counterclockwise (an equivalent presentation) so the over-strand lands
    on the 1-3 diagonal that PD text encodes."""
    if d.free_loops and d.crossings:
        raise ValueError("cannot emit a split diagram as PD text")
    return " ".join("X({},{},{},{})".format(*x.upright_slots) for x in d.crossings)


def normalize_over(d: PlanarDiagram) -> PlanarDiagram:
    """Equivalent diagram with every crossing expressed with over_pair 1."""
    return PlanarDiagram(
        tuple(Crossing(x.id, x.upright_slots, 1) for x in d.crossings), d.free_loops)


def relabel_along_strands(d: PlanarDiagram) -> PlanarDiagram:
    """Renumber edges 1..2n consecutively along each strand component."""
    # the orientation lists the edges in the order its walk meets them
    new_label = {e: k for k, e in enumerate(d.orientation.heads, start=1)}
    crossings = tuple(
        Crossing(x.id, tuple(new_label[e] for e in x.slots), x.over_pair)
        for x in d.crossings
    )
    return PlanarDiagram(crossings, d.free_loops)


def detect_nugatory(d: PlanarDiagram) -> List[int]:
    """Crossing ids carrying a loop edge or cutting the diagram in two.

    Either condition marks a crossing removable by twisting half the
    diagram, which the leveling stage cannot accept.
    """
    loops = {dart >> 2 for dart, m in enumerate(d.mates) if m >> 2 == dart >> 2}
    return sorted(d.crossings[i].id for i in loops | d.depth_first.cuts)


@dataclass(frozen=True)
class KnotTableEntry:
    name: str
    crossings: int
    pd_text: str
    diagram: PlanarDiagram


def load_table(path) -> List[KnotTableEntry]:
    """Load and fully validate a knot-table CSV; collects row errors."""
    entries: List[KnotTableEntry] = []
    errors: List[Tuple[int, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["name", "crossings", "pd"]:
            raise TableError([(1, f"bad header {reader.fieldnames!r}, "
                               "need name,crossings,pd")])
        for lineno, rec in enumerate(reader, start=2):
            try:
                # DictReader pads a short row with None and keys extra fields by None
                missing = [k for k in reader.fieldnames if rec[k] is None]
                if missing or None in rec:
                    raise RibbonfoldError(f"need the 3 fields name,crossings,pd: missing "
                                          f"{missing}, unexpected {rec.get(None, [])}")
                c = int(rec["crossings"])
                d = parse_pd(rec["pd"])
                if d.crossing_number != c:
                    raise RibbonfoldError(
                        f"CountMismatch: crossings={c} but pd has "
                        f"{d.crossing_number}"
                    )
                issues = validate_diagram(d)
                if issues:
                    raise RibbonfoldError("; ".join(map(str, issues)))
                entries.append(KnotTableEntry(rec["name"], c, rec["pd"], d))
            except (RibbonfoldError, ValueError, KeyError, TypeError) as exc:
                errors.append((lineno, str(exc)))
    if errors:
        raise TableError(errors)
    return entries


def bundled_table() -> List[KnotTableEntry]:
    """The corpus shipped with the package."""
    ref = resources.files("ribbonfold").joinpath("data/knot_table.csv")
    with resources.as_file(ref) as p:
        return load_table(p)
