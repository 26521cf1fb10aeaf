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

    counts: dict = {}
    for t in tuples:
        for e in t:
            counts[e] = counts.get(e, 0) + 1
    n = len(tuples)
    expected = set(range(1, 2 * n + 1))
    if set(counts) != expected:
        extra = sorted(set(counts) - expected)
        missing = sorted(expected - set(counts))
        raise LabelError(
            f"labels must be 1..{2 * n}: missing {missing}, unexpected {extra}"
        )
    wrong = sorted(e for e, k in counts.items() if k != 2)
    if wrong:
        raise LabelError(f"labels not appearing exactly twice: {wrong}")

    return PlanarDiagram(
        tuple(Crossing(i, t, over_pair=1) for i, t in enumerate(tuples))
    )


def emit_pd(d: PlanarDiagram) -> str:
    """Inverse of parse_pd. Crossings with over_pair 0 are rotated one slot
    counterclockwise (an equivalent presentation) so the over-strand lands
    on the 1-3 diagonal that PD text encodes."""
    if d.free_loops and d.crossings:
        raise ValueError("cannot emit a split diagram as PD text")
    parts = []
    for x in d.crossings:
        s = x.slots if x.over_pair == 1 else (x.slots[1], x.slots[2], x.slots[3], x.slots[0])
        parts.append(f"X({s[0]},{s[1]},{s[2]},{s[3]})")
    return " ".join(parts)


def normalize_over(d: PlanarDiagram) -> PlanarDiagram:
    """Equivalent diagram with every crossing expressed with over_pair 1."""
    out = []
    for x in d.crossings:
        if x.over_pair == 1:
            out.append(x)
        else:
            out.append(
                Crossing(x.id, (x.slots[1], x.slots[2], x.slots[3], x.slots[0]), 1)
            )
    return PlanarDiagram(tuple(out), d.free_loops)


def relabel_along_strands(d: PlanarDiagram) -> PlanarDiagram:
    """Renumber edges 1..2n consecutively along each strand component."""
    from .invariants import orient  # deferred: invariants imports model only

    # orient lists the edges in the order its walk meets them
    new_label = {e: k for k, e in enumerate(orient(d).heads, start=1)}
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
    n = len(d.crossings)
    mate = d.mates
    bad = {dart >> 2 for dart, m in enumerate(mate) if m >> 2 == dart >> 2}

    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(range(4 * root, 4 * root + 4)))]
        while stack:
            v, entry, it = stack[-1]
            dart = next(it, None)
            if dart is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u == root:
                        root_children += 1
                        if root_children >= 2:
                            bad.add(root)
                    elif low[v] >= disc[u]:
                        bad.add(u)
                continue
            m = mate[dart]
            w = m >> 2
            # skipping only the entry dart keeps low[] the true low-point
            # over parallel edges; the cut-vertex test alone would not need it
            if dart == entry or w == v:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, m, iter(range(4 * w, 4 * w + 4))))
            else:
                low[v] = min(low[v], disc[w])
    return sorted(d.crossings[i].id for i in bad)


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
