"""Expansion of a leveled diagram into a binary grid diagram.

Each level portion is replaced by one or two grid rows according to a
fixed table, so that every row hugs at most one vertical strand and the
horizontal segment of a crossed row always passes over it.  Columns are
not routed: each row is an event on the left-to-right order of the open
strands (``model.Event``), and ``model.grid_from_events`` numbers them
1, 2, ..., as it does every grid the rewrite builds.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .model import (
    BLOCK_NAMES,
    END_KINDS,
    BinaryGridDiagram,
    EndKind,
    Event,
    InvalidGrid,
    LeveledDiagram,
    RibbonfoldError,
    Row,
    Shape,
    grid_from_events,
)

__all__ = [
    "ExpansionError",
    "BgdFormatError",
    "EXPANSION_TABLE",
    "build_bgd",
    "bgd_to_text",
    "parse_bgd",
]


class ExpansionError(RibbonfoldError):
    """Internal invariant broken while expanding a leveling."""


class BgdFormatError(RibbonfoldError):
    """Malformed binary grid text."""


# Block types emitted per portion kind, in bottom-to-top order.  A plus
# portion puts the cheap strand (the one a single crossed row realizes)
# on top; a minus portion needs a detour row first.
EXPANSION_TABLE: Dict[str, Tuple[str, ...]] = {
    "T0+": ("B1r", "B1"),
    "T1+": ("B1",),
    "T1-": ("B1r", "B2"),
    "T2+": ("B2",),
    "T3+": ("B3",),
    "T3-": ("B2", "B3r"),
    "T4+": ("B3", "B3r"),
}


class _Builder:
    """Keeps the open strands left to right and emits one event per row."""

    def __init__(self) -> None:
        self.order: List[int] = []  # open strand ids, left to right
        self.events: List[Event] = []
        self.n = 0  # the next strand id

    def cup(self, p: int, crossed: bool = False) -> None:
        """A cup around the strand at p, or plain just left of position p."""
        n, order = self.n, self.order
        self.n += 2
        if crossed:
            x, anchor = order[p], None
            order[p:p + 1] = [n, x, n + 1]
        else:
            x, anchor = None, (order[p] if p < len(order) else None)
            order[p:p] = [n, n + 1]
        self.events.append((Shape.MIN, n, n + 1, x, anchor))

    def side(self, p: int, right: bool) -> None:
        """Move the strand at p across its right or left neighbour."""
        s, n, order = self.order[p], self.n, self.order
        self.n += 1
        if right:
            x = order[p + 1]
            anchor = order[p + 2] if p + 2 < len(order) else None
            order[p:p + 2] = [x, n]
        else:
            x = anchor = order[p - 1]
            order[p - 1:p + 1] = [n, x]
        self.events.append((Shape.TRANS, s, n, x, anchor))

    def cap(self, p: int, crossed: bool = False) -> None:
        """Close the strand at p with its neighbour, or over it with the next."""
        q = p + 2 if crossed else p + 1
        a, b = self.order[p], self.order[q]
        x = self.order[p + 1] if crossed else None
        del self.order[q], self.order[p]
        self.events.append((Shape.MAX, a, b, x, None))


def build_bgd(leveled: LeveledDiagram) -> BinaryGridDiagram:
    """Expand a leveled diagram into a binary grid diagram.

    The grid presents the same link: every portion becomes the rows in
    ``EXPANSION_TABLE``, built as events on the open strands, and
    ``grid_from_events`` numbers and checks it as it does for the rewrite.
    """
    d = leveled.diagram
    b = _Builder()

    for k, ci in enumerate(leveled.order):
        x = d.crossings[ci]
        a = leveled.arc_starts[k]
        portion = leveled.portions[k]
        dcount = portion.index
        before = len(b.events)
        # the strand on slots {a, a+2} is over iff its slot parity matches
        a_over = (a % 2) == x.over_pair

        if dcount == 0:
            # final positions 0..3 carry slots (a+3, a+2, a+1, a); the
            # over strand's cup crosses a leg of the under strand's cup
            b.cup(0)
            b.cup(1 if a_over else 0, crossed=True)

        elif dcount == 4:
            if len(b.order) != 4:
                raise ExpansionError("top vertex reached with open strands remaining")
            # run positions 0..3 carry slots (a, a+1, a+2, a+3); the over
            # strand's cap crosses the other strand
            b.cap(0 if a_over else 1, crossed=True)
            b.cap(0)

        else:
            p = leveled.levels[k].index(x.slots[a])
            if dcount == 1:
                if portion.sign > 0:
                    b.cup(p, crossed=True)
                else:  # a plain cup right of p, then p crosses its left leg
                    b.cup(p + 1)
                    b.side(p, right=True)
            elif dcount == 2:
                # the over strand moves across the other one
                b.side(p if a_over else p + 1, right=a_over)
            elif dcount == 3:
                if portion.sign > 0:
                    b.cap(p, crossed=True)
                else:  # p + 1 steps over p + 2, which then closes with p
                    b.side(p + 1, right=True)
                    b.cap(p)
            else:
                raise ExpansionError(f"bad down count {dcount}")

        emitted = tuple(BLOCK_NAMES[ev[0], ev[3] is not None] for ev in b.events[before:])
        if emitted != EXPANSION_TABLE[portion.name]:
            raise ExpansionError(
                f"portion {portion.name} emitted {emitted}, "
                f"expected {EXPANSION_TABLE[portion.name]}")

    if b.order:
        raise ExpansionError("open strands remain after the top vertex")
    return grid_from_events(b.events)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_ROW_RE = re.compile(
    r"^(MIN|TRANS|MAX)"
    r"(?:\s+X@(-?\d+))?"
    r"\s+extent=\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]"
    r"\s+ends=\(\s*(up|down|elbow)\s*,\s*(up|down|elbow)\s*\)$"
)


def bgd_to_text(g: BinaryGridDiagram) -> str:
    """Serialize a grid, one row per line, bottom to top."""
    lines = []
    for r in g.rows:
        cross = f" X@{r.crossed_column}" if r.crossed_column is not None else ""
        a, b = r.extent
        k0, k1 = (k.value for k in r.end_kinds)
        lines.append(f"{r.shape.value}{cross} extent=[{a},{b}] ends=({k0},{k1})")
    return "\n".join(lines) + "\n"


def parse_bgd(text: str) -> BinaryGridDiagram:
    """Parse the text form back into a grid diagram.

    The ``elbow`` end token is accepted for MIN and MAX rows, where the
    direction is forced by the shape, but rejected for TRANS rows. Each
    line is checked on its own here; the columns open between rows are
    replayed by ``check_bgd``, and a grid that fails it, or has no rows,
    is a BgdFormatError listing its problems.
    """
    rows: List[Row] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ROW_RE.match(line)
        if m is None:
            raise BgdFormatError(f"line {lineno}: unrecognized row {line!r}")
        shape = Shape(m.group(1))
        crossed = None if m.group(2) is None else int(m.group(2))
        lo, hi = int(m.group(3)), int(m.group(4))
        if not lo < hi:
            raise BgdFormatError(
                f"line {lineno}: extent [{lo},{hi}] not strictly increasing")
        kinds = [m.group(5), m.group(6)]
        for i, kind in enumerate(kinds):
            if kind != "elbow":
                continue
            if shape is Shape.TRANS:
                raise BgdFormatError(
                    f"line {lineno}: elbow end is ambiguous on a TRANS row")
            kinds[i] = "up" if shape is Shape.MIN else "down"
        end_kinds = (EndKind(kinds[0]), EndKind(kinds[1]))
        if end_kinds not in END_KINDS[shape]:
            raise BgdFormatError(
                f"line {lineno}: ends {tuple(kinds)} illegal for {shape.value}")
        rows.append(Row(shape, (lo, hi), end_kinds, crossed))

    if not rows:
        raise BgdFormatError("no grid rows in input")
    try:
        return BinaryGridDiagram(tuple(rows))
    except InvalidGrid as e:
        raise BgdFormatError(str(e)) from None
