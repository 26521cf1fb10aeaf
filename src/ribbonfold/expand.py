"""Expansion of a leveled diagram into a binary grid diagram.

Each level portion is replaced by one or two grid rows according to a
fixed table, so that every row hugs at most one vertical strand and the
horizontal segment of a crossed row always passes over it.  Columns are
routed with exact fractions during construction and compressed to the
integers 1..m at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .model import (
    END_KINDS,
    BinaryGridDiagram,
    EndKind,
    LeveledDiagram,
    PortionType,
    RibbonfoldError,
    Row,
    Shape,
    check_bgd,
    column_values,
    end_columns,
    make_row,
    map_columns,
)

__all__ = [
    "ExpansionError",
    "BgdFormatError",
    "EXPANSION_TABLE",
    "expand_portion",
    "build_bgd",
    "compress_columns",
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


def expand_portion(portion: PortionType) -> Tuple[str, ...]:
    """Block type names a portion expands to, bottom to top."""
    try:
        return EXPANSION_TABLE[portion.name]
    except KeyError:
        raise ExpansionError(f"no expansion for portion {portion.name}") from None


def _mid(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


class _Builder:
    """Tracks open columns left-to-right and emits validated rows."""

    def __init__(self) -> None:
        self.active: Tuple[Fraction, ...] = ()
        self.rows: List[Row] = []

    def row(self, shape: Shape, a: Fraction, b: Fraction,
            crossed: Optional[Fraction]) -> None:
        r = make_row(shape, a, b, crossed, self.active)
        self.rows.append(r)
        self.active = r.columns_above

    def left_gap(self, p: int) -> Fraction:
        """A fresh column left of position p."""
        hi = self.active[p]
        lo = self.active[p - 1] if p > 0 else hi - 2
        return _mid(lo, hi)

    def right_gap(self, p: int) -> Fraction:
        """A fresh column right of position p."""
        lo = self.active[p]
        hi = self.active[p + 1] if p + 1 < len(self.active) else lo + 2
        return _mid(lo, hi)


def build_bgd(leveled: LeveledDiagram) -> BinaryGridDiagram:
    """Expand a leveled diagram into a binary grid diagram.

    The grid presents the same link: every portion becomes the rows in
    ``EXPANSION_TABLE``, columns are kept strictly increasing left to
    right so open strand k always sits at the k-th smallest column.
    """
    d = leveled.diagram
    b = _Builder()

    for k, ci in enumerate(leveled.order):
        x = d.crossings[ci]
        a = leveled.arc_starts[k]
        portion = leveled.portions[k]
        dcount = portion.index
        before = len(b.rows)
        # the strand on slots {a, a+2} is over iff its slot parity matches
        a_over = (a % 2) == x.over_pair

        if dcount == 0:
            cols = [Fraction(i) for i in (1, 2, 3, 4)]
            # final positions 0..3 carry slots (a+3, a+2, a+1, a): the
            # {a, a+2} strand lands on columns 1 and 3, the other on 0 and 2
            if a_over:
                under, over, crossed = (cols[0], cols[2]), (cols[1], cols[3]), cols[2]
            else:
                under, over, crossed = (cols[1], cols[3]), (cols[0], cols[2]), cols[1]
            b.row(Shape.MIN, under[0], under[1], None)
            b.row(Shape.MIN, over[0], over[1], crossed)

        elif dcount == 4:
            q = b.active
            if len(q) != 4:
                raise ExpansionError("top vertex reached with open strands remaining")
            # run positions 0..3 carry slots (a, a+1, a+2, a+3)
            if a_over:
                first, crossed, second = (q[0], q[2]), q[1], (q[1], q[3])
            else:
                first, crossed, second = (q[1], q[3]), q[2], (q[0], q[2])
            b.row(Shape.MAX, first[0], first[1], crossed)
            b.row(Shape.MAX, second[0], second[1], None)

        else:
            p = leveled.levels[k].index(x.slots[a])
            if dcount == 1:
                cp = b.active[p]
                if portion.sign > 0:
                    cl, cr = b.left_gap(p), b.right_gap(p)
                    b.row(Shape.MIN, cl, cr, cp)
                else:
                    hi = b.active[p + 1] if p + 1 < len(b.active) else cp + 2
                    cl2 = cp + (hi - cp) / 3
                    cr2 = cp + 2 * (hi - cp) / 3
                    cm = _mid(cl2, cr2)
                    b.row(Shape.MIN, cl2, cr2, None)
                    b.row(Shape.TRANS, cp, cm, cl2)
            elif dcount == 2:
                cp, cq = b.active[p], b.active[p + 1]
                if a_over:
                    cr = b.right_gap(p + 1)
                    b.row(Shape.TRANS, cp, cr, cq)
                else:
                    cl = b.left_gap(p)
                    b.row(Shape.TRANS, cq, cl, cp)
            elif dcount == 3:
                c0, c1, c2 = b.active[p:p + 3]
                if portion.sign > 0:
                    b.row(Shape.MAX, c0, c2, c1)
                else:
                    cr = b.right_gap(p + 2)
                    b.row(Shape.TRANS, c1, cr, c2)
                    b.row(Shape.MAX, c0, c2, None)
            else:
                raise ExpansionError(f"bad down count {dcount}")

        emitted = tuple(r.block_type.name for r in b.rows[before:])
        if emitted != EXPANSION_TABLE[portion.name]:
            raise ExpansionError(
                f"portion {portion.name} emitted {emitted}, "
                f"expected {EXPANSION_TABLE[portion.name]}")

    if b.active:
        raise ExpansionError("open strands remain after the top vertex")
    g = compress_columns(BinaryGridDiagram(tuple(b.rows)))
    problems = check_bgd(g)
    if problems:
        raise ExpansionError("expanded grid invalid: " + "; ".join(problems))
    return g


def compress_columns(g: BinaryGridDiagram) -> BinaryGridDiagram:
    """Renumber columns to 1..m preserving their order."""
    rank = {v: i + 1 for i, v in enumerate(sorted(column_values(g.rows)))}
    return BinaryGridDiagram(tuple(map_columns(r, rank.__getitem__) for r in g.rows))


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

    Column occupancy between rows is reconstructed from the row sequence.
    The ``elbow`` end token is accepted for MIN and MAX rows, where the
    direction is forced by the shape, but rejected for TRANS rows.
    """
    rows: List[Row] = []
    active: Tuple[int, ...] = ()
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

        consumed, created = end_columns(shape, (lo, hi), end_kinds)
        for c in consumed:
            if c not in active:
                raise BgdFormatError(f"line {lineno}: column {c} is not open")
        for c in created:
            if c in active:
                raise BgdFormatError(f"line {lineno}: column {c} is already open")
        # a TRANS row continues its down end as its up end
        a, b = (lo, hi) if end_kinds[0] is EndKind.DOWN else (hi, lo)
        rows.append(make_row(shape, a, b, crossed, active))
        active = rows[-1].columns_above

    if active:
        raise BgdFormatError(f"columns {list(active)} still open at the top")
    g = BinaryGridDiagram(tuple(rows))
    problems = check_bgd(g)
    if problems:
        raise BgdFormatError("; ".join(problems))
    return g
