"""Folded ribbon construction from a normal-form grid.

Every cup row becomes a paper plane: a ribbon folded three times, with a
horizontal body of core length 2 (in width units) and two upward wings.
Planes stack bottom to top, each wing dropping into an insertable space
of the pile built so far. Cap rows become flat three-segment arcs that
close wing pairs from the inside out. ``ribbon_length`` prices the
schedule, ``emit_svg`` draws an exploded schematic, and the fold lines
it draws are checked for pairwise disjointness in exact arithmetic.
The check tests only creases that share a 2 x 2 cell of the plane, a
handful per crease, so its cost grows linearly with the pile.

Geometry conventions for the schematic: one width unit = the ribbon
width w; wings sit on a pitch-2 grid so every diagonal crease pair is
separated by at least two units; plane bodies are 4 apart vertically and
cap bridges sit above all bodies. The allowance epsilon enters in one
place: the body of a plane must reach both wings and fold back, so its
fold-back crease sits ``1 - (epsilon/w)(gap+2)/2`` units past the right
wing. Growing epsilon pulls that crease into the right wing fold; the
collision is reported as LayoutOverlap and the caller retries smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .invariants import bgd_to_pd
from .model import (
    BinaryGridDiagram,
    Col,
    PlanarDiagram,
    RibbonfoldError,
    Row,
    Shape,
    check_bgd,
    make_row,
)
from .rewrite import _convertible, is_normal_form

__all__ = [
    "NotNormalForm",
    "LayoutOverlap",
    "PaperPlane",
    "CapArc",
    "FoldSchedule",
    "LayoutConfig",
    "build_pile",
    "default_epsilon",
    "pile_steps",
    "ribbon_length",
    "check_fold_lines",
    "emit_svg",
    "core_diagram",
    "schedule_json",
]

Num = Union[int, float, Fraction]
Point = Tuple[Fraction, Fraction]
Segment = Tuple[Point, Point]


class NotNormalForm(RibbonfoldError):
    """The grid still has blocks the pile construction cannot place."""


class LayoutOverlap(RibbonfoldError):
    """Fold lines collide at the chosen epsilon; retry with a smaller one."""


# ---------------------------------------------------------------------------
# Schedule types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperPlane:
    """One folded plane of the pile.

    ``insertion`` gives the wing slots (grid columns) where the left and
    right wings land. ``crossed_wing`` is the slot of the wing the body
    passes over, present exactly when the source row carries a crossing.
    The core of every plane is 2 width units long; wings stretch as far
    as they must.
    """

    plane_index: int
    insertion: Tuple[Col, Col]
    crossed_wing: Optional[Col] = None


@dataclass(frozen=True)
class CapArc:
    """Upper-part arc joining two wing slots, flat and of O(epsilon) length."""

    cap_index: int
    join: Tuple[Col, Col]


@dataclass(frozen=True)
class FoldSchedule:
    """Planes in stacking order, caps inside-out, wings left to right.

    ``connection_order`` lists every wing slot in the left-to-right order
    in which the upper and lower parts are joined.
    """

    planes: Tuple[PaperPlane, ...]
    caps: Tuple[CapArc, ...]
    connection_order: Tuple[Col, ...]


# ---------------------------------------------------------------------------
# Pile construction
# ---------------------------------------------------------------------------


def pile_steps(planes: Sequence[PaperPlane]) -> Iterator[Tuple[Col, ...]]:
    """Yield the wing order after each insertion, checking the invariant.

    After k insertions the pile must hold exactly 2k wings, and a new
    plane may bracket either nothing (both wings drop into one insertable
    space) or exactly the wing it crosses (one wing lands on each side).
    Slots are the normal form's integer columns, numbered in the final
    left-to-right wing order, so a wing that a later plane drops between
    two earlier ones already has its slot between theirs.
    """
    wings: Tuple[Col, ...] = ()
    for k, p in enumerate(planes, start=1):
        lo, hi = p.insertion
        if not lo < hi:
            raise ValueError(f"plane {p.plane_index}: bad wing pair {p.insertion}")
        if lo in wings or hi in wings:
            raise ValueError(f"plane {p.plane_index}: wing slot already occupied")
        inside = [w for w in wings if lo < w < hi]
        want = [] if p.crossed_wing is None else [p.crossed_wing]
        if inside != want:
            raise ValueError(
                f"plane {p.plane_index}: brackets {inside}, expected {want}"
            )
        wings = tuple(sorted(wings + (lo, hi)))
        if len(wings) != 2 * k:
            raise ValueError(f"{len(wings)} wings after {k} insertions")
        yield wings


def build_pile(g: BinaryGridDiagram) -> FoldSchedule:
    """Turn a normal-form grid into a pile of paper planes plus cap arcs.

    One plane per cup row in stacking order, one cap per cap row from the
    inside out. The pile invariant (2k wings with insertable spaces after
    k insertions) is re-checked at every step.
    """
    problems = check_bgd(g)
    if problems:
        raise NotNormalForm("not a valid grid: " + "; ".join(problems))
    if not is_normal_form(g):
        bad = sorted({r.block_type.name for r in g.rows if _convertible(r)})
        what = ", ".join(bad) if bad else "cup rows above cap rows"
        raise NotNormalForm(f"grid is not in normal form ({what}); rewrite first")

    planes: List[PaperPlane] = []
    caps: List[CapArc] = []
    for row in g.rows:
        if row.shape is Shape.MIN:
            planes.append(
                PaperPlane(len(planes), row.extent, row.crossed_column)
            )
        else:
            caps.append(CapArc(len(caps), row.extent))
    wings: Tuple[Col, ...] = ()
    for wings in pile_steps(planes):
        pass
    return FoldSchedule(tuple(planes), tuple(caps), wings)


def ribbon_length(s: FoldSchedule, epsilon: Num) -> Fraction:
    """Core length of the schedule at a given wing/cap allowance.

    Each plane contributes exactly 2; each of the 2k wings and each of
    the three segments per cap arc contributes epsilon. The limit for
    epsilon to zero is therefore twice the number of planes. Pass a
    Fraction or decimal string for an exact breakdown.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return 2 * len(s.planes) + eps * (2 * len(s.planes) + 3 * len(s.caps))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


SCALE = 100   # pixels per width unit
MARGIN = 2    # page border in width units


@dataclass(frozen=True)
class LayoutConfig:
    """Ribbon width and wing/cap allowance."""

    width: Num = 1
    epsilon: Num = Fraction(1, 100)


@dataclass(frozen=True)
class _Geometry:
    x: Dict[Col, Fraction]             # wing slot -> center x
    plane_y: Tuple[Fraction, ...]      # body centerline per plane
    cap_y: Tuple[Fraction, ...]        # bridge centerline per cap
    tail: Tuple[Fraction, ...]         # fold-back overshoot per plane
    top_of: Dict[Col, Fraction]        # wing slot -> bridge y
    crossings: Dict[Col, Tuple[Fraction, ...]]  # wing slot -> body ys over it


def _wing_gaps(s: FoldSchedule) -> List[int]:
    """Per plane, how many wing slots apart its two wings end up."""
    order = {slot: j for j, slot in enumerate(s.connection_order)}
    return [order[p.insertion[1]] - order[p.insertion[0]] for p in s.planes]


def default_epsilon(s: FoldSchedule, width: Num = 1) -> Fraction:
    """min(1/100, width / (2(g + 2))), g the widest wing gap.

    A plane whose wings are g slots apart folds back cleanly only while
    epsilon < width / (g + 2), so the default is half the tightest of
    those budgets, capped at 1/100.
    """
    g = max(_wing_gaps(s), default=0)
    return min(Fraction(1, 100), Fraction(width) / (2 * (g + 2)))


def _geometry(s: FoldSchedule, cfg: LayoutConfig) -> _Geometry:
    eps = Fraction(cfg.epsilon) / Fraction(cfg.width)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    x = {slot: Fraction(2 * j) for j, slot in enumerate(s.connection_order)}
    n_planes = len(s.planes)
    plane_y = tuple(Fraction(4 * k) for k in range(n_planes))
    cap_y = tuple(
        Fraction(4 * n_planes + 2 * m) for m in range(len(s.caps))
    )

    tails: List[Fraction] = []
    for p, gap in zip(s.planes, _wing_gaps(s)):
        o = 1 - eps * (gap + 2) / 2
        if o <= Fraction(1, 2):
            limit = Fraction(cfg.width) / (gap + 2)
            raise LayoutOverlap(
                f"epsilon {cfg.epsilon} too large for disjoint fold lines: "
                f"the fold-back crease of plane {p.plane_index} meets its "
                f"right wing fold (needs epsilon < {float(limit):g})"
            )
        tails.append(o)

    top_of: Dict[Col, Fraction] = {}
    for m, c in enumerate(s.caps):
        for slot in c.join:
            top_of[slot] = cap_y[m]

    crossings: Dict[Col, List[Fraction]] = {}
    for k, p in enumerate(s.planes):
        if p.crossed_wing is not None:
            crossings.setdefault(p.crossed_wing, []).append(plane_y[k])
    return _Geometry(
        x,
        plane_y,
        cap_y,
        tuple(tails),
        top_of,
        {slot: tuple(ys) for slot, ys in crossings.items()},
    )


def _fold_segments(s: FoldSchedule, geo: _Geometry) -> List[Segment]:
    half = Fraction(1, 2)
    segs: List[Segment] = []
    for k, p in enumerate(s.planes):
        y = geo.plane_y[k]
        xl, xr = geo.x[p.insertion[0]], geo.x[p.insertion[1]]
        segs.append(((xl - half, y - half), (xl + half, y + half)))
        segs.append(((xr - half, y + half), (xr + half, y - half)))
        xt = xr + geo.tail[k]
        segs.append(((xt, y - half), (xt, y + half)))
    for m, c in enumerate(s.caps):
        y = geo.cap_y[m]
        xa, xb = geo.x[c.join[0]], geo.x[c.join[1]]
        segs.append(((xa - half, y - half), (xa + half, y + half)))
        segs.append(((xb - half, y + half), (xb + half, y - half)))
    return segs


def _orient2(a: Point, b: Point, c: Point) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within(a: Point, b: Point, c: Point) -> bool:
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_meet(s1: Segment, s2: Segment) -> bool:
    a, b = s1
    c, d = s2
    d1 = _orient2(c, d, a)
    d2 = _orient2(c, d, b)
    d3 = _orient2(a, b, c)
    d4 = _orient2(a, b, d)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and _within(c, d, a):
        return True
    if d2 == 0 and _within(c, d, b):
        return True
    if d3 == 0 and _within(a, b, c):
        return True
    if d4 == 0 and _within(a, b, d):
        return True
    return False


def _first_meeting_pair(segs: Sequence[Segment]) -> Optional[Tuple[int, int]]:
    """The lowest (i, j), i < j, whose segments share a point, else None.

    Each segment is filed under every cell (x // 2, y // 2) that its
    closed bounding box touches. Two segments that meet share the cell
    of a common point, so only pairs that share a cell are tested.
    """
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i, ((xa, ya), (xb, yb)) in enumerate(segs):
        # pitch 2: wings sit 2 apart, plane bodies 4 apart and caps 2
        # apart, and every crease fits in a 1 x 1 box, so a cell holds
        # a handful of creases
        for cx in range(min(xa, xb) // 2, max(xa, xb) // 2 + 1):
            for cy in range(min(ya, yb) // 2, max(ya, yb) // 2 + 1):
                cells.setdefault((cx, cy), []).append(i)
    pairs = sorted({
        (i, j)
        for members in cells.values()
        for k, i in enumerate(members)
        for j in members[k + 1:]
    })
    return next(
        ((i, j) for i, j in pairs if _segments_meet(segs[i], segs[j])), None
    )


def check_fold_lines(
    s: FoldSchedule, config: Optional[LayoutConfig] = None
) -> List[Segment]:
    """All drawn fold lines, verified pairwise disjoint in exact arithmetic.

    Raises LayoutOverlap when any two creases share a point at the chosen
    epsilon, including the per-plane budget collision between the
    fold-back crease and the right wing fold. Only creases that share a
    2 x 2 cell are tested, so the cost grows linearly with the pile.
    """
    cfg = config or LayoutConfig()
    geo = _geometry(s, cfg)
    segs = _fold_segments(s, geo)
    hit = _first_meeting_pair(segs)
    if hit is not None:
        raise LayoutOverlap(
            f"fold lines {hit[0]} and {hit[1]} intersect at epsilon {cfg.epsilon}"
        )
    return segs


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_STYLE = (
    ".page{fill:#fffdf5;stroke:none}"
    ".wing{fill:#dbe9f8;stroke:#5b7fa6;stroke-width:1.5}"
    ".body{fill:#f6d99a;stroke:#a87f2f;stroke-width:1.5}"
    ".return{fill:#eec36e;stroke:none}"
    ".bridge{fill:#dff0d8;stroke:#6f9f6f;stroke-width:1.5}"
    ".core{stroke:#222;stroke-width:2.5;fill:none;stroke-linecap:round}"
    ".fold{stroke:#c0392b;stroke-width:2;stroke-dasharray:5 4}"
    ".lbl{font:italic 13px Georgia,serif;fill:#555}"
)

_GAP = Fraction(7, 20)  # visual half-gap in the under strand at a crossing


def _runs(
    lo: Fraction, hi: Fraction, cuts: Sequence[Fraction]
) -> List[Tuple[Fraction, Fraction]]:
    """Split [lo, hi] into visible runs, removing a gap around each cut."""
    out: List[Tuple[Fraction, Fraction]] = []
    start = lo
    for c in sorted(cuts):
        out.append((start, c - _GAP))
        start = c + _GAP
    out.append((start, hi))
    return [(a, b) for a, b in out if a < b]


def emit_svg(s: FoldSchedule, config: Optional[LayoutConfig] = None) -> str:
    """Render the pile as a deterministic standalone SVG 1.1 document.

    Wings first, then the body that covers them (the horizontal strand is
    the over strand), fold lines dashed, the core drawn with a gap in the
    under strand at every crossing. The fold lines drawn are the ones
    ``check_fold_lines`` returns, checked before anything is drawn.
    """
    cfg = config or LayoutConfig()
    scale = Fraction(SCALE)
    margin = Fraction(MARGIN)
    half = Fraction(1, 2)

    geo = _geometry(s, cfg)
    folds = iter(check_fold_lines(s, cfg))

    xs: List[Fraction] = [Fraction(0)]
    ys: List[Fraction] = [Fraction(-1)]
    for k, p in enumerate(s.planes):
        xs.append(geo.x[p.insertion[0]] - 1)
        xs.append(geo.x[p.insertion[1]] + geo.tail[k] + 1)
        ys.append(geo.plane_y[k] + 1)
    ys.extend(y + 1 for y in geo.cap_y)
    x0 = min(xs) - margin
    x1 = max(xs) + margin
    y1 = max(ys) + margin
    y0 = min(ys) - margin
    w_px = float((x1 - x0) * scale)
    h_px = float((y1 - y0) * scale)

    def fx(v: Fraction) -> str:
        return f"{float((v - x0) * scale):.2f}"

    def fy(v: Fraction) -> str:
        return f"{float((y1 - v) * scale):.2f}"

    def rect(cls: str, xa: Fraction, xb: Fraction, ya: Fraction, yb: Fraction) -> str:
        return (
            f'<rect class="{cls}" x="{fx(xa)}" y="{fy(yb)}" '
            f'width="{float((xb - xa) * scale):.2f}" '
            f'height="{float((yb - ya) * scale):.2f}"/>'
        )

    def line(cls: str, a: Point, b: Point) -> str:
        return (
            f'<line class="{cls}" x1="{fx(a[0])}" y1="{fy(a[1])}" '
            f'x2="{fx(b[0])}" y2="{fy(b[1])}"/>'
        )

    parts: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px:.2f}" height="{h_px:.2f}" viewBox="0 0 {w_px:.2f} {h_px:.2f}">',
        f"<style>{_STYLE}</style>",
        f'<rect class="page" x="0" y="0" width="{w_px:.2f}" height="{h_px:.2f}"/>',
    ]

    for k, p in enumerate(s.planes):
        y = geo.plane_y[k]
        xl, xr = geo.x[p.insertion[0]], geo.x[p.insertion[1]]
        xt = xr + geo.tail[k]
        parts.append(f'<g id="plane-{k}">')
        for slot in p.insertion:
            xw = geo.x[slot]
            parts.append(rect("wing", xw - half, xw + half, y, geo.top_of[slot]))
        parts.append(rect("body", xl, xt, y - half, y + half))
        parts.append(rect("return", xr, xt, y - Fraction(3, 10), y + Fraction(3, 10)))
        parts.extend(line("fold", a, b) for a, b in islice(folds, 3))
        parts.append(line("core", (xl, y), (xt, y)))
        for slot in p.insertion:
            xw = geo.x[slot]
            for a, b in _runs(y, geo.top_of[slot], geo.crossings.get(slot, ())):
                parts.append(line("core", (xw, a), (xw, b)))
        parts.append(
            f'<text class="lbl" x="{fx(xl - Fraction(7, 4))}" '
            f'y="{fy(y - Fraction(1, 4))}">P{k}</text>'
        )
        parts.append("</g>")

    for m, c in enumerate(s.caps):
        y = geo.cap_y[m]
        xa, xb = geo.x[c.join[0]], geo.x[c.join[1]]
        parts.append(f'<g id="cap-{m}">')
        parts.append(rect("bridge", xa, xb, y - half, y + half))
        parts.extend(line("fold", a, b) for a, b in islice(folds, 2))
        parts.append(line("core", (xa, y), (xb, y)))
        parts.append(
            f'<text class="lbl" x="{fx(xb + Fraction(3, 4))}" '
            f'y="{fy(y - Fraction(1, 4))}">C{m}</text>'
        )
        parts.append("</g>")

    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Core readback and serialization
# ---------------------------------------------------------------------------


def core_diagram(s: FoldSchedule) -> PlanarDiagram:
    """Read the crossing structure off the pile's core.

    Bodies are the horizontal over strands; a crossing happens exactly
    where a body passes its crossed wing. The walk reconstructs a planar
    diagram from the schedule alone, for checking against the input.
    """
    ends = [(Shape.MIN, p.insertion, p.crossed_wing) for p in s.planes]
    ends += [(Shape.MAX, c.join, None) for c in s.caps]
    rows: List[Row] = []
    below: Tuple[Col, ...] = ()
    for shape, (a, b), crossed in ends:
        rows.append(make_row(shape, a, b, crossed, below))
        below = rows[-1].columns_above
    return bgd_to_pd(BinaryGridDiagram(tuple(rows)))


def schedule_json(
    s: FoldSchedule, epsilon: Num = Fraction(1, 100), width: Num = 1
) -> Dict[str, object]:
    """JSON-ready form: {planes, caps, epsilon, width}, slots as strings."""
    return {
        "planes": [
            {
                "plane_index": p.plane_index,
                "insertion": [str(p.insertion[0]), str(p.insertion[1])],
                "crossed_wing": (
                    None if p.crossed_wing is None else str(p.crossed_wing)
                ),
            }
            for p in s.planes
        ],
        "caps": [
            {"cap_index": c.cap_index, "join": [str(c.join[0]), str(c.join[1])]}
            for c in s.caps
        ],
        "epsilon": float(epsilon),
        "width": float(width),
    }
