"""Folded ribbon construction from a normal-form grid.

Every cup row becomes a paper plane: a ribbon folded three times, with a
horizontal body of core length 2 (in width units) and two upward wings.
Planes stack bottom to top, each wing dropping into an insertable space
of the pile built so far. Cap rows become flat three-segment arcs that
close wing pairs from the inside out. The grid check that every
``BinaryGridDiagram`` passes already proves, on the cup rows, that each
plane brackets only the wing it crosses and that k planes hold 2k
wings, so ``build_pile`` reads the schedule off the grid in one pass,
with the wings in column order. ``ribbon_length`` prices the
schedule, and ``emit_svg`` draws an exploded schematic of the very
creases one lattice pass checked pairwise disjoint in exact arithmetic.
That check files each crease under the one 2 x 2 cell that holds it and
tests only creases that share a cell, so its cost grows linearly.

Every coordinate is a multiple of 1/D, D = lcm(20, 2q) for q the
denominator of epsilon/w, and is held as an int count of 1/D, so the
check and the drawing share ints, and each pixel value is one
correctly rounded int division, formatted once per document.

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
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .invariants import bgd_to_pd
from .model import (
    BinaryGridDiagram,
    PlanarDiagram,
    RibbonfoldError,
    Shape,
    stack_rows,
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
    "ribbon_length",
    "check_fold_lines",
    "emit_svg",
    "core_diagram",
    "core_specs",
    "schedule_json",
]

Num = Union[int, float, Fraction]
Point = Tuple[Fraction, Fraction]
Segment = Tuple[Point, Point]
_Pt = Tuple[int, int]        # a point on the 1/unit lattice of _Geometry
_Seg = Tuple[_Pt, _Pt]


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
    insertion: Tuple[int, int]
    crossed_wing: Optional[int] = None


@dataclass(frozen=True)
class CapArc:
    """Upper-part arc joining two wing slots, flat and of O(epsilon) length."""

    cap_index: int
    join: Tuple[int, int]


@dataclass(frozen=True)
class FoldSchedule:
    """Planes in stacking order, caps inside-out, wings left to right.

    ``connection_order`` lists every wing slot in the left-to-right order
    in which the upper and lower parts are joined.
    """

    planes: Tuple[PaperPlane, ...]
    caps: Tuple[CapArc, ...]
    connection_order: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Pile construction
# ---------------------------------------------------------------------------


def build_pile(g: BinaryGridDiagram) -> FoldSchedule:
    """Turn a normal-form grid into a pile of paper planes plus cap arcs.

    One plane per cup row in stacking order, one cap per cap row from the
    inside out. The wing slots are the cup rows' columns, joined left to
    right. ``g`` is valid by construction, so only its normal form is
    checked here: on the cup rows, the grid check already proved the
    pile invariant (each plane brackets the wing it crosses or none, no
    slot is used twice, and k planes hold 2k wings).
    """
    if not is_normal_form(g):
        bad = sorted({r.block for r in g.rows if _convertible(r)})
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
    wings = sorted(slot for p in planes for slot in p.insertion)
    return FoldSchedule(tuple(planes), tuple(caps), tuple(wings))


def ribbon_length(s: FoldSchedule, epsilon: Num) -> Fraction:
    """Core length of the schedule at a given wing/cap allowance.

    Each plane contributes exactly 2; each of the 2k wings and each of
    the three segments per cap arc contributes epsilon. The limit for
    epsilon to zero is therefore twice the number of planes. Pass a
    Fraction or decimal string for an exact breakdown.
    """
    eps = _positive("epsilon", epsilon)
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
    unit: int                          # D: the fields below count 1/D
    x: Dict[int, int]                  # wing slot -> center x
    plane_y: Tuple[int, ...]           # body centerline per plane
    cap_y: Tuple[int, ...]             # bridge centerline per cap
    tail: Tuple[int, ...]              # fold-back overshoot per plane
    top_of: Dict[int, int]             # wing slot -> bridge y
    crossings: Dict[int, Tuple[int, ...]]  # wing slot -> body ys over it


def _positive(name: str, value: Num) -> Fraction:
    value = Fraction(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def _wing_gaps(s: FoldSchedule) -> List[int]:
    """Per plane, how many wing slots apart its two wings end up."""
    order = {slot: j for j, slot in enumerate(s.connection_order)}
    return [order[p.insertion[1]] - order[p.insertion[0]] for p in s.planes]


def default_epsilon(s: FoldSchedule, width: Num = 1) -> Fraction:
    """min(1/100, width / (2(g + 2))), g the widest wing gap.

    A plane whose wings are g slots apart folds back cleanly only while
    epsilon < width / (g + 2), so the default is half the tightest of
    those budgets, capped at 1/100. Raises ValueError unless width > 0.
    """
    g = max(_wing_gaps(s), default=0)
    return min(Fraction(1, 100), _positive("width", width) / (2 * (g + 2)))


def _geometry(s: FoldSchedule, cfg: LayoutConfig) -> _Geometry:
    width = _positive("width", cfg.width)
    eps = _positive("epsilon", cfg.epsilon) / width
    # offsets are multiples of 1/20 (creases, return, labels, gaps) or
    # of eps/2 (the fold-back tail)
    d = lcm(20, 2 * eps.denominator)
    half_eps = eps.numerator * (d // (2 * eps.denominator))
    x = {slot: 2 * j * d for j, slot in enumerate(s.connection_order)}
    n_planes = len(s.planes)
    plane_y = tuple(4 * k * d for k in range(n_planes))
    cap_y = tuple((4 * n_planes + 2 * m) * d for m in range(len(s.caps)))

    tails: List[int] = []
    for p, gap in zip(s.planes, _wing_gaps(s)):
        o = d - half_eps * (gap + 2)
        if 2 * o <= d:
            limit = width / (gap + 2)
            raise LayoutOverlap(
                f"epsilon {cfg.epsilon} too large for disjoint fold lines: "
                f"the fold-back crease of plane {p.plane_index} meets its "
                f"right wing fold (needs epsilon < {float(limit):g})"
            )
        tails.append(o)

    top_of = {slot: cap_y[m] for m, c in enumerate(s.caps) for slot in c.join}

    crossings: Dict[int, List[int]] = {}
    for k, p in enumerate(s.planes):
        if p.crossed_wing is not None:
            crossings.setdefault(p.crossed_wing, []).append(plane_y[k])
    return _Geometry(d, x, plane_y, cap_y, tuple(tails), top_of,
                     {slot: tuple(ys) for slot, ys in crossings.items()})


def _fold_segments(s: FoldSchedule, geo: _Geometry) -> List[_Seg]:
    half = geo.unit // 2
    segs: List[_Seg] = []
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


def _orient2(a: _Pt, b: _Pt, c: _Pt) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within(a: _Pt, b: _Pt, c: _Pt) -> bool:
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_meet(s1: _Seg, s2: _Seg) -> bool:
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


def _first_meeting_pair(segs: Sequence[_Seg], pitch: int) -> Optional[Tuple[int, int]]:
    """The lowest (i, j), i < j, whose segments share a point, else None.

    Each segment is filed under every cell ((x + q) // pitch, (y + q) //
    pitch), q = pitch // 4, that its closed bounding box touches. Two
    segments that meet share the cell of a common point, whatever q is,
    so only pairs that share a cell are tested.
    """
    q = pitch // 4
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i, ((xa, ya), (xb, yb)) in enumerate(segs):
        if xa > xb:
            xa, xb = xb, xa
        if ya > yb:
            ya, yb = yb, ya
        cx0, cx1 = (xa + q) // pitch, (xb + q) // pitch
        cy0, cy1 = (ya + q) // pitch, (yb + q) // pitch
        # pitch 2 width units: wings sit 2 apart, bodies 4 and caps 2,
        # and each crease box lies in [-1/2, 1] x [-1/2, 1/2] about its
        # wing and line, so after the offset it lies in one cell
        if cx0 == cx1 and cy0 == cy1:
            cells.setdefault((cx0, cy0), []).append(i)
            continue
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                cells.setdefault((cx, cy), []).append(i)
    return min(((i, j) for members in cells.values() if len(members) > 1
                for k, i in enumerate(members) for j in members[k + 1:]
                if _segments_meet(segs[i], segs[j])), default=None)


def _checked_folds(s: FoldSchedule, cfg: LayoutConfig) -> Tuple[_Geometry, List[_Seg]]:
    """The lattice geometry and its creases, checked pairwise disjoint."""
    geo = _geometry(s, cfg)
    segs = _fold_segments(s, geo)
    hit = _first_meeting_pair(segs, 2 * geo.unit)
    if hit is not None:
        raise LayoutOverlap(f"fold lines {hit[0]} and {hit[1]} intersect "
                            f"at epsilon {cfg.epsilon}")
    return geo, segs


def check_fold_lines(
    s: FoldSchedule, config: Optional[LayoutConfig] = None
) -> List[Segment]:
    """All drawn fold lines, verified pairwise disjoint in exact arithmetic.

    Raises LayoutOverlap when any two creases share a point at the chosen
    epsilon, including the per-plane budget collision between the
    fold-back crease and the right wing fold, and ValueError unless
    width and epsilon are positive. Only creases that share a 2 x 2 cell
    are tested, so the cost grows linearly with the pile.
    """
    geo, segs = _checked_folds(s, config or LayoutConfig())
    values = {v for seg in segs for pt in seg for v in pt}
    frac = {v: Fraction(v, geo.unit) for v in values}
    return [tuple((frac[x], frac[y]) for x, y in seg) for seg in segs]


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


class _Pixels(dict):
    """Lattice count -> its pixel string at ``unit`` counts per width."""

    def __init__(self, unit: int) -> None:
        self.unit = unit

    def __missing__(self, v: int) -> str:
        text = self[v] = f"{v * SCALE / self.unit:.2f}"
        return text


def _runs(lo: int, hi: int, cuts: Sequence[int], gap: int) -> List[Tuple[int, int]]:
    """Split [lo, hi] into visible runs, ``gap`` off each cut; cuts ascend."""
    out: List[Tuple[int, int]] = []
    start = lo
    for c in cuts:
        out.append((start, c - gap))
        start = c + gap
    out.append((start, hi))
    return [(a, b) for a, b in out if a < b]


def emit_svg(s: FoldSchedule, config: Optional[LayoutConfig] = None) -> str:
    """Render the pile as a deterministic standalone SVG 1.1 document.

    Wings first, then the body that covers them (the horizontal strand is
    the over strand), fold lines dashed, the core drawn with a gap in the
    under strand at every crossing. The check of ``check_fold_lines`` runs
    first and raises every LayoutOverlap; the creases drawn are its very list.
    """
    geo, segs = _checked_folds(s, config or LayoutConfig())
    d = geo.unit
    half = d // 2
    folds = iter(segs)

    xs: List[int] = [0]
    for k, p in enumerate(s.planes):
        xs.append(geo.x[p.insertion[0]] - d)
        xs.append(geo.x[p.insertion[1]] + geo.tail[k] + d)
    ys = [-d] + [y + d for y in geo.plane_y + geo.cap_y]
    x0, x1 = min(xs) - MARGIN * d, max(xs) + MARGIN * d
    y0, y1 = min(ys) - MARGIN * d, max(ys) + MARGIN * d
    px = _Pixels(d)

    def rect(cls: str, xa: int, xb: int, ya: int, yb: int) -> str:
        return (
            f'<rect class="{cls}" x="{px[xa - x0]}" y="{px[y1 - yb]}" '
            f'width="{px[xb - xa]}" height="{px[yb - ya]}"/>'
        )

    def line(cls: str, a: _Pt, b: _Pt) -> str:
        return (
            f'<line class="{cls}" x1="{px[a[0] - x0]}" y1="{px[y1 - a[1]]}" '
            f'x2="{px[b[0] - x0]}" y2="{px[y1 - b[1]]}"/>'
        )

    w_px, h_px = px[x1 - x0], px[y1 - y0]
    parts: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">',
        f"<style>{_STYLE}</style>",
        f'<rect class="page" x="0" y="0" width="{w_px}" height="{h_px}"/>',
    ]

    gap = 7 * d // 20  # visual half-gap in the under strand at a crossing
    for k, p in enumerate(s.planes):
        y = geo.plane_y[k]
        xl, xr = geo.x[p.insertion[0]], geo.x[p.insertion[1]]
        xt = xr + geo.tail[k]
        parts.append(f'<g id="plane-{k}">')
        for slot in p.insertion:
            xw = geo.x[slot]
            parts.append(rect("wing", xw - half, xw + half, y, geo.top_of[slot]))
        parts.append(rect("body", xl, xt, y - half, y + half))
        parts.append(rect("return", xr, xt, y - 3 * d // 10, y + 3 * d // 10))
        parts.extend(line("fold", a, b) for a, b in islice(folds, 3))
        parts.append(line("core", (xl, y), (xt, y)))
        for slot in p.insertion:
            xw = geo.x[slot]
            for a, b in _runs(y, geo.top_of[slot], geo.crossings.get(slot, ()), gap):
                parts.append(line("core", (xw, a), (xw, b)))
        parts.append(
            f'<text class="lbl" x="{px[xl - 7 * d // 4 - x0]}" '
            f'y="{px[y1 - y + d // 4]}">P{k}</text>'
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
            f'<text class="lbl" x="{px[xb + 3 * d // 4 - x0]}" '
            f'y="{px[y1 - y + d // 4]}">C{m}</text>'
        )
        parts.append("</g>")

    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Core readback and serialization
# ---------------------------------------------------------------------------


def core_specs(s: FoldSchedule) -> List[Tuple[Shape, int, int, Optional[int]]]:
    """The pile's core as row specs (shape, a, b, crossed), bottom to top:
    a cup per plane, then a cap per cap arc.

    Every spec is a cup or a cap, which ``make_row`` turns into the row of
    that shape, extent and crossed column, so a normal-form grid whose rows
    read as these specs is the core's grid.
    """
    specs = [(Shape.MIN, *p.insertion, p.crossed_wing) for p in s.planes]
    specs += [(Shape.MAX, *c.join, None) for c in s.caps]
    return specs


def core_diagram(s: FoldSchedule) -> PlanarDiagram:
    """Read the crossing structure off the pile's core.

    Bodies are the horizontal over strands; a crossing happens exactly
    where a body passes its crossed wing. The walk reconstructs a planar
    diagram from the schedule alone, for checking against the input.
    """
    return bgd_to_pd(stack_rows(core_specs(s)))


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
