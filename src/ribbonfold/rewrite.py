"""Rewriting a binary grid into normal form.

Normal form is a stack of cups (crossed or plain) followed by plain
caps. Two families of moves get there: ``convert_block`` replaces a
sideways or crossed-cap row by cup-and-cap pairs, and ``switch_adjacent``
floats a plain cap above a cup born just over it, re-routing the cup's
legs through safe gaps when the two interfere. Every move is a planar
isotopy of the presented link.

Moves are validated locally: ``check_bgd`` checks only the rows a move
changed, against the move's valid input grid. ``normalize`` runs the
full check on its input and on its output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .model import (
    BinaryGridDiagram,
    Col,
    EndKind,
    RibbonfoldError,
    Row,
    Shape,
    check_bgd,
    column_values,
    make_row,
    map_columns,
)

__all__ = [
    "NotConvertible",
    "NotSwitchable",
    "RewriteError",
    "convert_block",
    "switch_adjacent",
    "normalize",
    "is_normal_form",
]


class NotConvertible(RibbonfoldError):
    """The row is already a cup or a plain cap."""


class NotSwitchable(RibbonfoldError):
    """The adjacent pair cannot be exchanged by a planar isotopy."""


class RewriteError(RibbonfoldError):
    """A rewrite produced an invalid grid; indicates an internal bug."""


def _convertible(r: Row) -> bool:
    """A sideways row or a crossed cap: the rows ``convert_block`` replaces."""
    return r.shape is Shape.TRANS or (
        r.shape is Shape.MAX and r.crossed_column is not None)


def _plain_cap(r: Row) -> bool:
    """A cap over no crossing: the rows ``switch_adjacent`` floats up."""
    return r.shape is Shape.MAX and r.crossed_column is None


def is_normal_form(g: BinaryGridDiagram) -> bool:
    """True when every cup precedes every cap and caps are plain."""
    seen_max = False
    for r in g.rows:
        if _convertible(r):
            return False
        if r.shape is Shape.MAX:
            seen_max = True
        elif seen_max:
            return False
    return True


def _fresh(lo: Col, hi: Col, used: Set[Col]) -> Fraction:
    """A deterministic unused value strictly between lo and hi."""
    x = Fraction(lo + hi, 2)
    while x in used:
        x = Fraction(lo + x, 2)
    return x


def _require(problems: List[str], what: str) -> None:
    if problems:
        raise RewriteError(f"{what}: " + "; ".join(problems))


def _checked(rows: List[Row], prev: BinaryGridDiagram) -> BinaryGridDiagram:
    """The grid of ``rows``, checked where it differs from the valid ``prev``."""
    g = BinaryGridDiagram(tuple(rows))
    _require(check_bgd(g, prev), "rewrite broke the grid")
    return g


def convert_block(g: BinaryGridDiagram, i: int) -> BinaryGridDiagram:
    """Replace row i (a TRANS or crossed MAX) by cups and plain caps.

    A sideways move becomes a fresh cup plus a cap swallowing the old
    strand; a crossed cap becomes a fresh cup over the same vertical
    plus two plain caps. The strand emerging above keeps its column, so
    rows above row i are untouched. ``g`` must be a valid grid: the
    result is checked only where it differs from ``g``.
    """
    if not 0 <= i < len(g.rows):
        raise IndexError(f"row {i} out of range")
    r = g.rows[i]
    if not _convertible(r):
        raise NotConvertible(
            f"row {i} is {r.block_type.name}; only B2, B2r and B3 convert")

    used = column_values(g.rows)
    s = r.columns_below
    rows = list(g.rows)

    if r.shape is Shape.TRANS:
        lo, hi = r.extent
        src, dst = (lo, hi) if r.end_kinds[0] is EndKind.DOWN else (hi, lo)
        x = r.crossed_column
        if x is None:
            # plain sideways move: hairpin through a fresh column
            p = _fresh(min(src, dst), max(src, dst), used)
        elif src < dst:
            p = _fresh(src, x, used)
        else:
            p = _fresh(x, src, used)
        cup = make_row(Shape.MIN, p, dst, x, s)
        cap = make_row(Shape.MAX, src, p, None, cup.columns_above)
        rows[i:i + 1] = [cup, cap]
    else:
        a, b = r.extent
        x = r.crossed_column
        p = _fresh(a, x, used)
        q = _fresh(x, b, used | {p})
        cup = make_row(Shape.MIN, p, q, x, s)
        cap1 = make_row(Shape.MAX, a, p, None, cup.columns_above)
        cap2 = make_row(Shape.MAX, q, b, None, cap1.columns_above)
        rows[i:i + 1] = [cup, cap1, cap2]

    return _checked(rows, g)


_CASCADE_DEPTH = 24


def _alive(rows: Sequence[Row], j: int, v: Col) -> Tuple[int, int]:
    """The row range [a, e] over which column v stays open, v open at j."""
    if v not in rows[j].columns_below:
        raise RewriteError(f"column {v} is not open at row {j}")
    a = j
    while a > 0 and v in rows[a - 1].columns_below:
        a -= 1
    e = j
    while e + 1 < len(rows) and v in rows[e + 1].columns_below:
        e += 1
    if v in rows[e].columns_above:
        raise RewriteError(f"column {v} never consumed above row {j}")
    return a, e


def _rename_span(rows: List[Row], j: int, old: Col, new: Col) -> None:
    """Move the open column ``old`` to value ``new`` over its lifetime.

    Legal only while no other strand ever sits between the two values:
    then the whole vertical segment slides sideways without crossing
    anything, a planar isotopy. Mutates ``rows`` in place.
    """
    a, e = _alive(rows, j, old)
    if a == 0:
        raise RewriteError(f"column {old} has no birth row")
    lo, hi = min(old, new), max(old, new)
    for k in range(a, e + 1):
        for v in rows[k].columns_below:
            if v == new or (v != old and lo < v < hi):
                raise NotSwitchable(
                    f"column {old} is pinned by {v} and cannot move to {new}")

    # nothing sits between old and new, so every column list stays sorted
    def sub(c: Col) -> Col:
        return new if c == old else c

    for k in range(a - 1, e + 1):
        rows[k] = map_columns(rows[k], sub)


def _fresh_near(lo: Col, hi: Col, used: Set[Col], near_hi: bool) -> Fraction:
    """A fresh value in (lo, hi), biased toward one end so that the
    sweep of a sliding strand stays as short as possible."""
    anchor = Fraction(hi if near_hi else lo)
    other = Fraction(lo if near_hi else hi)
    v = (3 * anchor + other) / 4
    while v in used:
        v = (v + anchor) / 2
    return v


def _make_way(rows: List[Row], a: int, e: int, old: Col, new: Col,
              used: Set[Col], frozen: Set[Col], depth: int,
              log: Dict[Col, Col]) -> None:
    """Push every strand out of the sweep between old and new."""
    s_lo, s_hi = (new, old) if new < old else (old, new)
    while True:
        hit: Optional[Tuple[int, Col]] = None
        for k in range(a, e + 1):
            for v in rows[k].columns_below:
                if v != old and s_lo < v < s_hi:
                    hit = (k, v)
                    break
            if hit is not None:
                break
        if hit is None:
            return
        k, v = hit
        if v in frozen:
            raise NotSwitchable(f"column {old} is pinned by {v}")
        if new < old:
            _slide(rows, k, v, new - 2, new, used, frozen, depth - 1, log)
        else:
            _slide(rows, k, v, new, new + 2, used, frozen, depth - 1, log)


def _slide(rows: List[Row], j: int, old: Col, lo: Col, hi: Col,
           used: Set[Col], frozen: Set[Col], depth: int = _CASCADE_DEPTH,
           log: Optional[Dict[Col, Col]] = None) -> Col:
    """Slide the strand ``old`` (open at row j) into the window (lo, hi).

    Strands standing between the strand and its target are recursively
    pushed just past the target first, so a whole family of columns may
    shift to make room. Every individual move is corridor-checked, so
    the net effect is a composition of planar isotopies. Returns the
    final value (``old`` itself when it already sits in the window).
    Every rename, including cascade renames of bystander columns, is
    recorded in ``log`` so callers can re-resolve values they captured
    before the slide.
    """
    if log is None:
        log = {}
    if not lo < hi:
        raise NotSwitchable(f"no room between {lo} and {hi}")
    if lo < old < hi:
        return old
    if depth <= 0:
        raise NotSwitchable("re-route cascade ran too deep")
    a, e = _alive(rows, j, old)
    leftward = hi <= old
    last: Optional[NotSwitchable] = None
    for _ in range(4):
        new = _fresh_near(lo, hi, used, near_hi=leftward)
        used.add(new)
        try:
            _make_way(rows, a, e, old, new, used, frozen, depth, log)
            _rename_span(rows, j, old, new)
            log[old] = new
            return new
        except NotSwitchable as err:
            # a shorter sweep may dodge the obstacle; creep toward the
            # near end of the window and try again
            last = err
            if leftward:
                lo = new
            else:
                hi = new
    assert last is not None
    raise last


def _current(log: Dict[Col, Col], v: Col) -> Col:
    """Follow ``v`` through recorded renames to its present value."""
    while v in log:
        v = log[v]
    return v


def switch_adjacent(g: BinaryGridDiagram, i: int) -> BinaryGridDiagram:
    """Float the plain cap at row i above the row at i + 1.

    A cap under another cap is already fine (no-op). A cap under a cup
    swaps directly when their spans are disjoint; otherwise the cup is
    reborn below the cap with its legs re-routed: hugging its crossed
    column, or into the first free gap right of the cap (falling back
    to the gap on the left). When the cup's legs are pinned by strands
    above, the cap's own strands slide sideways out of the cup's span
    instead. Raises NotSwitchable when every re-route would drag some
    column across a live strand. ``g`` must be a valid grid: the result
    is checked only where it differs from ``g``.
    """
    if not 0 <= i < len(g.rows) - 1:
        raise IndexError(f"no adjacent pair at row {i}")
    low, high = g.rows[i], g.rows[i + 1]
    if not _plain_cap(low):
        raise NotSwitchable(f"lower row is {low.block_type.name}, not a plain cap")
    if high.shape is Shape.MAX:
        if high.crossed_column is None:
            return g
        raise NotSwitchable("convert the crossed cap above first")
    if high.shape is Shape.TRANS:
        raise NotSwitchable("convert the sideways row above first")

    l1, l2 = low.extent
    m1, m2 = high.extent
    s = low.columns_below
    rows = list(g.rows)

    if l2 < m1 or m2 < l1:
        rows[i] = make_row(Shape.MIN, m1, m2, high.crossed_column, s)
        rows[i + 1] = make_row(Shape.MAX, l1, l2, None, rows[i].columns_above)
        return _checked(rows, g)

    c = high.crossed_column
    pred_c = max((v for v in s if c is not None and v < c), default=None)
    succ_c = min((v for v in s if c is not None and v > c), default=None)
    g0 = min((v for v in s if v > l2), default=l2 + 2)
    g1 = max((v for v in s if v < l1), default=l1 - 2)
    plans = ["hug"] if c is not None else ["right", "left"]
    # fallbacks when the cup's legs are pinned: slide the cap's own
    # strands out of the cup's span instead
    l1_in = m1 <= l1 <= m2
    l2_in = m1 <= l2 <= m2
    if l1_in and l2_in:
        plans += ["cap_left", "cap_right"]
    elif l2_in:
        plans += ["cap_l2_left"]
    elif l1_in:
        plans += ["cap_l1_right"]
    else:
        plans += ["cap_l2_left", "cap_l1_right"]

    last_err: Optional[NotSwitchable] = None
    for plan in plans:
        cand = list(g.rows)
        used = column_values(g.rows)
        legs = (m1, m2)
        ends = (l1, l2)
        keep = set(s)
        # cascades may rename the sibling column while the first one
        # slides, so the second slide re-resolves through the log
        moved: Dict[Col, Col] = {}
        try:
            if plan == "hug":
                # keep the legs flanking the crossed column
                q_new = _slide(cand, i + 2, m2, c,
                               succ_c if succ_c is not None else m2 + 2,
                               used, keep, log=moved)
                p = _current(moved, m1)
                p_new = _slide(cand, i + 2, p,
                               pred_c if pred_c is not None else min(p, c) - 2,
                               c, used, keep | {q_new}, log=moved)
                legs = (p_new, q_new)
            elif plan == "right":
                # rebirth in the free gap right of the cap
                q_new = _slide(cand, i + 2, m2, l2, g0, used, keep, log=moved)
                p_new = _slide(cand, i + 2, _current(moved, m1), l2, q_new,
                               used, keep | {q_new}, log=moved)
                legs = (p_new, q_new)
            elif plan == "left":
                # or in the free gap left of it
                p_new = _slide(cand, i + 2, m1, g1, l1, used, keep, log=moved)
                q_new = _slide(cand, i + 2, _current(moved, m2), p_new, l1,
                               used, keep | {p_new}, log=moved)
                legs = (p_new, q_new)
            elif plan == "cap_l2_left":
                hold = (keep - {l2}) | {m1, m2}
                v2 = _slide(cand, i, l2, l1, m1, used, hold)
                ends = (l1, v2)
            elif plan == "cap_l1_right":
                hold = (keep - {l1}) | {m1, m2}
                v1 = _slide(cand, i, l1, m2, l2, used, hold)
                ends = (v1, l2)
            elif plan == "cap_left":
                hold = (keep - {l1, l2}) | {m1, m2}
                v1 = _slide(cand, i, l1, m1 - 2, m1, used, hold, log=moved)
                v2 = _slide(cand, i, _current(moved, l2), v1, m1,
                            used, hold | {v1}, log=moved)
                ends = (v1, v2)
            else:
                hold = (keep - {l1, l2}) | {m1, m2}
                v2 = _slide(cand, i, l2, m2, l2 + 2, used, hold, log=moved)
                v1 = _slide(cand, i, _current(moved, l1), m2, v2,
                            used, hold | {v2}, log=moved)
                ends = (v1, v2)
        except NotSwitchable as e:
            last_err = e
            continue
        cand[i] = make_row(Shape.MIN, legs[0], legs[1], c, cand[i].columns_below)
        cand[i + 1] = make_row(Shape.MAX, ends[0], ends[1], None,
                               cand[i].columns_above)
        return _checked(cand, g)
    assert last_err is not None
    raise last_err


def normalize(
    g: BinaryGridDiagram,
    trace: Optional[List[Tuple[str, BinaryGridDiagram]]] = None,
) -> BinaryGridDiagram:
    """Rewrite an arbitrary grid into normal form.

    First converts every sideways and crossed-cap row bottom to top,
    then bubbles the plain caps above the cups. The counted blocks
    (everything except plain caps) are conserved, so afterwards
    B1 + B1r equals the old B1 + B2 + B3 + B1r + B2r. The input and the
    result each get one full ``check_bgd``; RewriteError if either fails.
    """
    _require(check_bgd(g), "normalize was given an invalid grid")
    i = 0
    while i < len(g.rows):
        r = g.rows[i]
        if _convertible(r):
            g = convert_block(g, i)
            if trace is not None:
                trace.append((f"convert {r.block_type.name} at row {i}", g))
        else:
            i += 1

    while True:
        pairs = [
            j for j in range(len(g.rows) - 1)
            if _plain_cap(g.rows[j]) and g.rows[j + 1].shape is Shape.MIN
        ]
        if not pairs:
            break
        progressed = False
        for j in pairs:
            try:
                g = switch_adjacent(g, j)
            except NotSwitchable:
                continue
            if trace is not None:
                trace.append((f"raise cap past row {j + 1}", g))
            progressed = True
            break
        if not progressed:
            raise RewriteError("no cap can move; normalization is stuck")

    _require(check_bgd(g), "normalization produced an invalid grid")
    if not is_normal_form(g):
        raise RewriteError("normalization finished off normal form")
    return g
