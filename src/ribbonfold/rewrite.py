"""Rewriting a binary grid into normal form.

Normal form is a stack of cups (crossed or plain) followed by plain
caps. ``convert_block`` first replaces each sideways or crossed-cap row
by cup-and-cap pairs; each such move is checked only on the rows it
changed, against its valid input grid. The caps are then raised at the
level of strand order. The rows become events on strand identities: a
cup births two strands around the strand it crosses or just left of a
neighbour strand, and a cap closes two strands. Raising every cap past
every cup above it, one planar isotopy per swap, ends with all cups in
their order followed by all caps in theirs, and that order always
replays: a cup born above a cap can be born below it next to the same
neighbour. Replaying it on one ordered strand list gives each strand an
integer column, by a topological sort of the left-of relation between
strands that are ever adjacent. ``normalize`` runs the full check on
its input and on its output.
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

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




# A cup event (p, q, crossed, anchor) births the strands p and q around
# the strand ``crossed`` or, over no crossing, just left of the strand
# ``anchor`` (None: at the right end). A cap event (l1, l2) closes the
# adjacent strands l1 and l2. Strands are numbered by birth, bottom to
# top and left to right within a cup, so ids survive reordering caps.
Event = Tuple[Optional[int], ...]


def _events(g: BinaryGridDiagram) -> List[Event]:
    """The rows of ``g``, each a cup or a plain cap, as events."""
    strand: Dict[Col, int] = {}
    born = 0
    out: List[Event] = []
    for r in g.rows:
        a, b = r.extent
        if r.shape is Shape.MAX:
            out.append((strand.pop(a), strand.pop(b)))
            continue
        strand[a], strand[b] = born, born + 1
        if r.crossed_column is not None:
            out.append((born, born + 1, strand[r.crossed_column], None))
        else:
            above = r.columns_above
            k = bisect.bisect_right(above, b)
            out.append((born, born + 1, None,
                        strand[above[k]] if k < len(above) else None))
        born += 2
    return out


def _columns(events: List[Event]) -> Dict[int, int]:
    """Columns 1, 2, ... for the strands of ``events`` replayed in order.

    The strands are kept in one left-to-right list; every pair that is
    adjacent at some height gives a left-of edge, and Kahn's sort of
    those edges, ties to the smallest id, numbers the strands. The
    relation is acyclic: strand lifetimes are intervals, so strands that
    pairwise coexist all coexist at one height, where they are ordered.
    """
    order: List[int] = []
    right_of: Dict[int, Set[int]] = {}
    for ev in events:
        if len(ev) == 2:
            l1, l2 = ev
            lo = hi = order.index(l1)
            assert order[lo + 1:lo + 2] == [l2], f"cap on {l1}, {l2}: not adjacent"
            del order[lo:lo + 2]
        else:
            p, q, x, anchor = ev
            right_of[p], right_of[q] = set(), set()
            if x is not None:
                lo = order.index(x)
                order[lo:lo + 1] = [p, x, q]
                hi = lo + 3
            else:
                lo = len(order) if anchor is None else order.index(anchor)
                order[lo:lo] = [p, q]
                hi = lo + 2
        # the pairs that became adjacent around order[lo:hi]
        for k in range(max(lo - 1, 0), min(hi, len(order) - 1)):
            right_of[order[k]].add(order[k + 1])

    indegree = Counter(w for succ in right_of.values() for w in succ)
    ready = [v for v in right_of if not indegree[v]]
    heapq.heapify(ready)
    col: Dict[int, int] = {}
    while ready:
        v = heapq.heappop(ready)
        col[v] = len(col) + 1
        for w in right_of[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(ready, w)
    assert len(col) == len(right_of), "the left-of relation has a cycle"
    return col


def _rows(events: List[Event]) -> List[Row]:
    """The grid rows of ``events``, on the columns of ``_columns``."""
    col = _columns(events)
    rows: List[Row] = []
    below: Tuple[Col, ...] = ()
    for ev in events:
        if len(ev) == 2:
            row = make_row(Shape.MAX, col[ev[0]], col[ev[1]], None, below)
        else:
            p, q, x, _ = ev
            row = make_row(Shape.MIN, col[p], col[q],
                           None if x is None else col[x], below)
        rows.append(row)
        below = row.columns_above
    return rows


def switch_adjacent(g: BinaryGridDiagram, i: int) -> BinaryGridDiagram:
    """Float the plain cap at row i above the cup at row i + 1.

    A cap under another cap is already fine (no-op). Otherwise the cup
    is reborn just below the cap, around the same crossed strand or just
    left of the same neighbour strand, and the columns are renumbered as
    in ``normalize``. Every row of ``g`` must be a cup or a plain cap.
    ``g`` must be a valid grid; every row of the result is checked.
    """
    if not 0 <= i < len(g.rows) - 1:
        raise IndexError(f"no adjacent pair at row {i}")
    low, high = g.rows[i], g.rows[i + 1]
    if low.shape is not Shape.MAX or low.crossed_column is not None:
        raise NotSwitchable(f"lower row is {low.block_type.name}, not a plain cap")
    if high.shape is Shape.MAX:
        if high.crossed_column is None:
            return g
        raise NotSwitchable("convert the crossed cap above first")
    if high.shape is Shape.TRANS:
        raise NotSwitchable("convert the sideways row above first")
    if any(_convertible(r) for r in g.rows):
        raise NotSwitchable("convert every sideways and crossed-cap row first")

    events = _events(g)
    events[i], events[i + 1] = events[i + 1], events[i]
    return _checked(_rows(events), g)


def normalize(
    g: BinaryGridDiagram,
    trace: Optional[List[Tuple[str, BinaryGridDiagram]]] = None,
) -> BinaryGridDiagram:
    """Rewrite an arbitrary grid into normal form.

    A grid already in normal form comes back as it is. Otherwise every
    sideways and crossed-cap row is converted bottom to top, and the
    events of the result are replayed with all cups before all caps.
    The counted blocks (everything except plain caps) are conserved, so
    afterwards B1 + B1r equals the old B1 + B2 + B3 + B1r + B2r. The
    input and the result each get one full ``check_bgd``; RewriteError
    if either fails. With ``trace``, each step is appended as it is
    built: one grid per convert, then one per cap raised past a cup,
    always the lowest such pair; the last of those equals the result.
    """
    _require(check_bgd(g), "normalize was given an invalid grid")
    if is_normal_form(g):
        return g
    i = 0
    while i < len(g.rows):
        r = g.rows[i]
        if _convertible(r):
            g = convert_block(g, i)
            if trace is not None:
                trace.append((f"convert {r.block_type.name} at row {i}", g))
        else:
            i += 1

    # a stable sort by length: every cup, in order, before every cap
    out = BinaryGridDiagram(tuple(_rows(sorted(_events(g), key=len, reverse=True))))
    _require(check_bgd(out), "normalization produced an invalid grid")
    if not is_normal_form(out):
        raise RewriteError("normalization finished off normal form")

    j = 0
    while trace is not None and j < len(g.rows) - 1:
        if g.rows[j].shape is Shape.MAX and g.rows[j + 1].shape is Shape.MIN:
            g = switch_adjacent(g, j)
            trace.append((f"raise cap past row {j + 1}", g))
            j = max(j - 1, 0)  # the next lowest pair is no lower than j - 1
        else:
            j += 1
    return out
