"""Columns by Kahn's sort and the sorting grid check: ``model``'s references.

``reference_columns`` numbers the strands of any event list by a Kahn
sort of the left-of relation: every pair of strands that is ever side
by side. ``reference_check_bgd`` replays the open columns with one sort
of each row's ends and lists the strands inside every extent.
``model._columns`` must give a numbering consistent with the reference,
one whose grid reads back to the same events, and the same numbering on
a list in normal form; ``model.check_bgd`` must give the same problems,
in the same order and words. Neither takes a shortcut: one sorts every
list, the other the ends of every row.
"""

import bisect
import heapq
from collections import Counter
from typing import Dict, List, Set

from ribbonfold.model import END_KINDS, BinaryGridDiagram, EndKind, Event, Shape


def reference_check_bgd(g: BinaryGridDiagram) -> List[str]:
    """Structural problems with a grid diagram (empty list if none).

    Every column must be an int, the only kind ``.bgd`` text can hold.
    Replays the open columns bottom to top, starting with none: each
    row's down ends must close open columns, its up ends must open new
    ones, the strands left strictly inside its extent must be exactly
    its crossed column (one or none), and no column may be open at the
    top. ``BinaryGridDiagram`` runs it on every grid made.
    """
    problems: List[str] = []
    open_cols: List[int] = []  # sorted
    for i, r in enumerate(g.rows):
        a, b = r.extent
        for c in (a, b, r.crossed_column):
            if c is not None and not isinstance(c, int):
                problems.append(f"row {i}: column {c} is not an integer")
        if not a < b:
            problems.append(f"row {i}: extent {r.extent} not strictly increasing")
        if r.end_kinds not in END_KINDS[r.shape]:
            problems.append(f"row {i}: end kinds {tuple(k.value for k in r.end_kinds)} "
                            f"illegal for {r.shape.value}")
        # down ends first: a sideways row closes its old column, then opens
        for c, kind in sorted(zip(r.extent, r.end_kinds),
                              key=lambda end: end[1] is EndKind.UP):
            k = bisect.bisect_left(open_cols, c)
            is_open = k < len(open_cols) and open_cols[k] == c
            if kind is EndKind.UP and not is_open:
                open_cols.insert(k, c)
            elif kind is EndKind.UP:
                problems.append(f"row {i}: created column {c} already open below")
            elif is_open:
                del open_cols[k]
            else:
                problems.append(f"row {i}: consumed column {c} absent below")
        # the binary condition
        inside = open_cols[bisect.bisect_right(open_cols, a):bisect.bisect_left(open_cols, b)]
        if r.crossed_column is None:
            if inside:
                problems.append(f"row {i}: uncrossed row has strands {inside} inside extent")
        elif inside != [r.crossed_column]:
            problems.append(f"row {i}: crossed row expects exactly [{r.crossed_column}] "
                            f"inside extent, got {inside}")
    if open_cols:
        problems.append("diagram does not end with zero strands")
    return problems


def reference_columns(events: List[Event]) -> Dict[int, int]:
    """Columns 1, 2, ... for the strands of ``events`` replayed in order.

    The strands are kept in one left-to-right list, where each event's
    strands (with the one it crosses) are contiguous; every pair that is
    adjacent at some moment gives a left-of edge, and Kahn's sort of
    those edges, ties to the smallest id, numbers the strands. The
    relation is acyclic: strand lifetimes are intervals, so strands that
    pairwise coexist all coexist at one height, where they are ordered.
    """
    order: List[int] = []
    right_of: Dict[int, Set[int]] = {}

    def link(lo: int, hi: int) -> None:
        """Record the adjacent pairs of order[lo - 1:hi + 1]."""
        for k in range(max(lo - 1, 0), min(hi, len(order) - 1)):
            right_of[order[k]].add(order[k + 1])

    for shape, a, b, x, anchor in events:
        if shape is Shape.MAX:
            lo = order.index(a)
            hi = lo + (2 if x is None else 3)
            assert order[lo + 1:hi] == ([b] if x is None else [x, b]), (
                f"cap on {a}, {b}: not adjacent")
            del order[hi - 1], order[lo]
            link(lo, hi - 2)
            continue
        right_of[b] = set()
        if shape is Shape.TRANS:
            # b is born beside a, or beyond x from it, so that a, x and b
            # are adjacent for that moment; then a ends
            lo = len(order) if anchor is None else order.index(anchor)
            order.insert(lo, b)
            j = order.index(a)
            lo, hi = min(lo, j), max(lo, j) + 1
            link(lo, hi)
            del order[j]
            link(lo, hi - 1)
            continue
        right_of[a] = set()
        if x is None:
            lo = len(order) if anchor is None else order.index(anchor)
            order[lo:lo] = [a, b]
            link(lo, lo + 2)
        else:
            lo = order.index(x)
            order[lo:lo + 1] = [a, x, b]
            link(lo, lo + 3)

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
