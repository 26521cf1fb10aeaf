"""Rewriting a binary grid into normal form.

Normal form is a stack of cups (crossed or plain) followed by plain
caps. The rewrite works on the order of the strands, not on their
columns: the rows become events on strand identities (``model.Event``),
with each sideways row read as a cup plus a cap that closes the old
strand and each crossed cap as a cup over the same strand plus two
plain caps. Raising every cap past every cup above it, one planar
isotopy per swap, then ends with all cups in their order followed by
all caps in theirs, and that order always replays: a cup born above a
cap can be born below it next to the same neighbour. The columns come
from ``model.grid_from_events``, which numbers every grid's strands by
one insertion rule; for the normal form that is the strands' order
just after the last cup. Each grid made is checked once, by its
constructor (``model.InvalidGrid``).
"""

from __future__ import annotations

import bisect
from typing import Container, Dict, List, Optional, Tuple

from .model import (
    BinaryGridDiagram,
    EndKind,
    Event,
    RibbonfoldError,
    Row,
    Shape,
    grid_from_events,
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
    """Normalization finished off normal form; indicates an internal bug."""


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


def _events(g: BinaryGridDiagram, convert: Container[int] = ()) -> List[Event]:
    """The rows of ``g`` as events, each row i in ``convert`` converted.

    A converted sideways row is a cup over the same strand, or just left
    of the same neighbour, plus a cap closing the old strand with the
    cup's near leg; the far leg goes on. A converted crossed cap is a cup
    over the same strand plus a plain cap on each side of it.
    """
    strand: Dict[int, int] = {}  # open column -> its strand
    cols: List[int] = []  # the open columns, sorted
    n = 0  # the next strand id
    out: List[Event] = []
    for i, r in enumerate(g.rows):
        lo, hi = r.extent
        x = None if r.crossed_column is None else strand[r.crossed_column]
        if r.shape is Shape.MAX:
            a, b = strand.pop(lo), strand.pop(hi)
            cols.remove(lo)
            cols.remove(hi)
            if x is None or i not in convert:
                out.append((Shape.MAX, a, b, x, None))
            else:
                out += [(Shape.MIN, n, n + 1, x, None),
                        (Shape.MAX, a, n, None, None),
                        (Shape.MAX, n + 1, b, None, None)]
                n += 2
            continue
        # the column born at the row's right end (a cup's right leg, a
        # sideways row's new end) and, where a birth needs it, the strand
        # open just right of that column below the row (a sideways row
        # moving left: the strand it ends, or the one it crosses)
        new = lo if r.end_kinds[1] is EndKind.DOWN else hi
        anchor = None
        if x is None or r.shape is Shape.TRANS:
            k = bisect.bisect_right(cols, new)
            anchor = strand[cols[k]] if k < len(cols) else None
        if r.shape is Shape.MIN:
            strand[lo], strand[hi] = n, n + 1
            bisect.insort(cols, lo)
            bisect.insort(cols, hi)
            out.append((Shape.MIN, n, n + 1, x, anchor))
            n += 2
            continue
        old = hi if new == lo else lo
        s = strand.pop(old)
        cols.remove(old)
        bisect.insort(cols, new)
        if i not in convert:
            strand[new] = n
            out.append((Shape.TRANS, s, n, x, anchor))
            n += 1
            continue
        out.append((Shape.MIN, n, n + 1, x, anchor if x is None else None))
        if new == hi:
            out.append((Shape.MAX, s, n, None, None))
            strand[new] = n + 1
        else:
            out.append((Shape.MAX, n + 1, s, None, None))
            strand[new] = n
        n += 2
    return out


def convert_block(g: BinaryGridDiagram, i: int) -> BinaryGridDiagram:
    """Replace row i (a TRANS or crossed MAX) by cups and plain caps.

    A sideways move becomes a cup plus a cap swallowing the old strand;
    a crossed cap becomes a cup over the same vertical plus two plain
    caps (see ``_events``). The other rows stay as they are, and the
    columns are renumbered as in ``normalize``.
    """
    if not 0 <= i < len(g.rows):
        raise IndexError(f"row {i} out of range")
    r = g.rows[i]
    if not _convertible(r):
        raise NotConvertible(
            f"row {i} is {r.block}; only B2, B2r and B3 convert")
    return grid_from_events(_events(g, (i,)))


def switch_adjacent(g: BinaryGridDiagram, i: int) -> BinaryGridDiagram:
    """Float the plain cap at row i above the cup at row i + 1.

    A cap under another cap is already fine (no-op). Otherwise the cup
    is reborn just below the cap, around the same crossed strand or just
    left of the same neighbour strand, and the columns are renumbered as
    in ``normalize``. Every row of ``g`` must be a cup or a plain cap.
    """
    if not 0 <= i < len(g.rows) - 1:
        raise IndexError(f"no adjacent pair at row {i}")
    low, high = g.rows[i], g.rows[i + 1]
    if low.shape is not Shape.MAX or low.crossed_column is not None:
        raise NotSwitchable(f"lower row is {low.block}, not a plain cap")
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
    return grid_from_events(events)


def normalize(
    g: BinaryGridDiagram,
    trace: Optional[List[Tuple[str, BinaryGridDiagram]]] = None,
) -> BinaryGridDiagram:
    """Rewrite an arbitrary grid into normal form.

    A grid already in normal form comes back as it is. Otherwise the
    rows are read as events with every sideways and crossed-cap row
    converted, and the events are replayed with all cups before all
    caps. The counted blocks (everything except plain caps) are
    conserved, so afterwards B1 + B1r equals the old B1 + B2 + B3 + B1r
    + B2r. Every grid is checked once, when it is made, so ``g`` is not
    checked again. With ``trace``, each step is appended: one grid per
    convert, bottom to top, with the rows below it converted too, then
    one per cap raised past a cup, always the lowest such pair; the
    last of those equals the result.
    """
    if is_normal_form(g):
        return g
    events = _events(g, range(len(g.rows)))
    # a stable sort: every cup, in order, before every cap
    out = grid_from_events(sorted(events, key=lambda ev: ev[0] is Shape.MAX))
    if not is_normal_form(out):
        raise RewriteError("normalization finished off normal form")
    if trace is None:
        return out

    added = 0  # the rows that the converts so far added
    for i, r in enumerate(g.rows):
        if _convertible(r):
            trace.append((f"convert {r.block} at row {i + added}",
                          grid_from_events(_events(g, range(i + 1)))))
            added += 1 if r.shape is Shape.TRANS else 2
    j = 0
    while j < len(events) - 1:
        if events[j][0] is Shape.MAX and events[j + 1][0] is Shape.MIN:
            events[j], events[j + 1] = events[j + 1], events[j]
            trace.append((f"raise cap past row {j + 1}", grid_from_events(events)))
            j = max(j - 1, 0)  # the next lowest pair is no lower than j - 1
        else:
            j += 1
    return out
