"""Row conversion on rational columns: the grids ``convert_block`` is checked against.

A sideways row becomes a cup through a fresh column squeezed next to the
old strand, plus a cap that swallows the old strand; a crossed cap
becomes a cup over the same vertical through two fresh columns plus two
plain caps. The strand emerging above keeps its column, so rows above
the converted one are untouched. The rows are then renumbered by
column rank (``compress_columns``), since a grid holds int columns and
only their order matters.
"""

from fractions import Fraction

from ribbonfold.model import BinaryGridDiagram, EndKind, Row, Shape, make_row
from ribbonfold.rewrite import _convertible


def _fresh(lo, hi, used):
    """A deterministic unused value strictly between lo and hi."""
    x = Fraction(lo + hi, 2)
    while x in used:
        x = Fraction(lo + x, 2)
    return x


def column_values(rows):
    """Every column that ``rows`` mention: each is opened by a row end."""
    return {c for r in rows for c in r.extent}


def compress_columns(rows):
    """The grid of ``rows`` with their columns renumbered 1..m by rank."""
    rank = {v: i + 1 for i, v in enumerate(sorted(column_values(rows)))}.__getitem__

    def renumber(r):
        x = None if r.crossed_column is None else rank(r.crossed_column)
        return Row(r.shape, tuple(map(rank, r.extent)), r.end_kinds, x)

    return BinaryGridDiagram(tuple(renumber(r) for r in rows))


def reference_convert(g, i):
    """``g`` with row i (a TRANS or crossed MAX) replaced by cups and plain caps.

    The fresh columns avoid every column of ``g``.
    """
    r = g.rows[i]
    assert _convertible(r), r.block
    rows = list(g.rows)
    used = column_values(rows)
    if r.shape is Shape.TRANS:
        lo, hi = r.extent
        src, dst = (lo, hi) if r.end_kinds[0] is EndKind.DOWN else (hi, lo)
        x = r.crossed_column
        if x is None:
            p = _fresh(min(src, dst), max(src, dst), used)
        elif src < dst:
            p = _fresh(src, x, used)
        else:
            p = _fresh(x, src, used)
        cup = make_row(Shape.MIN, p, dst, x)
        cap = make_row(Shape.MAX, src, p, None)
        rows[i:i + 1] = [cup, cap]
    else:
        a, b = r.extent
        x = r.crossed_column
        p = _fresh(a, x, used)
        q = _fresh(x, b, used | {p})
        cup = make_row(Shape.MIN, p, q, x)
        cap1 = make_row(Shape.MAX, a, p, None)
        cap2 = make_row(Shape.MAX, q, b, None)
        rows[i:i + 1] = [cup, cap1, cap2]
    return compress_columns(rows)


def reference_convert_all(g):
    """``g`` with every sideways and crossed-cap row converted, bottom to top."""
    i = 0
    while i < len(g.rows):
        if _convertible(g.rows[i]):
            g = reference_convert(g, i)
        else:
            i += 1
    return g
