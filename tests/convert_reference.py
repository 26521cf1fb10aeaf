"""Row conversion on rational columns: the grids ``convert_block`` is checked against.

A sideways row becomes a cup through a fresh column squeezed next to the
old strand, plus a cap that swallows the old strand; a crossed cap
becomes a cup over the same vertical through two fresh columns plus two
plain caps. The strand emerging above keeps its column, so rows above
the converted one are untouched, and the columns of a grid only grow.
"""

from fractions import Fraction

from ribbonfold.model import BinaryGridDiagram, EndKind, Shape, check_bgd, make_row
from ribbonfold.rewrite import _convertible


def _fresh(lo, hi, used):
    """A deterministic unused value strictly between lo and hi."""
    x = Fraction(lo + hi, 2)
    while x in used:
        x = Fraction(lo + x, 2)
    return x


def column_values(g):
    """Every column that the rows of ``g`` mention: each is opened by a row end."""
    return {c for r in g.rows for c in r.extent}


def reference_convert(g, i, used):
    """``g`` with row i (a TRANS or crossed MAX) replaced by cups and plain caps.

    ``used`` is ``column_values(g)``; the fresh columns avoid it.
    """
    r = g.rows[i]
    assert _convertible(r), r.block_type.name
    rows = list(g.rows)
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
    return BinaryGridDiagram(tuple(rows))


def reference_convert_all(g):
    """``g`` with every sideways and crossed-cap row converted, bottom to top."""
    used = column_values(g)
    i = 0
    while i < len(g.rows):
        if _convertible(g.rows[i]):
            g = reference_convert(g, i, used)
            used.update(g.rows[i].extent)  # the cup holds the fresh columns
        else:
            i += 1
    assert check_bgd(g) == []
    return g
