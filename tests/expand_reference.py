"""Expansion through rational columns: the grids ``build_bgd`` is checked against.

Each portion's rows are routed by squeezing fresh ``Fraction`` columns
between the open ones (a T1- detour splits the gap right of its strand
in thirds), and the finished grid is renumbered 1..m by value rank.
Same rows and strand order as ``expand.build_bgd``; only the column
numbers may differ.
"""

from fractions import Fraction

from ribbonfold.model import Shape, make_row

from convert_reference import compress_columns


def _mid(lo, hi):
    return (lo + hi) / 2


class _Builder:
    """Tracks open columns left-to-right and emits rows."""

    def __init__(self):
        self.active = ()
        self.rows = []

    def row(self, shape, a, b, crossed):
        self.rows.append(make_row(shape, a, b, crossed))
        active = set(self.active)
        if shape is Shape.MIN:
            active |= {a, b}
        elif shape is Shape.MAX:
            active -= {a, b}
        else:  # a sideways row continues column a as column b
            active = active - {a} | {b}
        self.active = tuple(sorted(active))

    def left_gap(self, p):
        """A fresh column left of position p."""
        hi = self.active[p]
        lo = self.active[p - 1] if p > 0 else hi - 2
        return _mid(lo, hi)

    def right_gap(self, p):
        """A fresh column right of position p."""
        lo = self.active[p]
        hi = self.active[p + 1] if p + 1 < len(self.active) else lo + 2
        return _mid(lo, hi)


def reference_build_bgd(leveled):
    """``leveled`` expanded on rational columns, then compressed."""
    d = leveled.diagram
    b = _Builder()
    for k, ci in enumerate(leveled.order):
        x = d.crossings[ci]
        a = leveled.arc_starts[k]
        portion = leveled.portions[k]
        dcount = portion.index
        a_over = (a % 2) == x.over_pair
        if dcount == 0:
            cols = [Fraction(i) for i in (1, 2, 3, 4)]
            if a_over:
                under, over, crossed = (cols[0], cols[2]), (cols[1], cols[3]), cols[2]
            else:
                under, over, crossed = (cols[1], cols[3]), (cols[0], cols[2]), cols[1]
            b.row(Shape.MIN, under[0], under[1], None)
            b.row(Shape.MIN, over[0], over[1], crossed)
        elif dcount == 4:
            q = b.active
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
                    b.row(Shape.MIN, b.left_gap(p), b.right_gap(p), cp)
                else:
                    hi = b.active[p + 1] if p + 1 < len(b.active) else cp + 2
                    cl2 = cp + (hi - cp) / 3
                    cr2 = cp + 2 * (hi - cp) / 3
                    b.row(Shape.MIN, cl2, cr2, None)
                    b.row(Shape.TRANS, cp, _mid(cl2, cr2), cl2)
            elif dcount == 2:
                cp, cq = b.active[p], b.active[p + 1]
                if a_over:
                    b.row(Shape.TRANS, cp, b.right_gap(p + 1), cq)
                else:
                    b.row(Shape.TRANS, cq, b.left_gap(p), cp)
            else:
                c0, c1, c2 = b.active[p:p + 3]
                if portion.sign > 0:
                    b.row(Shape.MAX, c0, c2, c1)
                else:
                    b.row(Shape.TRANS, c1, b.right_gap(p + 2), c2)
                    b.row(Shape.MAX, c0, c2, None)
    assert not b.active
    return compress_columns(b.rows)

