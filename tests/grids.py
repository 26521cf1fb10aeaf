"""Tiny script-driven grid builder shared by the test modules."""

from ribbonfold.model import BinaryGridDiagram, Shape, make_row


def build(script):
    """Build a BinaryGridDiagram from a list of ops, bottom to top.

    Ops: ("MIN", a, b[, crossed]) creates columns a and b,
         ("MAX", a, b[, crossed]) terminates columns a and b,
         ("TRANS", down, up[, crossed]) continues column down as column up.
    """
    rows = []
    below = ()
    for kind, x, y, *rest in script:
        rows.append(make_row(Shape(kind), x, y, rest[0] if rest else None, below))
        below = rows[-1].columns_above
    return BinaryGridDiagram(tuple(rows))
