"""Tiny script-driven grid builder shared by the test modules."""

from ribbonfold.model import Shape, stack_rows


def build(script):
    """Build a BinaryGridDiagram from a list of ops, bottom to top.

    Ops: ("MIN", a, b[, crossed]) creates columns a and b,
         ("MAX", a, b[, crossed]) terminates columns a and b,
         ("TRANS", down, up[, crossed]) continues column down as column up.
    """
    return stack_rows((Shape(kind), x, y, rest[0] if rest else None)
                      for kind, x, y, *rest in script)


# 30 cups nested in one outer cup, then the caps from the inside out: the
# outer plane's wings end 61 slots apart, so its fold-back budget is 1/63
NESTED = (
    [("MIN", 0, 1000)]
    + [("MIN", 2 * k - 1, 2 * k) for k in range(1, 31)]
    + [("MAX", 2 * k - 1, 2 * k) for k in range(30, 0, -1)]
    + [("MAX", 0, 1000)]
)
