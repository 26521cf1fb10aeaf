"""Brute-force Kauffman bracket: the 2^c state sum the sweep is checked against.

Each state smooths every crossing (bit 0: A, bit 1: B), joins the
smoothed slots along the diagram's edges and counts the closed loops;
bracket = sum over states of A^(a-b) d^(loops-1), d = -A^2 - A^-2.
"""

from ribbonfold.invariants import D_POLY
from ribbonfold.laurent import LaurentPoly
from graph_reference import edge_ends


def _find(parent, a):
    while parent.setdefault(a, a) != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent, a, b):
    parent[_find(parent, a)] = _find(parent, b)


def _state_loops(d, incidences, state):
    """Closed loops after smoothing every crossing (bit=0: A, bit=1: B)."""
    parent = {}
    for ci, x in enumerate(d.crossings):
        step = 3 if not (state >> ci) & 1 else 1
        for o in x.over_slots():
            _union(parent, (ci, o), (ci, (o + step) % 4))
    for uses in incidences:
        _union(parent, uses[0], uses[1])
    return len({_find(parent, (ci, s)) for ci in range(len(d.crossings)) for s in range(4)})


def reference_bracket(d):
    n = len(d.crossings)
    if n == 0 and d.free_loops == 0:
        raise ValueError("empty diagram has no bracket")
    incidences = list(edge_ends(d).values())
    total = LaurentPoly.zero()
    for state in range(1 << n):
        b = bin(state).count("1")
        loops = (_state_loops(d, incidences, state) if n else 0) + d.free_loops
        total = total + LaurentPoly.monomial(1, n - 2 * b) * D_POLY ** (loops - 1)
    return total
