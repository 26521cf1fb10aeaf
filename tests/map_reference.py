"""The least breadth-first code of a diagram: the reference for ``invariants.same_map``.

Rooted at one end of an edge and walking the rotation one way, the code
lists the crossings in breadth-first order and, for each slot from the
one the walk entered by, the crossing its edge leads to (by walk
number), the slot it lands on (counted from where that crossing was
entered) and whether the slot is over. Walking the rotation the other
way toggles every over bit, which reads the diagram turned over. The
least code over every root and both ways names the map up to relabeling
and turning over (Weinberg, IEEE Trans. Circuit Theory 1966). It costs
quadratic time and reads the slots straight from the crossings, not the
dart table.
"""

from graph_reference import edge_ends


def _code(d, ends, root, turn):
    """The code rooted at (crossing, slot) ``root``, or None if the walk
    misses a crossing."""
    entered = {root[0]: (0, root[1])}  # crossing -> (walk number, slot entered by)
    order = [root[0]]
    code = []
    for ci in order:
        x = d.crossings[ci]
        for k in range(4):
            s = (entered[ci][1] + turn * k) % 4
            a, b = ends[x.slots[s]]
            far, far_slot = b if a == (ci, s) else a
            if far not in entered:
                entered[far] = (len(order), far_slot)
                order.append(far)
            number, slot = entered[far]
            over = (s % 2 == x.over_pair) != (turn == -1)
            code.append((number, (far_slot - slot) * turn % 4, over))
    return tuple(code) if len(order) == len(d.crossings) else None


def map_code(d):
    """``free_loops``, the crossing count and the least code over all roots
    and both ways round (None for a split diagram)."""
    ends = edge_ends(d)
    codes = [_code(d, ends, (ci, s), turn)
             for ci in range(len(d.crossings)) for s in range(4) for turn in (1, -1)]
    return d.free_loops, len(d.crossings), min(codes, default=()) if None not in codes else None


def reference_same_map(a, b):
    """Whether the two diagrams are one connected map, as given or turned over."""
    ca, cb = map_code(a), map_code(b)
    return ca == cb and ca[2] is not None
