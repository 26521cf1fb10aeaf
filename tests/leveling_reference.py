"""Leveling search that rebuilds the down edges at every step: ``leveling``'s reference.

At each step ``moves`` asks every unplaced crossing for the slots whose
edge reaches a placed crossing, through the diagram's edge incidences,
and ``_attach`` tries all four arcs against that set. Same placement
order, arcs, portions and levels as ``leveling._search``, and the same
problem list as ``leveling.check_leveling``.
"""

from ribbonfold.leveling import classify_portion
from ribbonfold.model import LeveledDiagram
from graph_reference import edge_ends


def _down_edges(d, inc, placed, ci):
    """Slots of crossing ci whose edge descends to an already placed crossing."""
    downs = {}
    for s, e in enumerate(d.crossings[ci].slots):
        (ac, asl), (bc, bsl) = inc[e]
        oc = bc if (ac, asl) == (ci, s) else ac
        if placed[oc]:
            downs[s] = e
    return downs


def _attach(open_seq, slots, downs, a):
    """Consume the down run and insert the up run; None if a does not fit."""
    dcount = len(downs)
    if set(downs) != {(a + j) % 4 for j in range(dcount)}:
        return None
    if dcount:
        expected = [slots[(a + j) % 4] for j in range(dcount)]
        try:
            p = open_seq.index(expected[0])
        except ValueError:
            return None
        if list(open_seq[p : p + dcount]) != expected:
            return None
    else:
        if open_seq:
            return None
        p = 0
    ups = tuple(slots[(a + j) % 4] for j in range(3, dcount - 1, -1))
    return open_seq[:p] + ups + open_seq[p + dcount :]


def reference_search(diagram, fixed=None):
    """The first leveling in placement-order-then-arc order, or None."""
    n = len(diagram.crossings)
    inc = edge_ends(diagram)
    placed = [False] * n
    order, arcs, levels, portions = [], [], [()], []

    def moves():
        k = len(order)
        open_seq = levels[-1]
        cands = []
        saturated = 0
        for ci in range(n) if fixed is None else (fixed[k],):
            if placed[ci]:
                continue
            downs = _down_edges(diagram, inc, placed, ci)
            if len(downs) == 4:
                saturated += 1
            cands.append((ci, downs))
        if saturated >= 2:
            return
        for ci, downs in cands:
            d = len(downs)
            if k == 0:
                if d != 0:
                    continue
            elif d == 0 or (d == 4) != (k == n - 1):
                continue
            x = diagram.crossings[ci]
            for a in range(4):
                nxt = _attach(open_seq, x.slots, downs, a)
                if nxt is not None:
                    yield ci, a, nxt, classify_portion(d, a, x.over_pair)

    stack = [moves()]
    while len(order) < n:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            if not stack:
                return None
            placed[order.pop()] = False
            arcs.pop()
            levels.pop()
            portions.pop()
            continue
        ci, a, nxt, portion = move
        placed[ci] = True
        order.append(ci)
        arcs.append(a)
        levels.append(nxt)
        portions.append(portion)
        stack.append(moves())
    return LeveledDiagram(diagram, tuple(order), tuple(arcs),
                          tuple(portions), tuple(levels))


def reference_check_leveling(ld):
    """Problems found by replaying ``ld`` with the down edges rebuilt per step."""
    problems = []
    d = ld.diagram
    n = len(d.crossings)
    if sorted(ld.order) != list(range(n)):
        return [f"order is not a permutation of 0..{n - 1}"]
    if not (len(ld.arc_starts) == len(ld.portions) == n
            and len(ld.levels) == n + 1):
        return ["field lengths disagree"]
    if ld.levels[0] != () or ld.levels[-1] != ():
        problems.append("levels must start and end empty")
    inc = edge_ends(d)
    placed = [False] * n
    for k, ci in enumerate(ld.order):
        downs = _down_edges(d, inc, placed, ci)
        dcount = len(downs)
        if (dcount == 0) != (k == 0):
            problems.append(f"step {k}: {dcount} strands below")
        if (dcount == 4) != (k == n - 1):
            problems.append(f"step {k}: {dcount} strands below")
        x = d.crossings[ci]
        nxt = _attach(ld.levels[k], x.slots, downs, ld.arc_starts[k])
        if nxt is None:
            problems.append(f"step {k}: arc {ld.arc_starts[k]} does not attach")
            break
        if nxt != ld.levels[k + 1]:
            problems.append(f"step {k}: recorded level differs")
            break
        want = classify_portion(dcount, ld.arc_starts[k], x.over_pair)
        if want != ld.portions[k]:
            problems.append(f"step {k}: portion should be {want.name}")
        placed[ci] = True
    return problems
