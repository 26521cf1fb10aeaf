"""Vertex leveling of connected link diagrams.

A leveling stacks the crossings at distinct heights so that every arc runs
monotonically between its endpoints. Sweeping bottom to top, the state is
the left-to-right sequence of open strands. The first crossing opens four
strands, the last closes four, and every crossing in between consumes a
contiguous run of open strands matching a contiguous counterclockwise arc
of its rotation, then inserts the complementary arc reversed.

A crossing with d strands below is a portion of type Td. T1 and T3 carry a
sign: positive when the strand that turns back at the crossing (the cup of
a T1, the cap of a T3) passes over the strand running through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .ingest import detect_nugatory
from .model import (
    Crossing,
    LeveledDiagram,
    PlanarDiagram,
    PortionType,
    RibbonfoldError,
    validate_diagram,
)


class PreconditionViolated(RibbonfoldError):
    """Diagram is split, crossingless or reducible; ``find_leveling`` checks."""


class InvalidDiagram(PreconditionViolated):
    """Diagram is not planar (bad arity, dangling edge, genus above 0)."""


class NoLevelingFound(RibbonfoldError):
    """The search space was exhausted without a valid leveling."""


@dataclass(frozen=True)
class FlipChoice:
    """Whether to turn the leveled diagram over (x) or around (y)."""

    flip_x: bool = False
    flip_y: bool = False


def classify_portion(down_count: int, arc_start: int, over_pair: int) -> PortionType:
    """Portion type of a crossing placed with the given attachment arc."""
    if down_count in (0, 2, 4):
        return PortionType(down_count, 1)
    if down_count == 1:
        sign = 1 if (arc_start + 1) % 2 == over_pair else -1
    elif down_count == 3:
        sign = 1 if arc_start % 2 == over_pair else -1
    else:
        raise ValueError(f"bad down count {down_count}")
    return PortionType(down_count, sign)


def _preconditions(d: PlanarDiagram) -> None:
    issues = validate_diagram(d)
    split = [i.message for i in issues if i.code == "Disconnected"]
    if split:
        raise PreconditionViolated("split diagram: " + "; ".join(split))
    if issues:
        raise InvalidDiagram("; ".join(map(str, issues)))
    if not d.crossings:
        raise PreconditionViolated("diagram has no crossings to level")
    bad = detect_nugatory(d)
    if bad:
        raise PreconditionViolated(
            f"reducible (nugatory) crossing{'s' if len(bad) > 1 else ''} "
            f"{', '.join(map(str, bad))}: untwist before folding"
        )


def _down_edges(d: PlanarDiagram, inc, placed, ci: int) -> Dict[int, int]:
    """Slots of crossing ci whose edge descends to an already placed crossing."""
    downs = {}
    for s, e in enumerate(d.crossings[ci].slots):
        (ac, asl), (bc, bsl) = inc[e]
        oc = bc if (ac, asl) == (ci, s) else ac
        if placed[oc]:
            downs[s] = e
    return downs


def _attach(open_seq: Tuple[int, ...], slots, downs: Dict[int, int],
            a: int) -> Optional[Tuple[int, ...]]:
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


def _t1_minus(portions: Sequence[PortionType]) -> int:
    return sum(1 for p in portions if p.index == 1 and p.sign < 0)


def _search(diagram: PlanarDiagram,
            fixed: Optional[Sequence[int]] = None) -> Optional[LeveledDiagram]:
    """Backtrack over placement orders and attachment arcs.

    With ``fixed``, crossings are placed in that order and only the arcs
    are searched. Returns the first leveling found, or None when there is
    none. The search keeps its own stack of move generators, one per
    placed crossing, so its depth is not bounded by Python's recursion.
    """
    n = len(diagram.crossings)
    inc = diagram.incidences()
    placed = [False] * n
    order: List[int] = []
    arcs: List[int] = []
    levels: List[Tuple[int, ...]] = [()]
    portions: List[PortionType] = []

    def moves() -> Iterator[Tuple[int, int, Tuple[int, ...], PortionType]]:
        """The placements to try next, in order: (crossing, arc, level, portion)."""
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
        if move is None:  # undo the placement that led here
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


def find_leveling(diagram: PlanarDiagram) -> LeveledDiagram:
    """Search for a leveling with one bottom and one top crossing.

    This is where a diagram is checked, once: ``InvalidDiagram`` if it is
    not planar, ``PreconditionViolated`` if it is split, crossingless or
    reducible. Deterministic backtracking over placement orders and
    attachment arcs then returns the first leveling found.
    ``optimize_flips`` then minimizes the T1- count over the four flips.
    """
    _preconditions(diagram)
    ld = _search(diagram)
    if ld is None:
        raise NoLevelingFound(
            f"no leveling for this {len(diagram.crossings)}-crossing diagram"
        )
    return ld


_X_PERM = (2, 1, 0, 3)
_Y_PERM = (0, 3, 2, 1)


def _flip_diagram(d: PlanarDiagram, flip_x: bool, flip_y: bool) -> PlanarDiagram:
    """Rotate the diagram half a turn about a horizontal or vertical axis.

    Each is a rigid motion in space, so the link type is unchanged; in the
    projection the slots reflect and the over strand toggles. Doing both
    is a half turn in the plane: slots shift by two, over strand kept.
    """
    perm = list(range(4))
    toggle = 0
    if flip_y:
        perm = [perm[j] for j in _Y_PERM]
        toggle ^= 1
    if flip_x:
        perm = [perm[j] for j in _X_PERM]
        toggle ^= 1
    out = []
    for x in d.crossings:
        slots = tuple(x.slots[perm[j]] for j in range(4))
        out.append(Crossing(x.id, slots, x.over_pair ^ toggle))
    return PlanarDiagram(tuple(out), d.free_loops)


def apply_flip(ld: LeveledDiagram, choice: FlipChoice) -> LeveledDiagram:
    """Flip a leveled diagram and re-realize it over the same order."""
    if not choice.flip_x and not choice.flip_y:
        return ld
    d2 = _flip_diagram(ld.diagram, choice.flip_x, choice.flip_y)
    order = tuple(reversed(ld.order)) if choice.flip_x else ld.order
    flipped = _search(d2, fixed=order)
    if flipped is None:
        raise NoLevelingFound("replay failed for the given order")
    return flipped


def flip_variants(ld: LeveledDiagram) -> List[Tuple[FlipChoice, LeveledDiagram]]:
    """The four flips of ``ld``: (F, F), (F, T), (T, F), (T, T)."""
    choices = [FlipChoice(fx, fy) for fx in (False, True) for fy in (False, True)]
    return [(choice, apply_flip(ld, choice)) for choice in choices]


def best_flip(
    variants: Sequence[Tuple[FlipChoice, LeveledDiagram]]
) -> Tuple[LeveledDiagram, FlipChoice]:
    """The first of ``variants`` with the fewest T1- portions."""
    choice, cand = min(variants, key=lambda v: _t1_minus(v[1].portions))
    return cand, choice


def optimize_flips(ld: LeveledDiagram) -> Tuple[LeveledDiagram, FlipChoice]:
    """Pick the flip minimizing the T1- count.

    The four variants turn the multiset (T1+, T1-, T3+, T3-) into its
    permutations, so their T1- counts sum to at most c - 2 and the best
    one is at most floor((c - 2) / 4).
    """
    return best_flip(flip_variants(ld))


def check_leveling(ld: LeveledDiagram) -> List[str]:
    """Structural validity of a leveling; empty list when sound."""
    problems: List[str] = []
    d = ld.diagram
    n = len(d.crossings)
    if sorted(ld.order) != list(range(n)):
        return [f"order is not a permutation of 0..{n - 1}"]
    if not (len(ld.arc_starts) == len(ld.portions) == n
            and len(ld.levels) == n + 1):
        return ["field lengths disagree"]
    if ld.levels[0] != () or ld.levels[-1] != ():
        problems.append("levels must start and end empty")
    inc = d.incidences()
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
