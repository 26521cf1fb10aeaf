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

A placement costs O(1) bookkeeping: each crossing keeps a 4-bit mask of its
placed neighbours' slots, and a 16-entry table gives a mask's down count and
the one arc that fits it (none, or all four for 0 or 4 strands below).
A flip permutes (T1+, T1-, T3+, T3-), so ``optimize_flips`` reads the best
one off the counts, and a flip is replayed from the leveling's own masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

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


# (down count d, arc a) -> the mask of the d slots from a
_RUN_MASK = tuple(tuple(sum(1 << (a + j) % 4 for j in range(d)) for a in range(4))
                  for d in range(5))
# down-slot mask -> (down count d, the arcs a whose d slots from a are the mask)
_DOWN = tuple((d, tuple(a for a in range(4) if _RUN_MASK[d][a] == m))
              for m, d in ((m, bin(m).count("1")) for m in range(16)))


def _neighbours(d: PlanarDiagram) -> List[List[Tuple[int, int]]]:
    """For each crossing, by slot: (crossing across that edge, bit of its slot there)."""
    far = [(m >> 2, 1 << (m & 3)) for m in d.mates]
    return [far[4 * ci : 4 * ci + 4] for ci in range(len(d.crossings))]


def _attach(open_seq: Tuple[int, ...], slots, d: int,
            a: int) -> Optional[Tuple[int, ...]]:
    """Consume the d down strands from slot a on and insert the up run
    reversed; None unless they sit side by side, in order, in open_seq."""
    run = (slots + slots)[a : a + 4]
    if not d:
        return None if open_seq else run[::-1]
    p = open_seq.index(run[0]) if run[0] in open_seq else -1
    if p < 0 or open_seq[p : p + d] != run[:d]:
        return None
    return open_seq[:p] + run[d:][::-1] + open_seq[p + d :]


def _search(diagram: PlanarDiagram) -> Optional[LeveledDiagram]:
    """Backtrack over placement orders and attachment arcs.

    Returns the first leveling found, or None when there is none. The
    search keeps its own stack of move generators, one per placed crossing,
    so its depth is not bounded by Python's recursion.

    Placing ci, or undoing it, flips one bit in the mask of each neighbour
    (``_neighbours``, built once): ``mask[ci]`` holds the slots of ci whose
    neighbour is placed, ``_DOWN[mask[ci]]`` its down count and fitting arcs.
    ``frontier`` holds the unplaced crossings with a nonzero mask.
    """
    n = len(diagram.crossings)
    nbr = _neighbours(diagram)
    mask = [0] * n
    placed = [False] * n
    frontier = set()
    path: List[Tuple[int, int, Tuple[int, ...], PortionType]] = []

    def moves() -> Iterator[Tuple[int, int, Tuple[int, ...], PortionType]]:
        """The placements to try next, in order: (crossing, arc, level, portion)."""
        k = len(path)
        open_seq = path[-1][2] if path else ()
        if k == 0:
            cands = range(n)
        else:
            cands = sorted(frontier)
            if sum(1 for ci in cands if mask[ci] == 15) >= 2:
                return  # two crossings with every strand below: no single top
        for ci in cands:
            d, fits = _DOWN[mask[ci]]
            if k and (d == 0 or (d == 4) != (k == n - 1)):
                continue  # nothing is placed yet at k = 0, so d is 0 there
            x = diagram.crossings[ci]
            for a in fits:
                nxt = _attach(open_seq, x.slots, d, a)
                if nxt is not None:
                    yield ci, a, nxt, classify_portion(d, a, x.over_pair)

    stack = [moves()]
    while len(path) < n:
        move = next(stack[-1], None)
        if move is None:  # undo the placement that led here
            stack.pop()
            if not stack:
                return None
            ci = path.pop()[0]
            placed[ci] = False
            for nc, bit in nbr[ci]:
                mask[nc] ^= bit
                if not mask[nc]:
                    frontier.discard(nc)
            if mask[ci]:
                frontier.add(ci)
            continue
        ci = move[0]
        placed[ci] = True
        frontier.discard(ci)
        for nc, bit in nbr[ci]:
            mask[nc] |= bit
            if not placed[nc]:
                frontier.add(nc)
        path.append(move)
        stack.append(moves())
    order, arcs, levels, portions = zip(*path) if path else ((),) * 4
    return LeveledDiagram(diagram, order, arcs, portions, ((),) + levels)


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


# slot j of a flipped crossing is slot perm[j] of the original, by (flip_x, flip_y)
_FLIP_PERM = {(False, False): (0, 1, 2, 3), (False, True): (0, 3, 2, 1),
              (True, False): (2, 1, 0, 3), (True, True): (2, 3, 0, 1)}


def _flip_diagram(d: PlanarDiagram, flip_x: bool, flip_y: bool) -> PlanarDiagram:
    """Rotate the diagram half a turn about a horizontal or vertical axis.

    Each is a rigid motion in space, so the link type is unchanged; in the
    projection the slots reflect and the over strand toggles. Doing both
    is a half turn in the plane: slots shift by two, over strand kept.
    """
    pick, toggle = itemgetter(*_FLIP_PERM[flip_x, flip_y]), int(flip_x != flip_y)
    out = tuple(Crossing(x.id, pick(x.slots), x.over_pair ^ toggle) for x in d.crossings)
    return PlanarDiagram(out, d.free_loops)


def _replay(diagram: PlanarDiagram, order: Sequence[int],
            masks: Sequence[int]) -> Optional[LeveledDiagram]:
    """Level ``diagram`` over ``order`` from each step's down mask, or None.

    Only the bottom arc can branch: one arc fits 1-3 strands below, and at
    the top the first of four that attaches ends the leveling. So one pass
    per bottom arc finds what a search over this order would.
    """
    n = len(order)
    for a0 in range(4):
        path, open_seq = [], ()
        for k, (ci, m) in enumerate(zip(order, masks)):
            d, fits = _DOWN[m]
            x = diagram.crossings[ci]
            hit = next(((a, s) for a in (fits if k else (a0,))
                        if (s := _attach(open_seq, x.slots, d, a)) is not None), None)
            if hit is None or (k and (d == 0 or (d == 4) != (k == n - 1))):
                break
            a, open_seq = hit
            path.append((a, open_seq, classify_portion(d, a, x.over_pair)))
        else:
            arcs, levels, portions = zip(*path)
            return LeveledDiagram(diagram, tuple(order), arcs, portions, ((),) + levels)
    return None


# by (flip_x, flip_y), a down mask -> the flipped crossing's: bit j is slot
# perm[j], and flip_x, which reverses the order, swaps down and up
_FLIP_MASK = {key: tuple(sum(((m ^ 15 * key[0]) >> p & 1) << j for j, p in enumerate(perm))
                         for m in range(16)) for key, perm in _FLIP_PERM.items()}


def apply_flip(ld: LeveledDiagram, choice: FlipChoice) -> LeveledDiagram:
    """Flip ``ld`` and replay it over its order (reversed under flip_x)."""
    key = choice.flip_x, choice.flip_y
    if key == (False, False):
        return ld
    flip = _FLIP_MASK[key]
    masks = [flip[_RUN_MASK[p.index][a]] for p, a in zip(ld.portions, ld.arc_starts)]
    step = -1 if choice.flip_x else 1
    flipped = _replay(_flip_diagram(ld.diagram, *key), ld.order[::step], masks[::step])
    if flipped is None:
        raise NoLevelingFound("replay failed for the given order")
    return flipped


# a flip permutes (T1+, T1-, T3+, T3-): each flip's T1- count, in
# flip_variants' order, is this count of the unflipped leveling
_FLIP_T1_MINUS = ((FlipChoice(False, False), "T1-"), (FlipChoice(False, True), "T1+"),
                  (FlipChoice(True, False), "T3+"), (FlipChoice(True, True), "T3-"))


def flip_variants(ld: LeveledDiagram) -> List[Tuple[FlipChoice, LeveledDiagram]]:
    """The four flips of ``ld``: (F, F), (F, T), (T, F), (T, T)."""
    return [(choice, apply_flip(ld, choice)) for choice, _ in _FLIP_T1_MINUS]


def best_flip(
    variants: Sequence[Tuple[FlipChoice, LeveledDiagram]]
) -> Tuple[LeveledDiagram, FlipChoice]:
    """The first of ``variants`` with the fewest T1- portions."""
    choice, cand = min(variants, key=lambda v: v[1].portion_counts()["T1-"])
    return cand, choice


def flip_choice(ld: LeveledDiagram) -> FlipChoice:
    """The flip ``best_flip`` picks, read off ``ld``'s portion counts."""
    counts = ld.portion_counts()
    return min(_FLIP_T1_MINUS, key=lambda e: counts[e[1]])[0]


def optimize_flips(ld: LeveledDiagram) -> Tuple[LeveledDiagram, FlipChoice]:
    """Pick the flip minimizing the T1- count, and replay only that one.

    The four variants turn the multiset (T1+, T1-, T3+, T3-) into its
    permutations, so their T1- counts sum to at most c - 2 and the best
    one is at most floor((c - 2) / 4).
    """
    choice = flip_choice(ld)
    return apply_flip(ld, choice), choice


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
    nbr = _neighbours(d)
    mask = [0] * n
    for k, ci in enumerate(ld.order):
        dcount, fits = _DOWN[mask[ci]]
        if (dcount == 0) != (k == 0):
            problems.append(f"step {k}: {dcount} strands below")
        if (dcount == 4) != (k == n - 1):
            problems.append(f"step {k}: {dcount} strands below")
        x = d.crossings[ci]
        a = ld.arc_starts[k] % 4
        nxt = _attach(ld.levels[k], x.slots, dcount, a) if a in fits else None
        if nxt is None:
            problems.append(f"step {k}: arc {ld.arc_starts[k]} does not attach")
            break
        if nxt != ld.levels[k + 1]:
            problems.append(f"step {k}: recorded level differs")
            break
        want = classify_portion(dcount, ld.arc_starts[k], x.over_pair)
        if want != ld.portions[k]:
            problems.append(f"step {k}: portion should be {want.name}")
        for nc, bit in nbr[ci]:
            mask[nc] |= bit
    return problems
