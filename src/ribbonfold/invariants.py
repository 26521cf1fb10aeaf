"""Independent knot-type oracle.

Computes the Kauffman bracket by a frontier sweep over the crossings
(cost exponential in the number of open edges, not in the crossing
count), the writhe under the diagram's deterministic orientation (read
from ``PlanarDiagram.sign_table``, which works out the crossing signs
once per diagram under ``PlanarDiagram.orientation``), and the
writhe-normalized bracket (the Jones polynomial in the variable A). Every pipeline stage is checked against these values, so
nothing here may depend on the pipeline modules.

Each sweep state keeps weights {A-exponent: coefficient}. Every loop
but one that the last crossing closes multiplies its state's weights by
d = -A^2 - A^-2 as it closes, and the free loops multiply by their power
of d once, at the end.

Conventions (all verified against hand-computed state sums):

* Slot k of a crossing sits at angle 270 + 90k degrees (slot 0 points
  south, counterclockwise order).
* A-smoothing joins each over-strand slot o to slot (o+3) mod 4; the
  B-smoothing joins o to (o+1) mod 4.
* A crossing is positive iff the over-strand enters at slot
  (under entry + 3) mod 4, i.e. det(over direction, under direction) > 0.
* bracket = sum over states of A^(a-b) d^(loops-1), d = -A^2 - A^-2.
* normalized value = (-A^3)^(-writhe) * bracket; for multi-component
  links this depends on relative component orientations, so the stage
  oracle uses the multiset of values over all orientation choices.

``diagram_key`` names a diagram up to where each crossing's slot list
starts. Starting r places later and swapping the diagonal when r is odd
is a quarter turn of the crossing, and every convention above survives
it: the slots keep their counterclockwise order, A still joins over slot
o to o + 3, the sign rule compares entries relative to each other, and
the fingerprint takes every orientation. Diagrams with equal keys are
therefore one diagram, with one bracket and one fingerprint.

``same_map`` says whether two diagrams are one planar map with over
data, up to relabeling crossings and edges, as given or turned over:
every crossing's rotation reversed and its over strand toggled. Names
reach neither the state sum nor the fingerprint, which takes every
orientation. Turning over sends slot s to -s and toggles which slots
are over, so A's pair (over o, o + 3) becomes (under -o, over -o + 1),
again over slot o' and o' + 3; every state keeps its smoothings and
loops, and so the bracket. The reflection and the toggle each flip a
crossing's sign, so the writhe stays too. Equal maps therefore have
one fingerprint, as they must: turning over is a half turn in space.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .laurent import LaurentPoly
from .model import (
    BinaryGridDiagram,
    Crossing,
    EndKind,
    PlanarDiagram,
    RibbonfoldError,
    RoutingError,
    validate_diagram,
)

D_POLY = LaurentPoly({2: -1, -2: -1})  # value of a disjoint unknotted loop

DEFAULT_CAP = 20  # open edges in the sweep frontier, read at each call


class TooLarge(RibbonfoldError):
    """The sweep frontier would exceed the configured width cap."""


# ---------------------------------------------------------------------------
# Writhe
# ---------------------------------------------------------------------------


def crossing_signs(d: PlanarDiagram) -> Tuple[int, ...]:
    return d.sign_table.signs


def writhe(d: PlanarDiagram) -> int:
    return sum(crossing_signs(d))


# ---------------------------------------------------------------------------
# Kauffman bracket
# ---------------------------------------------------------------------------


def _sweep_plan(n: int, mate: Tuple[int, ...]) -> List[Tuple[int, List[int]]]:
    """Crossing order with the sorted frontier (open darts) after each step.

    Greedy: next comes the crossing that closes the most open edges, ties
    to the lowest index. Only crossings that an open edge leads to can
    close any, so ``touching`` counts the closing darts of just those, and
    the rest are taken lowest index first. Raises TooLarge before any
    state is built if a frontier would hold more than ``DEFAULT_CAP`` open
    edges.
    """
    done = [False] * n
    touching: Dict[int, int] = {}  # undone crossing -> open darts leading to it
    lowest = 0  # no crossing below this one is undone
    frontier: set = set()
    plan = []
    for _ in range(n):
        if touching:
            ci = max(touching, key=lambda c: (touching[c], -c))
            del touching[ci]
        else:
            while done[lowest]:
                lowest += 1
            ci = lowest
        done[ci] = True
        for dart in range(4 * ci, 4 * ci + 4):
            m = mate[dart]
            if m >> 2 != ci:
                if done[m >> 2]:
                    frontier.discard(m)
                else:
                    frontier.add(dart)
                    touching[m >> 2] = touching.get(m >> 2, 0) + 1
        if len(frontier) > DEFAULT_CAP:
            raise TooLarge(
                f"sweep frontier of {len(frontier)} open edges exceeds cap {DEFAULT_CAP}"
            )
        plan.append((ci, sorted(frontier)))
    return plan


def _d_power(k: int) -> List[Tuple[int, int]]:
    """d^k = (-1)^k sum_j C(k, j) A^(2k - 4j), as (exponent, coefficient) pairs."""
    sign = -1 if k % 2 else 1
    return [(2 * k - 4 * j, sign * math.comb(k, j)) for j in range(k + 1)]


def kauffman_bracket(d: PlanarDiagram) -> LaurentPoly:
    """Frontier sweep over the crossings. Raises TooLarge above the cap.

    A state is a pairing of the open darts (the processed crossings' ends
    whose edges lead to unprocessed ones), keyed by each open dart's
    partner position in the sorted frontier and mapped to its weights
    {A-exponent: coefficient}. Each crossing is smoothed both ways, its
    darts are glued to the pairing, and states with equal pairings merge;
    every loop multiplies its state's weights by d as it closes. The last
    crossing always closes a loop, which goes uncounted, so the free
    loops contribute d^free_loops at the end, d^(free_loops - 1) with no
    crossings. The frontier also empties after each separate group of
    crossings but the last; the loops closed there are counted.
    """
    n = len(d.crossings)
    if n == 0 and d.free_loops == 0:
        raise ValueError("empty diagram has no bracket")
    mate = d.mates
    # a crossing's two arcs close at most two loops, so d^0..d^2 suffice
    powers = [_d_power(k) for k in range(3)]
    states: Dict[Tuple[int, ...], Dict[int, int]] = {(): {0: 1}}
    pos: Dict[int, int] = {}  # open dart -> its position; the crossing's darts follow
    for step, (ci, new) in enumerate(_sweep_plan(n, mate)):
        base, m = 4 * ci, len(pos)
        pos.update(zip(range(base, base + 4), range(m, m + 4)))
        # the frontier also empties between separate groups of crossings,
        # but only the last step's loop goes uncounted
        uncounted = step == n - 1
        # (A-exponent change, partner of each of the crossing's darts):
        # A joins over slot o to o+3, B to o+1
        smoothings = []
        for da, turn in ((1, 3), (-1, 1)):
            tail = [0] * 4
            for o in d.crossings[ci].over_slots():
                t = (o + turn) % 4
                tail[o], tail[t] = m + t, m + o
            smoothings.append((da, tail))
        glues = [
            (pos[dart], pos[mate[dart]])
            for dart in range(base, base + 4)
            if dart not in new and (mate[dart] >> 2 != ci or mate[dart] < dart)
        ]
        keep = [pos[f] for f in new]
        renum = [0] * (m + 4)
        for i, k in enumerate(keep):
            renum[k] = i
        pos = {f: i for i, f in enumerate(new)}
        nxt: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for key, weights in states.items():
            for da, tail in smoothings:
                p = [*key, *tail]  # glued positions are never read again
                closed = 0
                for x, y in glues:
                    px = p[x]
                    if px == y:
                        closed += 1
                    else:
                        py = p[y]
                        p[px], p[py] = py, px
                out = nxt.setdefault(tuple([renum[p[k]] for k in keep]), {})
                for shift, coeff in powers[closed - uncounted]:
                    shift += da
                    for a, count in weights.items():
                        a += shift
                        out[a] = out.get(a, 0) + coeff * count
        states = nxt

    total: Dict[int, int] = {}
    for shift, coeff in _d_power(d.free_loops - (n == 0)):
        for a, count in states[()].items():
            total[a + shift] = total.get(a + shift, 0) + coeff * count
    return LaurentPoly(total)


def _normalize(bracket: LaurentPoly, w: int) -> LaurentPoly:
    """(-A^3)^(-w) * bracket: exponents shift by -3w, signs flip for odd w."""
    sign = -1 if w % 2 else 1
    return LaurentPoly({e - 3 * w: sign * c for e, c in bracket.coeffs().items()})


def jones_normalized(d: PlanarDiagram) -> LaurentPoly:
    """(-A^3)^(-writhe) * bracket under the deterministic orientation."""
    return _normalize(kauffman_bracket(d), writhe(d) if d.crossings else 0)


def jones_fingerprint(d: PlanarDiagram) -> Tuple[str, ...]:
    """Sorted multiset of normalized values over all component orientations.

    Reorienting a component flips the sign of every crossing between it and
    the rest, changing the writhe but not the bracket. The multiset over all
    2^m orientation choices is therefore orientation-free, which makes it a
    sound equality oracle for multi-component links.
    """
    bracket = kauffman_bracket(d)
    if not d.crossings:
        return (str(bracket),)
    writhes = [
        sum(-s if ((r >> ca) ^ (r >> cb)) & 1 else s
            for (ca, cb), s in d.sign_table.sums.items())
        for r in range(1 << d.orientation.n_components)
    ]
    value = {w: str(_normalize(bracket, w)) for w in set(writhes)}
    return tuple(sorted(value[w] for w in writhes))


def diagram_key(d: PlanarDiagram) -> tuple:
    """``free_loops``, then one slot list per crossing that all four of
    its quarter-turn spellings share.

    A crossing's spelling r is its slots started r places later and its
    over pair toggled for odd r. Two of the four put the over strand on the
    1-3 diagonal, a half turn apart, and the lesser of their slot lists
    stands for the crossing; crossing ids are dropped. Equal keys mean one
    diagram (see the module docstring), so equal fingerprints.
    """
    key = [d.free_loops]
    for x in d.crossings:
        s = x.upright_slots
        key.append(min(s, s[2:] + s[:2]))
    return tuple(key)


def _writhe_profile(d: PlanarDiagram) -> List[Tuple[bool, int]]:
    """Each component's self-crossing writhe and each component pair's
    |sign sum|, sorted: reorienting a component, relabeling and turning
    over all leave it alone."""
    return sorted((ca == cb, s if ca == cb else abs(s))
                  for (ca, cb), s in d.sign_table.sums.items())


def same_map(a: PlanarDiagram, b: PlanarDiagram) -> bool:
    """Whether ``a`` and ``b`` are one planar map with over data, up to
    relabeling crossings and edges, either as given or turned over.

    Turned over is the rotation reversed and every crossing toggled. Dart 0
    of ``a`` is the root; each dart of ``b`` is tried as its image in both
    modes, and the crossing map grows breadth first along ``mates`` until a
    rotation offset, an over parity or injectivity conflicts. A map that
    grows over every crossing is an isomorphism. A split ``a`` never does,
    so split diagrams compare unequal. The writhe profile, O(c), turns most
    unequal pairs away before the search, which is O(c) per root tried.
    """
    n = len(a.crossings)
    if n != len(b.crossings) or a.free_loops != b.free_loops:
        return False
    if n == 0:
        return True
    if _writhe_profile(a) != _writhe_profile(b):
        return False
    mate_a, mate_b = a.mates, b.mates
    over_a = [x.over_pair for x in a.crossings]
    over_b = [x.over_pair for x in b.crossings]

    def grows(root: int, turn: int, flip: int) -> bool:
        # slot s of crossing ca is slot (r + turn * s) & 3 of crossing
        # image[ca] >> 2, r = image[ca] & 3; over slots map to over slots,
        # or to under slots when turned over (flip = 1)
        image = [-1] * n
        used = [False] * n
        image[0], used[root >> 2] = root, True
        queue = [0]
        for ca in queue:
            cb, r = image[ca] >> 2, image[ca] & 3
            if (r + over_a[ca] + over_b[cb]) & 1 != flip:
                return False
            for s in range(4):
                m = mate_a[4 * ca + s]
                t = mate_b[4 * cb + ((r + turn * s) & 3)]
                # crossing m >> 2 maps so that slot m & 3 lands on slot t & 3
                want = (t & ~3) | ((t - turn * m) & 3)
                seen = image[m >> 2]
                if seen == -1:
                    if used[t >> 2]:
                        return False
                    image[m >> 2], used[t >> 2] = want, True
                    queue.append(m >> 2)
                elif seen != want:
                    return False
        return len(queue) == n

    return any(grows(root, turn, flip)
               for turn, flip in ((1, 0), (-1, 1)) for root in range(4 * n))


# ---------------------------------------------------------------------------
# Grid diagram -> planar diagram
# ---------------------------------------------------------------------------


def bgd_to_pd(g: BinaryGridDiagram) -> PlanarDiagram:
    """Read the grid core back as a planar diagram.

    One crossing per crossed row, slots in counterclockwise order
    (below-vertical, right-horizontal, above-vertical, left-horizontal),
    which puts the horizontal over-strand on the 1-3 diagonal. Slot s of
    crossing k is port 4k + s, and each open column holds one later
    segment for its current vertical run, so a strand that passes a row
    costs nothing. A segment has a port where it starts and one where it
    ends, and every port is linked to exactly one other, so each arc is a
    walk from one crossing slot through segments to the next. Edges are
    numbered in the order of their lesser slot, and the segments that no
    arc passes close up into free loops. ``g`` is valid by construction,
    so it is not checked again.
    """
    n = 4 * g.crossing_number
    # port -> the port it is linked to; the segment of ports p, p + 1
    # (p >= n, even) starts at p and ends at p + 1
    mate = [0] * n
    segment: Dict[int, int] = {}  # open column -> the port that ends its segment
    x0 = 0  # slot 0 of the next crossing
    for row in g.rows:
        ends = []
        for c, kind in zip(row.extent, row.end_kinds):
            # a down end closes its column's segment, an up end starts a new one
            if kind is EndKind.DOWN:
                ends.append(segment.pop(c))
            else:
                p = len(mate)
                mate += (0, 0)
                segment[c] = p + 1
                ends.append(p)
        left, right = ends
        x = row.crossed_column
        if x is None:
            mate[left], mate[right] = right, left
            continue
        below = segment[x]
        mate[x0], mate[below] = below, x0
        segment[x] = x0 + 2
        mate[x0 + 3], mate[left] = left, x0 + 3
        mate[x0 + 1], mate[right] = right, x0 + 1
        x0 += 4

    # walk each arc from its lesser slot, setting the port each segment
    # is left by to -1
    edge = [0] * n
    eid = 0
    for k in range(n):
        if edge[k]:
            continue
        q = mate[k]
        while q >= n:
            far = q ^ 1
            q, mate[far] = mate[far], -1
        eid += 1
        edge[k] = edge[q] = eid
    free_loops = 0
    for p in range(n, len(mate), 2):
        if mate[p] >= 0 and mate[p + 1] >= 0:  # a segment on no arc nor counted loop
            free_loops += 1
            q = p
            while mate[q ^ 1] >= 0:
                far = q ^ 1
                q, mate[far] = mate[far], -1

    crossings = tuple(
        Crossing(id=j, slots=tuple(edge[4 * j:4 * j + 4]), over_pair=1)
        for j in range(n // 4)
    )
    out = PlanarDiagram(crossings, free_loops)
    issues = validate_diagram(out)
    if issues:
        raise RoutingError(
            "reconstructed diagram invalid: " + "; ".join(map(str, issues)), issues
        )
    return out
