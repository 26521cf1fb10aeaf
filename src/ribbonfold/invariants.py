"""Independent knot-type oracle.

Computes the Kauffman bracket by a frontier sweep over the crossings
(cost exponential in the number of open edges, not in the crossing
count), a deterministic orientation and writhe, and the writhe-normalized
bracket (the Jones polynomial in the variable A). Every pipeline stage is
checked against these values, so nothing here may depend on the pipeline
modules.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .laurent import LaurentPoly
from .model import (
    BinaryGridDiagram,
    Crossing,
    EndKind,
    PlanarDiagram,
    RibbonfoldError,
    RoutingError,
    UnionFind,
    validate_diagram,
)

D_POLY = LaurentPoly({2: -1, -2: -1})  # value of a disjoint unknotted loop

DEFAULT_CAP = 20  # open edges in the sweep frontier, read at each call


class TooLarge(RibbonfoldError):
    """The sweep frontier would exceed the configured width cap."""


# ---------------------------------------------------------------------------
# Orientation and writhe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramOrientation:
    """Deterministic orientation: per edge, the incidence it flows into."""

    heads: Dict[int, Tuple[int, int]]  # edge -> (crossing index, slot)
    comp_of: Dict[int, int]            # edge -> strand component index
    n_components: int


def orient(d: PlanarDiagram) -> DiagramOrientation:
    """Orient every strand component, starting each at its smallest edge id
    directed into that edge's lexicographically smallest incidence."""
    inc = d.incidences()
    heads: Dict[int, Tuple[int, int]] = {}
    comp_of: Dict[int, int] = {}
    comp = 0
    for e0 in d.edge_ids():
        if e0 in comp_of:
            continue
        e, head = e0, min(inc[e0])
        while e not in comp_of:
            comp_of[e] = comp
            heads[e] = head
            ci, s = head
            exit_dart = (ci, (s + 2) % 4)
            e2 = d.crossings[ci].slots[exit_dart[1]]
            a, b = inc[e2]
            e, head = e2, (b if a == exit_dart else a)
        comp += 1
    return DiagramOrientation(heads, comp_of, comp)


def crossing_signs(d: PlanarDiagram, o: Optional[DiagramOrientation] = None) -> Tuple[int, ...]:
    if o is None:
        o = orient(d)
    signs: List[int] = []
    for ci, x in enumerate(d.crossings):
        u = next(s for s in x.under_slots() if o.heads[x.slots[s]] == (ci, s))
        ov = next(s for s in x.over_slots() if o.heads[x.slots[s]] == (ci, s))
        signs.append(+1 if ov == (u + 3) % 4 else -1)
    return tuple(signs)


def writhe(d: PlanarDiagram) -> int:
    return sum(crossing_signs(d))


# ---------------------------------------------------------------------------
# Kauffman bracket
# ---------------------------------------------------------------------------


def _dart_mates(d: PlanarDiagram) -> Dict[int, int]:
    """Dart 4*ci+slot -> the dart at the other end of the same edge."""
    mate: Dict[int, int] = {}
    for e, uses in d.incidences().items():
        if len(uses) != 2:
            raise ValueError(f"edge {e} has {len(uses)} ends (need 2)")
        (ca, sa), (cb, sb) = uses
        a, b = 4 * ca + sa, 4 * cb + sb
        mate[a], mate[b] = b, a
    return mate


def _sweep_plan(n: int, mate: Dict[int, int]) -> List[Tuple[int, List[int]]]:
    """Crossing order with the sorted frontier (open darts) after each step.

    Greedy: next comes the crossing that closes the most open edges, ties
    to the lowest index. Raises TooLarge before any state is built if a
    frontier would hold more than ``DEFAULT_CAP`` open edges.
    """
    done = [False] * n
    frontier: set = set()
    plan = []
    for _ in range(n):
        ci = max(
            (c for c in range(n) if not done[c]),
            key=lambda c: (sum(done[mate[4 * c + s] >> 2] for s in range(4)), -c),
        )
        done[ci] = True
        for dart in range(4 * ci, 4 * ci + 4):
            m = mate[dart]
            if m >> 2 != ci:
                if done[m >> 2]:
                    frontier.discard(m)
                else:
                    frontier.add(dart)
        if len(frontier) > DEFAULT_CAP:
            raise TooLarge(
                f"sweep frontier of {len(frontier)} open edges exceeds cap {DEFAULT_CAP}"
            )
        plan.append((ci, sorted(frontier)))
    return plan


def kauffman_bracket(d: PlanarDiagram) -> LaurentPoly:
    """Frontier sweep over the crossings. Raises TooLarge above the cap.

    A state is a pairing of the open darts (the processed crossings' ends
    whose edges lead to unprocessed ones), mapped to its weights
    {(A-exponent, closed loops): count}. Each crossing is smoothed both
    ways, its darts are glued to the pairing, loops that close are
    counted, and states with equal pairings merge.
    """
    n = len(d.crossings)
    if n == 0 and d.free_loops == 0:
        raise ValueError("empty diagram has no bracket")
    mate = _dart_mates(d)
    states: Dict[Tuple[int, ...], Dict[Tuple[int, int], int]] = {(): {(0, 0): 1}}
    old: List[int] = []
    for ci, new in _sweep_plan(n, mate):
        base = 4 * ci
        over = d.crossings[ci].over_slots()
        # (A-exponent change, arcs): A joins over slot o to o+3, B to o+1
        smoothings = [
            (da, [(base + o, base + (o + step) % 4) for o in over])
            for da, step in ((1, 3), (-1, 1))
        ]
        glues = [
            (dart, mate[dart])
            for dart in range(base, base + 4)
            if dart not in new and (mate[dart] >> 2 != ci or mate[dart] < dart)
        ]
        nxt: Dict[Tuple[int, ...], Dict[Tuple[int, int], int]] = {}
        for key, weights in states.items():
            pairing = dict(zip(old, key))
            for da, arcs in smoothings:
                p = dict(pairing)
                for a, b in arcs:
                    p[a], p[b] = b, a
                closed = 0
                for x, y in glues:
                    if p[x] == y:
                        closed += 1
                        del p[x], p[y]
                    else:
                        px, py = p.pop(x), p.pop(y)
                        p[px], p[py] = py, px
                out = nxt.setdefault(tuple(p[f] for f in new), {})
                for (a, loops), count in weights.items():
                    k = (a + da, loops + closed)
                    out[k] = out.get(k, 0) + count
        states, old = nxt, new

    by_loops: Dict[int, Dict[int, int]] = {}
    for (a, loops), count in states[()].items():
        by_loops.setdefault(loops + d.free_loops - 1, {})[a] = count
    total = LaurentPoly.zero()
    for k, coeffs in by_loops.items():
        total = total + LaurentPoly(coeffs) * D_POLY ** k
    return total


def _normalize(bracket: LaurentPoly, w: int) -> LaurentPoly:
    return LaurentPoly.monomial(-1 if w % 2 else 1, -3 * w) * bracket


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
    o = orient(d)
    signs = crossing_signs(d, o)
    strand_comps = [
        (o.comp_of[x.slots[0]], o.comp_of[x.slots[1]]) for x in d.crossings
    ]
    vals = []
    for r in range(1 << o.n_components):
        w = 0
        for s, (ca, cb) in zip(signs, strand_comps):
            flipped = ((r >> ca) ^ (r >> cb)) & 1
            w += -s if flipped else s
        vals.append(str(_normalize(bracket, w)))
    return tuple(sorted(vals))


# ---------------------------------------------------------------------------
# Grid diagram -> planar diagram
# ---------------------------------------------------------------------------


def bgd_to_pd(g: BinaryGridDiagram) -> PlanarDiagram:
    """Read the grid core back as a planar diagram.

    One crossing per crossed row, slots in counterclockwise order
    (below-vertical, right-horizontal, above-vertical, left-horizontal),
    which puts the horizontal over-strand on the 1-3 diagonal. Each open
    column holds one union-find node for its current vertical segment,
    so a strand that passes a row costs nothing. ``g`` is valid by
    construction, so it is not checked again.
    """
    uf = UnionFind()
    segment: Dict[int, object] = {}  # open column -> its vertical segment
    k = 0  # crossings so far
    for i, row in enumerate(g.rows):
        # a down end closes its column's segment, an up end starts a new one
        left, right = (
            segment.pop(c) if kind is EndKind.DOWN
            else segment.setdefault(c, ("p", i, c))
            for c, kind in zip(row.extent, row.end_kinds)
        )
        x = row.crossed_column
        if x is None:
            uf.union(left, right)
            continue
        uf.union(("x", k, 0), segment[x])
        segment[x] = ("x", k, 2)
        uf.union(("x", k, 3), left)
        uf.union(("x", k, 1), right)
        k += 1

    # group terminals by class
    classes: Dict[object, List[Tuple[int, int]]] = {}
    for j in range(k):
        for s in range(4):
            classes.setdefault(uf.find(("x", j, s)), []).append((j, s))
    free_loops = 0
    seen_roots = set(classes)
    for key in list(uf.parent):
        r = uf.find(key)
        if r not in seen_roots:
            seen_roots.add(r)
            free_loops += 1

    edge_of: Dict[object, int] = {}
    for eid, root in enumerate(
        sorted(classes, key=lambda r: min(classes[r])), start=1
    ):
        if len(classes[root]) != 2:
            raise RoutingError(
                f"arc with {len(classes[root])} crossing ends (need 2)"
            )
        edge_of[root] = eid

    crossings = []
    for j in range(k):
        slots = tuple(edge_of[uf.find(("x", j, s))] for s in range(4))
        crossings.append(Crossing(id=j, slots=slots, over_pair=1))
    out = PlanarDiagram(tuple(crossings), free_loops)
    issues = validate_diagram(out)
    if issues:
        raise RoutingError(
            "reconstructed diagram invalid: "
            + "; ".join(f"{i.code}: {i.message}" for i in issues)
        )
    return out
