"""Reference sweep and fingerprint that ``invariants`` is checked against.

``reference_sweep_bracket`` keys each pairing by its open darts' partner
darts and keeps weights {(A-exponent, closed loops): count}, so a pairing
carries O(c^2) keys, and the loop counts are expanded into powers of
d = -A^2 - A^-2 only at the end. The plan re-sums every crossing's closed
darts at each step. Same crossing order, frontiers, ``TooLarge`` message
and brackets as ``invariants.kauffman_bracket``, which keys pairings by
frontier positions and multiplies by d as each loop closes.

``reference_fingerprint`` finds each crossing's entry slots by scanning
its slots against the orientation's heads and normalizes the bracket once
per orientation choice; ``invariants.jones_fingerprint`` reads the signs
off one table and normalizes once per distinct writhe.
"""

from ribbonfold import invariants
from ribbonfold.invariants import D_POLY, TooLarge, _normalize
from ribbonfold.laurent import LaurentPoly


def reference_sweep_plan(n, mate):
    """Crossing order with the sorted frontier (open darts) after each step.

    Greedy: next comes the crossing that closes the most open edges, ties
    to the lowest index.
    """
    cap = invariants.DEFAULT_CAP
    done = [False] * n
    frontier = set()
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
        if len(frontier) > cap:
            raise TooLarge(
                f"sweep frontier of {len(frontier)} open edges exceeds cap {cap}"
            )
        plan.append((ci, sorted(frontier)))
    return plan


def reference_sweep_bracket(d):
    n = len(d.crossings)
    if n == 0 and d.free_loops == 0:
        raise ValueError("empty diagram has no bracket")
    mate = d.mates
    states = {(): {(0, 0): 1}}
    old = []
    for ci, new in reference_sweep_plan(n, mate):
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
        nxt = {}
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

    by_loops = {}
    for (a, loops), count in states[()].items():
        by_loops.setdefault(loops + d.free_loops - 1, {})[a] = count
    total = LaurentPoly.zero()
    for k, coeffs in by_loops.items():
        total = total + LaurentPoly(coeffs) * D_POLY ** k
    return total


def reference_crossing_signs(d, o):
    signs = []
    for ci, x in enumerate(d.crossings):
        u = next(s for s in x.under_slots() if o.heads[x.slots[s]] == (ci, s))
        ov = next(s for s in x.over_slots() if o.heads[x.slots[s]] == (ci, s))
        signs.append(+1 if ov == (u + 3) % 4 else -1)
    return tuple(signs)


def reference_fingerprint(d):
    """Sorted normalized brackets over all 2^m component orientations.

    The bracket comes from ``invariants.kauffman_bracket``, which the
    sweep tests hold to ``reference_sweep_bracket``.
    """
    bracket = invariants.kauffman_bracket(d)
    if not d.crossings:
        return (str(bracket),)
    o = d.orientation
    signs = reference_crossing_signs(d, o)
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
