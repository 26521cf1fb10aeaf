"""Seeded closed-braid diagrams on any number of strands.

A braid word is a sequence of nonzero integers: ``i`` is the generator
s_i, where strand i crosses over strand i + 1, and ``-i`` its inverse.
The closure joins the top of every strand to its own bottom.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ribbonfold.ingest import detect_nugatory, emit_pd, parse_pd
from ribbonfold.model import Crossing, PlanarDiagram, validate_diagram

# Smallest diagram known to leave normalization stuck: the closure of the
# 3-strand word [-2, -1, 1, -1, -2, -2, 2, 2, -1].
STUCK_9 = (
    "X(2,3,4,1) X(4,3,5,6) X(6,5,7,8) X(8,7,9,10) X(9,11,12,10) "
    "X(11,13,14,12) X(15,16,17,13) X(16,15,18,17) X(14,18,2,1)"
)


def braid_closure(strands: int, word: Sequence[int]) -> PlanarDiagram:
    """Closure of a braid word as a planar diagram.

    Strands no generator touches stay as free loops, so the diagram of a
    braid that does not use every strand fails validation as split.
    """
    if strands < 2 or any(not 1 <= abs(g) < strands for g in word):
        raise ValueError(f"word {list(word)} is not a {strands}-strand braid")
    wires = list(range(1, strands + 1))
    fresh = strands + 1
    raw = []
    for g in word:
        i = abs(g) - 1
        below_left, below_right = wires[i], wires[i + 1]
        above_left, above_right = fresh, fresh + 1
        fresh += 2
        # slots counterclockwise from the lower left; over_pair 0 puts the
        # strand from lower left to upper right on top
        raw.append(((below_left, below_right, above_right, above_left),
                    0 if g > 0 else 1))
        wires[i], wires[i + 1] = above_left, above_right
    close = {top: bottom for bottom, top in enumerate(wires, start=1)}
    labels: dict = {}
    crossings = []
    for k, (slots, over_pair) in enumerate(raw):
        ids = tuple(labels.setdefault(close.get(e, e), len(labels) + 1) for e in slots)
        crossings.append(Crossing(k, ids, over_pair))
    free = sum(1 for bottom, top in enumerate(wires, start=1) if top == bottom)
    return PlanarDiagram(tuple(crossings), free)


def is_connected_reduced(d: PlanarDiagram) -> bool:
    """No validation issue (split diagrams included) and no nugatory crossing."""
    return not validate_diagram(d) and not detect_nugatory(d)


def random_braid_family(seed: int, slots: Sequence[Tuple[int, int]]
                        ) -> List[Tuple[int, int, List[int], str]]:
    """One closure per (strands, crossings) slot, drawn from ``seed``.

    Each word is drawn uniformly and redrawn only while its closure is
    split or has a nugatory crossing; what the pipeline later does with
    the diagram plays no part. Returns (strands, crossings, word, PD text)
    per slot.
    """
    rng = random.Random(seed)
    family = []
    for strands, crossings in slots:
        for _ in range(10_000):
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(crossings)]
            d = braid_closure(strands, word)
            if d.free_loops:  # split, and PD text cannot hold a free loop
                continue
            text = emit_pd(d)
            if is_connected_reduced(parse_pd(text)):
                family.append((strands, crossings, word, text))
                break
        else:
            raise RuntimeError(f"no reduced {strands}-strand closure with {crossings} crossings")
    return family
