"""Seeded random closed braids on 3-5 strands, drawn by the generator in bench/."""

import random
import sys
from pathlib import Path

from ribbonfold.ingest import parse_pd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from braids import STUCK_9, braid_closure, random_braid_family  # noqa: E402, F401


def random_closures(seed, count, max_crossings, min_crossings=0):
    """``count`` connected, reduced closures as (label, diagram) pairs.

    Strand and crossing counts come from ``random.Random(seed)``; a reduced
    closure on s strands needs at least 2(s - 1) crossings.
    """
    rng = random.Random(seed)
    slots = []
    for _ in range(count):
        strands = rng.randint(3, 5)
        lo = max(min_crossings, 2 * strands - 2)
        slots.append((strands, rng.randint(lo, max_crossings)))
    family = random_braid_family(rng.randrange(1 << 30), slots)
    return [
        (f"s{strands}_c{crossings}_{k}", parse_pd(text))
        for k, (strands, crossings, _word, text) in enumerate(family)
    ]
