"""The three pile families the layout tests share, each built once per run.

``corpus`` is the 38 bundled diagrams, ``ladder`` the (s1 s2)^k closures
at the benchmark's rungs c = 8-32, and ``randbraids`` 32 seeded 3-5 strand
closures at c <= 20.
"""

from functools import lru_cache

from ribbonfold.bound import run_pipeline
from ribbonfold.ingest import bundled_table
from ribbonfold.layout import build_pile

from ladder import ladder
from randbraids import random_closures

FAMILIES = ("corpus", "ladder", "randbraids")


@lru_cache(maxsize=None)
def piles(family):
    """``(name, schedule)`` pairs of one family, in a fixed order."""
    if family == "corpus":
        diagrams = [(e.name, e.diagram) for e in bundled_table()]
    elif family == "ladder":
        diagrams = [(f"ladder_c{c}", ladder(c)) for c in (8, 16, 20, 24, 32)]
    else:
        diagrams = random_closures(seed=12, count=20, max_crossings=12)
        diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                    min_crossings=13)
    return tuple((name, build_pile(run_pipeline(d).normal)) for name, d in diagrams)
