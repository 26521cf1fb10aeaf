"""Seeded random binary-grid generator shared by test modules."""

import random
from fractions import Fraction

from ribbonfold.invariants import bgd_to_pd
from ribbonfold.model import RoutingError, Shape, make_row

from convert_reference import compress_columns


def _fresh(lo, hi, used):
    x = Fraction(lo + hi, 2)
    while x in used:
        x = Fraction(lo + x, 2)
    used.add(x)
    return x


def make_random_grid(rng, max_crossings=5, body_ops=8):
    """A random valid grid built from legal cup/cap/sideways moves.

    Each move squeezes fresh ``Fraction`` columns between the open ones,
    and the grid is made on their ranks.
    """
    used = set()
    cols = []
    script = []
    crossings = 0

    def do_min():
        nonlocal crossings
        if cols and crossings < max_crossings and rng.random() < 0.4:
            j = rng.randrange(len(cols))
            c = cols[j]
            lo = cols[j - 1] if j > 0 else c - 2
            hi = cols[j + 1] if j + 1 < len(cols) else c + 2
            p, q = _fresh(lo, c, used), _fresh(c, hi, used)
            script.append(("MIN", p, q, c))
            crossings += 1
        else:
            j = rng.randrange(len(cols) + 1)
            lo = cols[j - 1] if j > 0 else (cols[0] - 4 if cols else 0)
            hi = cols[j] if j < len(cols) else (cols[-1] + 4 if cols else 8)
            p = _fresh(lo, hi, used)
            q = _fresh(p, hi, used)
            script.append(("MIN", p, q))
        cols.extend(v for v in script[-1][1:3])
        cols.sort()

    def do_trans():
        nonlocal crossings
        j = rng.randrange(len(cols))
        s = cols[j]
        crossable = []
        if j > 0:
            crossable.append((-1, cols[j - 1], cols[j - 2] if j > 1 else cols[j - 1] - 2))
        if j + 1 < len(cols):
            crossable.append((+1, cols[j + 1], cols[j + 2] if j + 2 < len(cols) else cols[j + 1] + 2))
        if crossable and crossings < max_crossings and rng.random() < 0.5:
            side, n, beyond = rng.choice(crossable)
            t = _fresh(*(sorted((n, beyond))), used)
            script.append(("TRANS", s, t, n))
            crossings += 1
        else:
            lo = cols[j - 1] if j > 0 else s - 2
            hi = cols[j + 1] if j + 1 < len(cols) else s + 2
            t = _fresh(*(sorted((s, rng.choice((lo, hi))))), used)
            script.append(("TRANS", s, t))
        cols.remove(s)
        cols.append(script[-1][2])
        cols.sort()

    def do_max():
        nonlocal crossings
        if len(cols) >= 3 and crossings < max_crossings and rng.random() < 0.4:
            k = rng.randrange(len(cols) - 2)
            script.append(("MAX", cols[k], cols[k + 2], cols[k + 1]))
            crossings += 1
            del cols[k + 2], cols[k]
        else:
            k = rng.randrange(len(cols) - 1)
            script.append(("MAX", cols[k], cols[k + 1]))
            del cols[k + 1], cols[k]

    for _ in range(body_ops):
        if len(cols) < 2:
            do_min()
        else:
            rng.choice((do_min, do_trans, do_trans, do_max))()
    while cols:
        k = rng.randrange(len(cols) - 1) if len(cols) > 2 else 0
        script.append(("MAX", cols[k], cols[k + 1]))
        del cols[k + 1], cols[k]

    return compress_columns([make_row(Shape(kind), a, b, rest[0] if rest else None)
                             for kind, a, b, *rest in script])


def iter_readable_grids(count, start_seed=0, **kw):
    """Yield (seed, grid) pairs whose readback is a valid diagram."""
    seed = start_seed
    found = 0
    while found < count:
        g = make_random_grid(random.Random(seed), **kw)
        try:
            bgd_to_pd(g)
        except RoutingError:
            pass
        else:
            found += 1
            yield seed, g
        seed += 1
