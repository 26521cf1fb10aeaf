"""Fold-line references the lattice check is tested against.

``reference_fold_segments`` places the creases in exact rationals, in
width units, the way the layout did before it moved to the integer
lattice: wings at 2j, bodies at 4k, caps above them at 4n + 2m, creases
1/2 either side of a wing or bridge, and the fold-back crease
1 - (epsilon/w)(gap + 2)/2 past the right wing.

``reference_first_meeting_pair`` tests every pair of creases with
``_segments_meet`` in index order, so the first pair that meets is the
lexicographically lowest one.
"""

from fractions import Fraction

from ribbonfold.layout import LayoutConfig, LayoutOverlap, _segments_meet, _wing_gaps


def reference_fold_segments(s, config=None):
    cfg = config or LayoutConfig()
    eps = Fraction(cfg.epsilon) / Fraction(cfg.width)
    x = {slot: Fraction(2 * j) for j, slot in enumerate(s.connection_order)}
    n_planes = len(s.planes)
    half = Fraction(1, 2)
    segs = []
    for k, (p, gap) in enumerate(zip(s.planes, _wing_gaps(s))):
        o = 1 - eps * (gap + 2) / 2
        if o <= half:
            limit = Fraction(cfg.width) / (gap + 2)
            raise LayoutOverlap(
                f"epsilon {cfg.epsilon} too large for disjoint fold lines: "
                f"the fold-back crease of plane {p.plane_index} meets its "
                f"right wing fold (needs epsilon < {float(limit):g})"
            )
        y = Fraction(4 * k)
        xl, xr = x[p.insertion[0]], x[p.insertion[1]]
        segs.append(((xl - half, y - half), (xl + half, y + half)))
        segs.append(((xr - half, y + half), (xr + half, y - half)))
        segs.append(((xr + o, y - half), (xr + o, y + half)))
    for m, c in enumerate(s.caps):
        y = Fraction(4 * n_planes + 2 * m)
        xa, xb = x[c.join[0]], x[c.join[1]]
        segs.append(((xa - half, y - half), (xa + half, y + half)))
        segs.append(((xb - half, y + half), (xb + half, y - half)))
    return segs


def reference_first_meeting_pair(segs):
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _segments_meet(segs[i], segs[j]):
                return i, j
    return None
