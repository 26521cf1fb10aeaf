"""All-pairs fold-line check: the reference the bucketed search is checked against.

Every pair of creases is tested with ``_segments_meet`` in index order,
so the first pair that meets is the lexicographically lowest one.
"""

from ribbonfold.layout import (
    LayoutConfig,
    LayoutOverlap,
    _fold_segments,
    _geometry,
    _segments_meet,
)


def reference_first_meeting_pair(segs):
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _segments_meet(segs[i], segs[j]):
                return i, j
    return None


def reference_check_fold_lines(s, config=None):
    cfg = config or LayoutConfig()
    segs = _fold_segments(s, _geometry(s, cfg))
    hit = reference_first_meeting_pair(segs)
    if hit is not None:
        raise LayoutOverlap(
            f"fold lines {hit[0]} and {hit[1]} intersect at epsilon {cfg.epsilon}"
        )
    return segs
