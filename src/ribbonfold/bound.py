"""Certified ribbonlength bounds from block counts.

The certified number is twice the count of non-free blocks: every block
except a plain cap becomes one paper plane of core length 2 in the
eventual pile. Closed forms accompany it for context, the floor-form
and linear bounds the counting argument yields, plus the two earlier
published bounds they improve on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .expand import build_bgd
from .leveling import FlipChoice, find_leveling, optimize_flips
from .model import (
    PORTION_KINDS,
    BinaryGridDiagram,
    BoundReport,
    LeveledDiagram,
    PlanarDiagram,
    RibbonfoldError,
)
from .rewrite import normalize

__all__ = [
    "DomainError",
    "PipelineResult",
    "block_counts",
    "rib_upper_bound",
    "theoretical_bound",
    "comparison_bounds",
    "run_pipeline",
    "compute_bound",
    "grid_bound",
    "report_json",
]

BLOCK_KEYS = ("b1", "b2", "b3", "b1_ring", "b2_ring", "b3_ring")


class DomainError(RibbonfoldError):
    """Crossing number outside the range a formula covers."""


def block_counts(g: BinaryGridDiagram) -> Dict[str, int]:
    """Tally the rows of a grid by block type."""
    m = g.block_multiset()
    return {
        "b1": m["B1"],
        "b2": m["B2"],
        "b3": m["B3"],
        "b1_ring": m["B1r"],
        "b2_ring": m["B2r"],
        "b3_ring": m["B3r"],
    }


def rib_upper_bound(counts: Dict[str, int]) -> int:
    """Certified bound in width units: 2(b1 + b2 + b3 + b1_ring)."""
    return 2 * (counts["b1"] + counts["b2"] + counts["b3"] + counts["b1_ring"])


def theoretical_bound(c: int) -> Tuple[int, Fraction]:
    """Closed-form bounds (floor form, linear form) for c crossings.

    The floor form 2(c + 1 + floor((c - 2) / 4)) is what block counting
    gives; it never exceeds the linear form 5c/2 + 1, with equality when
    c is 2 mod 4. Both assume the leveling's bottom and top vertex pair
    exists, hence c >= 2.
    """
    if c < 2:
        raise DomainError(f"no closed-form bound below 2 crossings (got {c})")
    floor_form = 2 * (c + 1 + (c - 2) // 4)
    linear_form = Fraction(5, 2) * c + 1
    return floor_form, linear_form


def comparison_bounds(c: int) -> Dict[str, float]:
    """Earlier published bounds: quadratic and c^(3/2) growth."""
    root = math.sqrt(c)
    return {
        "tian": 2 * c * c + 6 * c + 4,
        "denne": 72.0 * c * root + 32.0 * c + 12.0 * root + 4.0,
    }


@dataclass(frozen=True)
class PipelineResult:
    """Intermediate stages kept for reporting and verification."""

    leveled: LeveledDiagram
    flip: FlipChoice
    grid: BinaryGridDiagram
    normal: BinaryGridDiagram


def run_pipeline(d: PlanarDiagram) -> PipelineResult:
    """Level, flip-optimize, expand and normalize a diagram."""
    ld, flip = optimize_flips(find_leveling(d))
    g = build_bgd(ld)
    return PipelineResult(ld, flip, g, normalize(g))


def _report(name: Optional[str], c: int, counts: Dict[str, int], note: str = "",
            res: Optional[PipelineResult] = None) -> BoundReport:
    """Assemble a report; closed forms only where they apply (c >= 2)."""
    floor_form, linear_form = theoretical_bound(c) if c >= 2 else (None, None)
    cmp = comparison_bounds(c)
    flip = res.flip if res is not None else FlipChoice()
    return BoundReport(
        name=name,
        crossings=c,
        portion_counts=(
            res.leveled.portion_counts() if res is not None
            else {k: 0 for k in PORTION_KINDS}
        ),
        flip_x=flip.flip_x,
        flip_y=flip.flip_y,
        block_counts=counts,
        certified_bound=rib_upper_bound(counts),
        theoretical_floor=floor_form,
        theoretical_linear=linear_form,
        tian_bound=cmp["tian"],
        denne_bound=cmp["denne"],
        note=note,
    )


def compute_bound(d: PlanarDiagram, name: Optional[str] = None) -> BoundReport:
    """Run the full pipeline on a diagram and assemble its report.

    Zero-crossing inputs skip the pipeline: a trivial loop's ribbon can
    be folded below any positive length, so its bound is 0.
    """
    c = d.crossing_number
    if c == 0:
        return _report(name, 0, {k: 0 for k in BLOCK_KEYS},
                       "trivial loops fold below any positive length; bound 0")
    res = run_pipeline(d)
    return _report(name, c, block_counts(res.normal), res=res)


def grid_bound(g: BinaryGridDiagram, name: Optional[str] = None) -> BoundReport:
    """Normalize a grid and assemble its report; the leveling never ran."""
    return _report(name, g.crossing_number, block_counts(normalize(g)),
                   "grid input: portion counts unavailable")


def report_json(r: BoundReport) -> Dict[str, object]:
    """JSON-ready dict with the documented field names.

    The linear bound is an exact multiple of 1/2, so the float is the
    exact value.
    """
    linear = None if r.theoretical_linear is None else float(r.theoretical_linear)
    return {
        "name": r.name,
        "crossings": r.crossings,
        "portion_counts": dict(r.portion_counts),
        "flip_x": r.flip_x,
        "flip_y": r.flip_y,
        "block_counts": dict(r.block_counts),
        "certified_bound": r.certified_bound,
        "theoretical_floor": r.theoretical_floor,
        "theoretical_bound": linear,
        "tian_bound": r.tian_bound,
        "denne_bound": r.denne_bound,
        "note": r.note,
    }
