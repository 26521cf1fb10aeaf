"""Certified linear upper bounds on folded-ribbon length of knots and links.

The pipeline reads a planar diagram, levels its vertices, expands the
leveling into a binary grid, rewrites the grid to normal form, counts
blocks for the certified bound, and folds the result into a pile of
paper planes with an explicit fold schedule and SVG schematic. A
normalized state-sum polynomial is recomputed after every stage as a
knot-type oracle.
"""

from .bound import (
    DomainError,
    PipelineResult,
    block_counts,
    comparison_bounds,
    compute_bound,
    grid_bound,
    report_json,
    rib_upper_bound,
    run_pipeline,
    theoretical_bound,
)
from .expand import BgdFormatError, ExpansionError, bgd_to_text, build_bgd, parse_bgd
from .ingest import (
    LabelError,
    PdSyntaxError,
    TableError,
    bundled_table,
    detect_nugatory,
    emit_pd,
    load_table,
    parse_pd,
)
from .invariants import bgd_to_pd, jones_fingerprint, jones_normalized
from .layout import (
    CapArc,
    FoldSchedule,
    LayoutConfig,
    LayoutOverlap,
    NotNormalForm,
    PaperPlane,
    build_pile,
    check_fold_lines,
    core_diagram,
    emit_svg,
    ribbon_length,
    schedule_json,
)
from .leveling import (
    FlipChoice,
    InvalidDiagram,
    NoLevelingFound,
    PreconditionViolated,
    apply_flip,
    check_leveling,
    find_leveling,
    optimize_flips,
)
from .model import (
    BinaryGridDiagram,
    BoundReport,
    Crossing,
    InvalidGrid,
    LeveledDiagram,
    PlanarDiagram,
    RibbonfoldError,
    RoutingError,
    Row,
    check_bgd,
    validate_diagram,
)
from .rewrite import RewriteError, is_normal_form, normalize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "PlanarDiagram", "Crossing", "LeveledDiagram", "BinaryGridDiagram",
    "Row", "BoundReport", "RibbonfoldError", "RoutingError",
    "validate_diagram", "check_bgd", "InvalidGrid",
    # ingest
    "parse_pd", "emit_pd", "load_table", "bundled_table", "detect_nugatory",
    "PdSyntaxError", "LabelError", "TableError",
    # leveling
    "find_leveling", "check_leveling", "optimize_flips", "apply_flip",
    "FlipChoice", "NoLevelingFound", "PreconditionViolated", "InvalidDiagram",
    # expand
    "build_bgd", "bgd_to_text", "parse_bgd", "ExpansionError", "BgdFormatError",
    # rewrite
    "normalize", "is_normal_form", "RewriteError",
    # bound
    "compute_bound", "grid_bound", "run_pipeline", "report_json", "block_counts",
    "rib_upper_bound", "theoretical_bound", "comparison_bounds",
    "PipelineResult", "DomainError",
    # layout
    "build_pile", "ribbon_length", "emit_svg",
    "check_fold_lines", "core_diagram", "schedule_json",
    "PaperPlane", "CapArc", "FoldSchedule", "LayoutConfig",
    "NotNormalForm", "LayoutOverlap",
    # invariants
    "jones_normalized", "jones_fingerprint", "bgd_to_pd",
]
