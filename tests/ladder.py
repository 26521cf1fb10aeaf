"""The (s1 s2)^k braid-closure ladder, built by the corpus builder in tools/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from build_knot_table import braid_closure  # noqa: E402


def ladder(c):
    """The closure of (s1 s2)^(c/2): a 3-braid diagram with c crossings."""
    return braid_closure([0, 2] * (c // 2))
