"""The (s1 s2)^k braid-closure ladder, built as bench/run.py builds it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from braids import braid_closure  # noqa: E402


def ladder(c):
    """The closure of (s1 s2)^(c/2): a 3-braid diagram with c crossings."""
    return braid_closure(3, [1, 2] * (c // 2))
