"""Leveling-to-grid expansion and the grid text format."""

import random

import pytest

from ribbonfold.expand import (
    EXPANSION_TABLE,
    BgdFormatError,
    bgd_to_text,
    build_bgd,
    parse_bgd,
)
from ribbonfold.ingest import bundled_table, parse_pd
from ribbonfold.invariants import bgd_to_pd, jones_fingerprint, jones_normalized
from ribbonfold.leveling import FlipChoice, apply_flip, find_leveling, optimize_flips
from ribbonfold.model import PortionType
from ribbonfold.rewrite import _events, normalize

from expand_reference import reference_build_bgd
from grids import build
from ladder import ladder
from randbraids import random_closures
from randgrids import make_random_grid

TREFOIL_TXT = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF_TXT = "X(4,1,3,2) X(2,3,1,4)"
FIG8_TXT = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def _grid(txt):
    return build_bgd(find_leveling(parse_pd(txt)))


def test_expansion_table_lookup():
    assert EXPANSION_TABLE[PortionType(1, +1).name] == ("B1",)
    assert EXPANSION_TABLE[PortionType(1, -1).name] == ("B1r", "B2")
    assert EXPANSION_TABLE[PortionType(4, +1).name] == ("B3", "B3r")
    for name, blocks in EXPANSION_TABLE.items():
        idx, sign = int(name[1]), (1 if name[2] == "+" else -1)
        assert EXPANSION_TABLE[PortionType(idx, sign).name] == blocks


def test_hopf_grid():
    g = _grid(HOPF_TXT)
    assert len(g.rows) == 4
    assert g.block_multiset() == {
        "B1": 1, "B2": 0, "B3": 1, "B1r": 1, "B2r": 0, "B3r": 1}
    assert g.crossing_number == 2


def test_trefoil_grid():
    g = _grid(TREFOIL_TXT)
    assert len(g.rows) == 5
    assert g.block_multiset() == {
        "B1": 1, "B2": 1, "B3": 1, "B1r": 1, "B2r": 0, "B3r": 1}


def test_figure_eight_grid():
    g = _grid(FIG8_TXT)
    assert g.block_multiset()["B2r"] == 0
    assert sum(g.block_multiset().values()) == 6


def _flips(ld):
    """The four flips of a leveling."""
    return [apply_flip(ld, FlipChoice(fx, fy)) for fx in (False, True) for fy in (False, True)]


def test_columns_are_small_ints():
    # the columns are 1, 2, ..., m without gaps, for every flip
    for entry in bundled_table():
        for ld in _flips(find_leveling(entry.diagram)):
            cols = set()
            for r in build_bgd(ld).rows:
                cols.update(r.extent)
            assert cols == set(range(1, len(cols) + 1)), entry.name
            assert all(type(c) is int for c in cols), entry.name


def test_expansion_matches_the_rational_reference():
    # the strand events are those of the rational routing, whose column
    # numbers differ, and both normalize to the same bytes
    diagrams = [(e.name, e.diagram) for e in bundled_table()]
    diagrams += [(f"ladder c={c}", ladder(c)) for c in range(4, 81, 2)]
    diagrams += random_closures(seed=12, count=40, max_crossings=12)
    diagrams += random_closures(seed=1320, count=40, max_crossings=20,
                                min_crossings=13)
    for name, d in diagrams:
        for ld in _flips(find_leveling(d)):
            g, ref = build_bgd(ld), reference_build_bgd(ld)
            assert _events(g) == _events(ref), name
            assert bgd_to_text(normalize(g)) == bgd_to_text(normalize(ref)), name


def test_block_count_identity_corpus():
    # counted blocks (all but the free caps) = crossings + 1 + #T1-
    for entry in bundled_table():
        ld, _ = optimize_flips(find_leveling(entry.diagram))
        g = build_bgd(ld)
        m = g.block_multiset()
        counted = m["B1"] + m["B2"] + m["B3"] + m["B1r"]
        t1m = ld.portion_counts()["T1-"]
        assert counted == entry.crossings + 1 + t1m, entry.name
        assert m["B2r"] == 0
        assert g.crossing_number == entry.crossings


def test_readback_preserves_link_type_corpus():
    for entry in bundled_table():
        ld, _ = optimize_flips(find_leveling(entry.diagram))
        back = bgd_to_pd(build_bgd(ld))
        if entry.diagram.components == 1:
            assert jones_normalized(back) == jones_normalized(entry.diagram), entry.name
        else:
            assert jones_fingerprint(back) == jones_fingerprint(entry.diagram), entry.name


def test_text_roundtrip():
    for txt in (HOPF_TXT, TREFOIL_TXT, FIG8_TXT):
        g = _grid(txt)
        assert parse_bgd(bgd_to_text(g)) == g


def test_every_grid_round_trips_through_text():
    # grids hold int columns only, so the text form of any grid the
    # pipeline makes, expanded or normal, parses back to the same grid
    diagrams = [e.diagram for e in bundled_table()]
    diagrams += [ladder(c) for c in range(4, 41, 2)]
    grids = [build_bgd(optimize_flips(find_leveling(d))[0]) for d in diagrams]
    grids += [make_random_grid(random.Random(seed), max_crossings=30, body_ops=40)
              for seed in range(200)]
    for g in grids:
        for h in (g, normalize(g)):
            assert parse_bgd(bgd_to_text(h)) == h


def test_text_comments_and_blanks():
    g = _grid(HOPF_TXT)
    text = "# clasp grid\n\n" + bgd_to_text(g)
    assert parse_bgd(text) == g


def test_elbow_tokens():
    g = build([("MIN", 1, 2), ("MAX", 1, 2)])
    text = "MIN extent=[1,2] ends=(elbow,elbow)\nMAX extent=[1,2] ends=(elbow,elbow)\n"
    assert parse_bgd(text) == g
    with pytest.raises(BgdFormatError, match="ambiguous"):
        parse_bgd("MIN extent=[1,3] ends=(up,up)\n"
                  "TRANS extent=[1,2] ends=(elbow,up)\n"
                  "MAX extent=[2,3] ends=(down,down)\n")


@pytest.mark.parametrize("bad,msg", [
    ("MIN span=[1,2] ends=(up,up)", "unrecognized"),
    ("MAX extent=[1,2] ends=(down,down)", "row 0: consumed column 1 absent below"),
    ("MIN extent=[1,2] ends=(up,up)\nMIN extent=[2,3] ends=(up,up)", "already open"),
    ("MIN extent=[1,2] ends=(up,up)", "does not end with zero strands"),
    ("MIN extent=[1,2] ends=(up,down)", "illegal"),
    ("MIN extent=[1,3] ends=(up,up)\nTRANS extent=[3,2] ends=(down,up)", "line 2: extent"),
    ("MIN extent=[2,1] ends=(up,up)", "line 1: extent"),
])
def test_parse_errors(bad, msg):
    with pytest.raises(BgdFormatError, match=msg):
        parse_bgd(bad)


def test_parse_reports_what_only_the_grid_check_catches():
    # every line parses and every column opens and closes, but the second
    # cup and the first cap have strands inside their extent
    text = ("MIN extent=[1,4] ends=(up,up)\nMIN extent=[2,3] ends=(up,up)\n"
            "MAX extent=[1,4] ends=(down,down)\nMAX extent=[2,3] ends=(down,down)\n")
    with pytest.raises(BgdFormatError,
                       match=r"^row 2: uncrossed row has strands \[2, 3\] inside extent$"):
        parse_bgd(text)


def test_flipped_expansion_still_reads_back():
    # expansion must be sound for every flip, not just the optimized one
    for name in ("3_1", "5_2", "L4a1", "6_1"):
        entry = next(e for e in bundled_table() if e.name == name)
        ld = find_leveling(entry.diagram)
        want = jones_fingerprint(entry.diagram)
        for fx in (False, True):
            for fy in (False, True):
                flipped = apply_flip(ld, FlipChoice(fx, fy))
                back = bgd_to_pd(build_bgd(flipped))
                assert jones_fingerprint(back) == want, (name, fx, fy)
