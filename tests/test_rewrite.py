"""Grid rewriting to normal form."""

import random
from dataclasses import replace

import pytest

from ribbonfold.expand import build_bgd
from ribbonfold.ingest import bundled_table
from ribbonfold.invariants import bgd_to_pd, jones_fingerprint
from ribbonfold.leveling import find_leveling, optimize_flips
from ribbonfold.model import BinaryGridDiagram, InvalidGrid, RoutingError, Shape, check_bgd
from ribbonfold.rewrite import (
    NotConvertible,
    NotSwitchable,
    _convertible,
    _events,
    convert_block,
    is_normal_form,
    normalize,
    switch_adjacent,
)

from convert_reference import reference_convert, reference_convert_all
from grids import build
from ladder import ladder
from randbraids import random_closures
from randgrids import iter_readable_grids, make_random_grid


def _counted(m):
    return m["B1"] + m["B2"] + m["B3"] + m["B1r"] + m["B2r"]


def _fp(g):
    return jones_fingerprint(bgd_to_pd(g))


KINK = build([("MIN", 2, 6), ("TRANS", 2, 7, 6), ("MAX", 6, 7)])
CLASP = build([("MIN", 1, 3), ("MIN", 2, 4, 3), ("MAX", 1, 3, 2), ("MAX", 2, 4)])


def test_convert_sideways():
    g = convert_block(KINK, 1)
    assert check_bgd(g) == []
    assert [r.block for r in g.rows] == ["B1r", "B1", "B3r", "B3r"]
    assert _fp(g) == _fp(KINK)
    assert is_normal_form(g)


def test_convert_plain_sideways():
    base = build([("MIN", 1, 4), ("TRANS", 1, 2), ("MAX", 2, 4)])
    g = convert_block(base, 1)
    assert check_bgd(g) == []
    assert [r.block for r in g.rows] == ["B1r", "B1r", "B3r", "B3r"]
    assert _fp(g) == _fp(base)


def test_convert_crossed_cap():
    g = convert_block(CLASP, 2)
    assert check_bgd(g) == []
    assert [r.block for r in g.rows] == [
        "B1r", "B1", "B1", "B3r", "B3r", "B3r"]
    assert _fp(g) == _fp(CLASP)
    assert is_normal_form(g)


def test_convert_rejects_normal_blocks():
    for i in (0, 3):  # a cup and a plain cap
        with pytest.raises(NotConvertible):
            convert_block(CLASP, i)


def test_switch_disjoint():
    g = build([("MIN", 1, 2), ("MAX", 1, 2), ("MIN", 5, 6), ("MAX", 5, 6)])
    out = switch_adjacent(g, 1)
    assert [r.shape.value for r in out.rows] == ["MIN", "MIN", "MAX", "MAX"]
    assert check_bgd(out) == []
    assert _fp(out) == _fp(g)


def test_switch_cap_under_cap_is_noop():
    g = build([("MIN", 1, 4), ("MIN", 2, 3), ("MAX", 2, 3), ("MAX", 1, 4)])
    assert switch_adjacent(g, 2) is g


def test_switch_overlapping_crossed_cup():
    g = build([
        ("MIN", 10, 20),
        ("MIN", 12, 30, 20),
        ("MAX", 10, 12),
        ("MIN", 11, 25, 20),
        ("MAX", 11, 20),
        ("MAX", 25, 30),
    ])
    out = switch_adjacent(g, 2)
    assert check_bgd(out) == []
    assert is_normal_form(out)
    # columns are renumbered; the cup still crosses row 0's right leg
    assert out.rows[2].crossed_column == out.rows[0].extent[1]
    assert _fp(out) == _fp(g)


def test_switch_overlapping_plain_cup():
    g = build([
        ("MIN", 10, 20),
        ("MAX", 10, 20),
        ("MIN", 12, 18),
        ("MAX", 12, 18),
    ])
    out = switch_adjacent(g, 1)
    assert check_bgd(out) == []
    assert is_normal_form(out)
    assert _fp(out) == _fp(g)


def test_switch_guards():
    with pytest.raises(NotSwitchable, match="not a plain cap"):
        switch_adjacent(CLASP, 0)
    # row 2 is a plain cap but a crossed cap would sit above after a swap
    with pytest.raises(NotSwitchable):
        switch_adjacent(build([
            ("MIN", 1, 3), ("MIN", 2, 4, 3), ("MIN", 5, 6),
            ("MAX", 5, 6), ("MAX", 1, 3, 2), ("MAX", 2, 4),
        ]), 3)
    # a sideways row anywhere else must be converted first, too
    with pytest.raises(NotSwitchable, match="convert every"):
        switch_adjacent(build([
            ("MIN", 1, 2), ("MAX", 1, 2), ("MIN", 5, 6),
            ("TRANS", 6, 7), ("MAX", 5, 7),
        ]), 1)


def test_normalize_corpus():
    small = {"L2a1", "3_1", "3_1m", "4_1", "L4a1", "5_1", "5_2"}
    for entry in bundled_table():
        ld, _ = optimize_flips(find_leveling(entry.diagram))
        g = build_bgd(ld)
        trace = []
        ng = normalize(g, trace)
        assert is_normal_form(ng), entry.name
        assert check_bgd(ng) == [], entry.name
        m0, m1 = g.block_multiset(), ng.block_multiset()
        assert m1["B1"] + m1["B1r"] == _counted(m0), entry.name
        assert m1["B2"] == m1["B2r"] == m1["B3"] == 0, entry.name
        want = jones_fingerprint(entry.diagram)
        assert _fp(ng) == want, entry.name
        if entry.name in small:
            for desc, step in trace:
                assert _fp(step) == want, (entry.name, desc)


def test_normalize_random_grids():
    for seed, g in iter_readable_grids(30):
        trace = []
        ng = normalize(g, trace)
        assert is_normal_form(ng), seed
        assert check_bgd(ng) == [], seed
        m0, m1 = g.block_multiset(), ng.block_multiset()
        assert m1["B1"] + m1["B1r"] == _counted(m0), seed
        want = _fp(g)
        assert _fp(ng) == want, seed
        if g.crossing_number <= 3:
            for desc, step in trace:
                assert _fp(step) == want, (seed, desc)


def test_normalize_already_normal():
    g = build([("MIN", 1, 2), ("MAX", 1, 2)])
    assert normalize(g) == g


def test_normalize_survives_cascade_renames():
    # small grids that mix plain and crossed sideways rows with crossed
    # cups, so 3-6 rows convert and 9-20 caps are raised past cups: the
    # normal form is valid and keeps the oracle's value
    for seed in (358, 409, 469):
        g = make_random_grid(random.Random(seed))
        ng = normalize(g)
        assert is_normal_form(ng)
        assert check_bgd(ng) == []
        assert _fp(ng) == _fp(g), seed


def test_normalize_large_random_grids():
    # 200 seeded grids at c = 6-23: every one reaches normal form with its
    # counted blocks conserved, and the oracle agrees wherever the grid
    # reads back as a diagram
    readable = 0
    for seed in range(200):
        g = make_random_grid(random.Random(seed), max_crossings=30, body_ops=40)
        ng = normalize(g)
        assert check_bgd(ng) == [], seed
        assert is_normal_form(ng), seed
        m = ng.block_multiset()
        assert m["B1"] + m["B1r"] == _counted(g.block_multiset()), seed
        try:
            want = _fp(g)
        except RoutingError:
            continue
        readable += 1
        assert _fp(ng) == want, seed
    assert readable == 10


def _inversions(g):
    """(cap, cup) row pairs with the cap below the cup."""
    caps = n = 0
    for r in g.rows:
        if r.shape is Shape.MAX:
            caps += 1
        else:
            n += caps
    return n


def test_trace_ends_at_the_fast_path_result():
    # one raise step per cap below a cup, always the lowest pair, and the
    # last step is the grid normalize returns without a trace (after a
    # lone convert too, as on L2a1)
    diagrams = [(e.name, e.diagram) for e in bundled_table()]
    diagrams += [(f"ladder c={c}", ladder(c)) for c in range(8, 33, 2)]
    diagrams += random_closures(seed=12, count=20, max_crossings=12)
    diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                min_crossings=13)
    for name, d in diagrams:
        g = build_bgd(optimize_flips(find_leveling(d))[0])
        fast = normalize(g)
        trace = []
        assert normalize(g, trace) == fast, name
        converts = [step for desc, step in trace if desc.startswith("convert")]
        raises = [step for desc, step in trace if desc.startswith("raise")]
        assert len(converts) + len(raises) == len(trace), name
        assert len(raises) == _inversions(converts[-1] if converts else g), name
        last = trace[-1][1]
        assert last == fast, name


def _convert_cases():
    """(name, grid) for the corpus, the ladder, closures and stress grids."""
    diagrams = [(e.name, e.diagram) for e in bundled_table()]
    diagrams += [(f"ladder c={c}", ladder(c)) for c in range(8, 41, 2)]
    diagrams += random_closures(seed=12, count=20, max_crossings=12)
    diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                min_crossings=13)
    for name, d in diagrams:
        yield name, build_bgd(optimize_flips(find_leveling(d))[0])
    for seed in range(200):
        yield f"seed {seed}", make_random_grid(
            random.Random(seed), max_crossings=30, body_ops=40)


def test_converts_match_the_rational_reference():
    # each row converted on strand order is the row converted through
    # fresh rational columns, up to the numbering of the columns, and
    # normalize gives what it gives on the reference's fully converted
    # grid; a converted grid already in normal form comes back as it is,
    # on its ranked columns, so there only the events can agree
    for name, g in _convert_cases():
        ng, ref = normalize(g), reference_convert_all(g)
        assert _events(ng) == _events(normalize(ref)), name
        assert is_normal_form(ref) or ng == normalize(ref), name
        for i, r in enumerate(g.rows):
            if _convertible(r):
                assert _events(convert_block(g, i)) == _events(
                    reference_convert(g, i)), (name, i)


def test_random_generator_is_deterministic():
    a = make_random_grid(random.Random(7))
    b = make_random_grid(random.Random(7))
    assert a == b


def test_stages_do_not_recheck_the_grids_they_are_given(monkeypatch):
    import sys

    from ribbonfold import model
    from ribbonfold.layout import build_pile, core_diagram

    checked = []
    check = model.check_bgd

    def counting(g):
        checked.append(g)
        return check(g)

    # every module holding check_bgd, so a stage that imports it and
    # checks again is counted too
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ribbonfold":
            for key, value in list(vars(mod).items()):
                if value is check:
                    monkeypatch.setattr(mod, key, counting)
    gn = normalize(KINK)
    assert len(checked) == 1  # the one grid it made
    checked.clear()
    assert normalize(gn) is gn
    s = build_pile(gn)
    bgd_to_pd(gn)
    assert checked == []
    core_diagram(s)
    assert len(checked) == 1  # the grid it reads the core from


def test_normalize_rejects_invalid_input():
    g = build([("MIN", 1, 2), ("MIN", 3, 4), ("MAX", 3, 4), ("MAX", 1, 2)])
    with pytest.raises(InvalidGrid, match="does not end with zero strands"):
        normalize(BinaryGridDiagram(g.rows[:3]))
    rows = list(KINK.rows)
    rows[1] = replace(rows[1], crossed_column=None)
    with pytest.raises(InvalidGrid, match=r"uncrossed row has strands \[6\] inside extent"):
        normalize(BinaryGridDiagram(tuple(rows)))
