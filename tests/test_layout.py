"""Pile construction, fold pricing, and the SVG schematic."""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from ribbonfold import layout
from ribbonfold.bound import block_counts, rib_upper_bound, run_pipeline
from ribbonfold.ingest import bundled_table, parse_pd
from ribbonfold.invariants import jones_fingerprint
from ribbonfold.layout import (
    CapArc,
    FoldSchedule,
    LayoutConfig,
    LayoutOverlap,
    NotNormalForm,
    PaperPlane,
    SCALE,
    _first_meeting_pair,
    _wing_gaps,
    build_pile,
    check_fold_lines,
    core_diagram,
    default_epsilon,
    emit_svg,
    ribbon_length,
    schedule_json,
)
from ribbonfold.model import InvalidGrid

from foldlines_reference import reference_first_meeting_pair, reference_fold_segments
from grids import NESTED, build
from ladder import ladder
from piles import FAMILIES, piles
from test_svg_digests import RULES

TREFOIL = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF = "X(4,1,3,2) X(2,3,1,4)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"

EMPTY = FoldSchedule((), (), ())


def _schedule(txt):
    return build_pile(run_pipeline(parse_pd(txt)).normal)


def test_pile_counts_trefoil():
    s = _schedule(TREFOIL)
    assert len(s.planes) == 4
    assert len(s.connection_order) == 8
    assert len(s.caps) == 4


def test_pile_counts_hopf():
    s = _schedule(HOPF)
    assert len(s.planes) == 3
    assert len(s.connection_order) == 6
    assert len(s.caps) == 3


def test_pile_trivial_loop():
    s = build_pile(build([("MIN", 0, 1), ("MAX", 0, 1)]))
    assert len(s.planes) == 1
    assert len(s.caps) == 1
    assert s.planes[0].crossed_wing is None


def test_build_pile_rejects_non_normal():
    g = run_pipeline(parse_pd(TREFOIL)).grid
    with pytest.raises(NotNormalForm):
        build_pile(g)


def test_build_pile_names_the_blocks_to_convert():
    # a sideways row (B2) and a crossed cap (B3), both valid grid rows
    g = build([("MIN", 0, 3), ("MIN", 1, 2), ("TRANS", 2, 4, 3),
               ("MAX", 0, 3, 1), ("MAX", 1, 4)])
    with pytest.raises(NotNormalForm) as e:
        build_pile(g)
    assert str(e.value) == "grid is not in normal form (B2, B3); rewrite first"
    g = build([("MIN", 0, 1), ("MAX", 0, 1), ("MIN", 0, 1), ("MAX", 0, 1)])
    with pytest.raises(NotNormalForm) as e:
        build_pile(g)
    assert str(e.value) == (
        "grid is not in normal form (cup rows above cap rows); rewrite first")


def test_bad_bracketing_is_an_invalid_grid():
    # a plane straddling an earlier wing must cross it: the grid check
    # on the cup rows is the pile invariant, so no such pile is built
    rows = [("MIN", 0, 10), ("MIN", 2, 12), ("MAX", 0, 2), ("MAX", 10, 12)]
    with pytest.raises(InvalidGrid) as e:
        build(rows)
    assert str(e.value) == "row 1: uncrossed row has strands [10] inside extent"
    rows[1] = ("MIN", 2, 12, 10)
    s = build_pile(build(rows))
    assert s.connection_order == (0, 2, 10, 12)
    assert s.planes[1] == PaperPlane(1, (2, 12), crossed_wing=10)


def test_ribbon_length_values():
    tref = _schedule(TREFOIL)
    assert ribbon_length(tref, Fraction(1, 10**6)) == 8 + Fraction(20, 10**6)
    hopf = _schedule(HOPF)
    assert ribbon_length(hopf, Fraction(1, 100)) == Fraction(123, 20)
    assert ribbon_length(EMPTY, Fraction(1, 100)) == 0
    with pytest.raises(ValueError):
        ribbon_length(tref, 0)


def test_ribbon_length_converges_to_certified():
    for txt in (TREFOIL, HOPF, FIG8):
        res = run_pipeline(parse_pd(txt))
        certified = rib_upper_bound(block_counts(res.normal))
        s = build_pile(res.normal)
        got = ribbon_length(s, Fraction(1, 10**6))
        assert abs(got - certified) < Fraction(1, 1000)


def test_fold_lines_disjoint_at_default():
    for entry in list(bundled_table())[:8]:
        s = build_pile(run_pipeline(entry.diagram).normal)
        segs = check_fold_lines(s)
        assert len(segs) == 3 * len(s.planes) + 2 * len(s.caps)


def test_overlap_at_ten_widths():
    s = _schedule(TREFOIL)
    with pytest.raises(LayoutOverlap):
        emit_svg(s, LayoutConfig(width=1, epsilon=10))
    tiny = build_pile(build([("MIN", 0, 1), ("MAX", 0, 1)]))
    with pytest.raises(LayoutOverlap):
        check_fold_lines(tiny, LayoutConfig(width=Fraction(1, 2), epsilon=5))


@pytest.mark.parametrize("family", FAMILIES)
def test_bucketed_check_matches_all_pairs_on_piles(family):
    assert len(piles(family)) == {"corpus": 38, "ladder": 5, "randbraids": 32}[family]
    for name, s in piles(family):
        budget = Fraction(1, max(_wing_gaps(s)) + 2)
        for eps in (default_epsilon(s), budget - Fraction(1, 10**9)):
            cfg = LayoutConfig(epsilon=eps)
            geo = layout._geometry(s, cfg)
            segs = layout._fold_segments(s, geo)
            # the lattice ints over the unit are the rational creases
            want = reference_fold_segments(s, cfg)
            assert _on_lattice(want, geo.unit) == segs, name
            assert check_fold_lines(s, cfg) == want, name
            assert reference_first_meeting_pair(segs) is None, name
        # at the budget itself the fold-back guard fires first, in both
        cfg = LayoutConfig(epsilon=budget)
        with pytest.raises(LayoutOverlap) as got:
            check_fold_lines(s, cfg)
        with pytest.raises(LayoutOverlap) as want:
            reference_fold_segments(s, cfg)
        assert str(got.value) == str(want.value), name


def test_layout_rejects_non_positive_width_and_epsilon():
    s = _schedule(TREFOIL)
    bad = [
        (0, Fraction(1, 100), "width"),
        (-1, Fraction(-1, 100), "width"),  # eps / w alone is positive
        (-0.5, 0.01, "width"),
        (1, 0, "epsilon"),
        (Fraction(1, 2), -0.01, "epsilon"),
    ]
    for width, eps, what in bad:
        cfg = LayoutConfig(width=width, epsilon=eps)
        for draw in (emit_svg, check_fold_lines):
            with pytest.raises(ValueError, match=f"^{what} must be positive$"):
                draw(s, cfg)
    for width in (0, -1, Fraction(-1, 2), -0.5):
        for sched in (s, EMPTY):
            with pytest.raises(ValueError, match="^width must be positive$"):
                default_epsilon(sched, width)


def _seg(xa, ya, xb, yb):
    return ((Fraction(xa), Fraction(ya)), (Fraction(xb), Fraction(yb)))


H = Fraction(1, 2)
TINY = Fraction(1, 10**9)
UNIT = 2 * 10**9  # the lattice unit at epsilon 1/10^9: lcm(20, 2 * 10^9)


def _on_lattice(segs, unit):
    """Segments scaled by ``unit``, each coordinate checked to be an int."""
    scaled = [tuple((x * unit, y * unit) for x, y in seg) for seg in segs]
    assert all(v.denominator == 1 for seg in scaled for pt in seg for v in pt)
    return [tuple((int(x), int(y)) for x, y in seg) for seg in scaled]


# (segments, the lowest pair that meets)
MEETING_CASES = [
    ([_seg(0, 0, 1, 1), _seg(0, 1, 1, 0)], (0, 1)),                 # crossing diagonals
    ([_seg(0, 0, 1, 1), _seg(1, 1, 2, 0)], (0, 1)),                 # shared endpoint
    ([_seg(0, 0, 2, 2), _seg(1, 1, 3, 3)], (0, 1)),                 # collinear overlap
    ([_seg(0, 0, 2, 0), _seg(1, 0, 1, 1)], (0, 1)),                 # T-touch
    ([_seg(1, 1, 2, 1), _seg(2, 0, 2, 3)], (0, 1)),                 # T-touch on x = 2
    ([_seg(-3, -1, -2, 0), _seg(-2, 0, -1, -1)], (0, 1)),           # endpoint on x = -2
    ([_seg(0, -5, 1, -4), _seg(1, -4, 2, -5)], (0, 1)),             # endpoint on y = -4
    ([_seg(-2, -2, -1, -1), _seg(-4, 0, -2, -2)], (0, 1)),          # corner of four cells
    ([_seg(0, 0, 10, 0), _seg(9, -1, 9, 1)], (0, 1)),               # far from both starts
    ([_seg(-5, -5, 5, 5), _seg(4, -4, -4, 4)], (0, 1)),             # long diagonals
    ([_seg(5, 5, 6, 6), _seg(0, 0, 1, 1), _seg(1, 0, 0, 1)], (1, 2)),
    # (0, 2) meets in segment 0's first cell, the lower (0, 1) in its second
    ([_seg(0, 0, 3, 0), _seg(2 + H, -H, 2 + H, H), _seg(H, -H, H, H)], (0, 1)),
    # two meeting pairs in cells far apart
    ([_seg(0, 0, 1, 1), _seg(4, 4, 5, 5), _seg(4, 5, 5, 4), _seg(1, 0, 0, 1)], (0, 3)),
    # collinear (1, 2) shares three cells and is found in each; (1, 3) and
    # (2, 3) meet too, and the lowest pair wins with no de-duplication
    ([_seg(20, 20, 21, 21), _seg(0, 0, 5, 0), _seg(1, 0, 6, 0), _seg(5, -1, 5, 1)],
     (1, 2)),
]

DISJOINT_CASES = [
    [_seg(0, 0, 1, 1), _seg(0, Fraction(1, 1000), 1, 1 + Fraction(1, 1000))],
    [_seg(0, 0, 2, 0), _seg(2 + Fraction(1, 10**9), -1, 2 + Fraction(1, 10**9), 1)],
    [_seg(-2, 0, -1, 1), _seg(-1 + Fraction(1, 10**9), 1, 0, 0)],
    [_seg(0, 0, 1, 1), _seg(2, 2, 3, 3), _seg(1, 2, 2, 1 + Fraction(1, 10**9))],
    [],
    [_seg(0, 0, 1, 1)],
]


def _random_segments(rng, n):
    # endpoints on the half-integer lattice in [-6, 6]^2, at most one
    # unit apart in each coordinate; zero-length segments included
    segs = []
    for _ in range(n):
        x, y = (Fraction(rng.randint(-12, 12), 2) for _ in range(2))
        dx, dy = (Fraction(rng.randint(-2, 2), 2) for _ in range(2))
        segs.append(((x, y), (x + dx, y + dy)))
    return segs


def _check_pair(monkeypatch, segs, want):
    """Both searches, in width units (pitch 2) and on the lattice of UNIT."""
    lattice = _on_lattice(segs, UNIT)
    assert reference_first_meeting_pair(segs) == want, segs
    assert reference_first_meeting_pair(lattice) == want, segs
    assert _first_meeting_pair(segs, 2) == want, segs
    assert _first_meeting_pair(lattice, 2 * UNIT) == want, segs
    # check_fold_lines reports the pair, or returns the segments in width
    # units, and emit_svg raises the same message or draws
    cfg = LayoutConfig(epsilon=TINY)
    assert layout._geometry(EMPTY, cfg).unit == UNIT
    monkeypatch.setattr(layout, "_fold_segments", lambda s, geo: list(lattice))
    if want is None:
        assert check_fold_lines(EMPTY, cfg) == list(segs)
        assert emit_svg(EMPTY, cfg).startswith("<svg")
    else:
        for draw in (check_fold_lines, emit_svg):
            with pytest.raises(LayoutOverlap) as e:
                draw(EMPTY, cfg)
            assert str(e.value) == (
                f"fold lines {want[0]} and {want[1]} intersect at epsilon {TINY}")


def test_first_meeting_pair_on_hand_made_segments(monkeypatch):
    cases = MEETING_CASES + [(segs, None) for segs in DISJOINT_CASES]
    for segs, want in cases:
        _check_pair(monkeypatch, segs, want)


def test_first_meeting_pair_on_random_segments(monkeypatch):
    rng = random.Random(6)
    outcomes = set()
    for _ in range(300):
        segs = _random_segments(rng, rng.randint(2, 12))
        want = reference_first_meeting_pair(segs)
        _check_pair(monkeypatch, segs, want)
        outcomes.add(want if want is None else want != (0, 1))
    # the draws reach disjoint lists, (0, 1) and later pairs
    assert outcomes == {None, False, True}


def test_fold_line_check_scales_linearly(monkeypatch):
    s = build_pile(run_pipeline(ladder(80)).normal)
    calls = []
    meet = layout._segments_meet

    def counted(s1, s2):
        calls.append(1)
        return meet(s1, s2)

    monkeypatch.setattr(layout, "_segments_meet", counted)
    segs = check_fold_lines(s, LayoutConfig(epsilon=default_epsilon(s)))
    assert len(segs) == 405
    # all pairs would be 405 * 404 / 2 = 81810 calls
    assert 0 < len(calls) < len(segs)


def test_emit_svg_deterministic():
    s = _schedule(TREFOIL)
    a = emit_svg(s)
    b = emit_svg(s)
    assert a == b
    assert a.startswith("<svg")
    assert a.count('id="plane-') == 4
    assert a.count('id="cap-') == 4
    ET.fromstring(a)


def test_emit_svg_empty():
    doc = emit_svg(EMPTY)
    assert doc.startswith("<svg")
    assert "plane-" not in doc
    ET.fromstring(doc)


def _fold_lines(doc):
    return [
        tuple(float(el.get(k)) for k in ("x1", "y1", "x2", "y2"))
        for el in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}line")
        if el.get("class") == "fold"
    ]


def test_svg_draws_checked_fold_lines():
    # the page maps (x, y) to ((x - x0) * SCALE, (y1 - y) * SCALE)
    for name, s in (pile for family in FAMILIES for pile in piles(family)):
        for eps in (default_epsilon(s), TINY):
            cfg = LayoutConfig(epsilon=eps)
            segs = check_fold_lines(s, cfg)
            drawn = _fold_lines(emit_svg(s, cfg))
            assert len(drawn) == len(segs), name
            (ax, ay), _ = segs[0]
            x0 = float(ax) - drawn[0][0] / SCALE
            y1 = float(ay) + drawn[0][1] / SCALE
            for ((xa, ya), (xb, yb)), line in zip(segs, drawn):
                want = ((float(xa) - x0) * SCALE, (y1 - float(ya)) * SCALE,
                        (float(xb) - x0) * SCALE, (y1 - float(yb)) * SCALE)
                assert line == pytest.approx(want, abs=0.011), (name, eps)
    assert _fold_lines(emit_svg(EMPTY)) == []


def _outcome(draw, s, cfg):
    try:
        draw(s, cfg)
    except LayoutOverlap as e:
        return str(e)
    return None


def test_emit_svg_raises_exactly_when_check_fold_lines_does():
    # the SVG is drawn from the pass the check makes, so over every pile
    # and rule of the pinned SVG sweep the two raise the same overlaps,
    # the fold-back budget's among them
    kinds = set()
    for family in FAMILIES:
        for rule, config in RULES.items():
            for name, s in piles(family):
                width, eps = config(s)
                cfg = LayoutConfig(width=width, epsilon=eps)
                got = _outcome(emit_svg, s, cfg)
                assert got == _outcome(check_fold_lines, s, cfg), (family, rule, name)
                kinds.add(got if got is None else "fold-back crease" in got)
    # the sweep both draws and hits the budget
    assert kinds == {None, True}


def test_default_epsilon_below_cap():
    # half the outer plane's fold-back budget of 1/63
    s = build_pile(build(NESTED))
    eps = default_epsilon(s)
    assert eps == Fraction(1, 126)
    ET.fromstring(emit_svg(s, LayoutConfig(epsilon=eps)))
    with pytest.raises(LayoutOverlap):
        emit_svg(s, LayoutConfig(epsilon=Fraction(1, 63)))
    assert default_epsilon(_schedule(TREFOIL)) == Fraction(1, 100)
    assert default_epsilon(EMPTY) == Fraction(1, 100)


def test_core_diagram_preserves_jones():
    for txt in (TREFOIL, HOPF, FIG8):
        d = parse_pd(txt)
        s = build_pile(run_pipeline(d).normal)
        assert jones_fingerprint(core_diagram(s)) == jones_fingerprint(d)


def test_schedule_json_shape():
    s = _schedule(HOPF)
    data = schedule_json(s, epsilon=0.01, width=1.0)
    assert sorted(data) == ["caps", "epsilon", "planes", "width"]
    assert len(data["planes"]) == 3
    assert len(data["caps"]) == 3
    for p in data["planes"]:
        Fraction(p["insertion"][0])
        Fraction(p["insertion"][1])
    crossed = [p for p in data["planes"] if p["crossed_wing"] is not None]
    assert len(crossed) == 2  # hopf normal form keeps two crossings
