"""Leveling search, portion classification, flips."""

import pytest

from ribbonfold.ingest import bundled_table, parse_pd
from ribbonfold.invariants import jones_fingerprint, jones_normalized
from ribbonfold.leveling import (
    FlipChoice,
    InvalidDiagram,
    NoLevelingFound,
    PreconditionViolated,
    apply_flip,
    best_flip,
    check_leveling,
    classify_portion,
    find_leveling,
    flip_variants,
    optimize_flips,
)
from ribbonfold.leveling import _flip_diagram, _search
from ribbonfold.model import PlanarDiagram
from ladder import ladder
from leveling_reference import reference_check_leveling, reference_search
from randbraids import STUCK_9, random_braid_family, random_closures

TREFOIL_TXT = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF_TXT = "X(4,1,3,2) X(2,3,1,4)"
SUM7_TXT = (
    "X(4,2,5,13) X(2,6,3,5) X(6,4,1,3) "
    "X(10,8,11,14) X(8,12,9,11) X(12,10,7,9) X(1,13,7,14)"
)


@pytest.fixture(scope="module")
def table():
    return {e.name: e for e in bundled_table()}


def counts(ld):
    return ld.portion_counts()


def t1_minus(ld):
    return sum(1 for p in ld.portions if p.index == 1 and p.sign < 0)


def test_hopf_leveling():
    ld = find_leveling(parse_pd(HOPF_TXT))
    assert check_leveling(ld) == []
    assert [p.name for p in ld.portions] == ["T0+", "T4+"]


def test_trefoil_leveling():
    ld = find_leveling(parse_pd(TREFOIL_TXT))
    assert check_leveling(ld) == []
    assert [p.name for p in ld.portions] == ["T0+", "T2+", "T4+"]
    assert ld.levels[0] == () and ld.levels[-1] == ()


def test_portion_sign_rules():
    # cup strand over the through strand: positive T1
    assert classify_portion(1, 0, 1).name == "T1+"
    assert classify_portion(1, 1, 1).name == "T1-"
    assert classify_portion(3, 1, 1).name == "T3+"
    assert classify_portion(3, 0, 1).name == "T3-"
    assert classify_portion(2, 3, 0).name == "T2+"
    assert classify_portion(0, 2, 1).name == "T0+"
    assert classify_portion(4, 1, 0).name == "T4+"


def test_preconditions():
    with pytest.raises(PreconditionViolated):
        find_leveling(parse_pd("", allow_unknot=True))
    with pytest.raises(PreconditionViolated, match=r"^reducible \(nugatory\) crossing 0: "):
        find_leveling(parse_pd("X(1,1,2,2)"))       # reducible kink
    with pytest.raises(PreconditionViolated):
        find_leveling(parse_pd(SUM7_TXT))           # cut crossing
    split = PlanarDiagram(parse_pd(TREFOIL_TXT).crossings, free_loops=1)
    with pytest.raises(PreconditionViolated, match="^split diagram: 1 free loop") as e:
        find_leveling(split)
    assert not isinstance(e.value, InvalidDiagram)
    # not planar: a validation failure, still a PreconditionViolated
    with pytest.raises(InvalidDiagram, match="^NonPlanarRotation: rotation system has genus 1"):
        find_leveling(parse_pd("X(1,2,3,4) X(5,6,1,2) X(3,4,5,6)"))


def test_whole_corpus_levels(table):
    for name, e in table.items():
        ld = find_leveling(e.diagram)
        assert check_leveling(ld) == [], name
        names = [p.name for p in ld.portions]
        assert names[0] == "T0+" and names[-1] == "T4+"
        assert names.count("T0+") == 1 and names.count("T4+") == 1
        n1 = sum(1 for p in ld.portions if p.index == 1)
        n3 = sum(1 for p in ld.portions if p.index == 3)
        assert n1 == n3, name


def test_flips_preserve_link_type(table):
    for name in ("3_1", "4_1", "6_2", "8_19", "L2a1", "L4a1"):
        d = table[name].diagram
        ld = find_leveling(d)
        for fx, fy in ((False, True), (True, False), (True, True)):
            flipped = apply_flip(ld, FlipChoice(fx, fy))
            assert check_leveling(flipped) == [], (name, fx, fy)
            if name.startswith("L"):
                assert jones_fingerprint(flipped.diagram) == jones_fingerprint(d)
            else:
                assert jones_normalized(flipped.diagram) == jones_normalized(d)


def test_every_flip_replays_to_a_valid_leveling(table):
    diagrams = [(name, e.diagram) for name, e in table.items()]
    diagrams += random_closures(seed=12, count=20, max_crossings=12)
    diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                min_crossings=13)
    for name, d in diagrams:
        ld = find_leveling(d)
        for fx in (False, True):
            for fy in (False, True):
                flipped = apply_flip(ld, FlipChoice(fx, fy))
                assert check_leveling(flipped) == [], (name, fx, fy)
                want = ld.order[::-1] if fx else ld.order
                assert flipped.order == want, (name, fx, fy)


def test_flip_multiset_law(table):
    for name in ("5_2", "6_1", "7_3", "8_5", "8_20"):
        ld = find_leveling(table[name].diagram)
        c = counts(ld)
        a, b = c["T1+"], c["T1-"]
        p, q = c["T3+"], c["T3-"]
        cy = counts(apply_flip(ld, FlipChoice(flip_y=True)))
        assert (cy["T1+"], cy["T1-"], cy["T3+"], cy["T3-"]) == (b, a, q, p), name
        cx = counts(apply_flip(ld, FlipChoice(flip_x=True)))
        assert (cx["T1+"], cx["T1-"], cx["T3+"], cx["T3-"]) == (q, p, b, a), name
        cxy = counts(apply_flip(ld, FlipChoice(True, True)))
        assert (cxy["T1+"], cxy["T1-"], cxy["T3+"], cxy["T3-"]) == (p, q, a, b), name


def test_flip_identity():
    ld = find_leveling(parse_pd(TREFOIL_TXT))
    assert apply_flip(ld, FlipChoice()) is ld


def test_optimize_flips(table):
    for name, e in table.items():
        ld = find_leveling(e.diagram)
        best, choice = optimize_flips(ld)
        assert check_leveling(best) == [], name
        options = [
            t1_minus(apply_flip(ld, FlipChoice(fx, fy)))
            for fx, fy in ((False, False), (False, True), (True, False), (True, True))
        ]
        assert t1_minus(best) == min(options), name
        assert t1_minus(best) <= (e.crossings - 2) // 4, name


def test_flip_variants_are_the_four_flips_in_order(table):
    order = [FlipChoice(False, False), FlipChoice(False, True),
             FlipChoice(True, False), FlipChoice(True, True)]
    for name, e in table.items():
        ld = find_leveling(e.diagram)
        variants = flip_variants(ld)
        assert [choice for choice, _ in variants] == order, name
        assert variants[0][1] is ld, name
        assert [fl for _, fl in variants] == [apply_flip(ld, c) for c in order], name
        # optimize_flips takes the first variant with the fewest T1-
        fewest = min(t1_minus(fl) for _, fl in variants)
        first = next(v for v in variants if t1_minus(v[1]) == fewest)
        assert optimize_flips(ld) == (first[1], first[0]), name


def test_check_leveling_catches_tampering():
    ld = find_leveling(parse_pd(TREFOIL_TXT))
    arcs = ((ld.arc_starts[0] + 1) % 4,) + ld.arc_starts[1:]
    bad = type(ld)(ld.diagram, ld.order, arcs, ld.portions, ld.levels)
    assert check_leveling(bad) != []
    bad2 = type(ld)(ld.diagram, ld.order[::-1], ld.arc_starts,
                    ld.portions, ld.levels)
    assert check_leveling(bad2) != []
    # the mask replay reports what the rebuilding replay reports, message for message
    portions = ld.portions[:1] + ld.portions[2:] + ld.portions[1:2]
    levels = ld.levels[:1] + ld.levels[2:] + ld.levels[1:2]
    arcs1 = ld.arc_starts[:1] + ((ld.arc_starts[1] + 1) % 4,) + ld.arc_starts[2:]
    arcs4 = (ld.arc_starts[0] + 4,) + ld.arc_starts[1:]
    rung = find_leveling(ladder(8))
    apart = (rung.order[0], rung.order[4]) + rung.order[2:4] + rung.order[1:2] + rung.order[5:]
    cases = [ld, bad, bad2,
             type(ld)(ld.diagram, ld.order, ld.arc_starts, portions, ld.levels),
             type(ld)(ld.diagram, ld.order, ld.arc_starts, ld.portions, levels),
             type(ld)(ld.diagram, ld.order, arcs1, ld.portions, ld.levels),
             type(ld)(ld.diagram, ld.order, arcs4, ld.portions, ld.levels),
             type(rung)(rung.diagram, apart, rung.arc_starts, rung.portions, rung.levels)]
    for tampered in cases:
        assert check_leveling(tampered) == reference_check_leveling(tampered)
    assert check_leveling(cases[-1])[0] == "step 1: 0 strands below"


def _reference_families(table):
    """The diagrams tier-1 already levels, by family."""
    diagrams = [(name, e.diagram) for name, e in table.items()]
    diagrams += [(f"ladder_c{c}", ladder(c)) for c in (8, 20, 40, 80, 160)]
    diagrams += random_closures(seed=12, count=20, max_crossings=12)
    diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                min_crossings=13)
    diagrams += random_closures(seed=40, count=24, max_crossings=40,
                                min_crossings=13)
    # the random_braids benchmark closures (RANDOM_SLOTS in bench/run.py)
    slots = tuple((3 + c % 3, c) for c in range(10, 23))
    diagrams.append(("stuck_c09", parse_pd(STUCK_9)))
    diagrams += [(f"rand{k}", parse_pd(text))
                 for k, (_s, _c, _w, text) in enumerate(random_braid_family(0, slots))]
    return diagrams


def test_search_matches_the_rebuilding_reference(table):
    # the mask search finds the same first leveling as rebuilding the down
    # edges at every step, and each flip replayed from its masks is what
    # the rebuilding search finds over the flipped order
    for name, d in _reference_families(table):
        ld = _search(d)
        assert ld is not None and ld == reference_search(d), name
        assert check_leveling(ld) == reference_check_leveling(ld) == [], name
        for fx in (False, True):
            for fy in (False, True):
                flipped = _flip_diagram(d, fx, fy)
                order = ld.order[::-1] if fx else ld.order
                got = apply_flip(ld, FlipChoice(fx, fy))
                assert got == reference_search(flipped, fixed=order), (name, fx, fy)
        # the flip read off the counts is the one the built variants give
        assert optimize_flips(ld) == best_flip(flip_variants(ld)), name
