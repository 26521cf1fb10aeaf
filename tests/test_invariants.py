import random

import pytest

from ribbonfold import invariants
from ribbonfold.expand import build_bgd
from ribbonfold.invariants import (
    D_POLY,
    TooLarge,
    bgd_to_pd,
    crossing_signs,
    diagram_key,
    jones_fingerprint,
    jones_normalized,
    kauffman_bracket,
    same_map,
    writhe,
)
from ribbonfold.ingest import bundled_table, parse_pd
from ribbonfold.laurent import LaurentPoly
from ribbonfold.layout import build_pile, core_diagram
from ribbonfold.leveling import find_leveling, flip_variants, optimize_flips
from ribbonfold.model import Crossing, PlanarDiagram, RoutingError, validate_diagram
from ribbonfold.rewrite import normalize
from bracket_reference import reference_bracket
from grids import build
from ladder import ladder
from map_reference import reference_same_map
from randbraids import random_braid_family, random_closures
from randgrids import iter_readable_grids, make_random_grid
from readback_reference import reference_bgd_to_pd
from sweep_reference import (
    reference_crossing_signs,
    reference_fingerprint,
    reference_sweep_bracket,
    reference_sweep_plan,
)

TREFOIL = PlanarDiagram(
    (
        Crossing(0, (4, 2, 5, 1)),
        Crossing(1, (2, 6, 3, 5)),
        Crossing(2, (6, 4, 1, 3)),
    )
)
HOPF = PlanarDiagram((Crossing(0, (4, 1, 3, 2)), Crossing(1, (2, 3, 1, 4))))
KINK_POS = PlanarDiagram((Crossing(0, (1, 1, 2, 2)),))
KINK_NEG = PlanarDiagram((Crossing(0, (1, 2, 2, 1)),))
DOUBLE_KINK = PlanarDiagram((Crossing(0, (1, 1, 2, 4)), Crossing(1, (2, 3, 3, 4))))
UNKNOT = PlanarDiagram((), 1)


def _beside(*diagrams, free_loops=0):
    """The split diagram that places the given diagrams side by side."""
    crossings, shift = [], 0
    for d in diagrams:
        crossings += [Crossing(len(crossings) + i, tuple(e + shift for e in x.slots), x.over_pair)
                      for i, x in enumerate(d.crossings)]
        shift += 2 * len(d.crossings)
    return PlanarDiagram(tuple(crossings), free_loops)


# separate groups of crossings: the sweep's frontier empties between them
SPLIT = [
    ("kink+ beside kink-", _beside(KINK_POS, KINK_NEG)),
    ("trefoil beside mirror", _beside(TREFOIL, TREFOIL.mirror())),
    ("trefoil beside hopf + loop", _beside(TREFOIL, HOPF, free_loops=1)),
]

ONE = LaurentPoly.one()


def test_unknot_and_free_loops():
    assert kauffman_bracket(UNKNOT) == ONE
    assert jones_normalized(UNKNOT) == ONE
    assert kauffman_bracket(PlanarDiagram((), 2)) == D_POLY
    with pytest.raises(ValueError):
        kauffman_bracket(PlanarDiagram((), 0))


@pytest.mark.parametrize("slots,ends", [
    ((1, 2, 2, 3), 1),
    ((1, 1, 1, 2, 2, 2, 3, 3), 3),
    ((1, 1, 1, 1), 4),  # pairing the darts in turn would accept this edge
])
def test_bracket_rejects_an_edge_without_two_ends(slots, ends):
    d = PlanarDiagram(tuple(Crossing(k, slots[4 * k : 4 * k + 4]) for k in range(len(slots) // 4)))
    with pytest.raises(ValueError, match=rf"^edge 1 has {ends} ends \(need 2\)$"):
        kauffman_bracket(d)


def test_kink_brackets_and_writhes():
    assert kauffman_bracket(KINK_POS) == LaurentPoly({3: -1})
    assert kauffman_bracket(KINK_NEG) == LaurentPoly({-3: -1})
    assert writhe(KINK_POS) == 1
    assert writhe(KINK_NEG) == -1
    assert jones_normalized(KINK_POS) == ONE
    assert jones_normalized(KINK_NEG) == ONE


def test_double_kink_unknots():
    # two consecutive kinks of either chirality still normalize to 1
    assert validate_diagram(DOUBLE_KINK) == []
    assert jones_normalized(DOUBLE_KINK) == ONE


def test_trefoil_anchor_values():
    assert validate_diagram(TREFOIL) == []
    assert crossing_signs(TREFOIL) == (1, 1, 1)
    assert writhe(TREFOIL) == 3
    assert kauffman_bracket(TREFOIL) == LaurentPoly({-7: 1, -3: -1, 5: -1})
    assert jones_normalized(TREFOIL) == LaurentPoly({-16: -1, -12: 1, -4: 1})
    assert kauffman_bracket(TREFOIL).span() == 12  # 4c for a reduced alternating diagram


def test_trefoil_mirror_detection():
    m = TREFOIL.mirror()
    assert writhe(m) == -3
    assert jones_normalized(m) == jones_normalized(TREFOIL).mirror()
    assert jones_normalized(m) != jones_normalized(TREFOIL)


def test_hopf_anchor_values():
    assert validate_diagram(HOPF) == []
    assert kauffman_bracket(HOPF) == LaurentPoly({4: -1, -4: -1})
    fp = jones_fingerprint(HOPF)
    assert fp == tuple(sorted(["-A^-10 - A^-2"] * 2 + ["-A^2 - A^10"] * 2))
    # the two Hopf chiralities share a fingerprint (values swap in pairs)
    assert jones_fingerprint(HOPF.mirror()) == fp


def test_fingerprint_of_knot_is_constant_pair():
    fp = jones_fingerprint(TREFOIL)
    assert fp == (str(jones_normalized(TREFOIL)),) * 2


def test_orientation_is_deterministic_and_total():
    o = TREFOIL.orientation
    assert o.n_components == 1
    assert set(o.heads) == set(TREFOIL.edge_ids())
    assert HOPF.orientation.n_components == 2


def test_bracket_multiplicative_over_split_loop():
    plus_loop = PlanarDiagram(TREFOIL.crossings, free_loops=1)
    assert kauffman_bracket(plus_loop) == D_POLY * kauffman_bracket(TREFOIL)


def test_bracket_multiplicative_over_split_diagrams():
    # every separate group of crossings but one contributes a factor d
    brackets = [kauffman_bracket(d) for d in (KINK_POS, KINK_NEG, TREFOIL, TREFOIL.mirror(), HOPF)]
    k_pos, k_neg, tref, mirror, hopf = brackets
    expected = [D_POLY * k_pos * k_neg, D_POLY * tref * mirror, D_POLY * D_POLY * tref * hopf]
    assert [kauffman_bracket(d) for _, d in SPLIT] == expected


def _quarter_turned(d, rng):
    """``d`` with each crossing's slots started a random 0-3 places later,
    its diagonal swapped for an odd number of places."""
    turns = [rng.randrange(4) for _ in d.crossings]
    return PlanarDiagram(tuple(
        Crossing(x.id, x.slots[r:] + x.slots[:r], x.over_pair ^ (r & 1))
        for r, x in zip(turns, d.crossings)), d.free_loops)


def test_quarter_turns_keep_the_key_and_the_oracle():
    # a quarter turn respells a crossing, so the key, the bracket and the
    # fingerprint cannot see it
    cases = [(e.name, e.diagram) for e in bundled_table()]
    family = random_braid_family(24, [(2, 3), (2, 4), (2, 6), (3, 6), (3, 9), (4, 8),
                                      (4, 12), (5, 10), (5, 14)])
    cases += [(f"s{s}_c{c}", parse_pd(text)) for s, c, _word, text in family]
    cases += [("hopf", HOPF)]
    assert {d.components for _, d in cases} >= {1, 2, 3}
    rng = random.Random(24)
    for name, d in cases:
        key, bracket, fp = diagram_key(d), kauffman_bracket(d), jones_fingerprint(d)
        turned = [_quarter_turned(d, rng) for _ in range(3)]
        assert any(t != d for t in turned), name
        for t in turned:
            assert diagram_key(t) == key, name
            assert kauffman_bracket(t) == bracket, name
            assert jones_fingerprint(t) == fp, name


def test_key_tells_a_mirror_and_a_reflection_apart():
    def respelled(perm, toggle):
        return PlanarDiagram(tuple(
            Crossing(x.id, tuple(x.slots[p] for p in perm), x.over_pair ^ toggle)
            for x in TREFOIL.crossings))

    key = diagram_key(TREFOIL)
    assert diagram_key(respelled((2, 3, 0, 1), 0)) == key  # a half turn
    assert diagram_key(respelled((1, 2, 3, 0), 1)) == key  # a quarter turn
    assert diagram_key(respelled((0, 1, 2, 3), 1)) != key  # over strand toggled alone
    assert diagram_key(respelled((0, 3, 2, 1), 0)) != key  # reflected, over strand kept
    assert jones_fingerprint(TREFOIL.mirror()) != jones_fingerprint(TREFOIL)


def _map_cases():
    """The corpus and seeded closures, with links among them."""
    cases = [(e.name, e.diagram) for e in bundled_table()]
    cases += random_closures(seed=27, count=12, max_crossings=12)
    assert {d.components for _, d in cases} >= {1, 2, 3}
    return cases


def _relabeled(d, rng):
    """``d`` with its crossings shuffled and renumbered, its edges renamed
    and each crossing quarter-turned a random number of times."""
    names = dict(zip(d.edge_ids(), rng.sample(range(1, 4 * len(d.crossings) + 1),
                                               len(d.edge_ids()))))
    out = []
    for x in rng.sample(d.crossings, len(d.crossings)):
        r = rng.randrange(4)
        slots = tuple(names[e] for e in x.slots[r:] + x.slots[:r])
        out.append(Crossing(len(out) + 7, slots, x.over_pair ^ (r & 1)))
    return PlanarDiagram(tuple(out), d.free_loops)


def _reflected(d, toggle):
    """``d`` with every crossing's rotation reversed: turned over with
    ``toggle`` = 1, reflected in the plane with ``toggle`` = 0."""
    return PlanarDiagram(tuple(
        Crossing(x.id, (x.slots[0], *x.slots[:0:-1]), x.over_pair ^ toggle)
        for x in d.crossings), d.free_loops)


def _crossing_changed(d, i):
    return PlanarDiagram(tuple(
        Crossing(x.id, x.slots, x.over_pair ^ (k == i)) for k, x in enumerate(d.crossings)),
        d.free_loops)


def test_same_map_holds_under_relabeling_and_turning_over():
    rng = random.Random(27)
    for name, d in _map_cases():
        for copy in (_relabeled(d, rng), _quarter_turned(d, rng),
                     _relabeled(_reflected(d, 1), rng), _reflected(d, 1)):
            assert same_map(d, copy) and same_map(copy, d), name
            assert reference_same_map(d, copy), name


def test_same_map_holds_through_the_pipeline():
    # every flip turns the diagram over or around, and the expansion, the
    # normal form and the pile's core each read back as the flip's map
    for name, d in _map_cases():
        for choice, fl in flip_variants(find_leveling(d)):
            g = build_bgd(fl)
            gn = normalize(g)
            for stage, readback in (("flip", fl.diagram), ("expansion", bgd_to_pd(g)),
                                    ("normal form", bgd_to_pd(gn)),
                                    ("core", core_diagram(build_pile(gn)))):
                assert same_map(d, readback), (name, choice, stage)


def test_same_map_only_where_the_fingerprint_agrees():
    # reflections that keep the over strand, mirrors and crossing changes
    # are mostly other maps; where one is the same map, the oracle agrees
    rng = random.Random(28)
    cases = hits = 0
    for name, d in _map_cases():
        fp = jones_fingerprint(d)
        others = [_reflected(d, 0), d.mirror()]
        others += [_crossing_changed(d, i) for i in range(len(d.crossings))]
        for other in others:
            other = _relabeled(other, rng)
            got = same_map(d, other)
            assert got == reference_same_map(d, other), name
            if got:
                assert jones_fingerprint(other) == fp, name
            cases += 1
            hits += got
    assert not same_map(TREFOIL, TREFOIL.mirror())
    assert 0 < hits < cases // 10


def test_same_map_matches_the_least_code_across_diagrams():
    # every pair of distinct cases with one crossing count
    cases = [d for _, d in _map_cases()]
    for i, a in enumerate(cases):
        for b in cases[i + 1:]:
            if len(a.crossings) == len(b.crossings):
                assert same_map(a, b) == reference_same_map(a, b)


def test_same_map_on_free_loops_and_split_diagrams():
    assert same_map(UNKNOT, PlanarDiagram((), 1))
    assert not same_map(UNKNOT, PlanarDiagram((), 2))
    assert not same_map(PlanarDiagram(TREFOIL.crossings, 1), TREFOIL)
    # a split diagram is not one map, so no fingerprint is reused for it
    for name, d in SPLIT:
        assert not same_map(d, d), name
    # this diagram wraps twice round the Hopf link's map, so a map grown
    # from it meets every rotation and over bit of one of two Hopf links
    # side by side, but not injectively
    cover = PlanarDiagram((Crossing(0, (1, 3, 5, 7)), Crossing(1, (8, 5, 3, 1)),
                           Crossing(2, (2, 4, 6, 8)), Crossing(3, (7, 6, 4, 2))))
    assert validate_diagram(cover) == []
    assert not same_map(cover, _beside(HOPF, HOPF))


def test_same_map_turns_away_a_crossing_change_of_a_long_ladder():
    # the writhe profile rejects it before the root search, which on this
    # near-symmetric diagram would grow far from many roots
    d = ladder(2000)
    other = _relabeled(_crossing_changed(d, 999), random.Random(29))
    assert invariants._writhe_profile(d) != invariants._writhe_profile(other)
    assert not same_map(d, other)
    assert same_map(d, _relabeled(d, random.Random(29)))


def test_too_large_cap(monkeypatch):
    monkeypatch.setattr(invariants, "DEFAULT_CAP", 2)
    with pytest.raises(TooLarge) as e:
        kauffman_bracket(TREFOIL)
    assert str(e.value) == "sweep frontier of 4 open edges exceeds cap 2"


def _sweep_disagreements(diagrams):
    return [name for name, d in diagrams if kauffman_bracket(d) != reference_bracket(d)]


def test_sweep_matches_state_sum_on_fixtures():
    fixtures = [
        ("unknot", UNKNOT),
        ("two loops", PlanarDiagram((), 2)),
        ("kink+", KINK_POS),
        ("kink-", KINK_NEG),
        ("double kink", DOUBLE_KINK),
        ("trefoil", TREFOIL),
        ("mirror trefoil", TREFOIL.mirror()),
        ("hopf", HOPF),
        ("trefoil + loop", PlanarDiagram(TREFOIL.crossings, free_loops=1)),
    ]
    assert _sweep_disagreements(fixtures + SPLIT) == []


def test_sweep_matches_state_sum_on_corpus():
    entries = bundled_table()
    assert len(entries) >= 38
    assert _sweep_disagreements((e.name, e.diagram) for e in entries) == []


def test_sweep_matches_state_sum_on_random_grids():
    readbacks = [(seed, bgd_to_pd(g)) for seed, g in iter_readable_grids(30)]
    assert _sweep_disagreements(readbacks) == []


def test_sweep_matches_state_sum_on_random_closures():
    closures = random_closures(seed=12, count=20, max_crossings=12)
    assert len(closures) == 20
    assert _sweep_disagreements(closures) == []


def test_d_power_expands_powers_of_d():
    for k in range(8):
        assert LaurentPoly(invariants._d_power(k)) == D_POLY ** k


def test_normalize_is_the_writhe_monomial_times_the_bracket():
    bracket = kauffman_bracket(TREFOIL)
    for w in range(-7, 8):
        expected = LaurentPoly.monomial(-1 if w % 2 else 1, -3 * w) * bracket
        assert invariants._normalize(bracket, w) == expected


def _wide_closures():
    """Seeded 8- and 10-strand closures, c = 40-80, 2-4 components, whose
    sweep frontiers reach 8, 14, 8 and 10 open edges."""
    family = random_braid_family(7, [(8, 40), (8, 60), (10, 60), (10, 80)])
    return [(f"s{s}_c{c} wide", parse_pd(text)) for s, c, _word, text in family]


def _sweep_cases():
    """(name, diagram): the corpus, seeded closures up to c = 40, the
    ladder up to c = 80, the wide closures and the split diagrams."""
    cases = [(e.name, e.diagram) for e in bundled_table()]
    cases += random_closures(seed=40, count=24, max_crossings=40, min_crossings=13)
    cases += [(f"ladder c={c}", ladder(c)) for c in (8, 20, 40, 80)]
    return cases + _wide_closures() + SPLIT


def test_sweep_matches_the_loop_count_sweep():
    # position-keyed pairings that multiply by d as each loop closes give
    # the brackets that dart-keyed pairings with closed-loop counts did
    cases = _sweep_cases() + [("trefoil + loop", PlanarDiagram(TREFOIL.crossings, 1)),
                              ("two loops", PlanarDiagram((), 2))]
    bad = [name for name, d in cases if kauffman_bracket(d) != reference_sweep_bracket(d)]
    assert bad == []


def test_fingerprint_matches_the_per_orientation_reference():
    # signs from one entry table and one normalization per distinct writhe
    # give the sorted values of one normalization per orientation choice
    cases = [(e.name, e.diagram) for e in bundled_table()]
    cases += [(f"ladder c={c}", ladder(c)) for c in range(6, 25, 2)]
    cases += _wide_closures() + SPLIT
    cases += [("hopf", HOPF), ("kink+", KINK_POS), ("two loops", PlanarDiagram((), 2))]
    assert {d.orientation.n_components for _, d in cases if d.crossings} == {1, 2, 3, 4}
    for name, d in cases:
        if d.crossings:
            assert crossing_signs(d) == reference_crossing_signs(d, d.orientation), name
        assert jones_fingerprint(d) == reference_fingerprint(d), name


def test_sweep_plan_matches_the_rescanning_plan():
    widest = 0
    for name, d in _sweep_cases():
        mate = d.mates
        n = len(d.crossings)
        plan = invariants._sweep_plan(n, mate)
        assert plan == reference_sweep_plan(n, mate), name
        widest = max(widest, *(len(f) for _, f in plan))
    assert widest >= 12  # a wide closure renumbers frontier positions past 8


def test_sweep_plan_raises_too_large_like_the_rescanning_plan(monkeypatch):
    d = ladder(20)
    mate = d.mates
    monkeypatch.setattr(invariants, "DEFAULT_CAP", 3)
    messages = []
    for plan in (invariants._sweep_plan, reference_sweep_plan):
        with pytest.raises(TooLarge) as e:
            plan(20, mate)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


def test_bgd_to_pd_unknot():
    g = build([("MIN", 1, 2), ("MAX", 1, 2)])
    d = bgd_to_pd(g)
    assert d.crossings == ()
    assert d.free_loops == 1
    assert jones_normalized(d) == ONE


def test_bgd_to_pd_kink():
    g = build(
        [("MIN", 2, 4), ("MIN", 1, 3, 2), ("MAX", 3, 4), ("MAX", 1, 2)]
    )
    d = bgd_to_pd(g)
    assert d.crossing_number == 1
    assert d.free_loops == 0
    assert validate_diagram(d) == []
    assert jones_normalized(d) == ONE


def test_bgd_to_pd_clasp_is_hopf():
    g = build(
        [("MIN", 2, 4), ("MIN", 1, 3, 2), ("MAX", 2, 4, 3), ("MAX", 1, 3)]
    )
    d = bgd_to_pd(g)
    assert d.crossing_number == 2
    assert d.components == 2
    assert jones_fingerprint(d) == jones_fingerprint(HOPF)


def test_bgd_to_pd_rejects_broken_grid():
    g = build([("MIN", 1, 2), ("MAX", 1, 2)])
    from ribbonfold.model import BinaryGridDiagram, InvalidGrid

    with pytest.raises(InvalidGrid, match="zero strands"):
        bgd_to_pd(BinaryGridDiagram((g.rows[0],)))


def _readback(read, g):
    """``read(g)``, or the message of the RoutingError it raises."""
    try:
        return read(g)
    except RoutingError as e:
        return f"RoutingError: {e}"


def _readback_cases():
    """(name, grid): the expanded and normal grids of the corpus, the
    ladder and random closures, the rewrite trace grids that
    ``verify --per-step`` reads back for the ladder at c = 8-20 and for
    five corpus knots, the stress grids and free loops."""
    table = bundled_table()
    traced = [(f"ladder c={c}", ladder(c)) for c in range(8, 21, 2)]
    traced += [(e.name, e.diagram) for e in table if e.name in
               ("3_1", "5_2", "6_2", "7_4", "8_19")]
    for name, d in traced:
        trace = []
        normalize(build_bgd(optimize_flips(find_leveling(d))[0]), trace=trace)
        for i, (_msg, gi) in enumerate(trace):
            yield f"{name} step {i}", gi
    diagrams = [(e.name, e.diagram) for e in table]
    diagrams += [(f"ladder c={c}", ladder(c)) for c in range(8, 41, 2)]
    diagrams += random_closures(seed=12, count=20, max_crossings=12)
    diagrams += random_closures(seed=1320, count=12, max_crossings=20,
                                min_crossings=13)
    for name, d in diagrams:
        g = build_bgd(optimize_flips(find_leveling(d))[0])
        yield name, g
        yield f"{name} normal", normalize(g)
    for seed in range(200):
        yield f"seed {seed}", make_random_grid(
            random.Random(seed), max_crossings=30, body_ops=40)
    yield "two free loops", build([("MIN", 1, 4), ("MIN", 2, 3),
                                   ("MAX", 2, 3), ("MAX", 1, 4)])
    yield "kink under a free loop", build([("MIN", 1, 3), ("MIN", 2, 4, 3),
                                           ("MAX", 1, 2), ("MAX", 3, 4),
                                           ("MIN", 1, 2), ("MAX", 1, 2)])


def test_readback_matches_the_port_reference():
    # one node per open column reads back what one port per row and
    # column did, raising the same RoutingError where that one raised
    failures = 0
    for name, g in _readback_cases():
        got = _readback(bgd_to_pd, g)
        assert got == _readback(reference_bgd_to_pd, g), name
        failures += isinstance(got, str)
    assert failures == 191  # all but 10 of the stress grids, and the split kink
