"""End-to-end acceptance checks, one test per advertised guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line
pass/fail verdict per guarantee.
"""

import math
import time
from fractions import Fraction

import pytest

from ribbonfold.bound import (
    block_counts,
    comparison_bounds,
    compute_bound,
    rib_upper_bound,
    run_pipeline,
    theoretical_bound,
)
from ribbonfold.expand import build_bgd
from ribbonfold.ingest import bundled_table, parse_pd
from ribbonfold.invariants import bgd_to_pd, jones_fingerprint
from ribbonfold.layout import (
    build_pile,
    check_fold_lines,
    core_diagram,
    emit_svg,
    ribbon_length,
)
from ribbonfold.leveling import (
    FlipChoice,
    apply_flip,
    check_leveling,
    find_leveling,
    optimize_flips,
)
from ribbonfold.model import check_bgd
from ribbonfold.rewrite import is_normal_form, normalize

from graph_reference import edge_ends
from ladder import ladder
from randbraids import random_closures
from randgrids import iter_readable_grids

TREFOIL = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF = "X(4,1,3,2) X(2,3,1,4)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


@pytest.fixture(scope="module")
def corpus():
    entries = bundled_table()
    assert len(entries) >= 38
    return entries


def _counted(m):
    return m["B1"] + m["B2"] + m["B3"] + m["B1r"] + m["B2r"]


def _t1_minus(ld):
    return sum(1 for p in ld.portions if p.index == 1 and p.sign < 0)


def _connected(adj, verts):
    verts = set(verts)
    if not verts:
        return True
    seen = {next(iter(verts))}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def test_certified_bound_chain_on_full_corpus(corpus):
    # certified = 2(b1+b2+b3+b1r) <= 2(c+1+floor((c-2)/4)) <= 5c/2+1,
    # exactly, for every bundled diagram, within the time budget
    total = 0.0
    for entry in corpus:
        t0 = time.monotonic()
        report = compute_bound(entry.diagram, name=entry.name)
        dt = time.monotonic() - t0
        total += dt
        assert dt < 5.0, f"{entry.name}: {dt:.2f}s"
        bc = report.block_counts
        formula = 2 * (bc["b1"] + bc["b2"] + bc["b3"] + bc["b1_ring"])
        assert report.certified_bound == formula, entry.name
        c = entry.crossings
        floor_form = 2 * (c + 1 + (c - 2) // 4)
        linear_form = Fraction(5, 2) * c + 1
        assert report.certified_bound <= floor_form, entry.name
        assert floor_form <= linear_form, entry.name
        assert report.theoretical_floor == floor_form, entry.name
        assert report.theoretical_linear == linear_form, entry.name
    assert total < 180.0, f"corpus took {total:.1f}s"


def test_counted_block_identity_with_flip_optimization(corpus):
    # counted blocks come out to exactly c + 1 + #T1-, and the flip
    # search keeps #T1- within floor((c-2)/4)
    for entry in corpus:
        best, _ = optimize_flips(find_leveling(entry.diagram))
        g = build_bgd(best)
        c = entry.crossings
        t1m = _t1_minus(best)
        assert t1m <= (c - 2) // 4, entry.name
        assert _counted(g.block_multiset()) == c + 1 + t1m, entry.name
        m = normalize(g).block_multiset()
        assert m["B1"] + m["B1r"] == c + 1 + t1m, entry.name


def test_worked_small_cases():
    # trefoil 8 vs 8.5, Hopf 6 meeting the closed form, figure-eight
    # 10 vs 11, and the two closed forms agreeing at six crossings
    trefoil = compute_bound(parse_pd(TREFOIL))
    assert trefoil.certified_bound == 8
    assert trefoil.theoretical_linear == Fraction(17, 2)
    hopf = compute_bound(parse_pd(HOPF))
    assert hopf.certified_bound == 6
    assert hopf.theoretical_floor == 6
    assert hopf.theoretical_linear == 6
    fig8 = compute_bound(parse_pd(FIG8))
    assert fig8.certified_bound == 10
    assert fig8.theoretical_linear == 11
    assert theoretical_bound(6) == (16, Fraction(16))


def test_braid_ladder_above_benchmark_range():
    # the closure of (s1 s2)^20 reaches a valid normal form with the
    # counted blocks conserved
    res = run_pipeline(ladder(40))
    assert res.grid.crossing_number == 40
    assert is_normal_form(res.normal)
    assert check_bgd(res.normal) == []
    m0, m1 = res.grid.block_multiset(), res.normal.block_multiset()
    assert m1["B1"] + m1["B1r"] == _counted(m0)
    assert m1["B2"] == m1["B2r"] == m1["B3"] == 0


def _stage_mismatches(name, d, per_step):
    # exact normalized-polynomial equality after leveling, after each
    # flip variant, after grid expansion, after normalization (and each
    # rewrite step when per_step) and after pile core extraction
    fp0 = jones_fingerprint(d)
    mismatches = []

    def check(stage, fp):
        if fp != fp0:
            mismatches.append((name, stage))

    ld = find_leveling(d)
    check("leveling", jones_fingerprint(ld.diagram))
    for fx in (False, True):
        for fy in (False, True):
            fl = apply_flip(ld, FlipChoice(fx, fy))
            check(f"flip{int(fx)}{int(fy)}", jones_fingerprint(fl.diagram))
    best, _ = optimize_flips(ld)
    g = build_bgd(best)
    check("expansion", jones_fingerprint(bgd_to_pd(g)))
    trace = [] if per_step else None
    gn = normalize(g, trace)
    check("rewrite", jones_fingerprint(bgd_to_pd(gn)))
    for desc, step in trace or ():
        check(f"rewrite:{desc}", jones_fingerprint(bgd_to_pd(step)))
    check("layout", jones_fingerprint(core_diagram(build_pile(gn))))
    return mismatches


def test_jones_preserved_at_every_stage(corpus):
    # every stage of every corpus diagram (each rewrite step through 9
    # crossings) and of the ladder at c = 16 and 32; zero mismatches
    mismatches = []
    for entry in corpus:
        mismatches += _stage_mismatches(
            entry.name, entry.diagram, entry.crossings <= 9
        )
    for c in (16, 32):
        mismatches += _stage_mismatches(f"ladder{c}", ladder(c), False)
    assert mismatches == []


# Closures on 3-5 strands at c = 13-20.
@pytest.mark.parametrize(
    "name, d",
    [
        pytest.param(name, d, id=name)
        for name, d in random_closures(
            seed=1320, count=12, max_crossings=20, min_crossings=13
        )
    ],
)
def test_jones_preserved_on_random_closures(name, d):
    assert _stage_mismatches(name, d, False) == []


def test_normal_form_on_random_and_corpus_grids(corpus):
    # 200 seeded random grids plus the corpus: only cups and plain
    # caps survive, caps on top, counted total unchanged
    grids = [g for _, g in iter_readable_grids(200)]
    grids += [
        build_bgd(optimize_flips(find_leveling(e.diagram))[0])
        for e in corpus
    ]
    assert len(grids) >= 200 + len(corpus)
    for g in grids:
        ng = normalize(g)
        assert is_normal_form(ng)
        assert check_bgd(ng) == []
        m = ng.block_multiset()
        assert m["B2"] == m["B2r"] == m["B3"] == 0
        assert m["B1"] + m["B1r"] == _counted(g.block_multiset())


def test_leveling_bisection_and_portion_balance(corpus):
    # every level line leaves both halves connected; exactly one
    # bottom and one top vertex; side counts balance
    for entry in corpus:
        ld = find_leveling(entry.diagram)
        assert check_leveling(ld) == [], entry.name
        adj = {i: set() for i in range(len(ld.diagram.crossings))}
        for ends in edge_ends(ld.diagram).values():
            (a, _), (b, _) = ends
            adj[a].add(b)
            adj[b].add(a)
        n = len(ld.order)
        for k in range(1, n):
            assert _connected(adj, ld.order[:k]), (entry.name, k)
            assert _connected(adj, ld.order[k:]), (entry.name, k)
        idx = [p.index for p in ld.portions]
        assert idx.count(0) == 1 and idx.count(4) == 1, entry.name
        assert idx.count(1) == idx.count(3), entry.name


def test_pile_invariant_length_convergence_and_fold_lines(corpus):
    # each plane dropped on the pile brackets only the wing it crosses,
    # k planes hold 2k wings, the priced length approaches the certified
    # bound as the allowance shrinks, and the rendered fold lines stay
    # disjoint
    for entry in corpus:
        gn = run_pipeline(entry.diagram).normal
        s = build_pile(gn)
        wings = []
        for p in s.planes:
            lo, hi = p.insertion
            inside = [w for w in wings if lo < w < hi]
            assert inside == ([] if p.crossed_wing is None else [p.crossed_wing]), entry.name
            wings += [lo, hi]
        assert len(set(wings)) == 2 * len(s.planes), entry.name
        assert tuple(sorted(wings)) == s.connection_order, entry.name
        certified = rib_upper_bound(block_counts(gn))
        eps = Fraction(1, 10 ** 6)
        assert abs(ribbon_length(s, eps) - certified) < Fraction(1, 1000)
        svg = emit_svg(s)
        assert svg.startswith("<svg"), entry.name
        segments = check_fold_lines(s)
        assert len(segments) == 3 * len(s.planes) + 2 * len(s.caps)


def test_linear_bound_dominates_quadratic_and_root_bounds():
    # 5c/2+1 sits strictly below the quadratic bound for c in 2..1000
    # and below the c^(3/2) bound for c in 1..1000
    for c in range(2, 1001):
        assert Fraction(5, 2) * c + 1 < 2 * c * c + 6 * c + 4
    for c in range(1, 1001):
        denne = comparison_bounds(c)["denne"]
        assert denne == pytest.approx(
            72 * c ** 1.5 + 32 * c + 12 * math.sqrt(c) + 4
        )
        assert denne - (2.5 * c + 1) > 1e-9