import itertools
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ribbonfold import model
from ribbonfold.expand import build_bgd
from ribbonfold.ingest import bundled_table, detect_nugatory, relabel_along_strands
from ribbonfold.leveling import _neighbours, find_leveling, optimize_flips
from ribbonfold.model import (
    BLOCK_NAMES,
    BinaryGridDiagram,
    Crossing,
    EndKind,
    InvalidGrid,
    PlanarDiagram,
    PortionType,
    Row,
    Shape,
    check_bgd,
    validate_diagram,
)
from ribbonfold.rewrite import _events, normalize

from columns_reference import reference_check_bgd, reference_columns
from graph_reference import (
    reference_graph_issues,
    reference_neighbours,
    reference_nugatory,
    reference_orient,
    reference_relabel,
)
from grids import build
from randbraids import braid_closure
from randgrids import make_random_grid
from test_leveling import _reference_families

TREFOIL = PlanarDiagram(
    (
        Crossing(0, (4, 2, 5, 1)),
        Crossing(1, (2, 6, 3, 5)),
        Crossing(2, (6, 4, 1, 3)),
    )
)

HOPF = PlanarDiagram((Crossing(0, (4, 1, 3, 2)), Crossing(1, (2, 3, 1, 4))))


def codes(d):
    return sorted({i.code for i in validate_diagram(d)})


def test_valid_diagrams():
    assert validate_diagram(TREFOIL) == []
    assert validate_diagram(HOPF) == []
    assert validate_diagram(PlanarDiagram((Crossing(0, (1, 1, 2, 2)),))) == []
    assert validate_diagram(PlanarDiagram((Crossing(0, (1, 2, 2, 1)),))) == []


def test_empty_and_loops():
    assert validate_diagram(PlanarDiagram((), 1)) == []
    assert validate_diagram(PlanarDiagram((), 0)) == []
    assert PlanarDiagram((), 2).components == 2


def test_dangling_edge():
    d = PlanarDiagram((Crossing(0, (1, 2, 3, 4)),))
    assert codes(d) == ["DanglingEdge"]


def test_bad_arity():
    d = PlanarDiagram((Crossing(0, (1, 2, 2, 1), over_pair=7),))
    assert codes(d) == ["BadArity"]
    d = PlanarDiagram((Crossing(0, (1, 2, 2, 1)), Crossing(0, (3, 4, 4, 3))))
    assert "BadArity" in codes(d)


def test_disconnected():
    kink = Crossing(0, (1, 2, 2, 1))
    far = Crossing(1, (3, 4, 4, 3))
    assert codes(PlanarDiagram((kink, far))) == ["Disconnected"]
    assert codes(PlanarDiagram((kink,), free_loops=1)) == ["Disconnected"]


def test_nonplanar_rotation_rejected():
    # three circles pairwise sharing a single crossing cannot lie in the plane
    d = PlanarDiagram(
        (
            Crossing(0, (1, 4, 2, 3)),
            Crossing(1, (3, 6, 4, 5)),
            Crossing(2, (5, 2, 6, 1)),
        )
    )
    assert codes(d) == ["NonPlanarRotation"]


def test_components_and_mirror():
    assert TREFOIL.components == 1
    assert HOPF.components == 2
    m = TREFOIL.mirror()
    assert all(x.over_pair == 0 for x in m.crossings)
    assert m.mirror() == PlanarDiagram(
        tuple(Crossing(x.id, x.slots, 1) for x in TREFOIL.crossings)
    )
    assert validate_diagram(m) == []


def _split_cases(pool, rng, count):
    """Three or four pieces from ``pool`` with their edges and ids renumbered
    apart, joined in order, then shuffled so that crossing 0 lies in a piece
    that is neither the first joined nor the largest."""
    cases = []
    while len(cases) < count:
        pieces = rng.sample(pool, rng.randint(3, 4))
        sizes = [len(p.crossings) for p in pieces]
        inner = [k for k in range(1, len(pieces)) if sizes[k] < max(sizes)]
        if not inner:
            continue
        joined, edges = [], 0
        for k, p in enumerate(pieces):
            for x in p.crossings:
                joined.append((k, Crossing(100 * k + x.id,
                                           tuple(e + edges for e in x.slots), x.over_pair)))
            edges += max(e for x in p.crossings for e in x.slots)
        rng.shuffle(joined)
        target = rng.choice(inner)
        first = next(i for i, (k, _) in enumerate(joined) if k == target)
        joined[0], joined[first] = joined[first], joined[0]
        cases.append(PlanarDiagram(tuple(x for _, x in joined)))
    return cases


def _graph_cases():
    """The corpus; each corpus diagram with crossing 0's slots in every other
    order; 400 seeded braid closures kept as drawn, free loops dropped; 40
    diagrams in three or four pieces drawn from those."""
    corpus = [e.diagram for e in bundled_table()]
    cases = list(corpus)
    for d in corpus:
        x = d.crossings[0]
        for perm in itertools.permutations(x.slots):
            if perm != x.slots:
                cases.append(PlanarDiagram((Crossing(x.id, perm, x.over_pair),) + d.crossings[1:]))
    rng = random.Random(5)
    for _ in range(400):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 16))]
        cases.append(PlanarDiagram(braid_closure(strands, word).crossings))
    pool = corpus + [d for d in cases[-400:] if d.crossings]
    return cases + _split_cases(pool, rng, 40)


def test_graph_walks_match_the_edge_ends_reference():
    # the gate, the nugatory search, the orientation, relabel and the leveling's
    # neighbours read d.mates; the references rebuild the edge ends
    tally = Counter()
    for d in _graph_cases():
        issues = validate_diagram(d)
        assert issues == reference_graph_issues(d), d
        bad = detect_nugatory(d)
        assert bad == reference_nugatory(d), d
        o = d.orientation
        heads, comp_of, components = reference_orient(d)
        assert list(o.heads.items()) == list(heads.items()), d  # walk order too
        assert (o.comp_of, o.n_components) == (comp_of, components), d
        assert d.components == components + d.free_loops, d
        assert relabel_along_strands(d) == reference_relabel(d), d
        assert _neighbours(d) == reference_neighbours(d), d
        tally.update([i.code for i in issues] + ["nugatory"] * bool(bad) + ["all"])
    assert tally == {"all": 1352, "NonPlanarRotation": 760, "Disconnected": 61,
                     "nugatory": 158}


def test_mates_pair_the_darts_of_each_edge():
    for e in bundled_table():
        d = e.diagram
        mate = d.mates
        assert d.mates is mate  # built once per diagram
        assert len(mate) == 4 * len(d.crossings)
        for dart, m in enumerate(mate):
            assert m != dart and mate[m] == dart
            assert d.crossings[m >> 2].slots[m & 3] == d.crossings[dart >> 2].slots[dart & 3]


def test_portion_names():
    assert PortionType(1, -1).name == "T1-"
    assert str(PortionType(4, +1)) == "T4+"


def test_block_type_bijection():
    names = {
        BLOCK_NAMES[s, c] for s in Shape for c in (False, True)
    }
    assert names == {"B1", "B2", "B3", "B1r", "B2r", "B3r"}
    assert BLOCK_NAMES[Shape.MIN, True] == "B1"
    assert BLOCK_NAMES[Shape.TRANS, False] == "B2r"
    # the one name table, and block_multiset read through it, row by row
    assert len(BLOCK_NAMES) == 6 and set(BLOCK_NAMES.values()) == names
    for g in _corpus_grids():
        recount = Counter(r.block for r in g.rows)
        assert g.block_multiset() == {k: recount[k] for k in g.block_multiset()}


def test_grid_builder_and_checks():
    g = build([("MIN", 1, 2), ("MAX", 1, 2)])
    assert check_bgd(g) == []
    assert g.crossing_number == 0
    g = build(
        [
            ("MIN", 2, 4),
            ("MIN", 1, 3, 2),
            ("MAX", 3, 4),
            ("MAX", 1, 2),
        ]
    )
    assert check_bgd(g) == []
    assert g.crossing_number == 1
    assert g.block_multiset() == {
        "B1": 1, "B2": 0, "B3": 0, "B1r": 1, "B2r": 0, "B3r": 2,
    }


def test_fractional_columns_rejected():
    # .bgd text holds only int columns, so a grid holds only ints too
    h = Fraction(3, 2)
    with pytest.raises(InvalidGrid) as e:
        build([("MIN", 1, 2), ("TRANS", 1, h), ("MAX", h, 2)])
    assert str(e.value) == ("row 1: column 3/2 is not an integer; "
                            "row 2: column 3/2 is not an integer")
    with pytest.raises(InvalidGrid) as e:
        build([("MIN", 1, 3), ("MIN", 0, 4, h), ("MAX", 1, 3), ("MAX", 0, 4)])
    assert str(e.value).startswith("row 1: column 3/2 is not an integer; ")


UP, DOWN = EndKind.UP, EndKind.DOWN


def _row(shape, a, b, kinds, crossed=None):
    return Row(Shape(shape), (a, b), kinds, crossed)


CUP12, CAP12 = _row("MIN", 1, 2, (UP, UP)), _row("MAX", 1, 2, (DOWN, DOWN))
NESTED = [_row("MIN", 1, 4, (UP, UP)), _row("MIN", 2, 3, (UP, UP)),
          _row("MAX", 1, 4, (DOWN, DOWN)), _row("MAX", 2, 3, (DOWN, DOWN))]


def _raises(rows, msg):
    with pytest.raises(InvalidGrid) as e:
        BinaryGridDiagram(tuple(rows))
    assert str(e.value) == msg
    tampered = SimpleNamespace(rows=tuple(rows))
    assert check_bgd(tampered) == reference_check_bgd(tampered)


def test_check_row_catches_problems():
    # problems within one row, found as the grid check replays the columns
    _raises(NESTED, "row 2: uncrossed row has strands [2, 3] inside extent")
    _raises(NESTED[:2] + [_row("MAX", 1, 4, (DOWN, DOWN), 3), NESTED[3]],
            "row 2: crossed row expects exactly [3] inside extent, got [2, 3]")
    _raises([_row("MIN", 1, 2, (DOWN, UP)), CAP12],
            "row 0: end kinds ('down', 'up') illegal for MIN; "
            "row 0: consumed column 1 absent below; row 1: consumed column 1 absent below")
    _raises([_row("MIN", 2, 1, (UP, UP)), _row("MAX", 2, 1, (DOWN, DOWN))],
            "row 0: extent (2, 1) not strictly increasing; "
            "row 1: extent (2, 1) not strictly increasing")


def test_check_bgd_catches_problems():
    # columns that the rows below leave closed or open
    _raises([CAP12], "row 0: consumed column 1 absent below; "
                     "row 0: consumed column 2 absent below")
    _raises([CUP12, _row("MIN", 2, 3, (UP, UP)), CAP12, _row("MAX", 2, 3, (DOWN, DOWN))],
            "row 1: created column 2 already open below; "
            "row 3: consumed column 2 absent below")
    _raises([CUP12], "diagram does not end with zero strands")


def _corpus_grids():
    """The expanded grid and its normal form for each corpus diagram."""
    for e in bundled_table():
        g = build_bgd(optimize_flips(find_leveling(e.diagram))[0])
        yield g
        yield normalize(g)


def _mutants(g, rng):
    """Copies of g's rows with one row changed: its end kinds swapped or
    flipped, its crossed column moved, added or removed, its extent
    reversed, or a column made a Fraction (an int-valued one half the
    time)."""
    for _ in range(4):
        i = rng.randrange(len(g.rows))
        r = g.rows[i]
        (a, b), x = r.extent, r.crossed_column
        frac = rng.choice((Fraction(1, 2), Fraction(0)))
        changed = [
            Row(r.shape, r.extent, r.end_kinds[::-1], x),
            Row(r.shape, r.extent, tuple(UP if k is DOWN else DOWN for k in r.end_kinds), x),
            Row(r.shape, r.extent, r.end_kinds, (a if x is None else x) + rng.choice((-1, 1))),
            Row(r.shape, (b, a), r.end_kinds, x),
            Row(r.shape, (a + frac, b), r.end_kinds, x),
            Row(r.shape, (a, b + frac), r.end_kinds, x),
        ]
        if x is not None:
            changed += [Row(r.shape, r.extent, r.end_kinds, None),
                        Row(r.shape, r.extent, r.end_kinds, x + frac)]
        for row in changed:
            yield SimpleNamespace(rows=g.rows[:i] + (row,) + g.rows[i + 1:])


def test_check_bgd_matches_the_sorting_reference():
    # the sort-free check lists the problems of the check that sorts each
    # row's ends and slices every extent, in the same order and words
    rng = random.Random(20)
    found = total = 0
    for g in _corpus_grids():
        assert check_bgd(g) == reference_check_bgd(g) == []
        for tampered in _mutants(g, rng):
            problems = check_bgd(tampered)
            assert problems == reference_check_bgd(tampered), tampered.rows
            found += bool(problems)
            total += 1
    assert total > 1000 and found > total // 2


def _grid_on(events, col):
    """The grid of ``events`` on the columns ``col``."""
    return model.stack_rows((shape, col[a], col[b], None if x is None else col[x])
                            for shape, a, b, x, _ in events)


def test_columns_match_the_kahn_reference(monkeypatch):
    # the expansion's events and the normal form's get a numbering of
    # their strands 1..N whose grid reads back to the events of the grid
    # on Kahn's columns, and a normal-form list gets Kahn's columns
    columns, lists = model._columns, []
    monkeypatch.setattr(model, "_columns", lambda events: lists.append(events) or columns(events))
    table = {e.name: e for e in bundled_table()}
    for _name, d in _reference_families(table):
        normalize(build_bgd(optimize_flips(find_leveling(d))[0]))
    for seed in range(200):
        for g in (make_random_grid(random.Random(seed)),
                  make_random_grid(random.Random(seed), max_crossings=30, body_ops=40)):
            lists.append(_events(g))
            normalize(g)
    peaks = 0
    for events in lists:
        col, ref = columns(events), reference_columns(events)
        assert col.keys() == ref.keys()
        assert sorted(col.values()) == list(range(1, len(col) + 1))
        assert _events(_grid_on(events, col)) == _events(_grid_on(events, ref))
        shapes = [ev[0] for ev in events]
        peak = Shape.TRANS not in shapes and shapes == sorted(shapes, key=lambda s: s is Shape.MAX)
        if peak:
            assert col == ref
        peaks += peak
    assert peaks > 500 and len(lists) - peaks > 500


def test_non_adjacent_caps_are_rejected():
    # a cap that skips a strand is left to the grid check, which rejects
    # it; Kahn's reference still fails it on its own assertion
    cups = [(Shape.MIN, 0, 1, None, None), (Shape.MIN, 2, 3, None, None)]
    for cap, problem in [
            ((Shape.MAX, 0, 2, None, None), "row 2: uncrossed row has strands [2] inside extent"),
            ((Shape.MAX, 0, 3, 2, None),
             "row 2: crossed row expects exactly [3] inside extent, got [2, 3]")]:
        events = cups + [cap, (Shape.MAX, 1, 3, None, None)]
        with pytest.raises(InvalidGrid) as e:
            model.grid_from_events(events)
        assert problem in str(e.value)
        with pytest.raises(AssertionError, match=f"cap on 0, {cap[2]}: not adjacent"):
            reference_columns(events)
