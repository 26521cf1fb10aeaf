"""PD parsing, emission, nugatory detection, table loading."""

import pytest

from ribbonfold.ingest import (
    LabelError,
    PdSyntaxError,
    TableError,
    detect_nugatory,
    emit_pd,
    load_table,
    normalize_over,
    parse_pd,
    relabel_along_strands,
)
from ribbonfold.invariants import jones_normalized
from ribbonfold.model import Crossing, PlanarDiagram, validate_diagram
from graph_reference import edge_ends

TREFOIL_TXT = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF_TXT = "X(4,1,3,2) X(2,3,1,4)"

# Connected sum of two trefoils joined through one extra crossing. The
# joining crossing is reducible: it is a cut vertex of the crossing graph.
SUM7_TXT = (
    "X(4,2,5,13) X(2,6,3,5) X(6,4,1,3) "
    "X(10,8,11,14) X(8,12,9,11) X(12,10,7,9) X(1,13,7,14)"
)


def test_parse_trefoil():
    d = parse_pd(TREFOIL_TXT)
    assert d.crossing_number == 3
    assert d.crossings[0].slots == (4, 2, 5, 1)
    assert all(x.over_pair == 1 for x in d.crossings)
    assert validate_diagram(d) == []


def test_parse_whitespace_forms():
    a = parse_pd("  X( 4 ,2, 5,1 )\n\tX(2,6,3,5)   X(6,4,1,3)  ")
    b = parse_pd(TREFOIL_TXT)
    assert [x.slots for x in a.crossings] == [x.slots for x in b.crossings]


def test_round_trip():
    d = parse_pd(TREFOIL_TXT)
    assert emit_pd(d) == TREFOIL_TXT
    again = parse_pd(emit_pd(d))
    assert [x.slots for x in again.crossings] == [x.slots for x in d.crossings]


def test_syntax_errors():
    with pytest.raises(PdSyntaxError):
        parse_pd("X(1,2,3)")
    with pytest.raises(PdSyntaxError):
        parse_pd("Y(1,2,3,4)")
    with pytest.raises(PdSyntaxError):
        parse_pd(TREFOIL_TXT + " junk")
    with pytest.raises(PdSyntaxError):
        parse_pd("X(1,2,3,4) X(1,2,3,4,5)")


def test_label_errors():
    # labels out of range
    with pytest.raises(LabelError):
        parse_pd("X(1,2,3,9) X(2,3,9,1)")
    # a label used four times
    with pytest.raises(LabelError):
        parse_pd("X(1,1,1,1) X(2,3,2,3)")
    # right multiset shape but missing a value
    with pytest.raises(LabelError):
        parse_pd("X(1,2,2,1) X(3,3,5,5)")


def test_empty_input():
    with pytest.raises(PdSyntaxError):
        parse_pd("")
    d = parse_pd("   \n ", allow_unknot=True)
    assert d.crossing_number == 0
    assert d.free_loops == 1


def test_emit_rotates_over_pair_zero():
    d = parse_pd(TREFOIL_TXT)
    m = d.mirror()
    assert all(x.over_pair == 0 for x in m.crossings)
    txt = emit_pd(m)
    back = parse_pd(txt)
    assert jones_normalized(back) == jones_normalized(m)
    assert jones_normalized(back) != jones_normalized(d)


def test_normalize_over_preserves_link():
    d = parse_pd(TREFOIL_TXT).mirror()
    nd = normalize_over(d)
    assert all(x.over_pair == 1 for x in nd.crossings)
    assert jones_normalized(nd) == jones_normalized(d)


def test_relabel_along_strands():
    d = parse_pd(SUM7_TXT)
    r = relabel_along_strands(d)
    assert validate_diagram(r) == []
    assert jones_normalized(r) == jones_normalized(d)
    assert sorted(r.edge_ids()) == list(range(1, 15))
    # labels run consecutively along the strand
    o = r.orientation
    for e in r.edge_ids():
        ci, s = o.heads[e]
        nxt = r.crossings[ci].slots[(s + 2) % 4]
        if nxt != 1:
            assert nxt == e + 1


def _brute_nugatory(d):
    n = len(d.crossings)
    loops = set()
    pairs = []
    for e, uses in edge_ends(d).items():
        (c1, _), (c2, _) = uses
        if c1 == c2:
            loops.add(c1)
        else:
            pairs.append((c1, c2))
    cut = set()
    for v in range(n):
        keep = [i for i in range(n) if i != v]
        if len(keep) <= 1:
            continue
        adj = {i: set() for i in keep}
        for a, b in pairs:
            if a != v and b != v:
                adj[a].add(b)
                adj[b].add(a)
        seen = {keep[0]}
        queue = [keep[0]]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != len(keep):
            cut.add(v)
    return sorted(d.crossings[i].id for i in loops | cut)


@pytest.mark.parametrize(
    "txt,expected",
    [
        (TREFOIL_TXT, []),
        (HOPF_TXT, []),
        ("X(1,1,2,2)", [0]),
        ("X(1,1,2,4) X(2,3,3,4)", [0, 1]),
        (SUM7_TXT, [6]),
    ],
)
def test_detect_nugatory(txt, expected):
    d = parse_pd(txt)
    assert detect_nugatory(d) == expected
    assert _brute_nugatory(d) == expected


def test_sum7_is_valid_knot():
    d = parse_pd(SUM7_TXT)
    assert validate_diagram(d) == []
    assert d.components == 1


def test_load_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        'name,crossings,pd\n'
        f'3_1,3,"{TREFOIL_TXT}"\n'
        f'L2a1,2,"{HOPF_TXT}"\n'
    )
    entries = load_table(p)
    assert [e.name for e in entries] == ["3_1", "L2a1"]
    assert entries[0].crossings == 3
    assert entries[0].diagram.crossing_number == 3


def test_load_table_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("nom,x,pd\nfoo,1,bar\n")
    with pytest.raises(TableError):
        load_table(p)


def test_load_table_row_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        'name,crossings,pd\n'
        f'3_1,4,"{TREFOIL_TXT}"\n'
        'bad,1,"X(1,2,3)"\n'
        f'ok,2,"{HOPF_TXT}"\n'
        '3_1,3\n'
        f'3_1,3,"{TREFOIL_TXT}",junk\n'
    )
    with pytest.raises(TableError) as ei:
        load_table(p)
    rows = dict(ei.value.rows)
    assert set(rows) == {2, 3, 5, 6}
    assert "CountMismatch" in rows[2]
    assert rows[5] == "need the 3 fields name,crossings,pd: missing ['pd'], unexpected []"
    assert rows[6] == "need the 3 fields name,crossings,pd: missing [], unexpected ['junk']"
