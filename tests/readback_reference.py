"""Grid readback with one port per row and column: the diagrams ``bgd_to_pd`` is checked against.

Every open column gets a port at every level line, and a strand that
passes a row joins its port below to its port above, so the cost grows
with rows times width. Same crossings, edge numbering, free loops and
``RoutingError`` messages as ``invariants.bgd_to_pd``.
"""

from ribbonfold.model import Crossing, EndKind, PlanarDiagram, RoutingError, validate_diagram


class UnionFind:
    """Disjoint sets over hashable keys, created on first use."""

    def __init__(self):
        self.parent = {}

    def find(self, a):
        p = self.parent
        while p.setdefault(a, a) != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def _levels(g):
    """The open columns on each level line, below row 0 through above the top."""
    levels = [set()]
    for r in g.rows:
        cols = set(levels[-1])
        for c, kind in zip(r.extent, r.end_kinds):
            (cols.discard if kind is EndKind.DOWN else cols.add)(c)
        levels.append(cols)
    return levels


def _row_port(i, col, kind):
    """Port of a row end at column col: below the row for DOWN, above for UP."""
    return ("p", i if kind is EndKind.DOWN else i + 1, col)


def reference_bgd_to_pd(g):
    """``g`` read back as a planar diagram through per-level ports."""
    levels = _levels(g)
    uf = UnionFind()
    crossings_rows = []
    for i, row in enumerate(g.rows):
        a, b = row.extent
        left = _row_port(i, a, row.end_kinds[0])
        right = _row_port(i, b, row.end_kinds[1])
        if row.crossed_column is not None:
            k = len(crossings_rows)
            crossings_rows.append(i)
            uf.union(("x", k, 0), ("p", i, row.crossed_column))
            uf.union(("x", k, 2), ("p", i + 1, row.crossed_column))
            uf.union(("x", k, 3), left)
            uf.union(("x", k, 1), right)
        else:
            uf.union(left, right)
        passing = levels[i] & levels[i + 1]
        passing.discard(row.crossed_column)
        for c in passing:
            uf.union(("p", i, c), ("p", i + 1, c))

    classes = {}
    for k in range(len(crossings_rows)):
        for s in range(4):
            classes.setdefault(uf.find(("x", k, s)), []).append((k, s))
    free_loops = 0
    seen_roots = set(classes)
    for key in list(uf.parent):
        r = uf.find(key)
        if r not in seen_roots:
            seen_roots.add(r)
            free_loops += 1

    edge_of = {}
    for eid, root in enumerate(sorted(classes, key=lambda r: min(classes[r])), start=1):
        if len(classes[root]) != 2:
            raise RoutingError(f"arc with {len(classes[root])} crossing ends (need 2)")
        edge_of[root] = eid

    crossings = []
    for k in range(len(crossings_rows)):
        slots = tuple(edge_of[uf.find(("x", k, s))] for s in range(4))
        crossings.append(Crossing(id=k, slots=slots, over_pair=1))
    out = PlanarDiagram(tuple(crossings), free_loops)
    issues = validate_diagram(out)
    if issues:
        raise RoutingError(
            "reconstructed diagram invalid: "
            + "; ".join(f"{i.code}: {i.message}" for i in issues)
        )
    return out
