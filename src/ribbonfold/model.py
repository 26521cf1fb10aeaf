"""Shared data types for the ribbon-bound pipeline.

Conventions used throughout:

* A crossing's four slots hold edge identifiers in counterclockwise order.
  Slots 0/2 and 1/3 are the two transversal strand pairs. ``over_pair``
  records which diagonal carries the over-strand: 0 means slots {0, 2},
  1 means slots {1, 3}.
* Dart ``4 * crossing index + slot`` is one end of an edge: ``dart >> 2``
  is its crossing, ``dart & 3`` its slot and ``dart ^ 2`` the dart across
  the crossing on the same strand. ``PlanarDiagram.mates`` maps each dart
  to the dart at the other end of its edge; every graph walk reads it.
  It is built from ``PlanarDiagram.edge_darts``, the one grouping of edge
  ends; ``PlanarDiagram.depth_first`` is the one DFS and
  ``PlanarDiagram.faces`` the one face count, both read by the gate,
  ``PlanarDiagram.orientation`` the one strand walk, read by the oracle,
  ``components`` and the strand relabeling, and ``PlanarDiagram.sign_table``
  the one pass over the crossing signs under it, read by the writhe, the
  fingerprint and the map check.
* Grid rows each hold exactly one horizontal segment, and a horizontal
  segment always passes over any vertical strand it crosses. Over/under
  data of the original diagram is realized by choosing which strand
  becomes the horizontal one.
* A ``Row`` is its shape, extent, end kinds and crossed column. The
  columns open between rows are not stored: ``check_bgd``, the rewrite
  and the readback each replay them from the bottom row up.
* Only the left-to-right order of the strands matters. ``expand`` and
  the rewrite both build grids as events on strand identities (see
  ``Event``), and ``grid_from_events`` alone numbers the strands 1, 2,
  ... by that order. Columns are ints, so every grid has a ``.bgd``
  text form (``expand.bgd_to_text``) that parses back to it.
* A ``BinaryGridDiagram`` is checked once, when it is made (``check_bgd``,
  else ``InvalidGrid``), so no stage checks a grid it is handed again.

All types are immutable value objects; transformations return new values.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple


class RibbonfoldError(Exception):
    """Base class for errors raised by this package."""


class RoutingError(RibbonfoldError):
    """Strand-routing inconsistency, with the ``issues`` of a diagram read back."""

    def __init__(self, message: str, issues: Iterable[ValidationIssue] = ()):
        super().__init__(message)
        self.issues = tuple(issues)


class InvalidGrid(RibbonfoldError):
    """A grid diagram failed ``check_bgd``; the message lists the problems."""


# ---------------------------------------------------------------------------
# Planar diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """One 4-valent vertex with over/under data.

    ``slots`` lists the four incident edge ids counterclockwise. The slot-0
    edge of a parsed PD token is the incoming under-strand, which makes the
    over-strand the 1-3 diagonal (over_pair = 1) for parsed input.
    """

    id: int
    slots: Tuple[int, int, int, int]
    over_pair: int = 1

    def over_slots(self) -> Tuple[int, int]:
        return (0, 2) if self.over_pair == 0 else (1, 3)

    def under_slots(self) -> Tuple[int, int]:
        return (1, 3) if self.over_pair == 0 else (0, 2)

    @property
    def upright_slots(self) -> Tuple[int, int, int, int]:
        """The slots started one place later when over_pair is 0: the same
        crossing a quarter turn round, with the over strand on 1-3."""
        return self.slots if self.over_pair else self.slots[1:] + self.slots[:1]


@dataclass(frozen=True)
class DiagramOrientation:
    """Deterministic orientation: per edge, the incidence it flows into.

    ``heads`` lists the edges in the order the strand walk meets them.
    """

    heads: Dict[int, Tuple[int, int]]  # edge -> (crossing index, slot)
    comp_of: Dict[int, int]            # edge -> strand component index
    n_components: int


class SignTable(NamedTuple):
    """What ``PlanarDiagram.sign_table`` finds."""

    signs: Tuple[int, ...]  # per crossing, +1 or -1 under ``orientation``
    # component pair (lesser first) -> the sign sum of the crossings between
    # them; (k, k) holds component k's self-crossing writhe
    sums: Dict[Tuple[int, int], int]


class DepthFirst(NamedTuple):
    """What ``PlanarDiagram.depth_first`` finds."""

    reached: int  # crossings reached from crossing 0
    cuts: FrozenSet[int]  # indices of crossings whose removal splits their piece


@dataclass(frozen=True)
class PlanarDiagram:
    """A connected link diagram in PD-code semantics.

    ``free_loops`` counts crossing-free closed components (a bare unknot
    circle has zero crossings but is still a component). A diagram mixing
    free loops with crossings is split and fails validation.
    """

    crossings: Tuple[Crossing, ...]
    free_loops: int = 0

    @property
    def crossing_number(self) -> int:
        return len(self.crossings)

    def edge_ids(self) -> List[int]:
        """Sorted list of distinct edge identifiers."""
        return sorted(self.edge_darts)

    @cached_property
    def edge_darts(self) -> Dict[int, List[int]]:
        """Edge id -> its darts in slot order, grouped once per diagram (read only)."""
        ends: Dict[int, List[int]] = {}
        for dart, e in enumerate(e for x in self.crossings for e in x.slots):
            ends.setdefault(e, []).append(dart)
        return ends

    @cached_property
    def mates(self) -> Tuple[int, ...]:
        """Dart -> the dart at the other end of its edge, built once per diagram.

        Raises ValueError for an edge without exactly two ends.
        """
        mate = [0] * (4 * len(self.crossings))
        for e, darts in self.edge_darts.items():
            if len(darts) != 2:
                raise ValueError(f"edge {e} has {len(darts)} ends (need 2)")
            a, b = darts
            mate[a], mate[b] = b, a
        return tuple(mate)

    @cached_property
    def depth_first(self) -> DepthFirst:
        """The iterative low-point DFS over the crossing graph, roots in index order.

        Loop edges are skipped. The gate reads its reach and cut crossings.
        """
        n = len(self.crossings)
        mate = self.mates
        cuts = set()
        disc = [-1] * n
        low = [0] * n
        timer = reached = 0
        for root in range(n):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = timer
            timer += 1
            root_children = 0
            stack = [(root, -1, iter(range(4 * root, 4 * root + 4)))]
            while stack:
                v, entry, it = stack[-1]
                for dart in it:
                    m = mate[dart]
                    w = m >> 2
                    # skipping only the entry dart keeps low[] the true low-point
                    # over parallel edges; the cut-vertex test alone would not need it
                    if dart == entry or w == v:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, m, iter(range(4 * w, 4 * w + 4))))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:  # every dart of v is done: pass its low-point up
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if u == root:
                            root_children += 1
                            if root_children >= 2:
                                cuts.add(root)
                        elif low[v] >= disc[u]:
                            cuts.add(u)
            if root == 0:
                reached = timer
        return DepthFirst(reached, frozenset(cuts))

    @cached_property
    def faces(self) -> int:
        """Face orbits of the rotation system, counted once per diagram.

        A face goes from a dart to its mate, then to that crossing's next
        slot. ``validate_diagram`` reads it for the genus check.
        """
        mate = self.mates
        unvisited = [True] * len(mate)
        faces = 0
        for start in range(len(mate)):
            if unvisited[start]:
                faces += 1
                dart = start
                while unvisited[dart]:
                    unvisited[dart] = False
                    m = mate[dart]
                    dart = (m & ~3) | ((m + 1) & 3)
        return faces

    @cached_property
    def orientation(self) -> DiagramOrientation:
        """Every strand component oriented once per diagram, each starting at
        its smallest edge id directed into that edge's smallest dart."""
        mate, ends = self.mates, self.edge_darts
        edge = [e for x in self.crossings for e in x.slots]  # by dart
        heads: Dict[int, Tuple[int, int]] = {}
        comp_of: Dict[int, int] = {}
        comp = 0
        for e0 in sorted(ends):
            if e0 in comp_of:
                continue
            e, head = e0, ends[e0][0]
            while e not in comp_of:
                comp_of[e] = comp
                heads[e] = divmod(head, 4)
                e, head = edge[head ^ 2], mate[head ^ 2]
            comp += 1
        return DiagramOrientation(heads, comp_of, comp)

    @cached_property
    def sign_table(self) -> SignTable:
        """Each crossing's sign under ``orientation``, and the sign sums per
        component pair, worked out once per diagram.

        A crossing is positive iff its over strand flows in at slot
        (under entry + 3) mod 4.
        """
        o = self.orientation
        entry = [[0, 0] for _ in self.crossings]  # crossing -> slot each strand pair flows in at
        for ci, s in o.heads.values():
            entry[ci][s & 1] = s
        signs = tuple(
            +1 if e[x.over_pair] == (e[1 - x.over_pair] + 3) % 4 else -1
            for e, x in zip(entry, self.crossings)
        )
        sums: Dict[Tuple[int, int], int] = {}
        comp_of = o.comp_of
        for s, x in zip(signs, self.crossings):
            ca, cb = sorted((comp_of[x.slots[0]], comp_of[x.slots[1]]))
            sums[ca, cb] = sums.get((ca, cb), 0) + s
        return SignTable(signs, sums)

    @property
    def components(self) -> int:
        """Number of link components (strand classes plus free loops)."""
        return self.orientation.n_components + self.free_loops

    def mirror(self) -> "PlanarDiagram":
        """Swap every crossing's over/under data (mirror image diagram)."""
        return PlanarDiagram(
            tuple(
                Crossing(x.id, x.slots, 1 - x.over_pair)
                for x in self.crossings
            ),
            self.free_loops,
        )


@dataclass(frozen=True)
class ValidationIssue:
    code: str  # DanglingEdge | BadArity | Disconnected | NonPlanarRotation
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate_diagram(d: PlanarDiagram) -> List[ValidationIssue]:
    """Structural validation: edge pairing, arity, connectivity, planarity.

    Returns an empty list iff the diagram is a closed connected diagram
    whose rotation system embeds in the plane. Planarity is checked via the
    Euler count of the face orbits of the rotation system, so a PD code that
    only embeds on a higher-genus surface is rejected here rather than
    producing nonsense downstream.
    """
    issues: List[ValidationIssue] = []

    if d.free_loops < 0:
        issues.append(ValidationIssue("BadArity", "free_loops must be >= 0"))
    ids = [x.id for x in d.crossings]
    if len(set(ids)) != len(ids):
        issues.append(ValidationIssue("BadArity", "duplicate crossing ids"))
    for x in d.crossings:
        if len(x.slots) != 4:
            issues.append(
                ValidationIssue("BadArity", f"crossing {x.id} has {len(x.slots)} slots")
            )
        if x.over_pair not in (0, 1):
            issues.append(
                ValidationIssue("BadArity", f"crossing {x.id} over_pair not in {{0,1}}")
            )
    if issues:
        return issues

    for e, darts in sorted(d.edge_darts.items()):
        if len(darts) != 2:
            issues.append(ValidationIssue(
                "DanglingEdge", f"edge {e} appears {len(darts)} times (need 2)"))
    if issues:
        return issues

    n = len(d.crossings)
    if n == 0:
        return issues  # bare loops (or the empty diagram): nothing else to check

    if d.free_loops:
        issues.append(ValidationIssue(
            "Disconnected", f"{d.free_loops} free loop(s) split from {n} crossing(s)"))
    unreachable = n - d.depth_first.reached
    if unreachable:
        issues.append(ValidationIssue(
            "Disconnected", f"crossing graph has {unreachable} unreachable vertices"))
    if issues:
        return issues

    # genus-0 check: faces of the rotation system must satisfy F = V + 2
    faces = d.faces
    if faces != n + 2:
        genus = (n + 2 - faces) // 2
        issues.append(ValidationIssue(
            "NonPlanarRotation",
            f"rotation system has genus {genus} (faces={faces}, need {n + 2})"))
    return issues


# ---------------------------------------------------------------------------
# Levelings and portions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortionType:
    """Level slice around a vertex: ``index`` = downward edge-ends (0..4).

    The sign records whether the over-strand sits in the cheaply expandable
    configuration. Indices 0, 2 and 4 are expansion-cost neutral and carry
    the canonical sign +.
    """

    index: int
    sign: int = +1  # +1 or -1

    @property
    def name(self) -> str:
        return f"T{self.index}{'+' if self.sign > 0 else '-'}"

    def __str__(self) -> str:
        return self.name


PORTION_KINDS = ("T0+", "T1+", "T1-", "T2+", "T3+", "T3-", "T4+")


@dataclass(frozen=True)
class LeveledDiagram:
    """A vertex leveling of a diagram, one vertex per level gap.

    ``order`` lists crossing indices bottom-to-top. ``arc_starts[k]`` is the
    slot of ``order[k]``'s crossing where its contiguous run of downward
    edge-ends begins in counterclockwise order (for the bottom vertex, where
    the upward run ends). ``levels`` holds the open-strand edge ids crossing
    each level line left-to-right, levels[0] = () below everything through
    levels[n] = () above everything. ``portions`` classifies each vertex.
    """

    diagram: PlanarDiagram
    order: Tuple[int, ...]
    arc_starts: Tuple[int, ...]
    portions: Tuple[PortionType, ...]
    levels: Tuple[Tuple[int, ...], ...]

    def portion_counts(self) -> Dict[str, int]:
        out = {k: 0 for k in PORTION_KINDS}
        for p in self.portions:
            out[p.name] += 1
        return out


# ---------------------------------------------------------------------------
# Binary grid diagrams
# ---------------------------------------------------------------------------


class Shape(enum.Enum):
    MIN = "MIN"      # creates 2 upward strands (cup)
    TRANS = "TRANS"  # one strand in from below, one out upward
    MAX = "MAX"      # terminates 2 strands (cap)

    # members are singletons compared by identity, so they hash by it too,
    # not through the pure-Python Enum.__hash__
    __hash__ = object.__hash__


class EndKind(enum.Enum):
    UP = "up"        # end starts a new upward vertical strand
    DOWN = "down"    # end terminates a strand arriving from below

    __hash__ = object.__hash__  # as Shape


@dataclass(frozen=True)
class Row:
    """One horizontal slice of a binary grid diagram.

    ``extent`` is the horizontal segment's (left, right) column span.
    ``crossed_column`` is the single vertical strand the segment passes
    over, or None. The columns open below and above a row follow from
    the rows below it; ``check_bgd`` replays them.
    """

    shape: Shape
    extent: Tuple[int, int]
    end_kinds: Tuple[EndKind, EndKind]
    crossed_column: Optional[int]

    @property
    def block(self) -> str:
        """The row's block name in ``BLOCK_NAMES``."""
        return BLOCK_NAMES[self.shape, self.crossed_column is not None]


# the legal (left, right) end kinds of each shape
END_KINDS: Dict[Shape, Tuple[Tuple[EndKind, EndKind], ...]] = {
    Shape.MIN: ((EndKind.UP, EndKind.UP),),
    Shape.MAX: ((EndKind.DOWN, EndKind.DOWN),),
    Shape.TRANS: ((EndKind.DOWN, EndKind.UP), (EndKind.UP, EndKind.DOWN)),
}

# the name of each (shape, crossed) block: B1, B2, B3 for a crossed cup,
# sideways row and cap, with an r when the row crosses nothing
BLOCK_NAMES: Dict[Tuple[Shape, bool], str] = {
    (shape, crossed): f"B{base}" if crossed else f"B{base}r"
    for base, shape in enumerate(Shape, 1) for crossed in (True, False)}


def make_row(shape: Shape, a: int, b: int, crossed: Optional[int]) -> Row:
    """The row of ``shape`` between columns a and b.

    A TRANS row continues column a as column b; a cup (MIN) or cap (MAX)
    spans [min(a, b), max(a, b)].
    """
    extent = (a, b) if a < b else (b, a)
    if shape is Shape.TRANS:  # (down, up) when the strand moves right
        kinds = END_KINDS[shape][0 if a < b else 1]
    else:
        (kinds,) = END_KINDS[shape]
    return Row(shape, extent, kinds, crossed)


@dataclass(frozen=True)
class BinaryGridDiagram:
    """Bottom-to-top sequence of rows, each crossing at most one vertical;
    construction raises ``InvalidGrid`` on any ``check_bgd`` problem."""

    rows: Tuple[Row, ...]

    def __post_init__(self) -> None:
        problems = check_bgd(self)
        if problems:
            raise InvalidGrid("; ".join(problems))

    @property
    def crossing_number(self) -> int:
        return sum(1 for r in self.rows if r.crossed_column is not None)

    def block_multiset(self) -> Dict[str, int]:
        out = {"B1": 0, "B2": 0, "B3": 0, "B1r": 0, "B2r": 0, "B3r": 0}
        for r in self.rows:
            out[r.block] += 1
        return out


def check_bgd(g: BinaryGridDiagram) -> List[str]:
    """Structural problems with a grid diagram (empty list if none).

    Every column must be an int, the only kind ``.bgd`` text can hold.
    Replays the open columns bottom to top, starting with none: each
    row's down ends must close open columns, its up ends must open new
    ones, the strands left strictly inside its extent must be exactly
    its crossed column (one or none), and no column may be open at the
    top. A down end goes first, so only an (up, down) row is replayed
    right end first, and the strands inside an extent, found by two
    bisections, are listed only for a problem. ``BinaryGridDiagram``
    runs it on every grid made.
    """
    problems: List[str] = []
    open_cols: List[int] = []  # sorted
    up = EndKind.UP
    for i, r in enumerate(g.rows):
        (a, b), (ka, kb), x = r.extent, r.end_kinds, r.crossed_column
        if type(a) is not int or type(b) is not int or not (x is None or type(x) is int):
            for c in (a, b, x):
                if c is not None and not isinstance(c, int):
                    problems.append(f"row {i}: column {c} is not an integer")
        if not a < b:
            problems.append(f"row {i}: extent {r.extent} not strictly increasing")
        if r.end_kinds not in END_KINDS[r.shape]:
            problems.append(f"row {i}: end kinds {tuple(k.value for k in r.end_kinds)} "
                            f"illegal for {r.shape.value}")
        for c, kind in ((b, kb), (a, ka)) if ka is up and kb is not up else ((a, ka), (b, kb)):
            k = bisect.bisect_left(open_cols, c)
            is_open = k < len(open_cols) and open_cols[k] == c
            if kind is up and not is_open:
                open_cols.insert(k, c)
            elif kind is up:
                problems.append(f"row {i}: created column {c} already open below")
            elif is_open:
                del open_cols[k]
            else:
                problems.append(f"row {i}: consumed column {c} absent below")
        # the binary condition: open_cols[lo:hi] lie strictly inside
        lo, hi = bisect.bisect_right(open_cols, a), bisect.bisect_left(open_cols, b)
        if x is None:
            if hi > lo:
                problems.append(f"row {i}: uncrossed row has strands "
                                f"{open_cols[lo:hi]} inside extent")
        elif hi - lo != 1 or open_cols[lo] != x:
            problems.append(f"row {i}: crossed row expects exactly [{x}] "
                            f"inside extent, got {open_cols[lo:hi]}")
    if open_cols:
        problems.append("diagram does not end with zero strands")
    return problems


# An event (shape, a, b, x, anchor) is one row on strand identities: a
# cup (MIN) births the strands a and b, a cap (MAX) closes them, and a
# sideways row (TRANS) ends strand a and births its continuation b. x is
# the strand the row crosses, or None. A cup over x births a and b on
# either side of it; every other birth is just left of the strand
# ``anchor`` (None: at the right end), which puts a sideways row's new
# strand beside the old one or beyond x, on the side it moves to.
# Strands are numbered by birth, bottom to top and left to right within
# a row, so ids survive reordering the events.
Event = Tuple[Shape, int, int, Optional[int], Optional[int]]


def _columns(events: List[Event]) -> Dict[int, int]:
    """Columns 1, 2, ... for the strands of ``events`` replayed in order.

    Every strand ever born is kept in one left-to-right linked list
    (``left`` and ``right``, with None as both ends): a cup over x puts
    a just left of x and b just right of it, every other birth goes just
    left of its anchor, and caps take nothing out. Births and deaths
    never reorder the strands that stay open, so at every height the
    open strands lie in the list in their left-to-right order, and one
    walk along it numbers them. In normal form every strand is open just
    after the last cup, so the numbering is the order at that peak.
    """
    left: Dict[Optional[int], Optional[int]] = {None: None}
    right: Dict[Optional[int], Optional[int]] = {None: None}

    def insert(v: int, before: Optional[int]) -> None:
        u = left[before]
        left[v], right[v], right[u], left[before] = u, before, v, v

    for shape, a, b, x, anchor in events:
        if shape is Shape.MAX:
            continue
        if shape is Shape.MIN and x is not None:
            insert(a, x)
            insert(b, right[x])
        else:
            if shape is Shape.MIN:
                insert(a, anchor)
            insert(b, anchor)
    col: Dict[int, int] = {}
    v = right[None]
    while v is not None:
        col[v] = len(col) + 1
        v = right[v]
    return col


def stack_rows(specs: Iterable[Tuple[Shape, int, int, Optional[int]]]) -> BinaryGridDiagram:
    """The grid whose rows, bottom to top, are ``make_row`` of the specs
    (shape, a, b, crossed)."""
    return BinaryGridDiagram(tuple(make_row(*spec) for spec in specs))


def grid_from_events(events: List[Event]) -> BinaryGridDiagram:
    """The grid of ``events`` on the columns of ``_columns``."""
    col = _columns(events)
    return stack_rows((shape, col[a], col[b], None if x is None else col[x])
                      for shape, a, b, x, _ in events)


# ---------------------------------------------------------------------------
# Bound report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Counts, certified bound and comparison bounds for one diagram."""

    name: Optional[str]
    crossings: int
    portion_counts: Dict[str, int]
    flip_x: bool
    flip_y: bool
    block_counts: Dict[str, int]  # keys b1,b2,b3,b1_ring,b2_ring,b3_ring
    certified_bound: int
    theoretical_floor: Optional[int]
    theoretical_linear: Optional[Fraction]
    tian_bound: int
    denne_bound: float
    note: str = ""
