"""Graph walks on an edge -> ends dict: the reference for ``PlanarDiagram.mates`` readers.

``edge_ends`` rebuilds the projection graph straight from the crossings'
slots, so nothing here reads the dart table under test. The walks are the
connectivity and genus checks of ``validate_diagram``, the nugatory
adjacency of ``detect_nugatory``, ``PlanarDiagram.orientation``,
``relabel_along_strands`` and ``leveling._neighbours``, each as it was
written before the table.
"""

from ribbonfold.model import Crossing, PlanarDiagram, ValidationIssue


def edge_ends(d):
    """Edge id -> list of (crossing index, slot) ends, in slot order."""
    ends = {}
    for ci, x in enumerate(d.crossings):
        for s, e in enumerate(x.slots):
            ends.setdefault(e, []).append((ci, s))
    return ends


def reference_graph_issues(d):
    """Connectivity, then genus, issues of a diagram whose edges each have two ends."""
    n = len(d.crossings)
    inc = edge_ends(d)
    adj = {i: set() for i in range(n)}
    for (c1, _), (c2, _) in inc.values():
        if c1 != c2:
            adj[c1].add(c2)
            adj[c2].add(c1)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return [ValidationIssue(
            "Disconnected", f"crossing graph has {n - len(seen)} unreachable vertices")]

    def alpha(dart):
        a, b = inc[d.crossings[dart[0]].slots[dart[1]]]
        return b if a == dart else a

    unvisited = {(ci, s) for ci in range(n) for s in range(4)}
    faces = 0
    while unvisited:
        start = unvisited.pop()
        cur = start
        while True:
            c2, s2 = alpha(cur)
            cur = (c2, (s2 + 1) % 4)
            if cur == start:
                break
            unvisited.discard(cur)
        faces += 1
    if faces != n + 2:
        return [ValidationIssue(
            "NonPlanarRotation",
            f"rotation system has genus {(n + 2 - faces) // 2} (faces={faces}, need {n + 2})")]
    return []


def reference_nugatory(d):
    """Crossing ids carrying a loop edge or cutting the crossing graph."""
    n = len(d.crossings)
    bad = set()
    adj = [[] for _ in range(n)]
    for e, ((c1, _), (c2, _)) in edge_ends(d).items():
        if c1 == c2:
            bad.add(c1)
        else:
            adj[c1].append((c2, e))
            adj[c2].append((c1, e))
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, pedge, it = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u == root:
                        root_children += 1
                        if root_children >= 2:
                            bad.add(root)
                    elif low[v] >= disc[u]:
                        bad.add(u)
                continue
            w, e = step
            if e == pedge:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, e, iter(adj[w])))
            else:
                low[v] = min(low[v], disc[w])
    return sorted(d.crossings[i].id for i in bad)


def reference_orient(d):
    """(heads, comp_of, components): each strand component walked from its
    smallest edge id into that edge's smallest (crossing, slot) end."""
    inc = edge_ends(d)
    heads = {}
    comp_of = {}
    comp = 0
    for e0 in sorted(inc):
        if e0 in comp_of:
            continue
        e, head = e0, min(inc[e0])
        while e not in comp_of:
            comp_of[e] = comp
            heads[e] = head
            ci, s = head
            exit_end = (ci, (s + 2) % 4)
            e = d.crossings[ci].slots[exit_end[1]]
            a, b = inc[e]
            head = b if a == exit_end else a
        comp += 1
    return heads, comp_of, comp


def reference_relabel(d):
    """Edges renumbered 1..2n consecutively along each strand component."""
    inc = edge_ends(d)
    heads = reference_orient(d)[0]
    new_label = {}
    for e0 in sorted(inc):
        e, head = e0, heads[e0]
        while e not in new_label:
            new_label[e] = len(new_label) + 1
            ci, s = head
            e = d.crossings[ci].slots[(s + 2) % 4]
            a, b = inc[e]
            head = b if a == (ci, (s + 2) % 4) else a
    crossings = tuple(
        Crossing(x.id, tuple(new_label[e] for e in x.slots), x.over_pair)
        for x in d.crossings
    )
    return PlanarDiagram(crossings, d.free_loops)


def reference_neighbours(d):
    """For each crossing, by slot: (crossing across that edge, bit of its slot there)."""
    far = {}
    for (a, s), (b, t) in edge_ends(d).values():
        far[a, s], far[b, t] = (b, 1 << t), (a, 1 << s)
    return [[far[ci, s] for s in range(4)] for ci in range(len(d.crossings))]
