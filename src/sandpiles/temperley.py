"""Rooted spanning trees, and the tree-to-matching bijection for the
planar quotient families.

Spanning trees are enumerated by brute force, capped at
`TREE_VERTEX_CAP` vertices: the matrix-tree oracle in the tests, and the
trees the bijection maps.

Each family instance is embedded with hard-coded lattice coordinates:
primal vertices, one node per embedded edge, and one node per bounded
face interleave on an integer lattice, so that the overlay graph H is
itself a grid (or staircase) board.  A rooted spanning tree then maps to
a perfect matching of H by matching every tree edge node to its tail
vertex and every remaining edge node to a bounded face via the dual
spanning tree grown from the unbounded face.
"""

from collections import deque

from .errors import SizeCapError
from .graphs import MatchGraph, d_family, p_graph

FS = "outer"  # the unbounded face
TREE_VERTEX_CAP = 12
SINK = -1


def _tree_choices(g):
    """Per-vertex (target, weight, tag) choices of a sandpile graph; the
    tag is the parent itself."""
    choices = []
    for v in range(g.vertex_count):
        opts = [(w, wt, w) for w, wt in sorted(g.out[v].items())]
        if g.sink_weight[v]:
            opts.append((SINK, g.sink_weight[v], SINK))
        choices.append(opts)
    return choices


def _walk_trees(choices, visit):
    """Enumerate rooted spanning trees as parent assignments.

    choices[v] lists the (target, weight, tag) options of vertex v,
    with target another vertex index or SINK; tag records which edge
    was taken.  Every vertex picks one option; acyclicity is checked
    incrementally by walking the parent chain of each new assignment.
    visit(tags, weight) sees the chosen tag per vertex.
    """
    n = len(choices)
    if n > TREE_VERTEX_CAP:
        raise SizeCapError(f"tree enumeration capped at {TREE_VERTEX_CAP} vertices")
    parent = [None] * n
    tags = [None] * n

    def rec(v, weight):
        if v == n:
            visit(tags, weight)
            return
        for w, wt, tag in choices[v]:
            # does v -> w close a cycle through already-assigned vertices?
            u = w
            while u != SINK and parent[u] is not None:
                u = parent[u]
                if u == v:
                    break
            if u == v:
                continue
            parent[v], tags[v] = w, tag
            rec(v + 1, weight * wt)
            parent[v] = None

    rec(0, 1)


def enumerate_spanning_trees(g):
    """All spanning trees rooted at the sink, as (parents, weight) pairs.

    parents maps each vertex index to its parent (SINK for sink edges);
    the weight is the product of the chosen edge weights.
    """
    out = []
    _walk_trees(_tree_choices(g), lambda parent, w: out.append((tuple(parent), w)))
    return out


def spanning_tree_weight_sum(g):
    """Sum of spanning-tree weights by direct enumeration (the
    matrix-tree oracle; does not materialize the trees)."""
    total = 0

    def visit(parent, w):
        nonlocal total
        total += w

    _walk_trees(_tree_choices(g), visit)
    return total


class EmbeddedEdge:
    __slots__ = ("node", "ends")

    def __init__(self, node, ends):
        # ends: list of (vertex label or None for the sink, weight out of
        # that endpoint); directed pairs embedded as one coincident edge
        # carry two distinct weights.
        self.node = node
        self.ends = ends

    def weight_from(self, u):
        for v, w in self.ends:
            if v == u:
                return w
        raise KeyError(u)


class EmbeddedFamily:
    """A planar-embedded family instance with its overlay lattice."""

    def __init__(self, kind, m, n):
        self.kind, self.m, self.n = kind, m, n
        if kind in ("D", "Dprime", "Ddoubleprime"):
            self._build_folded(kind, m, n)
            self.graph = d_family(kind, m, n)
        elif kind == "P":
            self._build_staircase(m if n is None else n)
            self.graph = p_graph(self.n)
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        self.vertex_node = dict(self.vertex_node)
        self.edge_of_vertex = {}  # label -> [(edge index, weight)]
        for ei, e in enumerate(self.edges):
            for u, w in e.ends:
                if u is not None and w > 0:
                    self.edge_of_vertex.setdefault(u, []).append((ei, w))

    # -- folded grid families --

    def _build_folded(self, kind, m, n):
        if kind == "Dprime" and n < 2:
            raise ValueError("planar embedding of Dprime needs n >= 2")
        if kind == "Ddoubleprime" and (m < 2 or n < 2):
            raise ValueError("planar embedding of Ddoubleprime needs m, n >= 2")
        self.vertex_node = {(i, j): (2 * i, 2 * j) for i in range(1, m + 1)
                            for j in range(1, n + 1)}
        edges = []
        for i in range(1, m + 1):
            for j in range(1, n - 1):
                edges.append(EmbeddedEdge((2 * i, 2 * j + 1),
                                          [((i, j), 1), ((i, j + 1), 1)]))
            if n >= 2:
                # rightmost horizontal pair; weighted toward the sink side
                # for the directed families
                w_in = 2 if kind in ("Dprime", "Ddoubleprime") else 1
                edges.append(EmbeddedEdge((2 * i, 2 * n - 1),
                                          [((i, n - 1), 1), ((i, n), w_in)]))
        for i in range(1, m):
            for j in range(1, n + 1):
                w_up = 2 if kind == "Ddoubleprime" and i == m - 1 else 1
                edges.append(EmbeddedEdge((2 * i + 1, 2 * j),
                                          [((i, j), 1), ((i + 1, j), w_up)]))
        for i in range(1, m + 1):  # sink edges leaving left
            edges.append(EmbeddedEdge((2 * i, 1), [((i, 1), 1), (None, 0)]))
        for j in range(1, n + 1):  # sink edges leaving top
            edges.append(EmbeddedEdge((1, 2 * j), [((1, j), 1), (None, 0)]))
        self.edges = edges
        self.faces = [(2 * i - 1, 2 * j - 1) for i in range(1, m + 1)
                      for j in range(1, n + 1)]
        face_set = set(self.faces)
        self._face_at = lambda p: p if p in face_set else FS
        self._face_parity_neighbors = lambda r, c: ((r - 1, c), (r + 1, c)) \
            if r % 2 == 0 and c % 2 == 1 else ((r, c - 1), (r, c + 1))

    # -- staircase family --

    def _build_staircase(self, n):
        self.n = n
        self.vertex_node = {(i, j): (2 * i - 1, 2 * j - 1)
                            for i in range(1, n + 1) for j in range(1, i + 1)}
        edges = []
        for i in range(1, n):
            for j in range(1, i + 1):
                edges.append(EmbeddedEdge((2 * i, 2 * j - 1),
                                          [((i, j), 1), ((i + 1, j), 1)]))
        for i in range(1, n + 1):
            for j in range(1, i):
                edges.append(EmbeddedEdge((2 * i - 1, 2 * j),
                                          [((i, j), 1), ((i, j + 1), 1)]))
        for j in range(1, n + 1):
            edges.append(EmbeddedEdge((2 * n, 2 * j - 1), [((n, j), 1), (None, 0)]))
        self.edges = edges
        self.faces = [(2 * i, 2 * j) for i in range(1, n + 1)
                      for j in range(1, i)]
        face_set = set(self.faces)
        self._face_at = lambda p: p if p in face_set else FS
        self._face_parity_neighbors = lambda r, c: ((r - 1, c), (r + 1, c)) \
            if r % 2 == 1 else ((r, c - 1), (r, c + 1))

    # -- shared machinery --

    def edge_faces(self, edge):
        r, c = edge.node
        a, b = self._face_parity_neighbors(r, c)
        return self._face_at(a), self._face_at(b)

    def h_graph(self):
        """The overlay board: vertex-edge contacts weighted by the
        directed edge weight leaving the vertex, face-edge contacts 1."""
        vertices = list(self.vertex_node.values()) + self.faces
        vertices += [e.node for e in self.edges]
        weights = {}
        for e in self.edges:
            for u, w in e.ends:
                if u is not None and w > 0:
                    weights[(self.vertex_node[u], e.node)] = w
            for f in self.edge_faces(e):
                if f is not FS:
                    weights[(f, e.node)] = 1
        return MatchGraph(vertices, weights)

    def spanning_trees(self):
        """All rooted spanning trees as {vertex label: edge index} maps,
        paired with their weights.  Coincident directed pairs count once
        per usable direction, a weight-2 sink edge as two embedded edges."""
        labels = list(self.vertex_node)
        pos = {u: k for k, u in enumerate(labels)}
        pos[None] = SINK
        choices = [
            [(pos[next(v for v, _ in self.edges[ei].ends if v != u)], w, ei)
             for ei, w in self.edge_of_vertex[u]]
            for u in labels
        ]
        out = []

        def visit(tags, weight):
            out.append((dict(zip(labels, tags)), weight))

        _walk_trees(choices, visit)
        return out

    def temperley_matching(self, tree):
        """Map a spanning tree to a perfect matching of the overlay.

        Returns (edge list, weight).  Tree edge nodes match their tails;
        the remaining edge nodes are claimed by faces along the dual
        spanning tree grown from the unbounded face.
        """
        if set(tree) != set(self.vertex_node):
            raise ValueError("tree does not span this family instance")
        matched = []
        weight = 1
        used = set(tree.values())
        if len(used) != len(tree):
            raise ValueError("tree reuses an embedded edge")
        for u, ei in tree.items():
            matched.append((self.vertex_node[u], self.edges[ei].node))
            weight *= self.edges[ei].weight_from(u)

        by_face = {}
        for ei, e in enumerate(self.edges):
            if ei in used:
                continue
            for f in self.edge_faces(e):
                by_face.setdefault(f, []).append(ei)
        claimed = {}
        queue = deque([FS])
        seen = {FS}
        while queue:
            f = queue.popleft()
            for ei in by_face.get(f, ()):
                a, b = self.edge_faces(self.edges[ei])
                other = b if a == f else a
                if other is FS or other in seen:
                    continue
                seen.add(other)
                claimed[other] = ei
                queue.append(other)
        if len(claimed) != len(self.faces):
            raise ValueError("dual tree does not reach every bounded face")
        if len(claimed) + len(used) != len(self.edges):
            raise ValueError("leftover edge nodes; not a perfect matching")
        for f, ei in claimed.items():
            matched.append((f, self.edges[ei].node))
        return sorted(tuple(sorted(e)) for e in matched), weight


def temperley_matching(kind, m, n, tree):
    return EmbeddedFamily(kind, m, n).temperley_matching(tree)


def h_graph(kind, m, n):
    return EmbeddedFamily(kind, m, n).h_graph()
