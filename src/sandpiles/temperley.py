"""Rooted spanning trees, and the tree-to-matching bijection for the
planar quotient families.

Spanning trees are enumerated by brute force, capped at
`TREE_VERTEX_CAP` vertices: the matrix-tree oracle in the tests, and the
trees the bijection maps.

Each family instance is embedded as one lattice region plus its graph.
D, Dprime and Ddoubleprime use the 2m x 2n rectangle with vertex (i, j)
at (2i, 2j); the staircase P_n uses {(r, c): 1 <= c <= r <= 2n, r odd or
c < r} with vertex (i, j) at (2i - 1, 2j - 1).  Every other point is
read off by parity: a point between two vertex points is their edge,
weighted both ways by the graph; a point beside one vertex point is a
weight-1 sink edge; a point of the remaining parity is a bounded face.
An edge's two faces are its two neighbours of face parity, the unbounded
face FS where that neighbour lies outside the region.  The overlay graph
H is the region itself, a grid (or staircase) board.  A rooted spanning
tree then maps to a perfect matching of H by matching every tree edge
node to its tail vertex and every remaining edge node to a bounded face
via the dual spanning tree grown from the unbounded face.
"""

from collections import deque
from math import prod

from .errors import SizeCapError
from .graphs import MatchGraph, p_graph
from .symmetry import d_family

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


def _walk_trees(choices):
    """Rooted spanning trees as parent assignments: an iterator of
    (tags, weight) pairs, tags the chosen tag per vertex.

    choices[v] lists the (target, weight, tag) options of vertex v,
    with target another vertex index or SINK; tag records which edge
    was taken.  Every vertex picks one option; acyclicity is checked
    incrementally by walking the parent chain of each new assignment.
    `TREE_VERTEX_CAP` is checked on the call, before the first tree.
    """
    n = len(choices)
    if n > TREE_VERTEX_CAP:
        raise SizeCapError(f"tree enumeration capped at {TREE_VERTEX_CAP} vertices")
    parent = [None] * n
    tags = [None] * n

    def rec(v, weight):
        if v == n:
            yield tuple(tags), weight
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
            yield from rec(v + 1, weight * wt)
            parent[v] = None

    return rec(0, 1)


def enumerate_spanning_trees(g):
    """All spanning trees rooted at the sink, as (parents, weight) pairs.

    parents maps each vertex index to its parent (SINK for sink edges);
    the weight is the product of the chosen edge weights.
    """
    return list(_walk_trees(_tree_choices(g)))


def spanning_tree_weight_sum(g):
    """Sum of spanning-tree weights by direct enumeration (the
    matrix-tree oracle; does not materialize the trees)."""
    return sum(w for _, w in _walk_trees(_tree_choices(g)))


class EmbeddedFamily:
    """A planar-embedded family instance with its overlay lattice.

    `edges` maps each edge node to {end label: weight out of that end};
    `edge_faces` maps it to its two faces."""

    def __init__(self, kind, m, n):
        self.kind, self.m, self.n = kind, m, n
        if kind == "P":
            if m != n:
                raise ValueError(f"the staircase P_n needs m == n, got {m} and {n}")
            self.graph = p_graph(n)
            region = {(r, c) for r in range(1, 2 * n + 1) for c in range(1, r + 1)
                      if r % 2 or c < r}
            offset = 1
        else:
            if kind == "Dprime" and n < 2:
                raise ValueError("planar embedding of Dprime needs n >= 2")
            if kind == "Ddoubleprime" and (m < 2 or n < 2):
                raise ValueError("planar embedding of Ddoubleprime needs m, n >= 2")
            self.graph = d_family(kind, m, n)
            region = {(r, c) for r in range(1, 2 * m + 1) for c in range(1, 2 * n + 1)}
            offset = 0
        self.vertex_node = {(i, j): (2 * i - offset, 2 * j - offset)
                            for i, j in self.graph.labels}
        at = {p: u for u, p in self.vertex_node.items()}
        weight = self.graph.weight
        self.faces, self.edges, self.edge_faces = [], {}, {}
        for r, c in sorted(region):
            # off_r: r is not a row of vertex points; off_c likewise
            off_r, off_c = (r + offset) % 2, (c + offset) % 2
            if off_r and off_c:
                self.faces.append((r, c))
            elif off_r or off_c:
                ends, sides = ((r - 1, c), (r + 1, c)), ((r, c - 1), (r, c + 1))
                if off_c:
                    ends, sides = sides, ends
                us = [at[p] for p in ends if p in at]
                self.edges[r, c] = ({us[0]: 1} if len(us) == 1 else
                                    {u: weight(u, v) for u, v in (us, us[::-1])})
                self.edge_faces[r, c] = tuple(p if p in region else FS for p in sides)

    def h_graph(self):
        """The overlay board: vertex-edge contacts weighted by the
        directed edge weight leaving the vertex, face-edge contacts 1."""
        vertices = list(self.vertex_node.values()) + self.faces + list(self.edges)
        weights = {}
        for e, ends in self.edges.items():
            for u, w in ends.items():
                if w > 0:
                    weights[(self.vertex_node[u], e)] = w
            for f in self.edge_faces[e]:
                if f is not FS:
                    weights[(f, e)] = 1
        return MatchGraph(vertices, weights)

    def spanning_trees(self):
        """All rooted spanning trees as {vertex label: edge node} maps,
        paired with their weights.  Coincident directed pairs count once
        per usable direction, a weight-2 sink edge as two embedded edges."""
        labels = list(self.vertex_node)
        pos = {u: k for k, u in enumerate(labels)}
        choices = [[] for _ in labels]
        for e, ends in self.edges.items():
            for u, w in ends.items():
                if w > 0:
                    other = next((pos[v] for v in ends if v != u), SINK)
                    choices[pos[u]].append((other, w, e))
        return [(dict(zip(labels, tags)), weight) for tags, weight in _walk_trees(choices)]

    def temperley_matching(self, tree):
        """Map a spanning tree to a perfect matching of the overlay.

        Returns (edge list, weight).  Tree edge nodes match their tails;
        the remaining edge nodes are claimed by faces along the dual
        spanning tree grown from the unbounded face.
        """
        if set(tree) != set(self.vertex_node):
            raise ValueError("tree does not span this family instance")
        used = set(tree.values())
        if len(used) != len(tree):
            raise ValueError("tree reuses an embedded edge")
        matched = [(self.vertex_node[u], e) for u, e in tree.items()]
        weight = prod(self.edges[e][u] for u, e in tree.items())

        by_face = {}
        for e, faces in self.edge_faces.items():
            if e not in used:
                for f in faces:
                    by_face.setdefault(f, []).append(e)
        claimed = {}
        queue = deque([FS])
        seen = {FS}
        while queue:
            f = queue.popleft()
            for e in by_face.get(f, ()):
                a, b = self.edge_faces[e]
                other = b if a == f else a
                if other is FS or other in seen:
                    continue
                seen.add(other)
                claimed[other] = e
                queue.append(other)
        if len(claimed) != len(self.faces):
            raise ValueError("dual tree does not reach every bounded face")
        if len(claimed) + len(used) != len(self.edges):
            raise ValueError("leftover edge nodes; not a perfect matching")
        matched += [(f, e) for f, e in claimed.items()]
        return sorted(tuple(sorted(e)) for e in matched), weight
