"""Graph families: sandpile graphs, tiling boards, and their matrices.

Vertex order is canonical row-major (left to right, top to bottom)
everywhere, so that every matrix produced here matches the standard
displayed forms entry for entry.  The grid, the staircase and the boards
take their unit edges from one builder, `_lattice_edges`, which pairs
each cell with its right and lower neighbours in that order.

A firing system (thresholds, out), a graph's (out_degree, out) or a
fold's (`symmetry`), has one matrix S, laid out in one place,
`_system_rows` (made dense by `system_matrix`): row w has thresholds[w]
on the diagonal and -out[v][w] in column v.  Determinants, element
orders and burning configurations are read off S, and the reduced
Laplacian is its transpose, L = S^T.
"""

from collections import deque


class SandpileGraph:
    """Weighted directed multigraph with a distinguished sink.

    Parallel edges are stored as integer weights.  `labels` fixes the
    canonical order of the non-sink vertices.
    """

    def __init__(self, labels, edges, sink_weights, undirected=True):
        """edges: mapping (u_label, v_label) -> weight for non-sink pairs.

        sink_weights: mapping u_label -> weight of the edge u -> sink.
        For undirected graphs the sink edge is taken to be bidirectional
        with the same weight.
        """
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        n = len(self.labels)
        self.out = [dict() for _ in range(n)]
        self.sink_weight = [0] * n
        try:
            for (u, v), w in edges.items():
                if w < 0:
                    raise ValueError("negative edge weight")
                if w:
                    self.out[self.index[u]][self.index[v]] = (
                        self.out[self.index[u]].get(self.index[v], 0) + w
                    )
            for u, w in sink_weights.items():
                if w < 0:
                    raise ValueError("negative sink edge weight")
                self.sink_weight[self.index[u]] = w
        except KeyError as exc:
            raise ValueError(f"unknown vertex label {exc.args[0]!r}") from None
        self.undirected = undirected
        if undirected:
            for u in range(n):
                for v, w in self.out[u].items():
                    if self.out[v].get(u) != w:
                        raise ValueError("asymmetric weights in undirected graph")
        self.out_degree = [
            sum(self.out[u].values()) + self.sink_weight[u] for u in range(n)
        ]
        if any(d <= 0 for d in self.out_degree):
            raise ValueError("vertex with zero out-degree")
        self._check_sink_reachable()

    @property
    def vertex_count(self):
        return len(self.labels)

    def _check_sink_reachable(self):
        # reverse reachability from the sink
        n = self.vertex_count
        rev = [[] for _ in range(n)]
        for u in range(n):
            for v in self.out[u]:
                rev[v].append(u)
        seen = [False] * n
        queue = deque(u for u in range(n) if self.sink_weight[u] > 0)
        for u in queue:
            seen[u] = True
        while queue:
            v = queue.popleft()
            for u in rev[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        if not all(seen):
            raise ValueError("not every vertex has a path to the sink")

    def weight(self, u_label, v_label):
        return self.out[self.index[u_label]].get(self.index[v_label], 0)


class MatchGraph:
    """Undirected edge-weighted graph with planar grid coordinates."""

    def __init__(self, vertices, edges):
        """edges: mapping (u, v) -> positive weight; u, v grid coordinates."""
        self.vertices = sorted(set(vertices))
        vset = set(self.vertices)
        self.edges = {}
        for (u, v), w in edges.items():
            if u == v:
                raise ValueError("self-loop in matching graph")
            if u not in vset or v not in vset:
                raise ValueError("edge endpoint not a vertex")
            if w <= 0:
                raise ValueError("non-positive edge weight")
            key = (u, v) if u < v else (v, u)
            self.edges[key] = self.edges.get(key, 0) + w

    def neighbors(self):
        adj = {v: [] for v in self.vertices}
        for (u, v), w in self.edges.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


def _lattice_edges(cells):
    """The unit edges (u, v) among the cells, v one step right of or below
    u, in the order of `cells` with the right neighbour first."""
    cset = set(cells)
    for i, j in cells:
        for v in ((i, j + 1), (i + 1, j)):
            if v in cset:
                yield (i, j), v


def grid_sandpile(m, n):
    """The m x n sandpile grid graph: every non-sink vertex has degree 4.

    Internal edges have weight 1; each boundary vertex gets a sink edge
    of weight 4 minus its grid degree.
    """
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    labels = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    edges = {e: 1 for u, v in _lattice_edges(labels) for e in ((u, v), (v, u))}
    sink = {}
    for i, j in labels:
        deg = (j > 1) + (j < n) + (i > 1) + (i < m)
        if deg < 4:
            sink[(i, j)] = 4 - deg
    return SandpileGraph(labels, edges, sink, undirected=True)


def p_graph(n):
    """Staircase sandpile graph on the triangular vertex set
    {(i, j) : 1 <= j <= i <= n}, with unit adjacencies and a weight-1
    sink edge from every vertex (n, j) of the last column.
    """
    if n < 1:
        raise ValueError("n must be positive")
    labels = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    edges = {e: 1 for u, v in _lattice_edges(labels) for e in ((u, v), (v, u))}
    sink = {(n, j): 1 for j in range(1, n + 1)}
    return SandpileGraph(labels, edges, sink, undirected=True)


def board_graph(kind, rows, cols):
    """Tiling boards as matching graphs.

    plain           -- the ordinary rows x cols grid graph
    mobius          -- plain plus twisted wrap edges {(h,1),(rows-h+1,cols)}
    mobius_weighted -- plain with weight 2 on the last-column horizontal
                       edges of every second row from the bottom, and
                       weight 3 at row 1 when rows is odd
    two_weighted    -- plain with weight 2 on alternating last-column
                       horizontal and last-row vertical edges
                       (rows and cols must be even)
    """
    if rows < 1 or cols < 1:
        raise ValueError("board dimensions must be positive")
    vertices = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    edges = dict.fromkeys(_lattice_edges(vertices), 1)

    if kind == "plain":
        pass
    elif kind == "mobius":
        for h in range(1, rows + 1):
            u, v = (h, 1), (rows - h + 1, cols)
            if u == v:
                raise ValueError("degenerate wrap edge on this board size")
            if cols == 1 and v < u:
                continue  # on one column, h and rows - h + 1 give one pair
            key = (u, v) if u < v else (v, u)
            edges[key] = edges.get(key, 0) + 1
    elif kind == "mobius_weighted":
        if cols < 2:
            raise ValueError("weighted board needs at least 2 columns")
        for h in range(rows // 2):
            edges[((rows - 2 * h, cols - 1), (rows - 2 * h, cols))] = 2
        if rows % 2 == 1:
            edges[((1, cols - 1), (1, cols))] = 3
    elif kind == "two_weighted":
        if rows % 2 or cols % 2:
            raise ValueError("two_weighted board requires even dimensions")
        for h in range(rows // 2):
            edges[((rows - 2 * h, cols - 1), (rows - 2 * h, cols))] = 2
        for k in range(cols // 2):
            edges[((rows - 1, cols - 2 * k), (rows, cols - 2 * k))] = 2
    else:
        raise ValueError(f"unknown board kind {kind!r}")
    return MatchGraph(vertices, edges)


def _system_rows(thresholds, out):
    """The rows of a firing system's matrix S, row w as {column v: entry}:
    thresholds on the diagonal, and -out[v][w] in row w, column v, so
    that firing v subtracts column v of S."""
    rows = [{w: t} for w, t in enumerate(thresholds)]
    for v, gains in enumerate(out):
        for w, wt in gains.items():
            rows[w][v] = rows[w].get(v, 0) - wt
    return rows


def system_matrix(thresholds, out):
    """A firing system's matrix S, `_system_rows` made dense."""
    sym = [[0] * len(thresholds) for _ in thresholds]
    for w, row in enumerate(_system_rows(thresholds, out)):
        for v, x in row.items():
            sym[w][v] = x
    return sym


def reduced_laplacian(g):
    """Reduced Laplacian: entry (v, w) = [v = w] out-degree(v) - wt(v, w).
    It is S^T for g's firing system (out_degree, out): row v is what
    firing v subtracts."""
    return [list(col) for col in zip(*system_matrix(g.out_degree, g.out))]
