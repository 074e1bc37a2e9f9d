"""Reference computations the benchmark checks treelab's outputs against.

Nothing here imports treelab: every value is recomputed from the inputs by
brute force, by a different algorithm, or by a closed form, so that a fault
in the package cannot hide behind the same fault in its check.  Each function
rejects input outside its domain with ``ValueError``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

# Dominating-threshold table and the d=3 dominating-ratio bound as printed in
# the source paper (eps_0 to three significant figures).
PAPER_EPS0 = {3: 4.38e-5, 4: 6.15e-7, 5: 4.47e-9, 6: 2.08e-11}
PAPER_DOMINATING_D3 = "0.2500438"


def _stochastic(q, pi) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(q, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or pi.shape != (q.shape[0],):
        raise ValueError("need a square matrix and a matching stationary vector")
    if np.any(q < 0) or np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows must be probability vectors")
    if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError("stationary vector must be a positive probability vector")
    return q, pi


def dobrushin_brute(q, pi, d: int, chunk_elems: int = 1 << 21) -> float:
    """Dobrushin coefficient of the heat-bath update over ordered configurations.

    Enumerates every ordered tuple of the d-1 neighbours that stay fixed and
    every ordered pair (a, b) for the neighbour that changes, and takes the
    largest total variation between the two conditional laws of the centre.
    The varying neighbour is the first one; the conditional law is a product
    over neighbours, so any other position gives the same set of pairs.
    Configurations of probability zero carry no law and are skipped.
    """
    q, pi = _stochastic(q, pi)
    if d < 1:
        raise ValueError("d must be positive")
    k = q.shape[0]
    fixed = np.array(list(itertools.product(range(k), repeat=d - 1)), dtype=np.int64)
    fixed = fixed.reshape(len(fixed), d - 1)
    base = np.tile(pi, (len(fixed), 1))
    for j in range(d - 1):
        base *= q[:, fixed[:, j]].T
    step = max(1, chunk_elems // (k ** 3))
    best = 0.0
    for lo in range(0, len(base), step):
        w = base[lo:lo + step, None, :] * q.T[None, :, :]  # (t, a, s)
        tot = w.sum(axis=2)
        live = tot > 0
        laws = np.where(live[:, :, None], w / np.where(live, tot, 1.0)[:, :, None], 0.0)
        overlap = np.minimum(laws[:, :, None, :], laws[:, None, :, :]).sum(axis=3)
        tv = np.where(live[:, :, None] & live[:, None, :], 1.0 - overlap, 0.0)
        best = max(best, float(tv.max()))
        if best >= 1.0:  # total variation never exceeds 1
            break
    return best


def _neighbor_table(neighbors) -> np.ndarray:
    nb = np.asarray(neighbors, dtype=np.int64)
    if nb.ndim != 2 or np.any(nb < 0) or np.any(nb >= nb.shape[0]):
        raise ValueError("neighbour table must be (n, d) with ids in [0, n)")
    return nb


def covering_errors(neighbors, mat, colorings) -> np.ndarray:
    """Violation count of each colouring (rows of ``colorings``) for matrix ``mat``.

    A vertex coloured s violates when, for some colour t, its number of
    neighbours coloured t (with multiplicity) differs from mat[s, t].
    """
    nb = _neighbor_table(neighbors)
    mat = np.asarray(mat, dtype=np.int64)
    s = mat.shape[0]
    if mat.shape != (s, s) or np.any(mat.sum(axis=1) != nb.shape[1]):
        raise ValueError("matrix rows must sum to the graph degree")
    cols = np.atleast_2d(np.asarray(colorings, dtype=np.int64))
    if cols.shape[1] != nb.shape[0] or np.any(cols < 0) or np.any(cols >= s):
        raise ValueError("colourings must give each vertex a colour in [0, s)")
    seen = cols[:, nb]  # (m, n, d)
    counts = np.stack([(seen == t).sum(axis=2) for t in range(s)], axis=2)
    return np.any(counts != mat[cols], axis=2).sum(axis=1)


def covering_min_brute(neighbors, mat, max_colorings: int = 1 << 16) -> Fraction:
    """Exact covering error ratio: the minimum over all s^n colourings."""
    nb = _neighbor_table(neighbors)
    s = np.asarray(mat).shape[0]
    n = nb.shape[0]
    if s ** n > max_colorings:
        raise ValueError(f"{s}^{n} colourings is too many for brute force")
    cols = np.array(list(itertools.product(range(s), repeat=n)), dtype=np.int64)
    return Fraction(int(covering_errors(nb, mat, cols).min()), n)


def adjacency(n: int, edges) -> list[list[tuple[int, int]]]:
    """adj[u] = [(w, edge_id)] with multi-edges repeated and a loop listed twice."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def shortest_cycle_through(adj, v: int, cap: int) -> int:
    """Length of the shortest cycle through v, or cap + 1 if it is longer than cap.

    One breadth-first search from v labels each vertex with the edge of v its
    tree path leaves by; an edge joining two different labels closes a cycle
    through v of length dist(x) + dist(y) + 1, and the shortest such cycle
    is found this way.
    """
    best = cap + 1
    dist, branch, via = {v: 0}, {v: None}, {v: None}
    frontier = []
    for w, e in adj[v]:
        if w == v:
            return 1
        if w in dist:
            return 2  # a second edge to the same neighbour
        dist[w], branch[w], via[w] = 1, e, e
        frontier.append(w)
    while frontier:
        nxt = []
        for x in frontier:
            for y, e in adj[x]:
                if e == via[x] or y == x:
                    continue
                if y not in dist:
                    if dist[x] + 1 < best:
                        dist[y], branch[y], via[y] = dist[x] + 1, branch[x], e
                        nxt.append(y)
                elif y == v or branch[y] != branch[x]:
                    best = min(best, dist[x] + dist[y] + 1)
        frontier = nxt
    return best


def short_cycle_fraction(n: int, edges, L: int) -> float:
    """Share of vertices on a cycle of length at most L (loops 1, double edges 2)."""
    if L < 1:
        raise ValueError("L must be positive")
    adj = adjacency(n, edges)
    return sum(shortest_cycle_through(adj, v, L) <= L for v in range(n)) / n


def _adjacency_lists(neighbors) -> list[list[int]]:
    """Neighbour lists (rows may differ in length) with ids checked against n."""
    nb = [[int(w) for w in row] for row in neighbors]
    if any(not 0 <= w < len(nb) for row in nb for w in row):
        raise ValueError("neighbour ids must lie in [0, n)")
    return nb


def ball(neighbors, root: int, r: int):
    """Radius-r ball around ``root``: (vertices in BFS order, induced edge multiset).

    ``neighbors[v]`` lists v's neighbours with multiplicity (a loop twice).
    Edges are local index pairs (i <= j) with multiplicity; a loop appears once.
    """
    nb = neighbors if isinstance(neighbors, list) else _adjacency_lists(neighbors)
    order, dist = [root], {root: 0}
    for v in order:
        if dist[v] == r:
            continue
        for w in nb[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    local = {v: i for i, v in enumerate(order)}
    ends = Counter()
    for v in order:
        for w in nb[v]:
            if w in local:
                i, j = sorted((local[v], local[w]))
                ends[(i, j)] += 1
    edges = [pair for pair, c in sorted(ends.items()) for _ in range(c // 2)]
    return order, edges


def is_tree(n_vertices: int, edges) -> bool:
    """A connected ball is a tree iff it has one edge fewer than vertices."""
    return len(edges) == n_vertices - 1


def tree_ball_share(neighbors, radii) -> tuple[float, int]:
    """Share of (root, radius) balls that are trees, and the number of balls."""
    nb = _adjacency_lists(neighbors)
    trees = total = 0
    for r in radii:
        for v in range(len(nb)):
            order, edges = ball(nb, v, r)
            trees += is_tree(len(order), edges)
            total += 1
    return trees / total, total


def _nx_ball(edges, colors, root: int):
    import networkx as nx

    g = nx.MultiGraph()
    for i, c in enumerate(colors):
        g.add_node(i, key=(c, i == root))
    g.add_edges_from(edges)
    return g


def balls_isomorphic(a, b) -> bool:
    """networkx isomorphism of two rooted coloured multigraphs (edges, colors, root)
    that maps root to root and keeps colours."""
    import networkx as nx

    ga, gb = _nx_ball(*a), _nx_ball(*b)
    return nx.is_isomorphic(ga, gb, node_match=lambda x, y: x["key"] == y["key"])


def relabel(edges, colors, root: int, perm):
    """The same rooted coloured graph with vertex i renamed perm[i]."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(colors))):
        raise ValueError("perm must be a permutation of the vertices")
    new_colors = [None] * len(colors)
    for i, c in enumerate(colors):
        new_colors[perm[i]] = c
    return [(perm[u], perm[v]) for u, v in edges], new_colors, perm[root]


def ising_dobrushin(theta: float, d: int) -> float:
    """|theta|: the heat-bath Dobrushin coefficient of the two-state kernel at odd d."""
    if d % 2 == 0 or d < 1:
        raise ValueError("the closed form holds at odd d")
    if not -1.0 < theta < 1.0:
        raise ValueError("theta must lie in (-1, 1)")
    return abs(theta)


def sweep0_disagreement(pi) -> float:
    """1 - sum pi^2: disagreement of two independent stationary draws."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError("pi must be a probability vector")
    return 1.0 - float((pi * pi).sum())


def circulant_offset_law(q) -> np.ndarray:
    """c with q[s, (s + o) mod k] = c[o] for every state s.

    Under such a kernel the offset child - parent (mod k) of an exact chain
    sample on a tree is drawn from c whatever the parent's state, so the
    offsets of all edges of all replicas are independent draws from c.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("need a square matrix")
    k = q.shape[0]
    rolled = np.stack([np.roll(q[s], -s) for s in range(k)])
    if np.max(np.abs(rolled - rolled[0])) > 1e-12:
        raise ValueError("kernel is not circulant")
    return rolled[0]


def offset_deviation(parents, children, law) -> float:
    """Largest |count - N c[o]| / sqrt(N c[o] (1 - c[o])) over offsets o.

    ``parents`` and ``children`` are equal-shape state arrays, one entry per
    edge, and ``law`` is a circulant kernel's offset law.  An offset of
    probability 0 (or a missed offset of probability 1) gives infinity.
    """
    parents, children = np.asarray(parents), np.asarray(children)
    c = np.asarray(law, dtype=float)
    k = c.size
    if parents.shape != children.shape or parents.size == 0:
        raise ValueError("need equal-shape, non-empty state arrays")
    if min(parents.min(), children.min()) < 0 or max(parents.max(), children.max()) >= k:
        raise ValueError("states out of range")
    n = parents.size
    counts = np.bincount(((children - parents) % k).ravel(), minlength=k)
    worst = 0.0
    for o in range(k):
        var = n * c[o] * (1.0 - c[o])
        if var > 0:
            worst = max(worst, abs(counts[o] - n * c[o]) / math.sqrt(var))
        elif counts[o] != n * c[o]:
            return math.inf
    return worst


def potts_spectral_radius(k: int, p: float) -> float:
    """|1 - pk/(k-1)| for the k-state uniform-switch kernel."""
    if k < 2 or not 0.0 <= p <= 1.0:
        raise ValueError("need k >= 2 and p in [0, 1]")
    return abs(1.0 - p * k / (k - 1))


def double_factorial_pm(m: int) -> int:
    """(m-1)!!: perfect matchings of m points."""
    if m < 0 or m % 2:
        raise ValueError("m must be a nonnegative even integer")
    return math.prod(range(1, m, 2))


def tree_vertex_count(d: int, depth: int) -> int:
    """Vertices of the depth-R truncated d-regular tree, summed level by level."""
    if d < 3 or depth < 0:
        raise ValueError("need d >= 3 and depth >= 0")
    return 1 + sum(d * (d - 1) ** (ell - 1) for ell in range(1, depth + 1))


def walk_nontypical(k: int, q_deg: int, d: int) -> bool:
    """k^(d-2) > q^d: the walk chain breaks (d/2) h_edge >= (d-1) h_vertex."""
    if k < 2 or q_deg < 1 or d < 3:
        raise ValueError("need k >= 2, q >= 1, d >= 3")
    return k ** (d - 2) > q_deg ** d


def walk_entropies(k: int, q_deg: int) -> tuple[float, float]:
    """(ln k, ln k + ln q): vertex and edge entropy of the walk on a q-regular graph."""
    if k < 1 or q_deg < 1:
        raise ValueError("need k >= 1 and q >= 1")
    return math.log(k), math.log(k) + math.log(q_deg)


def locality_bound(distance: int, d: int) -> float:
    """(k + 1 - 2k/d)(d - 1)^(-k/2)."""
    if distance < 1 or d < 2:
        raise ValueError("need distance >= 1 and d >= 2")
    return (distance + 1 - 2 * distance / d) * (d - 1) ** (-distance / 2)


def ising_first_violation(theta: float, d: int, k_max: int):
    """First distance where the two-state correlation theta^k beats the ceiling."""
    if not -1.0 < theta < 1.0:
        raise ValueError("theta must lie in (-1, 1)")
    for k in range(1, k_max + 1):
        if abs(theta) ** k > locality_bound(k, d) + 1e-12:
            return k
    return None


def parse_graph_file(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    """Header ``n d`` then ``u v`` lines; rejects ids outside [0, n) and bad degrees."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("missing 'n d' header")
    n, d = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    deg = Counter()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) leaves the vertex range [0, {n})")
        deg[u] += 1
        deg[v] += 1
    if any(deg[v] != d for v in range(n)):
        raise ValueError("edge list is not d-regular")
    return n, d, edges


def neighbor_table(n: int, d: int, edges) -> np.ndarray:
    """(n, d) neighbour table of an edge multiset (a loop lists its vertex twice)."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    if any(len(r) != d for r in rows):
        raise ValueError("edge list is not d-regular")
    return np.array(rows, dtype=np.int64).reshape(n, d)
