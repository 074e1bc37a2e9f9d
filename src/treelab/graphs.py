"""Random regular (multi)graphs via the pairing model, plus exact matching counts.

A graph is stored as a perfect matching of the n*d half-edge slots (slot s
belongs to vertex s // d).  Loops occupy two slots of one vertex and therefore
contribute 2 to that vertex's own neighbor count; parallel edges appear with
multiplicity in the neighbor table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError

_MATCHING_MAX = 12  # most points whose (n-1)!! matchings matching_color_count enumerates
_KMEANS_RESTARTS = 50  # random k-means starts per eigenvector quantization


@dataclass(frozen=True)
class RegularGraph:
    """d-regular multigraph on n vertices backed by a half-edge pairing.

    ``pairing`` is a fixed-point-free involution on the n*d slots;
    ``neighbors`` is the derived (n, d) table (multi-edges repeated, a loop
    lists its own vertex twice).
    """

    n: int
    d: int
    pairing: np.ndarray
    neighbors: np.ndarray
    simple: bool

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Unordered edge list with multiplicity, loops as (v, v), by lower slot."""
        u, v = _edge_ends(self.pairing, self.d)
        return list(zip(u.tolist(), v.tolist()))


def _edge_ends(pairing: np.ndarray, d: int):
    """End vertices (u, v), u <= v, of each edge, in the order of its lower slot."""
    s = np.flatnonzero(pairing > np.arange(pairing.size))
    return s // d, pairing[s] // d


def _graph_from_pairing(n: int, d: int, pairing: np.ndarray) -> RegularGraph:
    if pairing.shape != (n * d,) or np.any(pairing[pairing] != np.arange(n * d)) \
            or np.any(pairing == np.arange(n * d)):
        raise ValueError("pairing must be a fixed-point-free involution on the slots")
    neighbors = (pairing // d).reshape(n, d)
    u, v = _edge_ends(pairing, d)
    codes = np.sort(u * n + v)
    simple = not np.any(u == v) and not np.any(codes[1:] == codes[:-1])
    pairing = pairing.copy()
    pairing.setflags(write=False)
    neighbors.setflags(write=False)
    return RegularGraph(n=n, d=d, pairing=pairing, neighbors=neighbors, simple=simple)


def sample_regular_graph(n: int, d: int, simple: bool, rng: np.random.Generator,
                         max_retries: int = 10_000) -> RegularGraph:
    """Uniform pairing-model draw; with ``simple`` set, rejection-sample until
    loop-free and multi-edge-free (uniform over simple d-regular graphs).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if max_retries < 1:
        raise ValueError("need at least 1 pairing attempt")
    for _ in range(max_retries):
        perm = rng.permutation(n * d)
        pairing = np.empty(n * d, dtype=np.int64)
        pairing[perm[0::2]] = perm[1::2]
        pairing[perm[1::2]] = perm[0::2]
        graph = _graph_from_pairing(n, d, pairing)
        if not simple or graph.simple:
            return graph
    raise BudgetExceededError(f"no simple graph found in {max_retries} pairing attempts")


def graph_from_edges(n: int, d: int, edge_list) -> RegularGraph:
    """Build a graph from an explicit edge multiset (loops as (v, v)).

    The sizes are checked before anything is allocated: n >= 1, d >= 1 and
    exactly n*d/2 edges, so with no vertex above degree d every slot is used.
    """
    edge_list = list(edge_list)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if 2 * len(edge_list) != n * d:
        raise ValueError(f"a {d}-regular graph on {n} vertices has n*d/2 edges, "
                         f"the list has {len(edge_list)}")
    free = [list(range(v * d, (v + 1) * d)) for v in range(n)]
    pairing = np.full(n * d, -1, dtype=np.int64)
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) names a vertex outside 0..{n - 1}")
        if not free[u] or not free[v] or (u == v and len(free[u]) < 2):
            raise ValueError(f"vertex degrees exceed {d}")
        su = free[u].pop()
        sv = free[v].pop()
        pairing[su], pairing[sv] = sv, su
    return _graph_from_pairing(n, d, pairing)


def complete_graph(m: int) -> RegularGraph:
    return graph_from_edges(m, m - 1, list(itertools.combinations(range(m), 2)))


def complete_bipartite(a: int, b: int) -> RegularGraph:
    if a != b:
        raise ValueError("only balanced bipartite graphs are regular")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return graph_from_edges(2 * a, a, edges)


def cycle_graph(m: int) -> RegularGraph:
    return graph_from_edges(m, 2, [(i, (i + 1) % m) for i in range(m)])


def circulant_graph(n: int, offsets) -> RegularGraph:
    """Circulant graph: i ~ i +- o for each offset o; deterministic and simple
    for distinct offsets 0 < o < n/2."""
    offsets = sorted(set(int(o) for o in offsets))
    if any(o <= 0 or 2 * o >= n for o in offsets):
        raise ValueError("offsets must satisfy 0 < o < n/2")
    edges = [(i, (i + o) % n) for o in offsets for i in range(n)]
    return graph_from_edges(n, 2 * len(offsets), edges)


def write_graph(graph: RegularGraph, path) -> None:
    """Text format: header ``n d``, then one ``u v`` line per edge (multi-edges repeated)."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.d}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def read_graph(path) -> RegularGraph:
    rows = _read_rows(path)
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"missing 'n d' header in {path}")
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"edge line {' '.join(row)!r} in {path} needs exactly two vertex ids")
    n, d = int(rows[0][0]), int(rows[0][1])
    return graph_from_edges(n, d, [(int(u), int(v)) for u, v in rows[1:]])


def pm_count(m: int):
    """(m-1)!! perfect matchings of m points, exact big integer."""
    if m < 0 or m % 2 != 0:
        raise ValueError("m must be a nonnegative even integer")
    return math.prod(range(1, m, 2))


def iter_perfect_matchings(points: list[int]):
    """Yield all perfect matchings of an even point set as lists of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in iter_perfect_matchings(remaining):
            yield [(first, other)] + tail


def _directed_pair_counts(matching, colors) -> dict:
    counts: dict = {}
    for u, v in matching:
        a, b = colors[u], colors[v]
        counts[(a, b)] = counts.get((a, b), 0) + 1
        counts[(b, a)] = counts.get((b, a), 0) + 1
    return counts


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**9)


def matching_color_count(colors, nu):
    """Number of perfect matchings of colored points whose directed-edge law is nu.

    ``colors`` labels n points (n even, n <= 12); ``nu`` maps ordered
    color pairs to probabilities and must be symmetric.  Every matching edge
    contributes both orientations with weight 1/2 each to the empirical law, so
    a matching counts when its directed-pair counts equal n * nu exactly
    (rational arithmetic).  Brute force over all (n-1)!! matchings.
    """
    colors = list(colors)
    n = len(colors)
    if n % 2 != 0:
        raise ValueError("need an even number of points")
    if n > _MATCHING_MAX:
        raise BudgetExceededError(f"matching enumeration capped at {_MATCHING_MAX} points")
    target = {pair: n * _as_fraction(p) for pair, p in nu.items() if _as_fraction(p) != 0}
    for (a, b), c in target.items():
        if target.get((b, a)) != c:
            raise ValueError("nu must be symmetric on ordered pairs")
    return sum(_directed_pair_counts(matching, colors) == target
               for matching in iter_perfect_matchings(list(range(n))))


def coloring_count(color_counts) -> int:
    """Number of colorings of sum(counts) points with exactly these color counts."""
    total = sum(color_counts)
    out = math.factorial(total)
    for c in color_counts:
        out //= math.factorial(c)
    return out


@dataclass(frozen=True)
class MatchingIdentityRecord:
    n: int
    mu_counts: tuple
    nu_counts: tuple
    m_f: int
    colorings_mu: int
    pair_colorings_nu: int
    lhs: int  # m_f * colorings_mu
    rhs: int  # pm_count(n) * pair_colorings_nu

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def matching_identity_check(n: int) -> list[MatchingIdentityRecord]:
    """Exact count identity |M_f| * H(mu, n) = PM(n) * H(nu, n/2) over 2 colors.

    The achievable pairs (vertex color counts mu, symmetric directed-pair counts
    nu) on n points are mu = (c, n - c) with nu = (c - e, e, e, n - c - e) for
    c = 0..n and e = c mod 2, c mod 2 + 2, ..., min(c, n - c): e edges join the
    colors and the rest pair up within one.  They are listed sorted, so by c, then
    e descending.  Both sides are computed by independent enumerations: the left
    by scanning matchings against the coloring 0^c 1^(n-c) and counting colorings
    with the multinomial; the right by the double-factorial formula times the
    number of ordered-pair colorings of the n/2 edges whose symmetrized empirical
    law is nu, from one scan of them all.
    """
    if n % 2 != 0 or n < 2 or n > 10:
        raise ValueError("n must be a small even integer")
    pairs = [(a, b) for a in range(2) for b in range(2)]
    # ordered-pair colorings of the n/2 edges, counted by their symmetrized law nu
    pair_colorings = Counter(
        tuple(_directed_pair_counts(assign, (0, 1)).get(p, 0) for p in pairs)
        for assign in itertools.product(pairs, repeat=n // 2))
    records = []
    for c in range(n + 1):
        for e in reversed(range(c % 2, min(c, n - c) + 1, 2)):
            mu, nu_key = (c, n - c), (c - e, e, e, n - c - e)
            nu = {p: Fraction(count, n) for p, count in zip(pairs, nu_key)}
            m_f = matching_color_count((0,) * c + (1,) * (n - c), nu)
            h_mu = coloring_count(mu)
            h_nu = pair_colorings[nu_key]
            records.append(MatchingIdentityRecord(
                n=n, mu_counts=mu, nu_counts=nu_key, m_f=m_f, colorings_mu=h_mu,
                pair_colorings_nu=h_nu, lhs=m_f * h_mu, rhs=pm_count(n) * h_nu,
            ))
    return records


def bfs(start: int, neighbors, max_depth: int | None = None) -> dict[int, int]:
    """Breadth-first distances from ``start``, keyed in discovery order.

    ``neighbors(v)`` returns the vertices adjacent to v (numpy integers are
    stored as ints); vertices farther than ``max_depth`` are left out.
    """
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        for v in frontier:
            for w in map(int, neighbors(v)):
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def _strongly_connected(support: np.ndarray) -> bool:
    """True iff the digraph with boolean adjacency matrix ``support`` is strongly connected."""
    return all(len(bfs(0, [np.flatnonzero(row) for row in adj].__getitem__)) == adj.shape[0]
               for adj in (support, support.T))


def _read_rows(path) -> list[list[str]]:
    """Whitespace-split lines of a text file; blank lines and ``#`` comment
    lines, indented or not, are skipped."""
    with open(path) as fh:
        return [line.split() for line in map(str.strip, fh) if line and not line.startswith("#")]


def _shortest_cycle_through(graph: RegularGraph, v: int, cap: int) -> int:
    """Length of the shortest cycle through v, or cap + 1 if it is longer than cap.

    One breadth-first search from v over the slots (Itai-Rodeh 1978) labels
    each vertex with the slot of v its tree path leaves by.  An edge instance
    off the tree whose ends carry different labels closes a cycle of length
    dist(x) + dist(y) + 1; v has no label, so a loop at v gives 1 and a second
    edge to a neighbour 2.  Depth k closes no new cycle shorter than 2k + 1.
    """
    d, best, depth = graph.d, cap + 1, 0
    dist, label, entry = {v: 0}, {v: None}, {v: None}  # entry: the slot x was entered by
    frontier = [v]
    while frontier and 2 * depth + 1 < best:
        depth += 1
        nxt = []
        for x in frontier:
            for s in range(x * d, (x + 1) * d):
                t = int(graph.pairing[s])
                y, lab = t // d, s if x == v else label[x]
                if y not in dist:
                    dist[y], label[y], entry[y] = depth, lab, t
                    nxt.append(y)
                elif label[y] != lab and s != entry[x]:
                    best = min(best, depth + dist[y])
        frontier = nxt
    return best


def girth_profile(graph: RegularGraph, L: int) -> float:
    """Fraction of vertices lying on a cycle of length at most L.

    Loops count as 1-cycles and parallel edges as 2-cycles; per vertex one
    truncated breadth-first search finds the shortest cycle through it
    exactly.
    """
    if L < 1:
        raise ValueError("L must be positive")
    return sum(_shortest_cycle_through(graph, v, L) <= L for v in range(graph.n)) / graph.n


def _neighbor_fill(graph: RegularGraph, value: float) -> np.ndarray:
    """(n, n) matrix that adds ``value`` at [v, w] once per neighbor-table entry,
    in table order (so a repeated entry sums the same way a loop over it would)."""
    out = np.zeros((graph.n, graph.n))
    np.add.at(out, (np.repeat(np.arange(graph.n), graph.d), graph.neighbors.ravel()), value)
    return out


def adjacency_matrix(graph: RegularGraph) -> np.ndarray:
    """Edge multiplicities, a loop counting 2 on the diagonal."""
    return _neighbor_fill(graph, 1.0)


def _kmeans_1d(values: np.ndarray, m: int, rng: np.random.Generator):
    """Plain Lloyd iterations on sorted 1-d data, best of _KMEANS_RESTARTS random inits."""
    uniq = np.unique(values)
    if uniq.size <= m:
        centers = uniq
        labels = np.searchsorted(uniq, values)
        return centers, labels
    best = None
    for _ in range(_KMEANS_RESTARTS):
        centers = np.sort(rng.choice(uniq, size=m, replace=False))
        for _ in range(200):
            mids = (centers[1:] + centers[:-1]) / 2.0
            labels = np.searchsorted(mids, values)
            new = np.array([
                values[labels == j].mean() if np.any(labels == j) else centers[j]
                for j in range(m)
            ])
            if np.allclose(new, centers):
                break
            centers = np.sort(new)
        inertia = float(((values - centers[labels]) ** 2).sum())
        if best is None or inertia < best[0]:
            best = (inertia, centers, labels)
    return best[1], best[2]


@dataclass(frozen=True)
class EigenReport:
    eigenvalue: float
    which: int
    levels: int | None
    centers: np.ndarray
    error_ratio: float
    max_residual: float


def eigen_experiment(graph: RegularGraph, which: int, levels: int | None,
                     tol: float = 1e-8, seed: int = 0) -> EigenReport:
    """Quantize an adjacency eigenvector to few values and measure where the
    eigenvector equation breaks.

    The selected eigenpair (``which`` indexes eigenvalues in descending order)
    is quantized to ``levels`` values by 1-d k-means (``levels=None`` skips
    quantization); the report gives the fraction of vertices v where
    |lambda f(v) - sum_{w ~ v} f(w)| exceeds ``tol``.  A quantization that
    collapses to the zero vector is reported as error ratio 1: the zero
    function is not an admissible eigenvector.
    """
    if not graph.simple:
        raise ValueError("eigen experiment needs a simple graph")
    if not -graph.n <= which < graph.n:
        raise ValueError(f"which must lie in {-graph.n}..{graph.n - 1}, got {which}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    a = adjacency_matrix(graph)
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(evals)[::-1]
    lam = float(evals[order[which]])
    vec = evecs[:, order[which]]
    if levels is None:
        quant = vec
        centers = np.unique(vec)
    else:
        if levels < 1:
            raise ValueError("levels must be at least 1")
        centers, labels = _kmeans_1d(vec, levels, np.random.default_rng(seed))
        quant = centers[labels]
    residual = np.abs(lam * quant - a @ quant)
    collapsed = np.max(np.abs(quant)) <= tol
    return EigenReport(
        eigenvalue=lam, which=which, levels=levels, centers=np.asarray(centers),
        error_ratio=1.0 if collapsed else float((residual > tol).mean()),
        max_residual=float(np.max(residual)),
    )
