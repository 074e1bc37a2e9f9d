"""Random regular (multi)graphs via the pairing model, plus exact matching counts.

A graph is stored as a perfect matching of the n*d half-edge slots (slot s
belongs to vertex s // d).  Loops occupy two slots of one vertex and therefore
contribute 2 to that vertex's own neighbor count; parallel edges appear with
multiplicity in the neighbor table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError


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
        """Unordered edge list with multiplicity, loops as (v, v)."""
        out = []
        for s in range(self.n * self.d):
            t = int(self.pairing[s])
            if s < t:
                out.append((s // self.d, t // self.d))
        return out


def _graph_from_pairing(n: int, d: int, pairing: np.ndarray) -> RegularGraph:
    if pairing.shape != (n * d,) or np.any(pairing[pairing] != np.arange(n * d)) \
            or np.any(pairing == np.arange(n * d)):
        raise ValueError("pairing must be a fixed-point-free involution on the slots")
    neighbors = (pairing // d).reshape(n, d)
    simple = True
    seen = set()
    for s in range(n * d):
        t = int(pairing[s])
        if s < t:
            u, v = s // d, t // d
            if u == v or (u, v) in seen:
                simple = False
                break
            seen.add((u, v))
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
    for _ in range(max(1, max_retries)):
        perm = rng.permutation(n * d)
        pairing = np.empty(n * d, dtype=np.int64)
        pairing[perm[0::2]] = perm[1::2]
        pairing[perm[1::2]] = perm[0::2]
        graph = _graph_from_pairing(n, d, pairing)
        if not simple or graph.simple:
            return graph
    raise BudgetExceededError(f"no simple graph found in {max_retries} pairing attempts")


def graph_from_edges(n: int, d: int, edge_list) -> RegularGraph:
    """Build a graph from an explicit edge multiset (loops as (v, v))."""
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
    if any(free_v for free_v in free):
        raise ValueError("edge list does not realize a d-regular graph")
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
    out = 1
    for j in range(1, m, 2):
        out *= j
    return out


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


def matching_color_count(colors, nu, budget: int = 12):
    """Number of perfect matchings of colored points whose directed-edge law is nu.

    ``colors`` labels n points (n even, n <= budget); ``nu`` maps ordered
    color pairs to probabilities and must be symmetric.  Every matching edge
    contributes both orientations with weight 1/2 each to the empirical law;
    equality with nu is exact (rational arithmetic).  Brute force over all
    (n-1)!! matchings.
    """
    colors = list(colors)
    n = len(colors)
    if n % 2 != 0:
        raise ValueError("need an even number of points")
    if n > budget:
        raise BudgetExceededError(f"matching enumeration capped at {budget} points")
    target = {pair: _as_fraction(p) for pair, p in nu.items() if _as_fraction(p) != 0}
    for (a, b), p in target.items():
        if target.get((b, a)) != p:
            raise ValueError("nu must be symmetric on ordered pairs")
    count = 0
    for matching in iter_perfect_matchings(list(range(n))):
        emp = {pair: Fraction(c, n) for pair, c in _directed_pair_counts(matching, colors).items()}
        if emp == target:
            count += 1
    return count


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

    For every achievable pair (vertex color distribution mu, symmetric
    directed-pair distribution nu) on n points, both sides are computed by
    independent enumerations: the left by scanning matchings against a fixed
    coloring and counting colorings with the multinomial; the right by the
    double-factorial formula times a scan of all ordered-pair colorings of the
    n/2 edges whose symmetrized empirical law is nu.
    """
    if n % 2 != 0 or n < 2 or n > 10:
        raise ValueError("n must be a small even integer")
    points = list(range(n))
    matchings = list(iter_perfect_matchings(points))
    pairs = [(a, b) for a in range(2) for b in range(2)]

    achievable: dict = {}
    for bits in itertools.product(range(2), repeat=n):
        mu = (bits.count(0), bits.count(1))
        for matching in matchings:
            counts = _directed_pair_counts(matching, bits)
            nu_key = tuple(counts.get(p, 0) for p in pairs)
            achievable.setdefault((mu, nu_key), set()).add(bits)

    records = []
    for (mu, nu_key), witnesses in sorted(achievable.items()):
        f = min(witnesses)
        nu = {p: Fraction(c, n) for p, c in zip(pairs, nu_key)}
        m_f = matching_color_count(f, nu)
        h_mu = coloring_count(mu)
        # ordered-pair colorings of the n/2 edges with symmetrized law nu
        h_nu = 0
        for assign in itertools.product(pairs, repeat=n // 2):
            counts: dict = {}
            for a, b in assign:
                counts[(a, b)] = counts.get((a, b), 0) + 1
                counts[(b, a)] = counts.get((b, a), 0) + 1
            if tuple(counts.get(p, 0) for p in pairs) == nu_key:
                h_nu += 1
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
    """Length of the shortest cycle through v, or a large value if above cap."""
    best = cap + 1
    for s in range(v * graph.d, (v + 1) * graph.d):
        t = int(graph.pairing[s])
        w = t // graph.d
        if w == v:
            return 1  # loop
        # BFS from v to w avoiding the single edge instance (s, t)
        dist = {v: 0}
        frontier = [v]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                if dist[u] + 1 > best - 1 or dist[u] + 1 > cap - 1:
                    continue
                for slot in range(u * graph.d, (u + 1) * graph.d):
                    if slot == s or slot == t:
                        continue
                    partner = int(graph.pairing[slot])
                    if partner == s or partner == t:
                        continue
                    x = partner // graph.d
                    if x not in dist:
                        dist[x] = dist[u] + 1
                        if x == w:
                            found = dist[x]
                            break
                        nxt.append(x)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            best = min(best, found + 1)
    return best


def girth_profile(graph: RegularGraph, L: int) -> float:
    """Fraction of vertices lying on a cycle of length at most L.

    Loops count as 1-cycles and parallel edges as 2-cycles; per vertex a
    truncated search over its incident edges finds the shortest cycle through
    it exactly.
    """
    if L < 1:
        raise ValueError("L must be positive")
    on_cycle = sum(1 for v in range(graph.n) if _shortest_cycle_through(graph, v, L) <= L)
    return on_cycle / graph.n


def adjacency_matrix(graph: RegularGraph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
        if u == v:
            a[u, u] += 2.0
        else:
            a[u, v] += 1.0
            a[v, u] += 1.0
    return a


def _kmeans_1d(values: np.ndarray, m: int, restarts: int, rng: np.random.Generator):
    """Plain Lloyd iterations on sorted 1-d data, best of ``restarts`` random inits."""
    uniq = np.unique(values)
    if uniq.size <= m:
        centers = uniq
        labels = np.searchsorted(uniq, values)
        return centers, labels
    best = None
    for _ in range(max(1, restarts)):
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
                     tol: float = 1e-8, restarts: int = 50, seed: int = 0) -> EigenReport:
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
        centers, labels = _kmeans_1d(vec, levels, restarts, np.random.default_rng(seed))
        quant = centers[labels]
    if np.max(np.abs(quant)) <= tol:
        return EigenReport(lam, which, levels, np.asarray(centers), 1.0,
                           float(np.max(np.abs(lam * quant - a @ quant))))
    residual = lam * quant - a @ quant
    return EigenReport(
        eigenvalue=lam, which=which, levels=levels, centers=np.asarray(centers),
        error_ratio=float((np.abs(residual) > tol).mean()),
        max_residual=float(np.max(np.abs(residual))),
    )
