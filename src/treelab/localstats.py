"""Local statistics of colored graphs.

The sampling unit is the rooted colored ball: pick a root, keep everything
within graph distance r, remember the colors.  Balls are compared through an
exact canonical form (two balls get the same code iff a root- and
color-preserving isomorphism maps one onto the other), so distributions over
balls support exact total variation computations.  On large-girth graphs
almost every ball is a tree, and tree balls take a fast path
(Aho-Hopcroft-Ullman tree canonization, O(n * radius) time); balls with
cycles, loops or multi-edges fall back to individualization-refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graphs import bfs

_BALL_MAX = 200  # largest ball canonical_ball accepts, tree or not: the fallback search
# for balls with cycles can branch per vertex


# ---------------------------------------------------------------------------
# canonical forms of rooted colored multigraphs
# ---------------------------------------------------------------------------

def _refine(n: int, classes: list[int], adj: list[dict]) -> list[int]:
    """Iterated color refinement: split classes by the multiset of
    (neighbor class, multiplicity) signatures until stable."""
    while True:
        sigs = [
            (classes[v], tuple(sorted((classes[u], m) for u, m in adj[v].items())))
            for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == classes:
            return new
        classes = new


def _encode(n: int, classes: list[int], colors, adj: list[dict], root: int) -> bytes:
    perm = sorted(range(n), key=lambda v: classes[v])
    pos = {v: i for i, v in enumerate(perm)}
    edges = sorted(
        (min(pos[u], pos[v]), max(pos[u], pos[v]), m)
        for v in range(n)
        for u, m in adj[v].items()
        if pos[v] <= pos[u]
    )
    payload = (n, pos[root], tuple(colors[v] for v in perm), tuple(edges))
    return repr(payload).encode()


def _canonical_search(n: int, classes: list[int], colors, adj: list[dict], root: int) -> bytes:
    classes = _refine(n, classes, adj)
    sizes: dict[int, int] = {}
    for c in classes:
        sizes[c] = sizes.get(c, 0) + 1
    target = None
    for c in sorted(sizes):
        if sizes[c] > 1:
            target = c
            break
    if target is None:
        return _encode(n, classes, colors, adj, root)
    best = None
    for v in range(n):
        if classes[v] != target:
            continue
        branch = [2 * c + 2 for c in classes]
        branch[v] = 1  # individualize v ahead of its class
        code = _canonical_search(n, branch, colors, adj, root)
        if best is None or code < best:
            best = code
    return best


def _tree_code(colors, adj: list[dict], reach: dict[int, int]) -> bytes:
    """Aho-Hopcroft-Ullman code of a rooted colored tree: bottom-up in the
    breadth-first order of ``reach``, each vertex is (color, sorted child codes)."""
    code = {}
    for v in reversed(reach):
        code[v] = (colors[v], tuple(sorted(code[u] for u in adj[v] if reach[u] > reach[v])))
    return b"T" + repr(code[next(iter(reach))]).encode()  # the root comes first in ``reach``


def canonical_ball(edges, colors, root: int) -> bytes:
    """Canonical byte code of a rooted vertex-colored multigraph.

    ``edges`` is an iterable of (u, v) pairs with multi-edges repeated and
    loops allowed; ``colors`` assigns a comparable color per vertex.  Codes of
    two inputs agree iff the rooted colored graphs are isomorphic.  Exact.  A
    connected input with n - 1 edges (counted with multiplicity, so no loop
    or multi-edge) is a tree and gets a tree code in O(n * depth); any other
    input goes through color refinement seeded with the distance from the
    root, followed by backtracking over refinement-equivalent orderings.  The
    two kinds of code start with different bytes, ``T`` and ``G``.
    """
    colors = list(colors)
    n = len(colors)
    if n == 0:
        raise ValueError("empty graph")
    if n > _BALL_MAX:
        raise BudgetExceededError(f"canonical form capped at {_BALL_MAX} vertices")
    adj: list[dict] = [dict() for _ in range(n)]
    m = 0
    for u, v in edges:
        m += 1
        adj[u][v] = adj[u].get(v, 0) + 1
        if u != v:
            adj[v][u] = adj[v].get(u, 0) + 1
    # distance from the root is invariant under root-preserving isomorphism
    reach = bfs(root, adj.__getitem__)
    if m == n - 1 and len(reach) == n:
        return _tree_code(colors, adj, reach)
    dist = [reach.get(v, n + 1) for v in range(n)]
    keys = sorted(set(zip(dist, colors)))
    order = {key: i for i, key in enumerate(keys)}
    classes = [order[(dist[v], colors[v])] for v in range(n)]
    return b"G" + _canonical_search(n, classes, colors, adj, root)


# ---------------------------------------------------------------------------
# ball distributions
# ---------------------------------------------------------------------------

def _extract_ball(graph, coloring, root: int, r: int):
    """Vertices within distance r of the root, induced edges, local colors."""
    local = {v: i for i, v in enumerate(bfs(root, graph.neighbors.__getitem__, r))}
    edges = []
    for v in local:
        for slot in range(v * graph.d, (v + 1) * graph.d):
            partner = int(graph.pairing[slot])
            w = partner // graph.d
            if w in local and slot < partner:
                edges.append((local[v], local[w]))
    colors = [coloring[v] for v in local]
    return edges, colors


def ball_distribution(graph, coloring, r: int) -> dict[bytes, float]:
    """Exact law of the canonical rooted colored r-ball over a uniform root.

    Iterates all n roots; probabilities are multiples of 1/n.
    """
    coloring = list(coloring)
    if len(coloring) != graph.n:
        raise ValueError("coloring length must equal the vertex count")
    counts: dict[bytes, int] = {}
    for v in range(graph.n):
        edges, colors = _extract_ball(graph, coloring, v, r)
        code = canonical_ball(edges, colors, 0)
        counts[code] = counts.get(code, 0) + 1
    return {code: c / graph.n for code, c in counts.items()}


def tv_distance(a: dict, b: dict) -> float:
    """Half the L1 distance over the union support; exact for exact inputs.

    ``math.fsum`` makes the result independent of the order of the keys,
    which for a set of bytes follows the process's hash seed.
    """
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def hausdorff_distance(set_a, set_b) -> float:
    """Hausdorff distance between two finite sets of ball distributions."""
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise ValueError("Hausdorff distance needs nonempty sets")

    def directed(xs, ys):
        return max(min(tv_distance(x, y) for y in ys) for x in xs)

    return max(directed(set_a, set_b), directed(set_b, set_a))


# ---------------------------------------------------------------------------
# colored-neighborhood (local-global) distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DcnEstimate:
    """Truncated colored-neighborhood distance between two graphs.

    ``value`` sums 2^(-k-r) Hausdorff terms over k <= k_max colorings and
    radii r <= r_max; the neglected tail is below ``tail_bound``.  ``exact``
    marks whether every k was handled by full coloring enumeration; sampled
    terms underestimate the true Hausdorff distance (subsets of the coloring
    families), so in estimate mode the value is a lower bound on the truncated
    sum.
    """

    value: float
    tail_bound: float
    exact: bool
    terms: dict


def _coloring_profiles(graph, colorings, r_values):
    """Deduplicated {r: set of ball distributions} over a family of colorings."""
    out = {r: [] for r in r_values}
    seen = {r: set() for r in r_values}
    for coloring in colorings:
        for r in r_values:
            dist = ball_distribution(graph, coloring, r)
            key = tuple(sorted(dist.items()))
            if key not in seen[r]:
                seen[r].add(key)
                out[r].append(dist)
    return out


def dcn_estimate(graph_a, graph_b, r_max: int, k_max: int,
                 coloring_budget: int = 4096, samples: int = 200,
                 rng: np.random.Generator | None = None) -> DcnEstimate:
    """Sum over radii and color counts of Hausdorff distances between the
    graphs' families of local statistics, with weights 2^(-k-r).

    For each k the coloring family is enumerated exhaustively when
    k^max(n, n') fits the budget (exact mode); otherwise a common
    pseudo-random sample of ``samples`` colorings is used and the mode flag is
    cleared.  Sampling requires an rng.
    """
    if r_max < 1 or k_max < 1:
        raise ValueError("r_max and k_max must be at least 1")
    r_values = list(range(1, r_max + 1))
    terms: dict = {}
    total = 0.0
    exact = True
    for k in range(1, k_max + 1):
        n_big = max(graph_a.n, graph_b.n)
        if k**n_big <= coloring_budget:
            fam_a = [list(c) for c in itertools.product(range(k), repeat=graph_a.n)]
            fam_b = fam_a if graph_b.n == graph_a.n else \
                [list(c) for c in itertools.product(range(k), repeat=graph_b.n)]
        else:
            exact = False
            if rng is None:
                raise ValueError("sampling mode needs an rng (coloring budget exceeded)")
            fam_a = [rng.integers(0, k, size=graph_a.n).tolist() for _ in range(samples)]
            fam_b = fam_a if graph_b.n == graph_a.n else \
                [rng.integers(0, k, size=graph_b.n).tolist() for _ in range(samples)]
        prof_a = _coloring_profiles(graph_a, fam_a, r_values)
        prof_b = _coloring_profiles(graph_b, fam_b, r_values)
        for r in r_values:
            dh = hausdorff_distance(prof_a[r], prof_b[r])
            terms[(k, r)] = dh
            total += 2.0 ** (-k - r) * dh
    tail = 2.0**-k_max + 2.0**-r_max - 2.0 ** (-k_max - r_max)
    return DcnEstimate(value=total, tail_bound=tail, exact=exact, terms=terms)
