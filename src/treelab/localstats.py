"""Local statistics of colored graphs.

The sampling unit is the rooted colored ball: pick a root, keep everything
within graph distance r, remember the colors.  Balls are compared through an
exact canonical form (two balls get the same code iff a root- and
color-preserving isomorphism maps one onto the other), so distributions over
balls support exact total variation computations.  On large-girth graphs a
ball is a tree, or a few short cycles with trees hanging off them.  The
hanging trees are folded into the colors of the vertices they hang from as
Aho-Hopcroft-Ullman codes, in linear time; only what remains (the 2-core and
the path to the root; just the root for a tree ball) goes through
individualization-refinement.  An exhaustive ``dcn_estimate`` meets every coloring
of each ball shape, so it canonicalises one coloring per orbit of the shape's
root-fixing automorphisms and files the code under the whole orbit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graphs import bfs

_BALL_MAX = 200  # most vertices left after the fold, whose search can branch per vertex,
# and deepest distance from the root, one nesting level of the folded codes each


# ---------------------------------------------------------------------------
# canonical forms of rooted colored multigraphs
# ---------------------------------------------------------------------------

def _refine(classes: list[int], nbrs: list[list]) -> list[int]:
    """Iterated color refinement: split classes by the multiset of
    (neighbor class, multiplicity) signatures until no class splits.
    Returns classes numbered 0, 1, ... in the order of their signatures."""
    count = len(set(classes))
    while True:
        sigs = [(classes[v], tuple(sorted([(classes[u], m) for u, m in nb])))
                for v, nb in enumerate(nbrs)]
        keys = sorted(set(sigs))
        order = {s: i for i, s in enumerate(keys)}
        classes = [order[s] for s in sigs]
        if len(keys) == count:
            return classes
        count = len(keys)


def _canonical_search(classes: list[int], labels: list[int], nbrs: list[list]) -> tuple:
    """Least leaf code over the individualization-refinement search tree.

    A leaf is a discrete partition; its code lists the vertices' ``labels``
    and the edges (with multiplicity) in class order."""
    classes = _refine(classes, nbrs)
    n = len(classes)
    sizes = Counter(classes)
    if len(sizes) == n:
        ordered = [0] * n
        for v, c in enumerate(classes):
            ordered[c] = labels[v]
        edges = sorted((classes[v], classes[u], m) for v, nb in enumerate(nbrs)
                       for u, m in nb if classes[v] <= classes[u])
        return tuple(ordered), tuple(edges)
    target = min(c for c, size in sizes.items() if size > 1)
    best = None
    for v in range(n):
        if classes[v] != target:
            continue
        branch = [2 * c + 2 for c in classes]
        branch[v] = 1  # individualize v ahead of its class
        code = _canonical_search(branch, labels, nbrs)
        if best is None or code < best:
            best = code
    return best


def canonical_ball(edges, colors, root: int) -> bytes:
    """Canonical byte code of a rooted vertex-colored multigraph.

    ``edges`` is an iterable of (u, v) pairs on vertices 0..n-1, multi-edges
    repeated and loops allowed; ``colors`` assigns a comparable color per
    vertex.  Codes of two inputs agree iff the rooted colored graphs are
    isomorphic.  Exact.  The non-root degree-1 vertices of the root's
    component are peeled again and again, each folded into the vertex it
    hangs from as an Aho-Hopcroft-Ullman code (color, sorted hung codes).  A
    tree leaves only the root, without a loop: ``T`` plus its folded code.
    Otherwise the rest is labelled by (distance from the root, folded color),
    which singles out the root, and the code is ``G`` plus the sorted labels
    and the least leaf of color refinement and backtracking over
    refinement-equivalent orderings.
    """
    # numpy scalars as Python values, so a color's repr does not depend on its container
    colors = [c.item() if isinstance(c, np.generic) else c for c in colors]
    n = len(colors)
    if n == 0:
        raise ValueError("empty graph")
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside [0, {n})")
    adj: list[dict] = [dict() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        adj[u][v] = adj[u].get(v, 0) + 1
        if u != v:
            adj[v][u] = adj[v].get(u, 0) + 1
    # distance from the root is invariant under root-preserving isomorphism
    reach = bfs(root, adj.__getitem__)
    if max(reach.values()) > _BALL_MAX:
        raise BudgetExceededError(f"canonical form capped at depth {_BALL_MAX}")
    hung: list[list] = [[] for _ in range(n)]
    alive = [True] * n
    # a non-root vertex keeps its edge towards the root, so degree 1 is that edge
    stack = [v for v in reach if v != root and sum(adj[v].values()) == 1]
    while stack:
        v = stack.pop()
        (u,) = adj[v]
        hung[u].append((colors[v], tuple(sorted(hung[v]))))
        alive[v] = False
        del adj[u][v]
        if u != root and sum(adj[u].values()) == 1:
            stack.append(u)
    rest = [v for v in range(n) if alive[v]]
    if len(rest) > _BALL_MAX:
        raise BudgetExceededError(f"canonical form capped at {_BALL_MAX} vertices after the fold")
    # wrapped even where nothing hangs, so raw colors never equal folded ones
    folded = [(colors[v], tuple(sorted(hung[v]))) for v in rest]
    if rest == [root] and not adj[root]:
        return b"T" + repr(folded[0]).encode()
    index = {v: i for i, v in enumerate(rest)}
    nbrs = [[(index[u], m) for u, m in adj[v].items()] for v in rest]
    keys = [(reach.get(v, n + 1), c) for v, c in zip(rest, folded)]
    distinct = sorted(set(keys))
    order = {key: i for i, key in enumerate(distinct)}
    labels = [order[key] for key in keys]
    return b"G" + repr((distinct, _canonical_search(labels, labels, nbrs))).encode()


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


def _root_balls(graph, r: int) -> list:
    """Each root's r-ball as (local edges, vertices, shape), the root local 0.  The
    shape, the sorted multiset of sorted local edges, names one labelled multigraph."""
    balls = [_extract_ball(graph, range(graph.n), v, r) for v in range(graph.n)]
    return [(edges, verts, tuple(sorted(tuple(sorted(e)) for e in edges)))
            for edges, verts in balls]


def _automorphism_generators(b: int, edges) -> list[tuple]:
    """Generators of the root-fixing automorphisms of a multigraph on 0..b-1: for each
    i < w, one that fixes 0..i-1 and maps i to w, where one exists, found by
    backtracking over the vertices in order (a transversal of each stabilizer level)."""
    mult = [[0] * b for _ in range(b)]
    for u, v in edges:
        mult[u][v] += 1
        if u != v:
            mult[v][u] += 1

    def extend(image: list, i: int, w: int):
        v = len(image)
        if v == b:
            return tuple(image)
        for x in (v,) if v < i else (w,) if v == i else range(b):
            if x not in image and all(mult[x][image[u]] == mult[v][u] for u in range(v)) \
                    and mult[x][x] == mult[v][v] and sum(mult[x]) == sum(mult[v]):
                if found := extend(image + [x], i, w):
                    return found
        return None

    return [g for i in range(1, b) for w in range(i + 1, b) if (g := extend([], i, w))]


def _count_codes(balls, coloring, store: dict | None = None) -> dict[bytes, float]:
    """Law of the canonical colored ball over a uniform root, one ball per root.
    ``store``, if given, keeps per shape its automorphism generators and the code of each
    local coloring met; a miss files its code under the coloring's orbit, all isomorphic."""
    counts: dict[bytes, int] = {}
    for edges, verts, shape in balls:
        colors = [coloring[v] for v in verts]
        if store is None:
            code = canonical_ball(edges, colors, 0)
        else:
            key = tuple(colors)
            entry = store.setdefault(shape, [None, {}])  # generators, codes
            codes = entry[1]
            if key not in codes:
                codes[key] = canonical_ball(edges, colors, 0)
                if entry[0] is None and len(set(key)) > 1:  # one color: its own orbit
                    entry[0] = _automorphism_generators(len(verts), shape)
                orbit = [key]
                for tup in orbit:  # grows until no generator gives a new coloring
                    for g in entry[0] or ():
                        image = tuple(tup[j] for j in g)
                        if image not in codes:
                            codes[image] = codes[key]
                            orbit.append(image)
            code = codes[key]
        counts[code] = counts.get(code, 0) + 1
    return {code: c / len(balls) for code, c in counts.items()}


def ball_distribution(graph, coloring, r: int) -> dict[bytes, float]:
    """Exact law of the canonical rooted colored r-ball over a uniform root.

    Iterates all n roots; probabilities are multiples of 1/n.
    """
    coloring = list(coloring)
    if len(coloring) != graph.n:
        raise ValueError("coloring length must equal the vertex count")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return _count_codes([(*_extract_ball(graph, range(graph.n), v, r), None)
                         for v in range(graph.n)], coloring)


def tv_distance(a: dict, b: dict) -> float:
    """Half the L1 distance over the union support; exact for exact inputs.

    ``math.fsum`` makes the result independent of the order of the keys,
    which for a set of bytes follows the process's hash seed.
    """
    keys = set(a) | set(b)
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def hausdorff_distance(set_a, set_b) -> float:
    """Hausdorff distance between two finite sets of ball distributions.

    ``tv_distance`` is symmetric bit for bit, so one TV per pair serves both
    directions: the row and the column minima of one matrix."""
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise ValueError("Hausdorff distance needs nonempty sets")
    tv = [[tv_distance(x, y) for y in set_b] for x in set_a]
    return max(max(map(min, tv)), max(map(min, zip(*tv))))


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


def _coloring_profiles(balls: dict, colorings, store: dict | None):
    """Deduplicated {r: set of ball distributions} over a family of colorings."""
    seen = {r: {} for r in balls}
    for coloring in colorings:
        for r, root_balls in balls.items():
            dist = _count_codes(root_balls, coloring, store)
            seen[r].setdefault(tuple(sorted(dist.items())), dist)
    return {r: list(dists.values()) for r, dists in seen.items()}


def dcn_estimate(graph_a, graph_b, r_max: int, k_max: int,
                 coloring_budget: int = 4096, samples: int = 200,
                 rng: np.random.Generator | None = None) -> DcnEstimate:
    """Sum over radii and color counts of Hausdorff distances between the
    graphs' families of local statistics, with weights 2^(-k-r).

    For each k the coloring family is enumerated exhaustively when
    k^max(n, n') fits the budget (exact mode); otherwise a common
    pseudo-random sample of ``samples`` colorings is used and the mode flag is
    cleared.  Sampling requires an rng.  An exhaustive family repeats each local
    coloring k^(n-|B|) times and meets every coloring of each ball shape, so there
    one colored ball per orbit of its shape's root-fixing automorphisms is
    canonicalised once per call, for all roots, radii and both graphs.  Sampled mode stores no
    codes: the store would grow with samples * n * r_max.
    """
    if r_max < 1 or k_max < 1:
        raise ValueError("r_max and k_max must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if coloring_budget < 1:
        raise ValueError("coloring_budget must be at least 1")
    r_values = list(range(1, r_max + 1))
    balls_a = {r: _root_balls(graph_a, r) for r in r_values}
    balls_b = {r: _root_balls(graph_b, r) for r in r_values}
    store: dict = {}
    terms: dict = {}
    total = 0.0
    exact = True

    def family(n: int, k: int, enumerate_all: bool) -> list:
        if enumerate_all:
            return [list(c) for c in itertools.product(range(k), repeat=n)]
        return [rng.integers(0, k, size=n).tolist() for _ in range(samples)]

    for k in range(1, k_max + 1):
        enumerate_all = k ** max(graph_a.n, graph_b.n) <= coloring_budget
        if not enumerate_all:
            exact = False
            if rng is None:
                raise ValueError("sampling mode needs an rng (coloring budget exceeded)")
        fam_a = family(graph_a.n, k, enumerate_all)  # drawn before graph_b's sample
        fam_b = fam_a if graph_b.n == graph_a.n else family(graph_b.n, k, enumerate_all)
        prof_a = _coloring_profiles(balls_a, fam_a, store if enumerate_all else None)
        prof_b = _coloring_profiles(balls_b, fam_b, store if enumerate_all else None)
        for r in r_values:
            dh = hausdorff_distance(prof_a[r], prof_b[r])
            terms[(k, r)] = dh
            total += 2.0 ** (-k - r) * dh
    tail = 2.0**-k_max + 2.0**-r_max - 2.0 ** (-k_max - r_max)
    return DcnEstimate(value=total, tail_bound=tail, exact=exact, terms=terms)
