"""Covering matrices, covering error ratios, and the threshold machinery.

A covering matrix M prescribes, for a vertex colored s, exactly M(s, q)
neighbors of each color q (rows sum to the degree d).  The covering error
ratio c(G, M) is the smallest fraction of violating vertices over all
colorings of G.  For random d-regular graphs the ratio stays above a
threshold: the entropy route bounds the total variation between the
star-minus-one-leaf law and its independent version by
sqrt(eps * ln|S| * (d-1)/(d-2)), while near-coverings force it above
(delta(M, eps)^d - eps)/2 with delta a minimum state probability; epsilon_0
is the crossing point of the two curves.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graphs import _read_rows, _strongly_connected, bfs


@dataclass(frozen=True)
class CoveringMatrix:
    """Nonnegative integer matrix with constant row sum d and strongly
    connected support digraph."""

    mat: np.ndarray

    def __post_init__(self):
        try:
            mat = np.array(self.mat, dtype=np.int64)
        except OverflowError:
            raise ValueError("covering matrix entries must fit in 64-bit integers") from None
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("covering matrix must be square and nonempty")
        if np.any(mat < 0):
            raise ValueError("entries must be nonnegative integers")
        if np.any(mat > np.iinfo(np.int64).max // mat.shape[0]):
            raise ValueError("covering matrix row sums must fit in 64-bit integers")
        sums = mat.sum(axis=1)
        if not np.all(sums == sums[0]):
            raise ValueError("all rows must sum to the same degree")
        if not _strongly_connected(mat > 0):
            raise ValueError("support digraph must be strongly connected")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def s_count(self) -> int:
        return self.mat.shape[0]

    @property
    def d(self) -> int:
        return int(self.mat[0].sum())


def _support_diameter(mat: np.ndarray) -> int:
    succ = [np.flatnonzero(row) for row in mat > 0]
    return max(max(bfs(src, succ.__getitem__).values()) for src in range(mat.shape[0]))


@functools.cache
def dominating_matrix(d: int) -> CoveringMatrix:
    """[[0, d], [1, d-1]]: color 0 is a dominating set hitting every vertex exactly once."""
    return CoveringMatrix([[0, d], [1, d - 1]])


@functools.cache
def bipartite_matrix(d: int) -> CoveringMatrix:
    """[[0, d], [d, 0]]: proper 2-coloring, i.e. each class an independent set."""
    return CoveringMatrix([[0, d], [d, 0]])


def is_covering_at(graph, coloring, v: int, matrix: CoveringMatrix) -> bool:
    """True iff for every color q the vertex has exactly M(f(v), q) neighbors
    colored q, counted with multiplicity (a loop contributes 2)."""
    counts = np.zeros(matrix.s_count, dtype=np.int64)
    for w in graph.neighbors[v]:
        counts[coloring[int(w)]] += 1
    return bool(np.all(counts == matrix.mat[coloring[v]]))


def error_ratio(graph, coloring, matrix: CoveringMatrix) -> float:
    """Fraction of vertices at which the coloring, a color in 0..s-1 each, is not a covering."""
    coloring = list(coloring)
    if len(coloring) != graph.n or not all(isinstance(c, (int, np.integer))
                                           and 0 <= c < matrix.s_count for c in coloring):
        raise ValueError(f"coloring must give each of {graph.n} vertices a color in "
                         f"0..{matrix.s_count - 1}")
    bad = sum(1 for v in range(graph.n) if not is_covering_at(graph, coloring, v, matrix))
    return bad / graph.n


def _neighbor_counts(nbrs: list[list[int]], coloring: list[int], s: int) -> list[list[int]]:
    """(n, s) table: entry [u][q] counts u's neighbors colored q, with multiplicity."""
    return [[[coloring[w] for w in us].count(q) for q in range(s)] for us in nbrs]


def _recolor(nbrs, counts, coloring, v: int, c: int) -> None:
    """Give v color c and move its neighbors' counts with it in O(d)."""
    old = coloring[v]
    for w in nbrs[v]:
        row = counts[w]
        row[old] -= 1
        row[c] += 1
    coloring[v] = c


def _matrix_automorphism_orbit_reps(matrix: CoveringMatrix) -> list[int]:
    """One color per orbit of the permutations preserving the matrix."""
    s = matrix.s_count
    mat = matrix.mat
    reps = set(range(s))
    for perm in itertools.permutations(range(s)):
        p = list(perm)
        if all(mat[p[a], p[b]] == mat[a, b] for a in range(s) for b in range(s)):
            for a in range(s):
                if p[a] < a and a in reps and p[a] in reps:
                    reps.discard(a)
    return sorted(reps)


def min_error_exact(graph, matrix: CoveringMatrix, budget: int = 10**8):
    """Exact covering error ratio by pruned exhaustive search.

    Returns ``(ratio, witness_coloring)``.  Vertices are colored in
    breadth-first order; a vertex's violation status is settled as soon as its
    closed neighborhood is colored (read off a table of neighbor-color counts),
    which drives the branch-and-bound prune.  Color symmetries of the matrix
    pin the first vertex to orbit representatives.  Requires the graph degree
    to match the matrix degree (and hence d >= 3 graphs for d >= 3 matrices).
    """
    if graph.d != matrix.d:
        raise ValueError(f"graph degree {graph.d} does not match matrix degree {matrix.d}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    s = matrix.s_count
    n = graph.n
    if s**n > budget:
        raise BudgetExceededError(f"{s}^{n} colorings exceed the search budget")

    # breadth-first vertex order from 0
    reach = bfs(0, graph.neighbors.__getitem__)
    order = list(reach) + [v for v in range(n) if v not in reach]
    pos = {v: i for i, v in enumerate(order)}
    nbrs = graph.neighbors.tolist()
    # vertex u is decided once u and all its neighbors are colored
    decided_at: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        decided_at[max(pos[w] for w in (u, *nbrs[u]))].append(u)
    rows = matrix.mat.tolist()
    coloring = [0] * n  # uncolored vertices read 0; only decided vertices are checked
    counts = _neighbor_counts(nbrs, coloring, s)
    best_count = n + 1
    best_coloring = coloring[:]
    first_colors = _matrix_automorphism_orbit_reps(matrix)

    def dfs(depth: int, violations: int):
        nonlocal best_count, best_coloring
        if violations >= best_count:
            return
        if depth == n:
            best_count = violations
            best_coloring = coloring[:]
            return
        v = order[depth]
        for c in (first_colors if depth == 0 else range(s)):
            _recolor(nbrs, counts, coloring, v, c)
            extra = sum(counts[u] != rows[coloring[u]] for u in decided_at[depth])
            dfs(depth + 1, violations + extra)

    dfs(0, 0)
    return best_count / n, np.array(best_coloring, dtype=np.int64)


def min_error_local_search(graph, matrix: CoveringMatrix, restarts: int,
                           rng: np.random.Generator):
    """Steepest-descent single-vertex recoloring from random starts.

    Returns ``(ratio, witness_coloring)`` with ratio an upper bound on the
    exact minimum, non-increasing in the number of restarts.  A trial
    recoloring updates a table of neighbor-color counts in O(d).
    """
    if graph.d != matrix.d:
        raise ValueError(f"graph degree {graph.d} does not match matrix degree {matrix.d}")
    if restarts < 1:
        raise ValueError("need at least 1 restart")
    s = matrix.s_count
    n = graph.n
    nbrs = graph.neighbors.tolist()
    rows = matrix.mat.tolist()
    closed = [sorted({v, *nbrs[v]}) for v in range(n)]
    best_count = n + 1
    best_coloring = None

    def violations(vertices) -> int:
        return sum(counts[u] != rows[coloring[u]] for u in vertices)

    for _ in range(restarts):
        coloring = rng.integers(0, s, size=n).tolist()
        counts = _neighbor_counts(nbrs, coloring, s)
        current = violations(range(n))
        while current > 0:
            move = None
            for v in range(n):
                old = coloring[v]
                before = violations(closed[v])
                for c in range(s):
                    if c == old:
                        continue
                    _recolor(nbrs, counts, coloring, v, c)
                    gain = before - violations(closed[v])
                    if gain > 0 and (move is None or gain > move[0]):
                        move = (gain, v, c)
                _recolor(nbrs, counts, coloring, v, old)
            if move is None:
                break
            gain, v, c = move
            _recolor(nbrs, counts, coloring, v, c)
            current -= gain
        if current < best_count:
            best_count = current
            best_coloring = np.array(coloring, dtype=np.int64)
    return best_count / n, best_coloring


# ---------------------------------------------------------------------------
# the epsilon_0 threshold
# ---------------------------------------------------------------------------

def _delta_generic(matrix: CoveringMatrix, eps: float) -> float:
    k = _support_diameter(matrix.mat)
    d = matrix.d
    out = 1.0 / (matrix.s_count * d**k)
    out -= eps * sum(d**-i for i in range(1, k + 1))
    return out


def delta_lower_bound(matrix: CoveringMatrix, eps: float) -> float:
    """Guaranteed minimum state probability of near-coverings.

    Generic bound: 1/(|S| d^K) - eps * sum_{i<=K} d^-i with K the support
    digraph diameter (a state of high probability feeds its neighbors along
    directed paths).  Sharper registered values override it: (1-eps)/(d+1) for the
    dominating matrix and 1/2 - eps for the bipartite matrix.  Raises for a negative
    or NaN eps and when the bound is nonpositive (eps too large).
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    value = _resolve_delta(matrix)[0](eps)
    if value <= 0.0:
        raise ValueError(f"delta bound is nonpositive at eps={eps}: premise fails")
    return value


_REL_TOL = 1e-6  # epsilon0 bisects until the bracket is this small relative to its low end
_STEP = 2.0**-16  # epsilon0 moves its low end down by this factor until g turns positive


@dataclass(frozen=True)
class ThresholdReport:
    """Root of g(eps) = (delta^d - eps)/2 - sqrt(eps ln|S| (d-1)/(d-2)).

    ``certificate_lo`` and ``certificate_hi`` are g at eps_0 (1 - 1e-5) and
    eps_0 (1 + 1e-5): positive and nonpositive, so the root lies between.
    """

    epsilon0: float
    d: int
    s_count: int
    delta_id: str
    certificate_lo: float
    certificate_hi: float

    @property
    def ratio_bound(self) -> float | None:
        """The bound eps_0 implies: a dominating ratio of at least 1/(d+1) + eps_0,
        an independence ratio of at most 1/2 - eps_0; None for a generic matrix."""
        if self.delta_id == "dominating":
            return 1.0 / (self.d + 1.0) + self.epsilon0
        if self.delta_id == "bipartite":
            return 0.5 - self.epsilon0
        return None


_FAMILIES = {"dominating": dominating_matrix, "independence": bipartite_matrix,
             "bipartite": bipartite_matrix}


def _resolve_delta(family, d: int | None = None):
    """(delta function, d, s_count, delta id) of a matrix or registered family id."""
    if not isinstance(family, CoveringMatrix):
        if family not in _FAMILIES:
            raise ValueError(f"unknown delta family {family!r}")
        if d is None or d < 3:
            raise ValueError("family thresholds need d of at least 3")
        family = _FAMILIES[family](d)
    dd = family.d
    if dd >= 1:  # no registered matrix has degree 0: the 1x1 matrix [[0]] is generic
        if np.array_equal(family.mat, dominating_matrix(dd).mat):
            return (lambda e: (1.0 - e) / (dd + 1.0)), dd, family.s_count, "dominating"
        if np.array_equal(family.mat, bipartite_matrix(dd).mat):
            return (lambda e: 0.5 - e), dd, family.s_count, "bipartite"
    return (lambda e: _delta_generic(family, e)), dd, family.s_count, "generic"


def epsilon0(family, d: int | None = None, s_count: int | None = None) -> ThresholdReport:
    """Smallest eps where the entropy-route bound overtakes the covering bound.

    ``family`` is a CoveringMatrix or a registered id, "dominating" for
    ``dominating_matrix(d)`` or "independence" for ``bipartite_matrix(d)``.
    Returns the root of

        g(eps) = (delta(eps)^d - eps)/2 - sqrt(eps * ln(s) * (d-1)/(d-2))

    (natural logarithm).  Every delta bound is nonincreasing in eps, so g is
    strictly decreasing while delta > 0 and has exactly one root; eps values
    where the delta premise fails count as crossed.  g(1/2) < 0 for every
    matrix and s >= 2, since delta <= 1 and sqrt(ln 2 / 2) > 1/4, so the low
    end steps down from 1/2 by factors of 2^16 until g turns positive, and
    geometric bisection sharpens the bracket to relative tolerance 1e-6.  The
    search stops at the smallest normal float: a root below it (the
    dominating family from d = 81 on) raises ValueError.
    """
    delta_fn, d, s_default, delta_id = _resolve_delta(family, d)
    if d < 3:
        raise ValueError("d must be at least 3")
    s = s_default if s_count is None else s_count
    if s < 2:
        raise ValueError("s_count must be at least 2")
    coef = math.log(s) * (d - 1.0) / (d - 2.0)

    def g(eps: float) -> float:
        dv = delta_fn(eps)
        if dv <= 0.0:
            return -math.inf
        return 0.5 * (dv**d - eps) - math.sqrt(eps * coef)

    lo = hi = 0.5
    while g(lo) <= 0.0:
        if lo == sys.float_info.min:
            raise ValueError(f"eps_0 is below the smallest normal float {lo:.3e}")
        lo, hi = max(lo * _STEP, sys.float_info.min), lo
    while hi - lo > _REL_TOL * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    eps0 = 0.5 * (lo + hi)
    return ThresholdReport(
        epsilon0=eps0, d=d, s_count=s, delta_id=delta_id,
        certificate_lo=g(eps0 * (1.0 - 1e-5)), certificate_hi=g(eps0 * (1.0 + 1e-5)),
    )


def dominating_table(d_from: int, d_to: int) -> list[ThresholdReport]:
    """Dominating-family thresholds for d_from..d_to; each ``ratio_bound`` is the
    dominating-ratio lower bound 1/(d+1) + eps_0."""
    if d_from > d_to:
        raise ValueError(f"empty degree range: d_from {d_from} exceeds d_to {d_to}")
    return [epsilon0("dominating", d=d) for d in range(d_from, d_to + 1)]


def format_dominating_table(rows: list[ThresholdReport]) -> str:
    """Aligned-text rendering of a dominating table."""
    lines = [f"{'d':>3}  {'epsilon0':>12}  {'dominating_bound':>18}"]
    for row in rows:
        lines.append(f"{row.d:>3}  {row.epsilon0:>12.4e}  {row.ratio_bound:>18.10f}")
    return "\n".join(lines) + "\n"


def independence_threshold(d: int) -> ThresholdReport:
    """Independence-family threshold; ``ratio_bound`` is the upper bound 1/2 - eps_0
    on the independence ratio of random d-regular graphs."""
    return epsilon0("independence", d=d)


# ---------------------------------------------------------------------------
# rigidity of star laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    leaf_determined: bool
    rest_tv_from_product: float
    marginals_identical: bool

    @property
    def label(self) -> str:
        return "RIGID (not typical)" if self.rigid else "inconclusive"


def rigidity_check(star_joint, tol: float = 1e-9) -> RigidityVerdict:
    """Check rigidity of a star law: one leaf a function of the rest, rest not i.i.d.

    ``star_joint`` is an array over (center, leaf_1, ..., leaf_d); leaf_1
    plays the distinguished role.  Rigid laws cannot be modelled on random
    d-regular graphs.
    """
    joint = np.asarray(star_joint, dtype=float)
    if joint.ndim < 3:
        raise ValueError("star law needs a center and at least two leaves")
    # a non-finite entry makes the sum NaN or infinite, which fails the <= test
    if not abs(joint.sum() - 1.0) <= 1e-9 or np.any(joint < 0):
        raise ValueError("star law must be a finite probability array")

    # (i): the leaf on axis 1 is determined by the other coordinates
    support_per_rest = (joint > 0).sum(axis=1)
    leaf_determined = bool(np.all(support_per_rest <= 1))

    # (ii): the law on the remaining coordinates is not an i.i.d. product
    rest = joint.sum(axis=1)
    marginals = [
        rest.sum(axis=tuple(a for a in range(rest.ndim) if a != axis))
        for axis in range(rest.ndim)
    ]
    product = marginals[0]
    for m in marginals[1:]:
        product = np.multiply.outer(product, m)
    tv = 0.5 * float(np.abs(rest - product).sum())
    identical = all(
        0.5 * float(np.abs(m - marginals[0]).sum()) <= tol for m in marginals[1:]
    )
    not_iid = (tv > tol) or (not identical)
    return RigidityVerdict(
        rigid=leaf_determined and not_iid,
        leaf_determined=leaf_determined,
        rest_tv_from_product=tv,
        marginals_identical=identical,
    )


def read_covering_matrix(path) -> CoveringMatrix:
    """Text format: header ``s_count d``, then exactly ``s_count`` integer matrix rows."""
    rows = _read_rows(path)
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"missing 's_count d' header in {path}")
    s, d = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != s:
        raise ValueError(f"header of {path} announces {s} matrix rows, the body has {len(rows) - 1}")
    matrix = CoveringMatrix([[int(x) for x in row] for row in rows[1:]])
    if matrix.s_count != s or matrix.d != d:
        raise ValueError("matrix body does not match its header")
    return matrix


def write_covering_matrix(matrix: CoveringMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{matrix.s_count} {matrix.d}\n")
        for row in matrix.mat:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
