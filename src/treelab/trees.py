"""Finite truncated regular trees and branching Markov chains.

The arena is the depth-R truncation of the degree-d tree with free boundary:
the root has d children, every other internal vertex has d-1 children, and
leaves sit exactly at depth R.  The chain law restricted to any ball around an
interior vertex equals the infinite-tree law, so truncation introduces no bias
for interior observables; long-range statistics should be read off vertices of
depth at most R/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .kernels import TransitionKernel

_PATTERN_MAX = 10**8  # largest table, k^(pattern size) entries, exact_bmc_marginals builds
_COUNT_MAX_STATES = 8  # laws on at most this many states are drawn by counting columns
_GUIDE_MAX_CELLS = 2**20  # most entries, k * G, of a guide table


@dataclass(frozen=True)
class TruncatedTree:
    """Truncated degree-d tree with breadth-first vertex numbering.

    The root's children are 1..d and the children of vertex v >= 1 are the d-1
    indices from d + 1 + (v-1)(d-1) on, so the vertices of depth < R, which
    have all d neighbors, come first.  ``neighbors`` is an (n, d) index table,
    parent first, then children, padded with the sentinel ``n``; so the
    children of v are ``neighbors[v, int(v > 0) : neighbor_count[v]]``.
    """

    d: int
    depth: int
    parent: np.ndarray
    depth_of: np.ndarray
    neighbors: np.ndarray
    neighbor_count: np.ndarray

    @property
    def n(self) -> int:
        return self.parent.size

    def level(self, ell: int) -> np.ndarray:
        """Vertex indices at depth ell, the contiguous range the numbering gives."""
        if not 0 <= ell <= self.depth:
            return np.empty(0, dtype=np.int64)
        start = tree_vertex_count(self.d, ell - 1) if ell else 0
        return np.arange(start, tree_vertex_count(self.d, ell), dtype=np.int64)


def tree_vertex_count(d: int, depth: int) -> int:
    """1 + d * ((d-1)^depth - 1) / (d - 2) vertices in the truncated tree; d >= 3, depth >= 0."""
    if d < 3 or depth < 0:
        raise ValueError("need d >= 3 and depth >= 0")
    return 1 + d * ((d - 1) ** depth - 1) // (d - 2)


def build_tree(d: int, depth: int, max_vertices: int = 5_000_000) -> TruncatedTree:
    """Build the depth-``depth`` truncation of the degree-``d`` tree.

    Breadth-first numbering: root is 0, each vertex's children are contiguous,
    so the layout is the closed form that ``TruncatedTree`` states.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = tree_vertex_count(d, depth)
    if n > max_vertices:
        raise BudgetExceededError(f"tree would have {n} vertices, over the budget of {max_vertices}")
    internal = tree_vertex_count(d, depth - 1)  # vertices of depth < depth

    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    parent[1 : d + 1] = 0
    np.floor_divide(np.arange(d - 1, n - 2), d - 1, out=parent[d + 1 :])
    sizes = [1] + [d * (d - 1) ** (ell - 1) for ell in range(1, depth + 1)]
    depth_of = np.repeat(np.arange(depth + 1, dtype=np.int64), sizes)

    neighbors = np.full((n, d), n, dtype=np.int64)
    neighbors[0] = np.arange(1, d + 1)
    neighbors[1:, 0] = parent[1:]
    neighbors[1:internal, 1:] = np.arange(d + 1, n).reshape(-1, d - 1)
    neighbor_count = np.ones(n, dtype=np.int64)
    neighbor_count[:internal] = d

    for arr in (parent, depth_of, neighbors, neighbor_count):
        arr.setflags(write=False)
    return TruncatedTree(d, depth, parent, depth_of, neighbors, neighbor_count)


def tree_distance(tree: TruncatedTree, u: int, v: int) -> int:
    """Graph distance between two vertices (walks both up to the common ancestor)."""
    du, dv = int(tree.depth_of[u]), int(tree.depth_of[v])
    dist = 0
    while du > dv:
        u, du, dist = int(tree.parent[u]), du - 1, dist + 1
    while dv > du:
        v, dv, dist = int(tree.parent[v]), dv - 1, dist + 1
    while u != v:
        u, v = int(tree.parent[u]), int(tree.parent[v])
        dist += 2
    return dist


@dataclass(frozen=True)
class Configuration:
    """A state labeling of the tree vertices, entries in {0..k-1}."""

    tree: TruncatedTree
    states: np.ndarray

    def __post_init__(self):
        if self.states.shape != (self.tree.n,):
            raise ValueError("state array length must equal the vertex count")


@dataclass(frozen=True)
class RealField:
    """A real label per tree vertex (e.g. i.i.d. uniform marks)."""

    tree: TruncatedTree
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.tree.n,):
            raise ValueError("value array length must equal the vertex count")


def _cumulate(probs: np.ndarray) -> np.ndarray:
    """Cumulative laws down axis 0 (one law per column), rescaled to end at exactly 1.0."""
    cum = np.array(probs, dtype=float, order="C")
    for i in range(1, len(cum)):  # the sums of np.cumsum, one vector add per state
        cum[i] += cum[i - 1]
    cum /= cum[-1]
    return cum


def _count_columns(cum: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Draw i is the number of entries <= u[i] in its cumulative law: column
    ``rows[i]`` of ``cum``, column i without ``rows``, or ``cum`` if it is one vector.

    The cumulative laws are nondecreasing down axis 0, so this is the first bin
    above u; it is counted one state at a time, each a contiguous row of ``cum``.
    """
    out = np.zeros(u.shape, dtype=np.int64)
    for row in cum[:-1]:  # the last row is 1.0 > u
        out += (row if rows is None else row[rows]) <= u
    return out


def _draw_rows(probs: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF draw of one category per uniform in ``u``.

    Each law in ``probs`` (one per row, or a single vector) is cumulated and
    rescaled to end at exactly 1.0, so every u in [0, 1) lands in a bin, and
    its columns are counted (``_count_columns``).  With ``rows`` given, draw i
    uses the law ``probs[rows[i]]``, so a table of laws is cumulated once.
    """
    return _count_columns(_cumulate(probs.T), u, rows)


def _row_sampler(probs: np.ndarray):
    """``draw(u, rows)`` over read-only arrays, equal bit for bit to ``_draw_rows(probs, u, rows)``.

    Laws on at most _COUNT_MAX_STATES states, or with a negative entry, count
    columns.  Larger laws use a guide table (Chen and Asau, 1974) on a grid of
    G cells, G the power of two at or above 4k (halved while k * G passes
    _GUIDE_MAX_CELLS), so u * G and G * cum are exact.  For row s and cell b
    the table holds lo = #{j: cum[s, j] <= b/G}, the draw for every u in
    [b/G, (b+1)/G) unless some cum[s, j] lies inside the cell, which shows as
    hi = #{j: cum[s, j] < (b+1)/G} differing from lo.  Such a cell is stored
    as ~lo, and its draws are finished by a binary search over cum[s, lo:].
    Both counts come in closed form: a bincount of ceil(G * cum), or
    floor(G * cum), per row, summed cumulatively along the grid.
    """
    cum = _cumulate(probs.T)
    cum.setflags(write=False)
    k = cum.shape[0]
    if k <= _COUNT_MAX_STATES or np.any(probs < 0):
        return lambda u, rows: _count_columns(cum, u, rows)
    grid = 1 << (4 * k - 1).bit_length()
    while grid > 1 and k * grid > _GUIDE_MAX_CELLS:
        grid >>= 1
    scaled = cum[:-1].T * grid
    offsets = (grid + 1) * np.arange(k)[:, None]

    def at_most(cells):  # (k, grid + 1) counts of row entries <= each grid index
        counts = np.bincount((cells.astype(np.int64) + offsets).ravel(), minlength=k * (grid + 1))
        return counts.reshape(k, grid + 1).cumsum(axis=1)

    lo, hi = at_most(np.ceil(scaled)), at_most(np.floor(scaled))
    guide = np.where(lo == hi, lo, ~lo)
    guide.setflags(write=False)

    def draw(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = guide[rows, (u * grid).astype(np.int64)]
        flat = out.reshape(-1)
        (hits,) = np.nonzero(flat < 0)  # cells that hold a cumulative value
        if hits.size:
            uh, rh = u.reshape(-1)[hits], rows.reshape(-1)[hits]
            a = ~flat[hits]
            b = np.full_like(a, k - 1)  # cum[k - 1, s] = 1.0 > u
            for _ in range(int((b - a).max()).bit_length()):
                mid = (a + b) >> 1
                below = cum[mid, rh] <= uh
                a = np.where(below, mid + 1, a)
                b = np.where(below, b, mid)
            flat[hits] = a
        return out

    return draw


def sample_bmc_batch(kernel: TransitionKernel, tree: TruncatedTree, rng: np.random.Generator,
                     replicas: int) -> np.ndarray:
    """(n, replicas) states: root drawn from pi, children from the parent's q-row.

    Exact sampler; each replica is an independent draw of the chain on the
    truncated tree.  The root draws from pi, cumulated once per kernel
    (``TransitionKernel.stationary_sampler``).  The q-rows are cumulated, and for
    large k put in a guide table, once per kernel (``row_sampler``); each level
    then takes one draw per (vertex, replica) from its parent's row.
    """
    states = np.empty((tree.n, replicas), dtype=np.int64)
    states[0] = kernel.stationary_sampler(rng.random(replicas))
    for ell in range(1, tree.depth + 1):
        verts = tree.level(ell)
        u = rng.random((verts.size, replicas))
        states[verts] = kernel.row_sampler(u, states[tree.parent[verts]])
    return states


def sample_bmc(kernel: TransitionKernel, tree: TruncatedTree, rng: np.random.Generator) -> Configuration:
    """One exact draw of the branching chain on the truncated tree."""
    return Configuration(tree, sample_bmc_batch(kernel, tree, rng, 1)[:, 0])


def sample_iid(dist, tree: TruncatedTree, rng: np.random.Generator) -> Configuration:
    """Independent per-vertex draws from a finite distribution."""
    dist = np.asarray(dist, dtype=float)
    # a non-finite entry makes the sum NaN or infinite, which fails the <= test
    if dist.ndim != 1 or not abs(dist.sum() - 1.0) <= 1e-9 or np.any(dist < 0):
        raise ValueError("dist must be a finite probability vector")
    states = _draw_rows(dist, rng.random(tree.n))
    return Configuration(tree, states.astype(np.int64))


def sample_uniform_labels(tree: TruncatedTree, rng: np.random.Generator) -> RealField:
    """Independent uniform [0, 1) labels, one per vertex."""
    return RealField(tree, rng.random(tree.n))


def exact_bmc_marginals(kernel: TransitionKernel, pattern: str, d: int | None = None) -> np.ndarray:
    """Exact chain law on a small vertex pattern.

    - ``vertex``: the stationary vector pi, shape (k,).
    - ``edge``: pi[s] * q[s, t], shape (k, k).
    - ``star``: pi[s] * prod_i q[s, t_i] over ordered leaf tuples,
      shape (k,) * (d+1) with the center on axis 0.
    """
    k = kernel.state_count
    if pattern == "vertex":
        return kernel.pi.copy()
    if pattern == "edge":
        steps = 1
    elif pattern == "star":
        if d is None or d < 1:
            raise ValueError("star pattern needs the degree d")
        steps = d
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    if k ** (steps + 1) > _PATTERN_MAX:
        raise BudgetExceededError(f"pattern table of size {k ** (steps + 1)} exceeds budget")
    out = kernel.pi.copy()
    for _ in range(steps):
        out = out[..., None] * kernel.q.reshape((k,) + (1,) * (out.ndim - 1) + (k,))
    return out


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    stderr: float
    replicas: int
    distance: int


def _encoding_moments(kernel: TransitionKernel, encoding) -> tuple[np.ndarray, float, float]:
    """The encoding as floats with its stationary mean and variance, checked."""
    encoding = np.asarray(encoding, dtype=float)
    if encoding.shape != (kernel.state_count,) or not np.isfinite(encoding).all():
        raise ValueError("encoding must assign one finite real per state")
    mean = float(kernel.pi @ encoding)
    var = float(kernel.pi @ (encoding - mean) ** 2)
    if var <= 0.0:
        raise ValueError("encoding has zero variance under the stationary law")
    return encoding, mean, var


def estimate_correlation(kernel: TransitionKernel, distance: int, encoding,
                         replicas: int, rng: np.random.Generator) -> CorrelationEstimate:
    """Monte Carlo Pearson correlation of encoded states at tree distance k.

    The two observation points are the root and a depth-k descendant, whose
    joint law is the k-step stationary chain, so only the path is sampled.
    """
    encoding, _, _ = _encoding_moments(kernel, encoding)
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if distance == 0:
        return CorrelationEstimate(1.0, 0.0, replicas, 0)
    x = kernel.stationary_sampler(rng.random(replicas))
    g0 = encoding[x]
    for _ in range(distance):
        x = kernel.row_sampler(rng.random(replicas), x)
    gk = encoding[x]
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN when one end is constant
        c = np.corrcoef(g0, gk)
    r = float(c[0, 1])
    stderr = (1.0 - r * r) / np.sqrt(replicas - 1)
    return CorrelationEstimate(r, float(stderr), replicas, distance)


def local_correlation_bound(distance: int, d: int) -> float:
    """(k + 1 - 2k/d) * (d-1)^(-k/2): the correlation ceiling for local processes, 1 at k = 0."""
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    if d < 3:
        raise ValueError("degree must be at least 3")
    k = distance
    return (k + 1.0 - 2.0 * k / d) * (d - 1.0) ** (-k / 2.0)


def exact_correlations(kernel: TransitionKernel, encoding, k_max: int) -> np.ndarray:
    """Exact stationary correlations at distances 1..k_max via transfer matrices, on the
    centred encoding g with q^k g re-centred under pi after each step: rounding leaves it a
    constant part that never decays (without it ising(0.72) stalls at 2.31e-33 from k = 229
    on, where theta^300 is 1.6e-43)."""
    g, mean, var = _encoding_moments(kernel, encoding)
    g = g - mean
    out, v = np.empty(k_max), g
    for k in range(k_max):
        v = kernel.q @ v
        v -= kernel.pi @ v
        out[k] = float(kernel.pi @ (g * v)) / var
    return out


@dataclass(frozen=True)
class CorrelationVerdict:
    verdict: str  # "VIOLATES" or "CONSISTENT"
    witness: int | None
    k_max: int
    correlations: np.ndarray
    bounds: np.ndarray


def classify_correlation_decay(kernel: TransitionKernel, d: int, encoding,
                               k_max: int) -> CorrelationVerdict:
    """Compare exact chain correlations against the local-process ceiling.

    Returns VIOLATES with the first witness distance where |correlation|
    exceeds the bound (so the chain cannot be a weak limit of local rules),
    or CONSISTENT up to k_max.  No sampling is involved.  Both fall geometrically, so
    they compare relatively, on ``exact_correlations``.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    corr = exact_correlations(kernel, encoding, k_max)
    bounds = np.array([local_correlation_bound(k, d) for k in range(1, k_max + 1)])
    exceed = np.abs(corr) > bounds * (1.0 + 1e-9)
    if exceed.any():
        witness = int(np.flatnonzero(exceed)[0]) + 1
        return CorrelationVerdict("VIOLATES", witness, k_max, corr, bounds)
    return CorrelationVerdict("CONSISTENT", None, k_max, corr, bounds)


def dump_configuration(config: Configuration) -> str:
    """One line per vertex: ``depth index state``."""
    lines = [
        f"{int(config.tree.depth_of[v])} {v} {int(config.states[v])}"
        for v in range(config.tree.n)
    ]
    return "\n".join(lines) + "\n"
