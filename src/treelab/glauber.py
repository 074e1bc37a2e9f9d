"""Simultaneous heat-bath dynamics driven by i.i.d. labels.

One sweep wakes the vertices whose fresh uniform label beats every other label
in their radius-2 ball (a 3-separated set, density 1/(d^2+1) in the interior)
and resamples each woken vertex from the conditional law of its state given
its d neighbors.  Because woken vertices are pairwise non-adjacent and the
branching-chain law is a Markov field on the tree, a sweep started from the
chain law leaves it exactly invariant; coupled sweeps driven by shared labels
and per-vertex maximal couplings give computable upper bounds on the coupling
Hamming distance between two processes.

Waking is restricted to vertices with all d neighbors present (depth <= R-1),
and all reported statistics are read off an interior window (depth <= R/2 by
default) to quarantine boundary effects of the truncation.

The sweep works on (n, R) blocks of replicas and leans on the breadth-first
layout of the tree.  The radius-2 maximum of the float labels is two
self-plus-neighbor max hops, each a pair of block reshapes; exact ties are
broken toward the smaller index by comparing each vertex with its earlier
ball members (parent, grandparent, earlier siblings).  When k^d is small the
conditional laws of all ordered neighbor tuples are tabulated once per (kernel, d)
and looked up by the base-k code of the neighbor states; when k^(2d) is small, so
is the maximal coupling of every ordered pair of codes.  Otherwise a woken
vertex's law is taken on its column set: the states s with q[s, w] != 0 for its
first neighbor state w (in a coupled sweep, the union over both copies), in order,
with zero-weight sentinels as padding.  Zero weights leave the running sums as they
are wherever they sit; a sum of at most two nonzero terms rounds alike in any
grouping, and longer rows are summed by numpy as dense rows.  So all of this gives
bitwise the same draws as evaluating the definitions one site at a time.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ImpossibleConfigurationError
from .kernels import NeighborConfig, TransitionKernel, _heat_bath_weights, dobrushin_coefficient
from .trees import (Configuration, RealField, TruncatedTree, _count_columns, _cumulate,
                    _draw_rows, build_tree, exact_bmc_marginals, sample_bmc_batch,
                    tree_vertex_count)

# Replica block size for the vectorized drivers; fixed so that results are a
# deterministic function of (arguments, seed).
_CHUNK = 2048

# Largest k^(d+1) for which fixed_point_test compares the star law.
_STAR_MAX = 100_000

# Largest k^d for which the sweeps tabulate the law of every ordered neighbor tuple
# (and k^(2d) for the coupled draw of every pair of tuples) instead of one per vertex.
_LAW_TABLE_MAX = 4096


def wake_probability(d: int) -> float:
    """Interior waking probability: 1 / (d^2 + 1) by exchangeability of the ball labels."""
    return 1.0 / (d * d + 1.0)


@dataclass(frozen=True)
class WakingSet:
    """A draw of the simultaneous-update set: flags per vertex plus its density."""

    tree: TruncatedTree
    member: np.ndarray
    density: float


def _closed_max(tree: TruncatedTree, x: np.ndarray) -> np.ndarray:
    """Max of an (n, R) block over each vertex and its neighbors.

    Uses the breadth-first layout: the children of every non-root vertex of
    depth < R form one block of d-1 consecutive rows, so both directions are
    block reshapes, with no index gather.
    """
    d, internal = tree.d, tree_vertex_count(tree.d, tree.depth - 1)
    out = x.copy()
    kids = x[d + 1 :].reshape((internal - 1, d - 1) + x.shape[1:])
    for j in range(d - 1):
        np.maximum(out[1:internal], kids[:, j], out=out[1:internal])
    np.maximum(out[0], x[1 : d + 1].max(axis=0), out=out[0])
    np.maximum(out[1 : d + 1], x[0], out=out[1 : d + 1])
    out_kids = out[d + 1 :].reshape(kids.shape)
    np.maximum(out_kids, x[1:internal, None], out=out_kids)
    return out


def _waking_sites(tree: TruncatedTree, labels: np.ndarray):
    """Row-major (vertex, replica) indices of the waking set of an (n, R) label block.

    Two self-plus-neighbor max hops give each vertex the float maximum of its
    radius-2 ball; a vertex with all d neighbors (in breadth-first numbering,
    the vertices of depth < R, which come first) wakes when its label equals
    it, unless an earlier member of its ball carries the same label (the
    smallest-index tie rule).  The earlier members are the parent, the
    grandparent and the earlier siblings, compared block by block.
    """
    reps = labels.shape[1]
    d, internal = tree.d, tree_vertex_count(tree.d, tree.depth - 1)
    ball_max = _closed_max(tree, _closed_max(tree, labels))
    tie = np.zeros((internal, reps), dtype=bool)
    for j in range(1, min(d + 1, internal)):  # the root's children
        tie[j] = (labels[:j] == labels[j]).any(axis=0)
    blocks = labels[d + 1 : internal].reshape(-1, d - 1, reps)  # children of 1, 2, ...
    owners = slice(1, 1 + len(blocks))
    par, gpar = labels[owners], labels[tree.parent[owners]]
    for j in range(d - 1):
        kid = blocks[:, j]
        hit = (kid == par) | (kid == gpar) | (kid == blocks[:, :j].transpose(1, 0, 2)).any(axis=0)
        tie[d + 1 + j : internal : d - 1] = hit
    flat = np.flatnonzero((labels[:internal] == ball_max[:internal]) & ~tie)
    v_idx = flat // reps
    return v_idx, flat - v_idx * reps


def _waking_mask(tree: TruncatedTree, labels: np.ndarray) -> np.ndarray:
    """(n, R) membership flags of the waking set: ball maxima by float max hops,
    ties to the smaller index by the earlier-member check of ``_waking_sites``."""
    member = np.zeros(labels.shape, dtype=bool)
    member[_waking_sites(tree, labels)] = True
    return member


def waking_set(tree: TruncatedTree, labels: RealField) -> WakingSet:
    """Deterministic waking set of a label field.

    A vertex joins iff its label strictly exceeds every other label in its
    radius-2 truncated ball (exact ties, a measure-zero event, are broken
    toward the smaller vertex index) and it has all d neighbors.  Members are
    pairwise at tree distance >= 3.  Computed as the label equalling the float
    maximum of its ball, with no earlier ball member (parent, grandparent or
    earlier sibling) carrying the same label.
    """
    member = _waking_mask(tree, labels.values[:, None])[:, 0]
    return WakingSet(tree, member, float(member.mean()))


def conditional_dist(kernel: TransitionKernel, neighbors) -> np.ndarray:
    """Heat-bath law of a vertex state given its neighbor states.

    P(s | omega) = pi[s] * prod_u q[s, omega_u], normalized; exchangeable in
    the neighbors.  Raises ImpossibleConfigurationError when omega has
    probability zero under the chain, ValueError unless omega lists ints in 0..k-1.
    """
    states = np.asarray(neighbors.states if isinstance(neighbors, NeighborConfig) else neighbors)
    if states.ndim != 1 or states.size and (states.dtype.kind not in "iu" or states.min() < 0
                                            or states.max() >= kernel.state_count):
        raise ValueError(f"neighbor states must be integers in 0..{kernel.state_count - 1}")
    w = _heat_bath_weights(kernel, states)
    total = w.sum()
    if total <= 0.0:
        raise ImpossibleConfigurationError(
            "neighbor configuration has probability zero under the chain"
        )
    return w / total


def _row_sums(w: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Row sums of laws on column sets, each the float numpy sums from the dense k-state row."""
    totals = w.sum(axis=1)
    many = np.count_nonzero(w, axis=1) > 2  # fewer terms sum alike in any grouping
    totals[many] = _dense(w[many], cols[many], k).sum(axis=1)
    return totals


def _dense(w: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """(m, k) rows of laws on column sets, zero off the sets."""
    dense = np.zeros((w.shape[0], k + 1))
    np.put_along_axis(dense, cols, w, axis=1)
    return dense[:, :k]


def _laws(kernel: TransitionKernel, nbr_states: np.ndarray, cols=None):
    """Laws of (m, d) neighbor states on ``cols`` (None: all k), and zero-total flags."""
    k, (q_t, pi_t) = kernel.state_count, kernel.column_sets[1:]
    at, nbr = (slice(k), nbr_states) if cols is None else (cols, nbr_states[:, :, None])
    w = q_t[nbr[:, 0], at]
    for j in range(1, nbr_states.shape[1]):  # the neighbors in order, as np.prod takes them
        w = w * q_t[nbr[:, j], at]
    w = pi_t[at] * w
    totals = w.sum(axis=1) if cols is None else _row_sums(w, cols, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / totals[:, None], totals <= 0.0


def _code_tables(kernel: TransitionKernel, d: int) -> SimpleNamespace:
    """Read-only tables over the K = k^d neighbor codes, kept per d on the kernel: ``zero``
    flags, ``laws`` and cumulative laws ``cum``, and if K^2 <= _LAW_TABLE_MAX, ``pair`` over
    codes a*K + b (overlap mass, cumulative overlap and residual laws, lost-overlap flags),
    each row bit for bit as ``_coupled_draw`` computes it from laws a and b."""
    if d not in kernel.code_tables:
        laws, zero = _laws(kernel, np.indices((kernel.state_count,) * d).reshape(d, -1).T)
        with np.errstate(divide="ignore", invalid="ignore"):  # nan rows: zero-total codes, no overlap
            tables = SimpleNamespace(zero=zero, laws=laws, cum=_cumulate(laws), pair=None)
            if laws.shape[0] ** 2 <= _LAW_TABLE_MAX:
                pa, pb = np.repeat(laws, laws.shape[0], axis=0), np.tile(laws, (laws.shape[0], 1))
                common = np.minimum(pa, pb)
                ra, rb = pa - common, pb - common
                sa, sb = ra.sum(axis=1), rb.sum(axis=1)
                dead = (sa <= 0.0) | (sb <= 0.0)  # an exact overlap: both draw from pa
                ra[dead] = rb[dead] = pa[dead]
                sa[dead] = sb[dead] = pa[dead].sum(axis=1)
                c = common.sum(axis=1)
                cums = (_cumulate(r / s[:, None]) for r, s in ((common, c), (ra, sa), (rb, sb)))
                tables.pair = (c, *cums, dead)
        for a in (zero, laws, tables.cum, *(tables.pair or ())):
            a.setflags(write=False)
        kernel.code_tables[d] = tables
    return kernel.code_tables[d]


def _woken_laws(states: np.ndarray, v_idx: np.ndarray, r_idx: np.ndarray,
                tree: TruncatedTree, kernel: TransitionKernel, cols=None):
    """Conditional laws of the woken (vertex, replica) pairs, as (laws, rows, cols).

    Without ``cols``, when k^d is at most _LAW_TABLE_MAX, ``laws`` is the law table
    of ``_code_tables`` and pair i uses row ``rows[i]``, the base-k code of its
    neighbor states; otherwise row i is pair i's law on the states ``cols[i]`` (the
    given sets, else its own; None is all k states).  Both evaluate the same
    expression per entry, bit for bit.
    """
    k, d = kernel.state_count, tree.d
    nbr_states = states[tree.neighbors[v_idx], r_idx[:, None]]  # (m, d)
    if cols is None and k**d <= _LAW_TABLE_MAX:
        tables, rows = _code_tables(kernel, d), nbr_states @ k ** np.arange(d - 1, -1, -1)
        laws, zero = tables.laws, tables.zero[rows]
    else:
        sets, rows = kernel.column_sets[0], None
        if cols is None and sets.shape[1] < k:
            cols = sets[nbr_states[:, 0]]
        laws, zero = _laws(kernel, nbr_states, cols)
    if zero.any():
        raise ImpossibleConfigurationError(
            "a woken vertex saw a neighbor configuration of probability zero"
        )
    return laws, rows, cols


def _member_weights(states: np.ndarray, member: np.ndarray, tree: TruncatedTree,
                    kernel: TransitionKernel):
    """Normalized (m, k) conditional laws for every woken (vertex, replica) pair."""
    v_idx, r_idx = np.nonzero(member)
    laws, rows, cols = _woken_laws(states, v_idx, r_idx, tree, kernel)
    laws = laws if cols is None else _dense(laws, cols, kernel.state_count)
    return v_idx, r_idx, laws if rows is None else laws[rows]


def _sweep_states(states: np.ndarray, tree: TruncatedTree, kernel: TransitionKernel,
                  rng: np.random.Generator) -> None:
    """One in-place sweep of an (n, R) state block."""
    v_idx, r_idx = _waking_sites(tree, rng.random(states.shape))
    if v_idx.size:
        laws, rows, cols = _woken_laws(states, v_idx, r_idx, tree, kernel)
        cum = _cumulate(laws) if rows is None else _code_tables(kernel, tree.d).cum
        x = _count_columns(cum, rng.random(v_idx.size), rows)
        states[v_idx, r_idx] = x if cols is None else cols[np.arange(x.size), x]


def _check_states(kernel: TransitionKernel, *configs: Configuration) -> None:
    if any(not 0 <= c.states.min() <= c.states.max() < kernel.state_count for c in configs):
        raise ValueError(f"configuration states must lie in 0..{kernel.state_count - 1}")


def glauber_sweep(config: Configuration, kernel: TransitionKernel,
                  rng: np.random.Generator) -> Configuration:
    """One sweep: draw fresh labels, wake the 3-separated set, resample its members.

    Non-members keep their state.  Members are resampled independently from
    their conditional laws given the (pre-sweep) neighbor states; separation
    makes pre- and post-sweep neighbor states identical.
    """
    _check_states(kernel, config)
    states = config.states[:, None].copy()
    _sweep_states(states, config.tree, kernel, rng)
    return Configuration(config.tree, states[:, 0])


def maximal_coupling(p, q, rng: np.random.Generator) -> tuple[int, int]:
    """One draw (X, Y) with marginals p and q and P(X != Y) = d_TV(p, q).

    Construction: with probability 1 - TV sample both from the overlap
    min(p, q); otherwise draw X and Y independently from the normalized
    residuals, whose supports are disjoint.  Consumes three uniforms of
    ``rng`` per call, as one row of the sweep's coupled draw.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError("distributions must be vectors on one support")
    if not all(np.isfinite(x).all() and (x >= 0).all() and x.sum() > 0 for x in (p, q)):
        raise ValueError("distributions need finite nonnegative entries and positive mass")
    # _coupled_draw on one row: numpy takes the sums, so they round alike
    common = np.minimum(p, q)
    c = float(common.sum())
    u_branch, u_draw, u_draw_b = rng.random(3).tolist()
    if u_branch >= c:
        ra, rb = p - common, q - common
        sa, sb = float(ra.sum()), float(rb.sum())
        if sa > 0.0 and sb > 0.0:
            return _draw_one(ra, sa, u_draw), _draw_one(rb, sb, u_draw_b)
        common, c = p, float(p.sum())  # an exact overlap lost the lottery to roundoff
    x = _draw_one(common, c, u_draw)
    return x, x


def _draw_one(weights: np.ndarray, total: float, u: float) -> int:
    """``_draw_rows`` of the law ``weights / total`` at one uniform, with the
    same roundings: a running sum, rescaled by its last entry."""
    cum = list(itertools.accumulate(w / total for w in weights.tolist()))
    return next((i for i, x in enumerate(cum) if u < x / cum[-1]), 0)


def _coupled_draw(pa: np.ndarray, pb: np.ndarray, rng: np.random.Generator, cols=None, k=0):
    """Row-wise maximal coupling: (m, c) laws -> paired draws (xa, xb); with ``cols``,
    column j of row i is state cols[i, j] of k, and masses sum by ``_row_sums``."""
    def total(x, rows=slice(None)):
        return x.sum(axis=1) if cols is None else _row_sums(x, cols[rows], k)

    m = pa.shape[0]
    common = np.minimum(pa, pb)
    c = total(common)
    u_branch, u_draw, u_draw_b = rng.random((3, m))
    same = u_branch < c
    xa = np.empty(m, dtype=np.int64)
    xb = np.empty(m, dtype=np.int64)
    if same.any():
        rows = common[same] / c[same, None]
        xa[same] = xb[same] = _draw_rows(rows, u_draw[same])
    diff = np.flatnonzero(~same)
    if diff.size:
        ra = pa[diff] - common[diff]  # nonnegative: common is the smaller of the two
        rb = pb[diff] - common[diff]
        sa, sb = total(ra, diff), total(rb, diff)
        # guard exact-overlap rows that lost the branch lottery to roundoff
        dead = (sa <= 0.0) | (sb <= 0.0)
        if dead.any():
            ra[dead] = pa[diff[dead]]
            rb[dead] = ra[dead]
            sa[dead] = total(ra[dead], diff[dead])
            sb[dead] = sa[dead]
        xa[diff] = _draw_rows(ra / sa[:, None], u_draw[diff])
        xb[diff] = _draw_rows(rb / sb[:, None], u_draw_b[diff])
        xb[diff[dead]] = xa[diff[dead]]
    return (xa, xb) if cols is None else (cols[np.arange(m), xa], cols[np.arange(m), xb])


def _coupled_sweep_states(sa: np.ndarray, sb: np.ndarray, tree: TruncatedTree,
                          kernel: TransitionKernel, rng: np.random.Generator) -> None:
    """One in-place coupled sweep of two (n, R) state blocks.

    A single label draw selects one shared waking set; each member is
    resampled through the maximal coupling of its two conditional laws,
    independently across members (by the pair table's rows when it exists).
    """
    v_idx, r_idx = _waking_sites(tree, rng.random(sa.shape))
    k, sets, cols = kernel.state_count, kernel.column_sets[0], None
    if sets.shape[1] < k and k**tree.d > _LAW_TABLE_MAX:
        first = tree.neighbors[v_idx, 0]  # both laws go on the union of the copies' sets
        cols = np.sort(np.hstack([sets[sa[first, r_idx]], sets[sb[first, r_idx]]]), axis=1)
        cols[:, 1:][cols[:, 1:] == cols[:, :-1]] = k  # a repeat becomes a sentinel
    (pa, rows_a, _), (pb, rows_b, _) = (_woken_laws(s, v_idx, r_idx, tree, kernel, cols)
                                        for s in (sa, sb))
    pair = None if rows_a is None else _code_tables(kernel, tree.d).pair
    if pair is None:
        pa, pb = (pa, pb) if rows_a is None else (pa[rows_a], pb[rows_b])
        sa[v_idx, r_idx], sb[v_idx, r_idx] = _coupled_draw(pa, pb, rng, cols, k)
        return
    c, overlap, res_a, res_b, dead = pair
    code = rows_a * pa.shape[0] + rows_b
    u_branch, u_draw, u_draw_b = rng.random((3, code.size))
    same = u_branch < c[code]
    xa = np.where(same, _count_columns(overlap, u_draw, code), _count_columns(res_a, u_draw, code))
    sb[v_idx, r_idx] = np.where(same | dead[code], xa, _count_columns(res_b, u_draw_b, code))
    sa[v_idx, r_idx] = xa


@dataclass(frozen=True)
class CoupledPair:
    """Two configurations on one tree evolved under shared sweeps."""

    config_a: Configuration
    config_b: Configuration
    sweeps_done: int = 0

    def __post_init__(self):
        if self.config_a.tree is not self.config_b.tree:
            raise ValueError("coupled configurations must share a tree")

    @property
    def tree(self) -> TruncatedTree:
        return self.config_a.tree


def coupled_sweep(pair: CoupledPair, kernel: TransitionKernel,
                  rng: np.random.Generator) -> CoupledPair:
    """Advance a coupled pair by one shared sweep."""
    _check_states(kernel, pair.config_a, pair.config_b)
    sa = pair.config_a.states[:, None].copy()
    sb = pair.config_b.states[:, None].copy()
    _coupled_sweep_states(sa, sb, pair.tree, kernel, rng)
    return CoupledPair(
        Configuration(pair.tree, sa[:, 0]),
        Configuration(pair.tree, sb[:, 0]),
        pair.sweeps_done + 1,
    )


def _window(tree: TruncatedTree, window_depth: int | None) -> tuple[int, np.ndarray]:
    """Depth (R/2 unless given) and vertex indices of the interior window."""
    wd = tree.depth // 2 if window_depth is None else window_depth
    if not 0 <= wd <= tree.depth:
        raise ValueError("window depth out of range")
    return int(wd), np.flatnonzero(tree.depth_of <= wd)


def _chunks(replicas: int, sweeps: int, rng: np.random.Generator):
    """Replica blocks of at most _CHUNK, each with its own spawned generator;
    checks the run's replica and sweep counts when called."""
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    if sweeps < 0:
        raise ValueError("sweeps must be nonnegative")
    return ((min(_CHUNK, replicas - start), rng.spawn(1)[0])
            for start in range(0, replicas, _CHUNK))


def _fit_rate(sweeps: np.ndarray, means: np.ndarray, stderrs: np.ndarray):
    """Log-linear least squares on the sweeps where the signal dominates noise."""
    mask = (means > 0) & (means > 10.0 * stderrs)
    if mask.sum() < 2:
        return float("nan"), float("nan"), mask
    x = sweeps[mask].astype(float)
    y = np.log(means[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = max(mask.sum() - 2, 1) * ((x - x.mean()) ** 2).sum()
    slope_se = float(np.sqrt((resid**2).sum() / denom)) if denom > 0 else float("nan")
    return float(np.exp(slope)), slope_se, mask


@dataclass(frozen=True)
class DecayReport:
    """Coupled-run disagreement curve plus the fitted per-sweep decay rate."""

    sweeps: np.ndarray
    mean_distance: np.ndarray
    stderr: np.ndarray
    rate: float
    rate_interval: tuple[float, float]
    dobrushin: float
    p_wake: float
    contraction_bound: float  # 1 - p_wake * (1 - d * D), meaningful when D < 1/d
    replicas: int
    window_depth: int
    fit_mask: np.ndarray = field(repr=False)


def _run_coupled_curve(kernel, tree, sweeps, replicas, rng, window, init):
    """Shared driver: evolve coupled blocks, return per-sweep disagreement stats."""
    chunks = _chunks(replicas, sweeps, rng)
    sums = np.zeros(sweeps + 1)
    sums_sq = np.zeros(sweeps + 1)
    sample_pair = None
    for size, sub in chunks:
        sa, sb = init(size, sub)
        for t in range(sweeps + 1):
            if t:
                _coupled_sweep_states(sa, sb, tree, kernel, sub)
            frac = (sa[window] != sb[window]).mean(axis=0)
            sums[t] += frac.sum()
            sums_sq[t] += (frac**2).sum()
        sample_pair = (sa[:, 0].copy(), sb[:, 0].copy())
    means = sums / replicas
    var = np.maximum(sums_sq / replicas - means**2, 0.0)
    stderrs = np.sqrt(var / replicas)
    return means, stderrs, sample_pair


def estimate_hamming_decay(kernel: TransitionKernel, d: int, depth: int, sweeps: int,
                           replicas: int, rng: np.random.Generator,
                           window_depth: int | None = None) -> DecayReport:
    """Contraction measurement: couple two independent chain samples and sweep.

    Starts two independent exact chain draws per replica, runs shared coupled
    sweeps, and reports the mean interior-window disagreement per sweep with a
    log-linear least-squares rate fitted over the sweeps where the mean
    exceeds 10x its standard error.  When the Dobrushin coefficient D is below
    1/d the rate should not exceed 1 - p_wake * (1 - d*D) up to boundary and
    Monte Carlo effects.
    """
    tree = build_tree(d, depth)
    window_depth, window = _window(tree, window_depth)

    def init(size, sub):
        return (sample_bmc_batch(kernel, tree, sub, size),
                sample_bmc_batch(kernel, tree, sub, size))

    means, stderrs, _ = _run_coupled_curve(kernel, tree, sweeps, replicas, rng, window, init)
    sweep_axis = np.arange(sweeps + 1)
    rate, slope_se, mask = _fit_rate(sweep_axis, means, stderrs)
    interval = (rate * np.exp(-3.0 * slope_se), rate * np.exp(3.0 * slope_se))
    dob = dobrushin_coefficient(kernel, d)
    p = wake_probability(d)
    return DecayReport(
        sweeps=sweep_axis, mean_distance=means, stderr=stderrs, rate=rate,
        rate_interval=interval, dobrushin=dob, p_wake=p,
        contraction_bound=1.0 - p * (1.0 - d * dob), replicas=replicas,
        window_depth=window_depth,
        fit_mask=mask,
    )


@dataclass(frozen=True)
class FixedPointReport:
    """Empirical-vs-exact window laws after sweeping a chain sample."""

    tv_vertex: float
    floor_vertex: float
    tv_edge: float
    floor_edge: float
    tv_star: float | None
    floor_star: float | None
    sweeps: int
    replicas: int
    window_depth: int

    @property
    def vertex_ok(self) -> bool:
        return self.tv_vertex < 3.0 * self.floor_vertex

    @property
    def edge_ok(self) -> bool:
        return self.tv_edge < 3.0 * self.floor_edge

    @property
    def star_ok(self) -> bool | None:
        if self.tv_star is None:
            return None
        return self.tv_star < 3.0 * self.floor_star


def _tv_counts(counts: np.ndarray, exact: np.ndarray, draws: int, replicas: int):
    """TV of pooled empirical counts against an exact law, and a 3-sigma floor.

    The floor treats the replica count as the effective sample size: window
    vertices within one replica are correlated, and the variance of their
    average never exceeds the single-vertex variance, so the floor is a valid
    (conservative) upper bound on the estimator scale.
    """
    emp = counts / draws
    tv = 0.5 * float(np.abs(emp - exact).sum())
    floor = 0.5 * float(np.sqrt(exact * (1.0 - exact) / replicas).sum())
    return tv, floor


def fixed_point_test(kernel: TransitionKernel, d: int, depth: int, sweeps: int,
                     replicas: int, rng: np.random.Generator,
                     window_depth: int | None = None) -> FixedPointReport:
    """Statistical invariance check: sweep exact chain samples and compare window laws.

    Draws exact chain configurations, applies the sweep ``sweeps`` times, then
    compares the pooled interior-window vertex, edge, and star empirical laws
    against the exact marginals.  Each law should sit within its Monte Carlo
    noise floor (the sweep preserves the chain law exactly, also on the
    truncated tree).  The star law is skipped when k^(d+1) > _STAR_MAX.  The
    edge law needs a window of depth at least 1, so depth 1 needs an explicit
    ``window_depth=1``.  A one-state kernel is rejected: every TV and every
    floor would be 0, and no law could pass.
    """
    k = kernel.state_count
    if k < 2:
        raise ValueError("the fixed-point test needs at least two states")
    tree = build_tree(d, depth)
    window_depth, window = _window(tree, window_depth)
    if window_depth < 1:
        raise ValueError("the edge law needs a window depth of at least 1")
    nonroot = window[window > 0]
    centers = window[tree.neighbor_count[window] == d]
    do_star = k ** (d + 1) <= _STAR_MAX

    vertex_counts = np.zeros(k)
    edge_counts = np.zeros((k, k))
    star_counts = np.zeros((k,) * (d + 1)).reshape(-1) if do_star else None
    for size, sub in _chunks(replicas, sweeps, rng):
        states = sample_bmc_batch(kernel, tree, sub, size)
        for _ in range(sweeps):
            _sweep_states(states, tree, kernel, sub)
        vertex_counts += np.bincount(states[window].ravel(), minlength=k)
        pair_codes = (states[tree.parent[nonroot]] * k + states[nonroot]).ravel()
        edge_counts += np.bincount(pair_codes, minlength=k * k).reshape(k, k)
        if do_star:
            codes = states[centers]
            for j in range(d):
                codes = codes * k + states[tree.neighbors[centers, j]]
            star_counts += np.bincount(codes.ravel(), minlength=k ** (d + 1))

    tv_v, floor_v = _tv_counts(vertex_counts, exact_bmc_marginals(kernel, "vertex"),
                               window.size * replicas, replicas)
    tv_e, floor_e = _tv_counts(edge_counts, exact_bmc_marginals(kernel, "edge"),
                               nonroot.size * replicas, replicas)
    tv_s = floor_s = None
    if do_star:
        exact_star = exact_bmc_marginals(kernel, "star", d=d).reshape(-1)
        tv_s, floor_s = _tv_counts(star_counts, exact_star, centers.size * replicas, replicas)
    return FixedPointReport(
        tv_vertex=tv_v, floor_vertex=floor_v, tv_edge=tv_e, floor_edge=floor_e,
        tv_star=tv_s, floor_star=floor_s, sweeps=sweeps, replicas=replicas,
        window_depth=window_depth,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance-to-chain upper-bound curve for the sweep iterated from i.i.d. noise."""

    sweeps: np.ndarray
    mean_distance: np.ndarray
    stderr: np.ndarray
    predicted_initial: float
    final_distance: float
    final_stderr: float
    dobrushin: float
    contraction_bound: float
    replicas: int
    window_depth: int
    sample: Configuration = field(repr=False)


def converge_from_iid(kernel: TransitionKernel, d: int, depth: int, sweeps: int,
                      replicas: int, rng: np.random.Generator,
                      window_depth: int | None = None) -> ConvergenceReport:
    """Iterate the sweep from i.i.d. uniform states, tracking distance to the chain.

    A coupled companion copy starts from an exact chain sample and both evolve
    under shared sweeps, so the interior disagreement fraction at sweep t is
    an upper bound on the coupling Hamming distance between the t-fold swept
    uniform process and the chain.  Under the Dobrushin condition D < 1/d the
    curve decays geometrically; a warning is emitted otherwise.  At sweep 0
    the independent start makes the distance exactly 1 - 1/k in expectation.
    """
    k = kernel.state_count
    tree = build_tree(d, depth)
    window_depth, window = _window(tree, window_depth)
    dob = dobrushin_coefficient(kernel, d)
    if dob >= 1.0 / d:
        warnings.warn(
            f"Dobrushin coefficient {dob:.4f} >= 1/d: no contraction guarantee",
            stacklevel=2,
        )

    def init(size, sub):
        iid = sub.integers(0, k, size=(tree.n, size))
        chain = sample_bmc_batch(kernel, tree, sub, size)
        return iid, chain

    means, stderrs, sample_pair = _run_coupled_curve(
        kernel, tree, sweeps, replicas, rng, window, init
    )
    p = wake_probability(d)
    return ConvergenceReport(
        sweeps=np.arange(sweeps + 1), mean_distance=means, stderr=stderrs,
        predicted_initial=1.0 - 1.0 / k, final_distance=float(means[-1]),
        final_stderr=float(stderrs[-1]), dobrushin=dob,
        contraction_bound=1.0 - p * (1.0 - d * dob), replicas=replicas,
        window_depth=window_depth,
        sample=Configuration(tree, sample_pair[0]),
    )
