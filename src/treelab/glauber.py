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
layout of the tree.  The radius-2 maximum of the float labels is one pass of
block reshapes and pairwise maxima over the vertices that can wake; exact ties
are broken toward the smaller index by comparing each vertex with its earlier
ball members (parent, grandparent, earlier siblings).  Woken sites are row-major
flat indices v*R + r of the block.  A woken vertex's law is taken on its column set:
the states s with q[s, w] != 0 for its first neighbor state w (in a coupled sweep, the
union over both copies), in order, with zero-weight sentinels as padding (all k states
for a kernel with no zero).  Laws are states-major, (c, m) for m sites, so each sum,
cumulation and count is c vector operations.  Zero weights leave the running sums as
they are wherever they sit, a sum of at most two nonzero terms rounds alike in any
grouping, and longer laws are summed by numpy as dense rows: the draws are bitwise those
of the definitions site by site.

One table per (kernel, d) holds the laws of the live codes, the base-k codes of neighbor
tuples (u_1..u_d) with q[s, u_j] != 0 for some s and every j (3430 of 343,000 for the
70-state walk at d=3), with an index from codes to rows.  Codes are formed by block
arithmetic; their leading digit is the first neighbor state.  For a table of few rows
the maximal coupling of every ordered pair of rows is tabulated too, on all k states;
otherwise a coupled sweep takes its unions from a table over the k^2 pairs of first
neighbor states, with each union state's row in either set, and reads both laws off the
table (zeros as +0 where an evaluated law may hold -0, which moves no sum or draw).  Past
the size caps each woken vertex evaluates its law and each coupled sweep sorts its unions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ImpossibleConfigurationError
from .kernels import (ATOL, NeighborConfig, TransitionKernel, _heat_bath_weights,
                      dobrushin_coefficient)
from .trees import (Configuration, RealField, TruncatedTree, _count_columns, _cumulate,
                    build_tree, exact_bmc_marginals, sample_bmc_batch, tree_vertex_count)
# Not called here: bench/reference.py's per-member sweep reads it as glauber._draw_rows.
from .trees import _draw_rows  # noqa: F401

# Replica block size for the vectorized drivers; fixed so that results are a
# deterministic function of (arguments, seed).
_CHUNK = 2048

# Largest k^(d+1) for which fixed_point_test compares the star law.
_STAR_MAX = 100_000

# Caps of the law tables: the live-code table while k^d (its index holds one small integer
# per code: 0.7 MB for the 70-state walk at d=3), the tuples listed to find the live codes
# and its (c + 1) x L law floats are at most _LIVE_CODE_MAX; its pair table while L^2 <=
# _PAIR_TABLE_MAX for L rows; else the union table while the k^2 unions hold at most
# _LIVE_CODE_MAX states.  Past them each woken vertex multiplies its own law (the 70-state
# walk at d=4 has 24M codes), or each coupled sweep sorts its unions.
_PAIR_TABLE_MAX = 4096
_LIVE_CODE_MAX = 2**19


def wake_probability(d: int) -> float:
    """Interior waking probability: 1 / (d^2 + 1) by exchangeability of the ball labels."""
    return 1.0 / (d * d + 1.0)


@dataclass(frozen=True)
class WakingSet:
    """A draw of the simultaneous-update set: flags per vertex plus its density."""

    tree: TruncatedTree
    member: np.ndarray
    density: float


def _ball_max(tree: TruncatedTree, labels: np.ndarray) -> np.ndarray:
    """Maxima of an (n, R) label block over the radius-2 ball of each vertex of depth < R.

    The children of each non-root vertex of depth < R are one block of d-1 rows,
    so each step is a block reshape with pairwise maxima.  ``low`` is the maximum
    over a vertex and its children; a ball adds ``low`` of the children, ``low``
    of the parent and the grandparent's label (``up`` holds the last two).
    """
    d, reps = tree.d, labels.shape[1]
    internal, inner, core = (tree_vertex_count(d, tree.depth - i) if tree.depth >= i else 0
                             for i in (1, 2, 3))  # vertices of depth < R, R-1 and R-2
    kids = labels[d + 1 :].reshape(internal - 1, d - 1, reps)  # children of 1, 2, ...
    low = np.empty_like(labels[:internal])
    low[0] = labels[: d + 1].max(axis=0)
    np.maximum(labels[1:internal], kids[:, 0], out=low[1:])
    for j in range(1, d - 1):
        np.maximum(low[1:], kids[:, j], out=low[1:])
    ball = np.empty_like(low)
    np.maximum(low[1 : d + 1], low[0], out=ball[1 : d + 1])
    ball[0] = low[: d + 1].max(axis=0)
    if inner > 1:  # vertices of depth >= 2 that can wake, children of 1, 2, ...
        up = np.empty_like(low[1:inner])
        np.maximum(low[1 : d + 1], labels[0], out=up[:d])
        up_kids = up[d:].reshape(-1, d - 1, reps)
        np.maximum(low[d + 1 : inner].reshape(up_kids.shape), labels[1:core, None], out=up_kids)
        low_kids = low[d + 1 :].reshape(inner - 1, d - 1, reps)
        np.maximum(low_kids, up[:, None], out=ball[d + 1 :].reshape(low_kids.shape))
        for j in range(d - 1):
            np.maximum(ball[1:inner], low_kids[:, j], out=ball[1:inner])
    return ball


def _waking_sites(tree: TruncatedTree, labels: np.ndarray) -> np.ndarray:
    """Row-major flat indices v*R + r of the waking set of an (n, R) label block.

    A vertex with all d neighbors (in breadth-first numbering, the vertices
    of depth < R, which come first) wakes when its label equals the float
    maximum of its radius-2 ball (``_ball_max``), unless an earlier member of
    its ball carries the same label (the smallest-index tie rule).  The
    earlier members are the parent, the grandparent and the earlier siblings,
    compared block by block.
    """
    reps = labels.shape[1]
    d, internal = tree.d, tree_vertex_count(tree.d, tree.depth - 1)
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
    return np.flatnonzero((labels[:internal] == _ball_max(tree, labels)) & ~tie)


def _waking_mask(tree: TruncatedTree, labels: np.ndarray) -> np.ndarray:
    """(n, R) membership flags of the waking set: radius-2 ball maxima in one pass,
    ties to the smaller index by the earlier-member check of ``_waking_sites``."""
    member = np.zeros(labels.shape, dtype=bool)
    np.put(member, _waking_sites(tree, labels), True)
    return member


def waking_set(tree: TruncatedTree, labels: RealField) -> WakingSet:
    """Deterministic waking set of a label field.

    A vertex joins iff its label strictly exceeds every other label in its
    radius-2 truncated ball (exact ties, a measure-zero event, are broken
    toward the smaller vertex index) and it has all d neighbors.  Members are
    pairwise at tree distance >= 3.  Computed as the label equalling the float
    maximum of its ball, taken in one pass of block maxima, with no earlier
    ball member (parent, grandparent or earlier sibling) carrying the same
    label.  Labels of +-inf order as usual.  A NaN label raises ValueError:
    the maxima carry it into every ball it lies in, and no label equals it.
    """
    if np.isnan(labels.values).any():
        raise ValueError("labels must not be NaN")
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
    """Sums over axis 0 of (c, m) laws on sorted column sets, bitwise the numpy sums of their
    dense k-state rows: both add in state order below 8 states, and numpy sums longer rows
    pairwise, which changes no sum of at most two nonzero terms; longer laws go dense."""
    totals = np.add.reduce(w, axis=0)
    if k >= 8:
        many = ((w != 0).sum(axis=0) > 2).nonzero()[0]
        totals[many] = _dense(w[:, many], cols[:, many], k).sum(axis=1)
    return totals


def _dense(w: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """(m, k) rows of (c, m) laws on column sets, zero off the sets."""
    dense = np.zeros((w.shape[1], k + 1))
    dense[np.arange(w.shape[1]), cols] = w
    return dense[:, :k]


def _laws(kernel: TransitionKernel, nbr_states: np.ndarray, cols=None):
    """(c, m) laws of (d, m) neighbor states on the (c, m) states ``cols`` (None: all k),
    from flat takes of q.T, and zero-total flags."""
    k, (q_t, pi_t) = kernel.state_count, kernel.column_sets[1:]
    at = np.arange(k)[:, None].repeat(nbr_states.shape[1], axis=1) if cols is None else cols
    w = q_t.take(nbr_states[0] * (k + 1) + at)  # row t of q_t is q[:, t] and a sentinel 0
    for nbr in nbr_states[1:]:  # the neighbors in order, as np.prod takes them
        w = w * q_t.take(nbr * (k + 1) + at)
    w = pi_t.take(at) * w
    totals = _row_sums(w, at, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        return w / totals, totals <= 0.0


def _unions(sets_a: np.ndarray, sets_b: np.ndarray, k: int) -> np.ndarray:
    """(2c, m) sorted unions of (c, m) column sets, each repeat replaced by the sentinel k."""
    cols = np.sort(np.vstack([sets_a, sets_b]), axis=0)
    cols[1:][cols[1:] == cols[:-1]] = k
    return cols


def _slots(sets: np.ndarray, union: np.ndarray) -> np.ndarray:
    """The row of each state of the (w, m) ``union`` in its (c, m) column set, c if none."""
    hit = sets[:, None] == union
    return np.where(hit.any(axis=0), hit.argmax(axis=0), len(sets))


def _live_codes(kernel: TransitionKernel, d: int):
    """The codes, ascending, of the neighbor tuples (u_1..u_d) with q[s, u_j] != 0 for some s
    and every j, or None when k^d or the tuples listed, sum over s of |{u: q[s, u] != 0}|^d,
    exceed _LIVE_CODE_MAX."""
    k, support = kernel.state_count, kernel.q != 0
    if k**d > _LIVE_CODE_MAX or (support.sum(axis=1) ** d).sum() > _LIVE_CODE_MAX:
        return None
    live = np.zeros(k**d, dtype=bool)
    for row in support:
        codes = states = np.flatnonzero(row)
        for _ in range(d - 1):
            codes = (codes[:, None] * k + states).ravel()
        live[codes] = True
    return np.flatnonzero(live)


def _code_tables(kernel: TransitionKernel, d: int) -> SimpleNamespace:
    """Read-only tables of the sweeps at degree d, kept per d on the kernel (None: absent).

    If ``_live_codes`` lists the L live codes and (c + 1) * L <= _LIVE_CODE_MAX for sets of
    width c: ``index``, each code's row (L for a zero total) in the narrowest unsigned type;
    (c + 1, L) ``laws`` on the first neighbor state's column set, then the sentinel; ``cum``
    of their first c rows; and if L^2 <= _PAIR_TABLE_MAX, ``pair``, the ``_pair_rows`` of
    the dense k-state laws of rows a and b at column a*L + b, laws cumulated.  Else, if the
    sets are narrower than k and the k^2 unions of two hold at most _LIVE_CODE_MAX states:
    ``union``, the ``_unions`` of the sets of a and b at column a*k + b, and ``slots``, their
    ``_slots`` in the sets of a, then b.
    """
    if d not in kernel.code_tables:
        k, sets = kernel.state_count, kernel.column_sets[0]
        tables = SimpleNamespace(index=None, laws=None, cum=None, pair=None, union=None,
                                 slots=None)
        live = _live_codes(kernel, d)
        if live is not None and (sets.shape[1] + 1) * live.size <= _LIVE_CODE_MAX:
            digits = np.array(np.unravel_index(live, (k,) * d))
            cols = np.hstack([sets, np.full((k, 1), k)]).T.take(digits[0], axis=1)
            tables.laws, zero = _laws(kernel, digits, cols)
            tables.cum = _cumulate(tables.laws[:-1])
            tables.index = np.full(k**d, live.size, dtype=np.min_scalar_type(live.size))
            tables.index[live[~zero]] = np.flatnonzero(~zero)
            if live.size**2 <= _PAIR_TABLE_MAX:  # nan laws: zero-total codes, no overlap
                dense = _dense(tables.laws, cols, k).T
                mass, *pair_laws, dead = _pair_rows(np.repeat(dense, live.size, axis=1),
                                                    np.tile(dense, live.size))
                tables.pair = (mass, *map(_cumulate, pair_laws), dead)
        if tables.pair is None and (c := sets.shape[1]) < k and 2 * c * k * k <= _LIVE_CODE_MAX:
            own, other = np.repeat(sets, k, axis=0).T, np.tile(sets, (k, 1)).T
            union = _unions(own, other, k)
            tables.union = union.astype(np.min_scalar_type(k))
            tables.slots = np.array([_slots(own, union), _slots(other, union)],
                                    dtype=np.min_scalar_type(c))
        for a in (*vars(tables).values(), *(tables.pair or ())):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        kernel.code_tables[d] = tables
    return kernel.code_tables[d]


def _neighbor_codes(states: np.ndarray, tree: TruncatedTree, k: int) -> np.ndarray:
    """(internal, R) base-k codes of the neighbor states, parent first, of every vertex of
    depth < R in an (n, R) block: each block of children starts from its parent's state,
    then the states of each vertex's children are added in order (of the root's, all d)."""
    d, reps = tree.d, states.shape[1]
    internal = tree_vertex_count(d, tree.depth - 1)
    kids = states[d + 1 :].reshape(internal - 1, d - 1, reps)
    codes = np.empty((internal, reps), dtype=np.int64)
    codes[0] = states[1 : d + 1].T @ k ** np.arange(d - 1, -1, -1)
    codes[1 : d + 1] = states[0]
    parents = codes[d + 1 :].reshape(-1, d - 1, reps)  # children of 1, 2, ... that can wake
    parents[...] = states[1 : 1 + len(parents), None]
    for j in range(d - 1):
        codes[1:] *= k
        codes[1:] += kids[:, j]
    return codes


def _neighbor_states(states: np.ndarray, flat: np.ndarray, tree: TruncatedTree) -> np.ndarray:
    """(d, m) neighbor states of the sites at flat indices v*R + r of an (n, R) block, read
    at the flat indices u*R + r."""
    v, r = np.divmod(flat, states.shape[1])
    return states.take(tree.neighbors[v].T * states.shape[1] + r)


def _raise_if_impossible(dead) -> None:
    if dead:
        raise ImpossibleConfigurationError("a woken vertex saw a neighbor configuration "
                                           "of probability zero")


def _woken_keys(states: np.ndarray, flat: np.ndarray, tree: TruncatedTree,
                kernel: TransitionKernel):
    """(first, rows, nbr) of the woken sites at flat indices ``flat`` of the (n, R) block:
    first neighbor states (None if the column sets span all k), and intp rows in the table,
    by ``_neighbor_codes``, whose leading digit is the first state (nbr None; a row of zero
    total raises ImpossibleConfigurationError), or else (d, m) neighbor states (rows None)."""
    k, tables = kernel.state_count, _code_tables(kernel, tree.d)
    narrow = kernel.column_sets[0].shape[1] < k
    if tables.index is None:
        nbr = _neighbor_states(states, flat, tree)
        return nbr[0] if narrow else None, None, nbr
    codes = _neighbor_codes(states, tree, k).take(flat)
    rows = tables.index.take(codes)
    _raise_if_impossible(rows.max(initial=0) == tables.laws.shape[1])  # row L: zero total
    return codes // k ** (tree.d - 1) if narrow else None, rows.astype(np.intp), None


def _first_sets(kernel: TransitionKernel, first):
    """(c, m) column sets of the first neighbor states ``first``; None (all k) for None."""
    return None if first is None else kernel.column_sets[0].T.take(first, axis=1)


def _woken_laws(kernel: TransitionKernel, d: int, rows, nbr, cols=None, slots=None):
    """(c, m) laws, states on axis 0, of woken sites with ``_woken_keys`` rows or neighbor
    states on their (c, m) states ``cols`` (None: all k).  Rows are read off the live-code
    table on the first neighbor state's column set or, given the ``_slots`` of a union
    ``cols``, on the union (zeros as +0); neighbor states are evaluated by ``_laws``."""
    if rows is None:
        laws, zero = _laws(kernel, nbr, cols)
        _raise_if_impossible(zero.any())
        return laws
    laws = _code_tables(kernel, d).laws
    return laws[:-1].take(rows, axis=1) if slots is None else laws[slots, rows]


def _member_weights(states: np.ndarray, member: np.ndarray, tree: TruncatedTree,
                    kernel: TransitionKernel):
    """Normalized (m, k) conditional laws for every woken (vertex, replica) pair."""
    flat = np.flatnonzero(member)
    first, rows, nbr = _woken_keys(states, flat, tree, kernel)
    laws = _woken_laws(kernel, tree.d, rows, nbr, cols := _first_sets(kernel, first))
    return *np.divmod(flat, member.shape[1]), laws.T if cols is None else _dense(
        laws, cols, kernel.state_count)


def _sweep_states(states: np.ndarray, tree: TruncatedTree, kernel: TransitionKernel,
                  rng: np.random.Generator) -> None:
    """One in-place sweep of an (n, R) state block."""
    flat = _waking_sites(tree, rng.random(states.shape))
    if flat.size:
        first, rows, nbr = _woken_keys(states, flat, tree, kernel)
        cols = _first_sets(kernel, first)
        cum = (_code_tables(kernel, tree.d).cum if rows is not None
               else _cumulate(_woken_laws(kernel, tree.d, rows, nbr, cols)))
        x = _count_columns(cum, rng.random(flat.size), rows)
        np.put(states, flat, x if cols is None else cols.take(x * x.size + np.arange(x.size)))


def _check_states(kernel: TransitionKernel, *configs: Configuration) -> None:
    k = kernel.state_count
    if any(c.states.dtype.kind not in "iu" or not 0 <= c.states.min() <= c.states.max() < k
           for c in configs):
        raise ValueError(f"configuration states must be integers in 0..{k - 1}")


def glauber_sweep(config: Configuration, kernel: TransitionKernel,
                  rng: np.random.Generator) -> Configuration:
    """One sweep: draw fresh labels, wake the 3-separated set, resample its members.

    Non-members keep their state.  Members are resampled independently from
    their conditional laws given the (pre-sweep) neighbor states; separation
    makes pre- and post-sweep neighbor states identical.  Raises ValueError
    unless the states are integers in 0..k-1.
    """
    _check_states(kernel, config)
    states = config.states[:, None].copy()
    _sweep_states(states, config.tree, kernel, rng)
    return Configuration(config.tree, states[:, 0])


def maximal_coupling(p, q, rng: np.random.Generator) -> tuple[int, int]:
    """One draw (X, Y) with marginals p and q and P(X != Y) = d_TV(p, q).

    Construction: with probability 1 - TV sample both from the overlap min(p, q);
    otherwise draw X and Y independently from the normalized residuals, whose supports
    are disjoint.  This is one law of the sweep's per-row coupled draw, and consumes its
    three uniforms of ``rng``.  Raises ValueError unless p and q are finite, nonnegative
    and sum to 1 within ATOL.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError("distributions must be vectors on one support")
    if not all((x >= 0).all() and abs(x.sum() - 1.0) <= ATOL for x in (p, q)):  # NaN, inf fail
        raise ValueError("distributions need finite nonnegative entries summing to 1")
    xa, xb = _pair_draw(_pair_rows(p[:, None], q[:, None]), rng)
    return int(xa[0]), int(xb[0])


def _pair_rows(pa: np.ndarray, pb: np.ndarray, cols=None, k=0):
    """Maximal couplings of (c, m) laws on the (c, m) column sets ``cols`` of k states (None:
    all c states): overlap masses, overlap and residual laws, and the flags of exact overlaps
    (both draw from pa, so that an exact overlap that loses the branch lottery to roundoff
    still agrees).  Masses are summed by ``_row_sums``."""
    if cols is None:
        cols, k = np.arange(len(pa))[:, None].repeat(pa.shape[1], axis=1), len(pa)
    common = np.minimum(pa, pb)
    ra, rb = pa - common, pb - common  # nonnegative: common is the smaller of the two
    sa, sb = _row_sums(ra, cols, k), _row_sums(rb, cols, k)
    dead = np.minimum(sa, sb) <= 0.0
    if dead.any():
        ra[:, dead] = rb[:, dead] = pa[:, dead]
        sa[dead] = sb[dead] = _row_sums(pa[:, dead], cols[:, dead], k)
    c = _row_sums(common, cols, k)
    with np.errstate(divide="ignore", invalid="ignore"):  # laws no branch draws from
        return c, common / c, ra / sa, rb / sb, dead


def _pair_draw(pair, rng: np.random.Generator, code=None):
    """Paired draws (xa, xb) by three uniforms each: the branch, the overlap or first
    residual, and the second residual.  Draw i takes law i of ``_pair_rows`` output,
    cumulating only the laws its branches draw from, or law code[i] of the pair table."""
    c, overlap, res_a, res_b, dead = pair
    u_branch, u_draw, u_draw_b = rng.random((3, c.size if code is None else code.size))
    if code is not None:
        same, dead = u_branch < c[code], dead[code]
        xa = np.where(same, _count_columns(overlap, u_draw, code),
                      _count_columns(res_a, u_draw, code))
        return xa, np.where(same | dead, xa, _count_columns(res_b, u_draw_b, code))
    same = u_branch < c
    xa = _count_columns(_cumulate(np.where(same, overlap, res_a)), u_draw)
    xb, other = xa.copy(), (~(same | dead)).nonzero()[0]
    xb[other] = _count_columns(_cumulate(res_b[:, other]), u_draw_b[other])
    return xa, xb


def _coupled_sweep_states(sa: np.ndarray, sb: np.ndarray, tree: TruncatedTree,
                          kernel: TransitionKernel, rng: np.random.Generator) -> None:
    """One in-place coupled sweep of two (n, R) state blocks.

    A single label draw selects one shared waking set; each member is
    resampled through the maximal coupling of its two conditional laws,
    independently across members (by the pair table's rows when it exists).
    """
    flat = _waking_sites(tree, rng.random(sa.shape))
    k, tables, cols, code = kernel.state_count, _code_tables(kernel, tree.d), None, None
    (fa, ra, na), (fb, rb, nb) = (_woken_keys(s, flat, tree, kernel) for s in (sa, sb))
    if tables.pair is not None:
        pair, code = tables.pair, ra * tables.laws.shape[1] + rb
    else:
        slots = (None, None)  # of the union of the two copies' column sets, in each
        if tables.union is not None:
            key = fa * k + fb
            cols, slots = tables.union.take(key, axis=1), tables.slots.take(key, axis=2)
        elif (own := _first_sets(kernel, fa)) is not None:
            cols = _unions(own, other := _first_sets(kernel, fb), k)
            slots = [_slots(s, cols) for s in (own, other)] if ra is not None else slots
        pair = _pair_rows(*(_woken_laws(kernel, tree.d, r, n, cols, s)
                            for r, n, s in zip((ra, rb), (na, nb), slots)), cols, k)
    for s, x in zip((sa, sb), _pair_draw(pair, rng, code)):
        np.put(s, flat, x if cols is None else cols.take(x * x.size + np.arange(x.size)))


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
    sa, sb = (c.states[:, None].copy() for c in (pair.config_a, pair.config_b))
    _coupled_sweep_states(sa, sb, pair.tree, kernel, rng)
    return CoupledPair(Configuration(pair.tree, sa[:, 0]), Configuration(pair.tree, sb[:, 0]),
                       pair.sweeps_done + 1)


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
        return float("nan"), float("nan")
    x = sweeps[mask].astype(float)
    y = np.log(means[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    denom = max(mask.sum() - 2, 1) * ((x - x.mean()) ** 2).sum()
    slope_se = float(np.sqrt((resid**2).sum() / denom)) if denom > 0 else float("nan")
    return float(np.exp(slope)), slope_se


@dataclass(frozen=True)
class CoupledCurve:
    """Per-sweep interior-window disagreement of coupled runs, with the Dobrushin bound."""

    sweeps: np.ndarray
    mean_distance: np.ndarray
    stderr: np.ndarray
    dobrushin: float
    contraction_bound: float  # 1 - p_wake * (1 - d * D), meaningful when D < 1/d
    replicas: int
    window_depth: int


def _coupled_curve(kernel, d, depth, sweeps, replicas, rng, window_depth,
                   from_iid: bool) -> CoupledCurve:
    """Shared driver: per replica chunk, couple an exact chain sample with a second one or,
    ``from_iid``, with i.i.d. uniform states, sweep both, and collect the disagreement curve.
    Arguments are checked before the Dobrushin enumeration; from i.i.d. states, D >= 1/d
    warns the public driver's caller that the curve need not decay."""
    tree = build_tree(d, depth)
    window_depth, window = _window(tree, window_depth)
    chunks = _chunks(replicas, sweeps, rng)
    dob = dobrushin_coefficient(kernel, d)
    if from_iid and dob >= 1.0 / d:
        warnings.warn(f"Dobrushin coefficient {dob:.4f} >= 1/d: no contraction guarantee",
                      stacklevel=3)
    sums, sums_sq = np.zeros((2, sweeps + 1))
    for size, sub in chunks:
        sa = (sub.integers(0, kernel.state_count, size=(tree.n, size)) if from_iid
              else sample_bmc_batch(kernel, tree, sub, size))
        sb = sample_bmc_batch(kernel, tree, sub, size)
        for t in range(sweeps + 1):
            if t:
                _coupled_sweep_states(sa, sb, tree, kernel, sub)
            frac = (sa[window] != sb[window]).mean(axis=0)
            sums[t] += frac.sum()
            sums_sq[t] += (frac**2).sum()
    means = sums / replicas
    stderrs = np.sqrt(np.maximum(sums_sq / replicas - means**2, 0.0) / replicas)
    return CoupledCurve(np.arange(sweeps + 1), means, stderrs, dob,
                        1.0 - wake_probability(d) * (1.0 - d * dob), replicas, window_depth)


@dataclass(frozen=True)
class DecayReport(CoupledCurve):
    """Coupled-run disagreement curve plus the fitted per-sweep decay rate."""

    rate: float
    rate_interval: tuple[float, float]
    p_wake: float


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
    curve = _coupled_curve(kernel, d, depth, sweeps, replicas, rng, window_depth, from_iid=False)
    rate, slope_se = _fit_rate(curve.sweeps, curve.mean_distance, curve.stderr)
    interval = (rate * np.exp(-3.0 * slope_se), rate * np.exp(3.0 * slope_se))
    return DecayReport(**vars(curve), rate=rate, rate_interval=interval,
                       p_wake=wake_probability(d))


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
    tv = 0.5 * float(np.abs(counts / draws - exact).sum())
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
        if do_star:  # centers are the first vertices, those of depth < R in the window
            codes = states[centers] * k**d + _neighbor_codes(states, tree, k)[centers]
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
        window_depth=window_depth)


@dataclass(frozen=True)
class ConvergenceReport(CoupledCurve):
    """Distance-to-chain upper-bound curve for the sweep iterated from i.i.d. noise."""

    predicted_initial: float
    final_distance: float
    final_stderr: float


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
    curve = _coupled_curve(kernel, d, depth, sweeps, replicas, rng, window_depth, from_iid=True)
    return ConvergenceReport(**vars(curve), predicted_initial=1.0 - 1.0 / kernel.state_count,
                             final_distance=float(curve.mean_distance[-1]),
                             final_stderr=float(curve.stderr[-1]))
