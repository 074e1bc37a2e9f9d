"""Finite reversible Markov kernels.

A kernel is the seed of every branching chain in this package: a row-stochastic
matrix ``q`` together with its stationary distribution ``pi`` satisfying
detailed balance.  This module provides the standard model families (two-state
symmetric, uniform-switch multi-state, simple random walk on a regular graph),
the exact Dobrushin coefficient of the heat-bath update on a degree-d vertex,
and the spectral radius of the kernel.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .graphs import _neighbor_fill, _read_rows, _strongly_connected, bfs

ATOL = 1e-12
_DOBRUSHIN_BLOCK = 2**16  # entries of a block of weights or a chunk of law differences


@dataclass(frozen=True)
class TransitionKernel:
    """Reversible Markov kernel with its stationary distribution.

    Invariants, checked at construction within 1e-12:

    - every entry of ``q`` and ``pi`` is finite;
    - every row of ``q`` sums to 1 and all entries lie in [0, 1];
    - ``pi`` has strictly positive entries summing to 1;
    - detailed balance: ``pi[s] * q[s, t] == pi[t] * q[t, s]`` for all s, t.
    """

    q: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        pi = np.array(self.pi, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("transition matrix must be square")
        k = q.shape[0]
        if k < 1:
            raise ValueError("kernel needs at least one state")
        if pi.shape != (k,):
            raise ValueError("stationary vector has wrong length")
        if not (np.isfinite(q).all() and np.isfinite(pi).all()):
            raise ValueError("kernel has non-finite entries in q or pi")
        if np.any(q < -ATOL) or np.any(q > 1.0 + ATOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(q.sum(axis=1) - 1.0)) > ATOL:
            raise ValueError("rows of the transition matrix must sum to 1")
        if np.any(pi <= 0.0):
            raise ValueError("stationary distribution must be strictly positive")
        if abs(pi.sum() - 1.0) > ATOL:
            raise ValueError("stationary distribution must sum to 1")
        flux = pi[:, None] * q
        if np.max(np.abs(flux - flux.T)) > ATOL:
            raise ValueError("detailed balance fails: kernel is not reversible")
        q.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi", pi)

    @property
    def state_count(self) -> int:
        return self.q.shape[0]

    @functools.cached_property
    def column_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sets, q_t, pi_t), built on first use: row t of ``sets`` lists in order the
        states s with q[s, t] != 0 (all k if a column of q has no zero), padded with a
        sentinel state k; ``q_t`` and ``pi_t`` are q.T and pi with a zero for it."""
        k, live = self.state_count, self.q.T != 0  # not > 0: entries down to -ATOL pass
        width = int(live.sum(axis=1).max())
        sets = np.sort(np.where(live | (width == k), np.arange(k), k), axis=1)[:, :width]
        out = (sets, np.hstack([self.q.T, np.zeros((k, 1))]), np.append(self.pi, 0.0))
        for a in out:
            a.setflags(write=False)
        return out

    @functools.cached_property
    def row_sampler(self):
        """``trees._row_sampler(q)``, the draw from the rows of q, built on first use."""
        from .trees import _row_sampler  # trees imports this module
        return _row_sampler(self.q)

    @functools.cached_property
    def stationary_sampler(self):
        """``draw(u)`` from pi, built on first use, bit for bit ``trees._draw_rows(pi, u)``:
        the count of cumulative entries <= u, found by bisection since pi > 0 keeps them sorted."""
        from .trees import _cumulate
        cum = _cumulate(self.pi)[:-1]
        cum.setflags(write=False)
        return lambda u: np.searchsorted(cum, u, side="right")

    @functools.cached_property
    def code_tables(self) -> dict:
        """Per-degree law tables of the Glauber sweeps, filled by ``glauber._code_tables``."""
        return {}


@dataclass(frozen=True)
class NeighborConfig:
    """Multiset of the d neighbor states of a vertex (order-free)."""

    states: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(sorted(int(s) for s in self.states)))
        if len(self.states) == 0:
            raise ValueError("neighbor configuration cannot be empty")
        if self.states[0] < 0:
            raise ValueError("states are nonnegative indices")


def make_ising(theta: float) -> TransitionKernel:
    """Two-state symmetric kernel: keep the current state with probability (1+theta)/2.

    Requires |theta| < 1.  Stationary distribution is uniform.
    """
    if not -1.0 < theta < 1.0:
        raise ValueError("theta must lie in the open interval (-1, 1)")
    a = (1.0 + theta) / 2.0
    b = (1.0 - theta) / 2.0
    return TransitionKernel(q=[[a, b], [b, a]], pi=[0.5, 0.5])


def make_potts(k: int, p: float) -> TransitionKernel:
    """k-state uniform-switch kernel.

    With probability ``p`` the chain moves to a uniformly chosen *different*
    state, otherwise it stays put: diagonal ``1 - p``, off-diagonal
    ``p / (k - 1)``.  Stationary distribution is uniform and the spectral
    radius is ``|1 - p*k/(k-1)|`` exactly.  ``make_potts(2, p)`` coincides with
    ``make_ising(1 - 2*p)``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    off = p / (k - 1)
    q = np.full((k, k), off)
    np.fill_diagonal(q, 1.0 - p)
    return TransitionKernel(q=q, pi=np.full(k, 1.0 / k))


def uniform_kernel(k: int) -> TransitionKernel:
    """Kernel with all entries 1/k: every step is an independent uniform draw."""
    if k < 1:
        raise ValueError("k must be positive")
    return TransitionKernel(q=np.full((k, k), 1.0 / k), pi=np.full(k, 1.0 / k))


def make_walk_kernel(graph) -> TransitionKernel:
    """Simple-random-walk kernel on a connected regular (multi)graph.

    ``q[s, t]`` is the multiplicity of the edge st divided by the graph degree
    (a loop at s contributes 2 to its own row entry).  Regularity forces the
    uniform stationary distribution.
    """
    if len(bfs(0, graph.neighbors.__getitem__)) != graph.n:
        raise ValueError("walk kernel requires a connected graph")
    q = _neighbor_fill(graph, 1.0 / graph.d)
    return TransitionKernel(q=q, pi=np.full(graph.n, 1.0 / graph.n))


def kernel_from_matrix(q) -> TransitionKernel:
    """Build a kernel from a bare transition matrix.

    The stationary distribution is recovered from the left Perron eigenvector;
    construction then validates reversibility, so non-reversible matrices are
    rejected.  Reducible matrices are rejected before the eigen solve, whose
    stationary vector is not unique for them.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.isfinite(q).all():
        raise ValueError("kernel has non-finite entries in q")
    if q.size and not _strongly_connected(q > 0):
        raise ValueError("kernel is reducible: some state cannot reach every other state")
    evals, evecs = np.linalg.eig(q.T)
    idx = int(np.argmin(np.abs(evals - 1.0)))
    pi = np.real(evecs[:, idx])
    s = pi.sum()
    if s == 0:
        raise ValueError("could not extract a stationary distribution")
    pi = pi / s
    return TransitionKernel(q=q, pi=pi)


def load_kernel(path) -> TransitionKernel:
    """Read a kernel from a plain-text matrix file (one row per line)."""
    rows = [[float(tok) for tok in row] for row in _read_rows(path)]
    if not rows:
        raise ValueError(f"empty kernel file: {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in kernel file")
    return kernel_from_matrix(np.array(rows))


def write_kernel(kernel: TransitionKernel, path) -> None:
    with open(path, "w") as fh:
        for row in kernel.q:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _heat_bath_weights(kernel: TransitionKernel, neighbors) -> np.ndarray:
    """Unnormalized heat-bath laws pi[s] * prod_u q[s, u], multiplied in neighbor order.

    ``neighbors`` holds neighbor states on its last axis under any leading shape,
    which the result keeps, with the k center states as its last axis.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    w = np.ones(neighbors.shape[:-1] + (1,)) * kernel.pi
    for j in range(neighbors.shape[-1]):
        w = w * kernel.q.T[neighbors[..., j]]
    return w


def dobrushin_coefficient(kernel: TransitionKernel, d: int, budget: int = 10**8) -> float:
    """Exact Dobrushin coefficient of the heat-bath update at a degree-d vertex.

    Supremum, over all pairs of neighbor configurations differing in a single
    coordinate, of the total variation distance between the two conditional
    laws of the center state.  Deterministic: enumerates the unordered
    multisets of the d-1 shared neighbor states (the conditional law is
    exchangeable in the neighbors) times ordered pairs of differing states.

    Only multisets of positive probability count: those inside the support
    {u : q[s, u] != 0} of some row s of q.  If some row has full support, that is
    every multiset, enumerated in lexicographic order.  Else, if the rows list
    fewer multisets than C(k+d-2, d-1), the rows' multisets are merged in that
    order, repeats dropped, so that no more than a block of them is held at once
    (350 of 2485 multisets for the 70-state walk at d=3).  If they list more, every
    multiset is enumerated and those inside no row's support are dropped.  The
    budget, at least 1, counts min(C(k+d-2, d-1), sum over s of
    C(|support of s|+d-2, d-1)) times k^2 conditional-law evaluations.

    Each block of multisets is one set of array operations.  Its weights
    w[s] = pi[s] * prod_u q[s, u] come from one ``_heat_bath_weights`` call; a
    multiset whose weights all lie below the smallest normal float has underflowed
    and raises ValueError.  With a state a added, the center has law
    w[s] * q[s, a] over its column total; a zero total carries no law.  Results
    are bitwise those of a loop over the multisets that forms one k x k array of
    laws each: column totals add in state order (leaving out zero weights changes
    no bit), and each total variation distance sums over the states of nonzero
    weight, in state order, where at most two are nonzero or k < 8 (numpy adds
    fewer than 8 terms in order, and a sum of at most two nonzero terms rounds
    alike in any grouping), else over all k states, zeros included.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    k, support = kernel.state_count, kernel.q != 0  # not > 0: entries down to -ATOL pass
    sizes = support.sum(axis=1).tolist()
    n_all = math.comb(k + d - 2, d - 1)
    n_rows = sum(math.comb(c + d - 2, d - 1) for c in sizes)
    n_multisets = min(n_all, n_rows)
    if n_multisets * k * k > budget:
        raise BudgetExceededError(
            f"Dobrushin enumeration needs {n_multisets * k * k} conditional-law "
            f"evaluations, over the budget of {budget}"
        )
    if n_rows < n_all:  # no row has full support: the union of the rows' multisets
        rows = [itertools.combinations_with_replacement(row.nonzero()[0].tolist(), d - 1)
                for row in support]
        multisets = (m for m, _ in itertools.groupby(heapq.merge(*rows)))
    else:
        multisets = itertools.combinations_with_replacement(range(k), d - 1)
    sift = n_rows >= n_all and k not in sizes
    per_block = max(1, _DOBRUSHIN_BLOCK // (d + k))
    best = 0.0
    while block := list(itertools.islice(multisets, per_block)):
        # B multisets of d - 1 states each (none at d = 1) give (B, k) weights
        shared = np.fromiter(itertools.chain.from_iterable(block), np.int64)
        shared = shared.reshape(len(block), d - 1)
        if sift:  # keep the multisets with some s having q[s, u] != 0 for all their u
            shared = shared[support.T[shared].all(axis=1).any(axis=1)]
        weights = _heat_bath_weights(kernel, shared)
        if not (np.abs(weights) >= np.finfo(float).tiny).any(axis=1).all():
            raise ValueError(f"heat-bath weights underflow at d={d}: a multiset of positive "
                             "probability has no weight at or above the smallest normal float")
        # column totals: add each multiset's nonzero-weight terms in state order
        nonzero = weights != 0
        n_nonzero = nonzero.sum(axis=1)
        if nonzero.all():  # the rows of q as they are, with no argsort or takes
            terms = zip(weights.T, kernel.q)
        else:  # the nonzero terms first, taking one (B, k) block of rows of q per step
            order = (~nonzero).argsort(axis=1, kind="stable")[:, :n_nonzero.max(initial=0)]
            terms = ((w_s, kernel.q.take(s, axis=0)) for w_s, s in
                     zip(weights[np.arange(len(weights))[:, None], order].T, order.T))
        totals = np.zeros((len(weights), k))
        for w_s, q_s in terms:
            totals += w_s[:, None] * q_s
        live = totals > 0.0
        width = live.sum(axis=1)
        # each TV sums over the nonzero weights where that changes no bit, else over all k
        n_terms = n_nonzero if k < 8 else np.where(n_nonzero > 2, k, n_nonzero)
        keys = width * (k + 1) + n_terms
        for key in set(keys.tolist()):
            n_live, n_term = divmod(key, k + 1)
            if n_live < 2 or n_term < 2:  # one live column, or one state: every TV is 0
                continue
            first, second = np.array(list(itertools.combinations(range(n_live), 2))).T
            group = (keys == key).nonzero()[0]
            step = max(1, _DOBRUSHIN_BLOCK // (first.size * n_term))
            for part in (group[lo:lo + step] for lo in range(0, len(group), step)):
                # (G, L, n_term) laws of the center, one row per live column, states last
                cols = live[part].nonzero()[1].reshape(-1, n_live)
                if n_term == k:
                    law = weights[part, None] * kernel.q.T[cols]
                else:
                    states = nonzero[part].nonzero()[1].reshape(-1, n_term)
                    law = (weights[part[:, None], states][:, None]
                           * kernel.q.T[cols[:, :, None], states[:, None]])
                law /= totals[part[:, None], cols, None]
                tv = np.abs(law.take(first, axis=1) - law.take(second, axis=1)).sum(axis=-1)
                best = max(best, 0.5 * float(tv.max()))
    return best


def spectral_radius(kernel: TransitionKernel) -> float:
    """Largest |eigenvalue| of q after removing the Perron eigenvalue 1.

    Computed on the symmetrization diag(pi)^(1/2) q diag(pi)^(-1/2), whose
    spectrum is real by reversibility; accurate to about 1e-10.
    """
    s = np.sqrt(kernel.pi)
    sym = kernel.q * (s[:, None] / s[None, :])
    evals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    if evals.size == 1:
        return 0.0
    rest = np.delete(evals, int(np.argmax(evals)))
    return float(np.max(np.abs(rest)))
