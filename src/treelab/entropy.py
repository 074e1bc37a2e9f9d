"""Configuration entropies of branching chains and the typicality inequalities.

For an invariant process the Shannon entropy of its marginal on a finite
pattern (a vertex, an edge, a degree-d star) is well defined.  Processes that
can be modelled on random d-regular graphs satisfy two inequalities:

    (d/2) h_edge >= (d-1) h_vertex        and        h_star >= (d/2) h_edge.

A chain violating either is certifiably not such a process, hence not a limit
of local rules either.  For a branching chain all three entropies have closed
forms in the kernel: h_vertex = h(pi), h_edge = h(pi) + E, h_star = h(pi) +
d*E with E the mean row entropy sum_s pi[s] h(q[s]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TransitionKernel

_TOL = 1e-12


def shannon(dist) -> float:
    """Entropy -sum p ln p in nats, with 0 ln 0 = 0.

    The input must be a nonnegative vector summing to 1 within 1e-9.
    """
    p = np.asarray(dist, dtype=float).ravel()
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    # a non-finite entry makes the sum NaN or infinite, which fails the <= test
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError("probabilities must be finite and sum to 1")
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum()) + 0.0  # +0.0, not -0.0, for a point mass


@dataclass(frozen=True)
class EntropyReport:
    """Vertex/edge/star entropies (nats) of a branching chain with both slacks."""

    d: int
    h_vertex: float
    h_edge: float
    h_star: float
    slack_edge_vertex: float  # (d/2) h_edge - (d-1) h_vertex
    slack_star_edge: float    # h_star - (d/2) h_edge

    @property
    def edge_vertex_verdict(self) -> str:
        return "PASSES" if self.slack_edge_vertex >= -_TOL else "FAILS"

    @property
    def star_edge_verdict(self) -> str:
        return "PASSES" if self.slack_star_edge >= -_TOL else "FAILS"


def bmc_entropy_report(kernel: TransitionKernel, d: int) -> EntropyReport:
    """Closed-form pattern entropies of the branching chain of a kernel."""
    if d < 3:
        raise ValueError("d must be at least 3")
    h_v = shannon(kernel.pi)
    row_entropy = sum(float(p) * shannon(row) for p, row in zip(kernel.pi, kernel.q))
    h_e = h_v + row_entropy
    h_s = h_v + d * row_entropy
    return EntropyReport(
        d=d, h_vertex=h_v, h_edge=h_e, h_star=h_s,
        slack_edge_vertex=(d / 2.0) * h_e - (d - 1.0) * h_v,
        slack_star_edge=h_s - (d / 2.0) * h_e,
    )


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Arithmetic certificate that a walk chain breaks the edge/vertex inequality."""

    k: int
    q_deg: int
    d: int
    nontypical: bool
    lhs: float  # (d/2)(ln k + ln q_deg)
    rhs: float  # (d-1) ln k
    threshold: float  # q_deg^(d/(d-2)); certificate fires for k above it
    ramanujan_target: float  # 2 sqrt(q_deg - 1) / q_deg

    @property
    def verdict(self) -> str:
        return "NONTYPICAL" if self.nontypical else "NOT EXCLUDED"


def expander_counterexample(k: int, q_deg: int, d: int) -> CounterexampleCertificate:
    """Decide whether the walk chain on a q_deg-regular expander with k vertices
    violates the edge/vertex inequality on the degree-d tree.

    The walk chain on any q_deg-regular simple graph with k vertices has
    vertex entropy ln k and edge entropy ln k + ln q_deg, so the inequality
    fails exactly when k^(d-2) > q_deg^d (checked in exact integer
    arithmetic).  Near-Ramanujan graphs make the chain's spectral radius about
    2 sqrt(q_deg-1)/q_deg, so the violation is compatible with arbitrarily
    small correlations; the target value is reported for empirical checks.  Raises
    ValueError unless q_deg >= 3, d >= 3 and such a graph exists: k > q_deg, k * q_deg even.
    """
    if q_deg < 3 or d < 3:
        raise ValueError("need q_deg >= 3, d >= 3")
    if k <= q_deg or k * q_deg % 2:
        raise ValueError(f"no {q_deg}-regular simple graph has {k} vertices")
    nontypical = k ** (d - 2) > q_deg**d
    return CounterexampleCertificate(
        k=k, q_deg=q_deg, d=d, nontypical=nontypical,
        lhs=(d / 2.0) * (math.log(k) + math.log(q_deg)),
        rhs=(d - 1.0) * math.log(k),
        threshold=q_deg ** (d / (d - 2.0)),
        ramanujan_target=2.0 * math.sqrt(q_deg - 1.0) / q_deg,
    )


def total_correlation(joint) -> float:
    """Sum of marginal entropies minus the joint entropy of a tuple law.

    ``joint`` is an array whose axes index the tuple coordinates.  Zero iff
    the coordinates are independent.
    """
    joint = np.asarray(joint, dtype=float)
    t = -shannon(joint)
    for axis in range(joint.ndim):
        other = tuple(a for a in range(joint.ndim) if a != axis)
        t += shannon(joint.sum(axis=other))
    return t


def pinsker_tv_bound(t: float) -> float:
    """Total variation bound sqrt(t/2) from relative entropy t."""
    return math.sqrt(max(t, 0.0) / 2.0)
