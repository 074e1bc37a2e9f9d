"""Configuration-entropy obstructions.

Counting colored regular graphs forces two inequalities on any process that
can be modelled on large random regular graphs:

    (d/2) h_edge >= (d-1) h_vertex        h_star >= (d/2) h_edge

Small correlations do not rescue a process that fails them: the random-walk
chain on a fixed q-regular graph with many vertices has tiny spectral radius
when the graph expands well, yet it violates the first inequality as soon as
the vertex count k exceeds q^(d/(d-2)).
"""

import numpy as np

from treelab import (bmc_entropy_report, circulant_graph, expander_counterexample,
                     make_ising, make_walk_kernel, pinsker_tv_bound, total_correlation,
                     uniform_kernel)

print("Chain entropies at d=3 (nats):")
print("kernel          h_vertex  h_edge   h_star   edge/vertex   star/edge")
for name, kernel in (
    ("uniform(4)", uniform_kernel(4)),
    ("ising(0.25)", make_ising(0.25)),
    ("ising(0.9)", make_ising(0.9)),
    ("walk(70, 4-reg)", make_walk_kernel(circulant_graph(70, [1, 2]))),
):
    rep = bmc_entropy_report(kernel, 3)
    print(f"{name:15s} {rep.h_vertex:8.4f} {rep.h_edge:8.4f} {rep.h_star:8.4f}"
          f"   {rep.edge_vertex_verdict} ({rep.slack_edge_vertex:+.4f})"
          f"  {rep.star_edge_verdict} ({rep.slack_star_edge:+.4f})")

print()
print("The walk-chain violation, by pure arithmetic: k vertices, degree q,")
print("h_vertex = ln k and h_edge = ln k + ln q, so the inequality fails iff")
print("k^(d-2) > q^d.  Threshold at d=3, q=4: k > 64.")
for k in (60, 64, 65, 70, 100):
    cert = expander_counterexample(k, 4, 3)
    print(f"  k={k:3d}: {cert.verdict:13s} lhs={cert.lhs:.3f} rhs={cert.rhs:.3f}"
          f" (spectral target of a good expander: {cert.ramanujan_target:.3f})")

print()
print("Total correlation and the Pinsker route used by the covering bounds:")
p = np.array([0.5, 0.5])
independent = np.multiply.outer(p, p)
aligned = np.array([[0.5, 0.0], [0.0, 0.5]])
print(f"  independent bits: t = {total_correlation(independent):.3e}")
print(f"  aligned bits:     t = {total_correlation(aligned):.6f} (= ln 2)")
t = total_correlation(aligned)
print(f"  TV from product is at most sqrt(t/2) = {pinsker_tv_bound(t):.4f}")
