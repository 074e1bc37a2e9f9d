"""Covering error ratios and the threshold that keeps random graphs away.

A covering matrix M prescribes each vertex's neighbor-color counts exactly.
On a fixed graph the best coloring leaves a fraction c(G, M) of vertices
violated; the threshold machinery shows that for random d-regular graphs
this fraction stays above an explicit eps_0 > 0, which translates into a
dominating-ratio lower bound 1/(d+1) + eps_0 and an independence-ratio upper
bound 1/2 - eps_0.
"""

import numpy as np

from treelab import (bipartite_matrix, complete_bipartite, complete_graph,
                     delta_lower_bound, dominating_matrix, dominating_table, epsilon0,
                     independence_threshold, min_error_exact, min_error_local_search,
                     rigidity_check)

m2 = bipartite_matrix(3)
print("exact covering minima (exhaustive search with pruning):")
for name, graph in (("K33", complete_bipartite(3, 3)), ("K4", complete_graph(4))):
    ratio, witness = min_error_exact(graph, m2)
    local, _ = min_error_local_search(graph, m2, 10, np.random.default_rng(0))
    print(f"  c({name}, bipartite matrix) = {ratio}  (local search finds {local}; "
          f"witness coloring {witness.tolist()})")

print()
print("guaranteed minimum state probability of near-coverings, delta(M, eps):")
for eps in (0.0, 1e-3, 1e-2):
    print(f"  eps={eps:6.4f}: dominating {delta_lower_bound(dominating_matrix(3), eps):.4f}"
          f"  bipartite {delta_lower_bound(bipartite_matrix(3), eps):.4f}")

print()
print("the threshold: smallest eps where the entropy route overtakes the")
print("covering route, g(eps) = (delta^d - eps)/2 - sqrt(eps ln|S| (d-1)/(d-2))")
report = epsilon0("dominating", d=3)
print(f"  d=3 dominating family: eps0 = {report.epsilon0:.4e}")
print(f"  bracketing certificate: g(eps0(1-1e-5)) = {report.certificate_lo:+.2e} > 0, "
      f"g(eps0(1+1e-5)) = {report.certificate_hi:+.2e} <= 0")

print()
print("dominating-ratio lower bounds 1/(d+1) + eps0:")
print("  d   eps0           bound")
for row in dominating_table(3, 6):
    print(f"  {row.d}   {row.epsilon0:.3e}    {row.ratio_bound:.10f}")

print()
print("independence-ratio upper bounds 1/2 - eps0:")
for d in (3, 4, 5, 6):
    row = independence_threshold(d)
    print(f"  d={d}: eps0 = {row.epsilon0:.3e}, bound = {row.ratio_bound:.6f}")

print()
print("rigidity: a star law whose last leaf is a function of the rest and")
print("whose rest is not i.i.d. cannot be modelled on random regular graphs;")
print("the exact bipartite covering law is the cleanest example:")
law = np.zeros((2, 2, 2, 2))
law[0, 1, 1, 1] = 0.5
law[1, 0, 0, 0] = 0.5
verdict = rigidity_check(law)
print(f"  alternating star law -> {verdict.label} "
      f"(leaf determined: {verdict.leaf_determined}, "
      f"TV from product: {verdict.rest_tv_from_product:.3f})")
