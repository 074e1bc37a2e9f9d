"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The statistical criteria use fixed seeds, so the suite is deterministic; the
two Glauber criteria are the long poles (a few minutes together).
"""

import itertools
import math
import time

import numpy as np
import pytest

from treelab.covering import (bipartite_matrix, epsilon0, min_error_exact,
                              min_error_local_search)
from treelab.entropy import bmc_entropy_report
from treelab.glauber import (conditional_dist, converge_from_iid, estimate_hamming_decay,
                             fixed_point_test, maximal_coupling, wake_probability,
                             waking_set)
from treelab.graphs import (circulant_graph, complete_bipartite, complete_graph,
                            graph_from_edges, matching_identity_check,
                            sample_regular_graph)
from treelab.kernels import (TransitionKernel, dobrushin_coefficient, make_ising,
                             make_walk_kernel, uniform_kernel)
from treelab.localstats import ball_distribution, dcn_estimate, tv_distance
from treelab.trees import (build_tree, classify_correlation_decay, estimate_correlation,
                           sample_uniform_labels, tree_distance)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_threshold_table():
    targets = {3: 4.38e-5, 4: 6.15e-7, 5: 4.47e-9, 6: 2.08e-11}
    t0 = time.perf_counter()
    values = {d: epsilon0("dominating", d=d).epsilon0 for d in targets}
    elapsed = time.perf_counter() - t0
    rel_errs = {d: abs(values[d] - t) / t for d, t in targets.items()}
    ok = max(rel_errs.values()) < 0.02 and elapsed < 1.0
    report(1, "threshold table (3 significant figures, < 1 s)", ok,
           f"values={[f'{values[d]:.3e}' for d in targets]}, "
           f"max rel err={max(rel_errs.values()):.2%}, elapsed={elapsed * 1e3:.1f} ms")


def test_criterion_02_dominating_ratio_bound():
    eps = epsilon0("dominating", d=3).epsilon0
    printed = f"{1 / 4 + eps:.7f}"
    report(2, "dominating-ratio bound at d=3", printed == "0.2500438",
           f"1/(d+1) + eps0 prints {printed}")


def test_criterion_03_dobrushin_exact():
    ising_value = dobrushin_coefficient(make_ising(0.2), 3)
    uniform_value = dobrushin_coefficient(uniform_kernel(3), 3)
    ok = abs(ising_value - 0.2) <= 1e-12 and uniform_value == 0.0
    report(3, "exact Dobrushin coefficients", ok,
           f"two-state 0.2 kernel -> {ising_value!r}, uniform -> {uniform_value!r}")


def test_criterion_04_spectral_radius_grid():
    worst = 0.0
    for k in (2, 3, 4, 5, 7, 9):
        for p in np.linspace(0.0, 1.0, 11):
            from treelab.kernels import make_potts, spectral_radius
            observed = spectral_radius(make_potts(k, float(p)))
            worst = max(worst, abs(observed - abs(1 - p * k / (k - 1))))
    report(4, "switch-kernel spectral radius |1 - pk/(k-1)|", worst < 1e-10,
           f"max abs deviation {worst:.2e} over the (k, p) grid")


def test_criterion_05_glauber_fixed_point():
    t0 = time.perf_counter()
    rep = fixed_point_test(make_ising(0.25), d=3, depth=8, sweeps=50, replicas=10_000,
                           rng=np.random.default_rng(2024))
    elapsed = time.perf_counter() - t0
    ok = rep.vertex_ok and rep.edge_ok
    report(5, "sweep fixes the chain law (vertex/edge within 3 sigma)", ok,
           f"tv_vertex={rep.tv_vertex:.2e} (floor {rep.floor_vertex:.2e}), "
           f"tv_edge={rep.tv_edge:.2e} (floor {rep.floor_edge:.2e}), "
           f"tv_star={rep.tv_star:.2e} (floor {rep.floor_star:.2e}), "
           f"elapsed={elapsed:.0f} s")


def test_criterion_06_contraction_and_convergence():
    kernel = make_ising(0.25)
    decay = estimate_hamming_decay(kernel, d=3, depth=8, sweeps=60, replicas=2000,
                                   rng=np.random.default_rng(77))
    p = wake_probability(3)
    bound = 1.0 - p * (1.0 - 3 * decay.dobrushin) + 0.02
    # deeper arena for the convergence run: the never-waking leaves sustain a
    # disagreement gradient, and depth 10 keeps the window plateau below target
    conv = converge_from_iid(kernel, d=3, depth=10, sweeps=200, replicas=1000,
                             rng=np.random.default_rng(78))
    ok = decay.rate <= bound and conv.final_distance < 0.01
    report(6, "coupled contraction and convergence from noise", ok,
           f"fitted rate={decay.rate:.4f} <= {bound:.4f}, "
           f"distance after 200 sweeps={conv.final_distance:.4f} (< 0.01), "
           f"initial={conv.mean_distance[0]:.3f} predicted {conv.predicted_initial}")


def test_criterion_07_entropy_counterexample():
    lhs70 = 1.5 * (math.log(70) + math.log(4))
    rhs70 = 2 * math.log(70)
    at70 = bmc_entropy_report(make_walk_kernel(circulant_graph(70, [1, 2])), 3)
    at60 = bmc_entropy_report(make_walk_kernel(circulant_graph(60, [1, 2])), 3)
    ok = (at70.edge_vertex_verdict == "FAILS" and at60.edge_vertex_verdict == "PASSES"
          and lhs70 < rhs70)
    report(7, "walk-chain entropy violation at k=70, none at k=60", ok,
           f"k=70: {lhs70:.3f} < {rhs70:.3f} FAILS; k=60 slack {at60.slack_edge_vertex:+.4f} PASSES")


def test_criterion_08_matching_count_identity():
    records = [rec for n in (4, 6) for rec in matching_identity_check(n)]
    ok = bool(records) and all(rec.holds for rec in records)
    report(8, "exact matching-count identity over two colors", ok,
           f"{len(records)} achievable (mu, nu) pairs at n=4 and n=6, all equal")


def test_criterion_09_covering_minima():
    m2 = bipartite_matrix(3)
    k33, k4 = complete_bipartite(3, 3), complete_graph(4)
    exact_k33, _ = min_error_exact(k33, m2)
    exact_k4, _ = min_error_exact(k4, m2)
    rng = np.random.default_rng(5)
    local_k33, _ = min_error_local_search(k33, m2, 10, rng)
    local_k4, _ = min_error_local_search(k4, m2, 10, rng)
    ok = (exact_k33 == 0.0 and exact_k4 == 0.75
          and local_k33 == exact_k33 and local_k4 == exact_k4)
    report(9, "covering minima on the bipartite matrix", ok,
           f"c(K33)={exact_k33}, c(K4)={exact_k4}, local search matches both")


def test_criterion_10_correlation_classifier():
    enc = [1.0, -1.0]
    strong = classify_correlation_decay(make_ising(0.8), 3, enc, 30)
    weak = classify_correlation_decay(make_ising(0.3), 4, enc, 200)
    est = estimate_correlation(make_ising(0.5), 2, enc, 100_000,
                               np.random.default_rng(11))
    sampled_ok = abs(est.value - 0.25) < 3 * est.stderr
    ok = (strong.verdict == "VIOLATES" and strong.witness == 15
          and weak.verdict == "CONSISTENT" and sampled_ok)
    report(10, "correlation ceiling classifier", ok,
           f"0.8 violates at witness {strong.witness}; 0.3/d=4 consistent to 200; "
           f"sampled {est.value:.4f} vs 0.25 within {abs(est.value - 0.25) / est.stderr:.1f} se")


def _edge_swapped_pair(n, rng):
    while True:
        graph = sample_regular_graph(n, 3, simple=True, rng=rng)
        edges = list(graph.edges)
        edge_set = {tuple(sorted(e)) for e in edges}
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            if len({a, b, c, d}) < 4:
                continue
            if tuple(sorted((a, c))) in edge_set or tuple(sorted((b, d))) in edge_set:
                continue
            swapped = [e for e in edges if e not in ((a, b), (c, d))] + [(a, c), (b, d)]
            return graph, graph_from_edges(n, 3, swapped)


def test_criterion_11_local_statistics():
    rng = np.random.default_rng(6)
    g1, g2 = _edge_swapped_pair(100, rng)
    worst = 0.0
    for _ in range(100):
        coloring = rng.integers(0, 2, size=100).tolist()
        tv = tv_distance(ball_distribution(g1, coloring, 1),
                         ball_distribution(g2, coloring, 1))
        worst = max(worst, tv)
    base = complete_bipartite(3, 3)
    perm = [4, 2, 0, 5, 3, 1]
    iso = graph_from_edges(6, 3, [(perm[u], perm[v]) for u, v in base.edges])
    est = dcn_estimate(base, iso, 2, 2, coloring_budget=64)
    ok = worst <= 0.32 and est.exact and est.value == 0.0
    report(11, "edge-swap stability and exact isomorphic distance", ok,
           f"worst per-coloring TV {worst:.4f} <= 0.32 over 100 colorings; "
           f"isomorphic pair distance {est.value}")


def test_criterion_12_property_suites():
    # waking sets are 3-separated on every draw
    rng = np.random.default_rng(7)
    separated = True
    for d, depth in ((3, 4), (4, 3)):
        tree = build_tree(d, depth)
        for _ in range(50):
            members = np.flatnonzero(waking_set(tree, sample_uniform_labels(tree, rng)).member)
            for i in range(members.size):
                for j in range(i + 1, members.size):
                    if tree_distance(tree, int(members[i]), int(members[j])) < 3:
                        separated = False

    # maximal coupling achieves the exact total variation
    coupling_ok = True
    for _ in range(3):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        tv = 0.5 * float(np.abs(p - q).sum())
        n = 50_000
        neq = sum(x != y for x, y in (maximal_coupling(p, q, rng) for _ in range(n)))
        sigma = max(math.sqrt(tv * (1 - tv) / n), 1e-4)
        if abs(neq / n - tv) >= 3.5 * sigma:
            coupling_ok = False

    # conditional laws normalize and are exchangeable in the neighbors
    from treelab.kernels import make_potts
    kernel = make_potts(4, 0.3)
    cond_ok = True
    for _ in range(100):
        omega = rng.integers(0, 4, size=3)
        out = conditional_dist(kernel, omega)
        if abs(out.sum() - 1.0) > 1e-12:
            cond_ok = False
        if not np.allclose(out, conditional_dist(kernel, rng.permutation(omega)), atol=1e-12):
            cond_ok = False

    # reversibility validation rejects a hand-built non-reversible kernel
    ring = [[0.3, 0.5, 0.2], [0.2, 0.3, 0.5], [0.5, 0.2, 0.3]]
    try:
        TransitionKernel(q=ring, pi=[1 / 3] * 3)
        rejects = False
    except ValueError:
        rejects = True

    ok = separated and coupling_ok and cond_ok and rejects
    report(12, "property suites (separation, coupling, conditionals, validation)", ok,
           f"separated={separated}, coupling={coupling_ok}, conditionals={cond_ok}, "
           f"non-reversible rejected={rejects}")
