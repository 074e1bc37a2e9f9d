import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from treelab.errors import BudgetExceededError
from treelab.graphs import (_shortest_cycle_through, adjacency_matrix, bfs,
                            circulant_graph, complete_bipartite, complete_graph, cycle_graph,
                            eigen_experiment, girth_profile, graph_from_edges,
                            iter_perfect_matchings, matching_color_count,
                            matching_identity_check, pm_count, read_graph,
                            sample_regular_graph, write_graph)
from treelab.kernels import make_walk_kernel, spectral_radius


def check_graph_valid(graph):
    """Independent validity scan: degrees, involution, simplicity flag."""
    nd = graph.n * graph.d
    pairing = graph.pairing
    assert sorted(pairing.tolist()) == list(range(nd))
    assert all(pairing[pairing[s]] == s and pairing[s] != s for s in range(nd))
    degrees = np.zeros(graph.n, dtype=int)
    loops = multi = 0
    seen = {}
    for s in range(nd):
        t = int(pairing[s])
        if s < t:
            u, v = s // graph.d, t // graph.d
            degrees[u] += 1
            degrees[v] += 1
            if u == v:
                loops += 1
            key = (min(u, v), max(u, v))
            multi += seen.get(key, 0)
            seen[key] = seen.get(key, 0) + 1
    assert np.all(degrees == graph.d)
    assert graph.simple == (loops == 0 and multi == 0)
    return loops, multi


class TestSampling:
    def test_every_draw_valid(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            graph = sample_regular_graph(24, 3, simple=True, rng=rng)
            loops, multi = check_graph_valid(graph)
            assert loops == 0 and multi == 0

    def test_multigraph_mode(self):
        rng = np.random.default_rng(1)
        graphs = [sample_regular_graph(2, 3, simple=False, rng=rng) for _ in range(200)]
        for g in graphs:
            check_graph_valid(g)
        # the 3-fold double edge shows up among two-vertex cubic multigraphs
        assert any(
            not g.simple and all(int(w) == 1 for w in g.neighbors[0]) for g in graphs
        )

    def test_edge_ids_out_of_range(self):
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for bad in ((0, -1), (0, 4)):
            with pytest.raises(ValueError):
                graph_from_edges(4, 3, k4[:-1] + [bad])

    def test_unique_simple_cubic_on_four_vertices(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            graph = sample_regular_graph(4, 3, simple=True, rng=rng)
            for v in range(4):
                assert sorted(int(w) for w in graph.neighbors[v]) == sorted(
                    u for u in range(4) if u != v
                )

    @pytest.mark.parametrize("n, d, edges", [
        (0, 3, []),
        (2, 0, []),
        (-2, -1, [(0, 0)]),
        (4, 3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        (3, 3, [(0, 1), (1, 2), (2, 0), (0, 1)]),
        # sized before allocation: a billion-vertex header with one edge fails at once
        (10**9, 3, [(0, 1)]),
    ])
    def test_sizes_checked_before_allocation(self, n, d, edges):
        with pytest.raises(ValueError):
            graph_from_edges(n, d, edges)

    def test_odd_total_degree_rejected(self):
        with pytest.raises(ValueError):
            sample_regular_graph(3, 3, simple=False, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
            sample_regular_graph(0, 3, simple=False, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("edges", [
        [(0, 1), (0, 2), (0, 3), (0, 1), (1, 2), (2, 3)],  # vertex 0 has degree 4
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 0)],  # a loop needs two free slots of 0
    ])
    def test_vertex_over_degree_rejected(self, edges):
        with pytest.raises(ValueError, match="vertex degrees exceed 3"):
            graph_from_edges(4, 3, edges)

    def test_unbalanced_bipartite_rejected(self):
        with pytest.raises(ValueError, match="only balanced bipartite graphs are regular"):
            complete_bipartite(2, 3)

    @pytest.mark.parametrize("offsets", [[0], [1, 4], [5]])
    def test_circulant_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="0 < o < n/2"):
            circulant_graph(8, offsets)

    def test_retry_budget_exhausted(self):
        # no simple 3-regular graph on two vertices exists
        with pytest.raises(BudgetExceededError):
            sample_regular_graph(2, 3, simple=True, rng=np.random.default_rng(0),
                                 max_retries=50)

    @pytest.mark.parametrize("max_retries", [0, -5])
    def test_retry_budget_must_be_positive(self, max_retries):
        with pytest.raises(ValueError, match="pairing attempt"):
            sample_regular_graph(4, 3, simple=True, rng=np.random.default_rng(0),
                                 max_retries=max_retries)

    def test_degree_histogram(self):
        graph = sample_regular_graph(30, 4, simple=True, rng=np.random.default_rng(3))
        counts = np.bincount(graph.neighbors.ravel(), minlength=30)
        assert counts.sum() == 30 * 4


@pytest.mark.parametrize("d", range(1, 12))
def test_graph_tables_equal_slot_loops(d):
    """Edges, the simple flag, adjacency and walk kernels against per-slot loops."""
    rng = np.random.default_rng(d)
    for n in (2, 4, 6, 9):
        if n * d % 2:
            continue
        for _ in range(5):
            graph = sample_regular_graph(n, d, simple=False, rng=rng)
            edges = [(s // d, int(t) // d) for s, t in enumerate(graph.pairing) if s < t]
            assert graph.edges == edges
            assert graph.simple == (all(u != v for u, v in edges) and len(set(edges)) == len(edges))
            adj = np.zeros((n, n))
            walk = np.zeros((n, n))
            for v in range(n):
                for w in graph.neighbors[v]:
                    adj[v, w] += 1.0
                    walk[v, w] += 1.0 / d
            assert np.array_equal(adjacency_matrix(graph), adj)
            if len(bfs(0, graph.neighbors.__getitem__)) == n:
                assert np.array_equal(make_walk_kernel(graph).q, walk)
            else:
                with pytest.raises(ValueError, match="connected"):
                    make_walk_kernel(graph)


class TestMatchingCounts:
    def test_pm_count_values(self):
        assert pm_count(0) == 1
        assert pm_count(2) == 1
        assert pm_count(4) == 3
        assert pm_count(10) == 945
        with pytest.raises(ValueError):
            pm_count(5)

    def test_pm_count_matches_direct_enumeration(self):
        # independent recursive count, no shared code path with the formula
        def count(points):
            if not points:
                return 1
            first, rest = points[0], points[1:]
            return sum(count(rest[:i] + rest[i + 1:]) for i in range(len(rest)))

        for m in (2, 4, 6, 8):
            assert pm_count(m) == count(list(range(m)))
        assert len(list(iter_perfect_matchings(list(range(6))))) == pm_count(6)

    def test_two_vertex_cubic_pairings(self):
        # 15 pairings of 6 half-edges: 6 give the triple edge, 9 give
        # loop+loop+edge; together they exhaust pm_count(6)
        triple = double_loop = 0
        for matching in iter_perfect_matchings(list(range(6))):
            vertex = lambda slot: slot // 3
            kinds = sorted(tuple(sorted((vertex(a), vertex(b)))) for a, b in matching)
            if kinds == [(0, 1), (0, 1), (0, 1)]:
                triple += 1
            else:
                double_loop += 1
        assert (triple, double_loop) == (6, 9)
        assert triple + double_loop == pm_count(6)

    def test_hand_example(self):
        nu = {("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)}
        assert matching_color_count(["a", "a", "b", "b"], nu) == 2

    def test_point_mass(self):
        nu = {("a", "a"): 1}
        assert matching_color_count(["a"] * 6, nu) == pm_count(6)

    def test_asymmetric_nu_rejected(self):
        with pytest.raises(ValueError):
            matching_color_count(["a", "a", "b", "b"], {("a", "b"): 1.0})

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            matching_color_count(["a"] * 14, {("a", "a"): 1})

    @pytest.mark.parametrize("n", [4, 6])
    def test_identity_holds_for_all_achievable_pairs(self, n):
        records = matching_identity_check(n)
        assert records, "no achievable pairs found"
        for rec in records:
            assert rec.holds, rec

    def test_identity_known_record(self):
        records = matching_identity_check(4)
        rec = next(
            r for r in records if r.mu_counts == (2, 2) and r.nu_counts == (0, 2, 2, 0)
        )
        assert rec.m_f == 2
        assert rec.colorings_mu == 6
        assert rec.pair_colorings_nu == 4
        assert rec.lhs == rec.rhs == 12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_closed_form_pairs_equal_the_scan(self, n):
        # reference: every coloring against every matching, the pairs sorted as found
        pairs = [(a, b) for a in range(2) for b in range(2)]
        found = set()
        for bits in itertools.product(range(2), repeat=n):
            for matching in iter_perfect_matchings(list(range(n))):
                counts = Counter()
                for u, v in matching:
                    counts[bits[u], bits[v]] += 1
                    counts[bits[v], bits[u]] += 1
                found.add(((bits.count(0), bits.count(1)), tuple(counts[p] for p in pairs)))
        records = matching_identity_check(n)
        assert [(r.mu_counts, r.nu_counts) for r in records] == sorted(found)

    def test_nu_off_the_1_over_n_grid_counts_nothing(self):
        # 1/3 of 4 points is no whole number of directed pairs
        nu = {("a", "a"): Fraction(1, 3), ("a", "b"): Fraction(1, 3), ("b", "a"): Fraction(1, 3)}
        assert matching_color_count(["a", "a", "a", "b"], nu) == 0

    def test_odd_point_count_rejected(self):
        with pytest.raises(ValueError, match="even number of points"):
            matching_color_count(["a"] * 3, {("a", "a"): 1})

    @pytest.mark.parametrize("n", [3, 0, 12])
    def test_identity_sizes_rejected(self, n):
        with pytest.raises(ValueError, match="small even integer"):
            matching_identity_check(n)

    def test_m_f_constant_over_colorings_with_same_counts(self):
        # |M_f| depends on the coloring only through its color counts
        nu = {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        values = {
            matching_color_count(perm, nu)
            for perm in set(itertools.permutations([0, 0, 1, 1]))
        }
        assert values == {2}


def per_edge_shortest_cycle(graph, v, cap):
    """Reference: for each edge instance (s, t) at v, the shortest path from v
    to the far end that avoids that edge, plus one; cap + 1 above cap."""
    best = cap + 1
    for s in range(v * graph.d, (v + 1) * graph.d):
        t = int(graph.pairing[s])
        w = t // graph.d
        if w == v:
            return 1  # loop
        dist = {v: 0}
        frontier = [v]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                if dist[u] + 1 > best - 1 or dist[u] + 1 > cap - 1:
                    continue
                for slot in range(u * graph.d, (u + 1) * graph.d):
                    if slot == s or slot == t:
                        continue
                    partner = int(graph.pairing[slot])
                    if partner == s or partner == t:
                        continue
                    x = partner // graph.d
                    if x not in dist:
                        dist[x] = dist[u] + 1
                        if x == w:
                            found = dist[x]
                            break
                        nxt.append(x)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            best = min(best, found + 1)
    return best


def seeded_multigraphs():
    """Pairing-model multigraphs, loops and parallel edges kept, d = 1..6."""
    rng = np.random.default_rng(20)
    for d in range(1, 7):
        for _ in range(6):
            n = int(rng.integers(1, 41))
            n += (n * d) % 2
            yield sample_regular_graph(n, d, simple=False, rng=rng)


class TestGirth:
    def test_one_search_matches_per_edge_searches(self):
        for graph in seeded_multigraphs():
            for cap in [*range(1, 13), graph.n + 1]:
                lengths = [_shortest_cycle_through(graph, v, cap) for v in range(graph.n)]
                reference = [per_edge_shortest_cycle(graph, v, cap) for v in range(graph.n)]
                assert lengths == reference, (graph.n, graph.d, cap)
                assert girth_profile(graph, cap) == \
                    sum(length <= cap for length in reference) / graph.n

    def test_long_cycle_has_no_short_cycles(self):
        assert girth_profile(cycle_graph(6), 4) == 0.0
        assert girth_profile(cycle_graph(6), 6) == 1.0

    def test_complete_graph(self):
        assert girth_profile(complete_graph(4), 3) == 1.0
        assert girth_profile(complete_graph(4), 2) == 0.0

    def test_loop_and_multiedge_conventions(self):
        loop = graph_from_edges(1, 2, [(0, 0)])
        assert girth_profile(loop, 1) == 1.0
        doubled = graph_from_edges(2, 3, [(0, 1), (0, 1), (0, 1)])
        assert girth_profile(doubled, 2) == 1.0
        assert girth_profile(doubled, 1) == 0.0

    def test_random_cubic_short_cycles_are_rare(self):
        rng = np.random.default_rng(4)
        fractions = [
            girth_profile(sample_regular_graph(1000, 3, simple=True, rng=rng), 4)
            for _ in range(20)
        ]
        assert np.mean(fractions) <= 0.05


class TestEigenExperiment:
    def test_unquantized_exact(self):
        graph = sample_regular_graph(60, 3, simple=True, rng=np.random.default_rng(5))
        report = eigen_experiment(graph, 1, None)
        assert report.error_ratio == 0.0
        assert report.max_residual < 1e-10

    def test_perron_single_level(self):
        graph = sample_regular_graph(50, 3, simple=True, rng=np.random.default_rng(6))
        report = eigen_experiment(graph, 0, 1)
        assert report.eigenvalue == pytest.approx(3.0, abs=1e-9)
        assert report.error_ratio == 0.0

    def test_bipartite_bottom_eigenvector_single_level(self):
        # the -d eigenvector of a connected bipartite regular graph averages to
        # zero; a one-level quantization collapses it and every vertex fails
        report = eigen_experiment(complete_bipartite(3, 3), -1, 1)
        assert report.eigenvalue == pytest.approx(-3.0, abs=1e-9)
        assert report.error_ratio == 1.0

    def test_second_eigenvector_quantized_is_imperfect(self):
        graph = sample_regular_graph(500, 3, simple=True, rng=np.random.default_rng(7))
        report = eigen_experiment(graph, 1, 4, seed=0)
        assert report.error_ratio > 0.0

    def test_rejects_multigraph(self):
        doubled = graph_from_edges(2, 3, [(0, 1), (0, 1), (0, 1)])
        with pytest.raises(ValueError):
            eigen_experiment(doubled, 0, 2)

    @pytest.mark.parametrize("which", [6, -7])
    def test_rejects_eigenpair_index_out_of_range(self, which):
        with pytest.raises(ValueError, match="which must lie in -6..5"):
            eigen_experiment(complete_bipartite(3, 3), which, 1)

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError, match="levels must be at least 1"):
            eigen_experiment(complete_bipartite(3, 3), 0, 0)

    def test_levels_at_least_the_distinct_values_keep_the_vector(self):
        # one level per vertex is never fewer than the distinct entries: no k-means runs
        graph = complete_bipartite(3, 3)
        exact, quantized = eigen_experiment(graph, 1, None), eigen_experiment(graph, 1, 6)
        assert np.array_equal(quantized.centers, exact.centers)
        assert quantized.error_ratio == exact.error_ratio
        assert quantized.max_residual == exact.max_residual


def test_near_ramanujan_walk_spectra():
    # sampled cubic graphs sit below the Ramanujan line plus slack on most seeds
    rng = np.random.default_rng(8)
    target = 2 * np.sqrt(2) / 3 + 0.05
    hits = 0
    for _ in range(10):
        graph = sample_regular_graph(500, 3, simple=True, rng=rng)
        if spectral_radius(make_walk_kernel(graph)) <= target:
            hits += 1
    assert hits >= 9


def test_graph_file_roundtrip(tmp_path):
    graph = sample_regular_graph(12, 3, simple=True, rng=np.random.default_rng(9))
    path = tmp_path / "graph.txt"
    write_graph(graph, path)
    path.write_text("  # indented comment\n" + path.read_text())
    loaded = read_graph(path)
    assert loaded.n == graph.n and loaded.d == graph.d
    assert sorted(map(sorted, loaded.edges)) == sorted(map(sorted, graph.edges))
    assert np.allclose(adjacency_matrix(loaded), adjacency_matrix(graph))


def test_graph_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 3\n0 1\n")
    with pytest.raises(ValueError):
        read_graph(path)
    path.write_text("2 1\n0 1 1\n")
    with pytest.raises(ValueError, match="'0 1 1'"):
        read_graph(path)
