import numpy as np
import pytest

from treelab.covering import (CoveringMatrix, bipartite_matrix, delta_lower_bound,
                              dominating_matrix, dominating_table, epsilon0, error_ratio,
                              format_dominating_table, independence_threshold,
                              is_covering_at, min_error_exact, min_error_local_search,
                              read_covering_matrix, rigidity_check, write_covering_matrix)
from treelab.errors import BudgetExceededError
from treelab.graphs import (complete_bipartite, complete_graph, cycle_graph,
                            graph_from_edges, sample_regular_graph)

# golden number from a standalone high-precision bisection of the crossing
BIPARTITE_EPS0_D3 = 2.615621445e-03


class TestCoveringMatrix:
    def test_row_sums_enforced(self):
        with pytest.raises(ValueError):
            CoveringMatrix([[0, 3], [1, 1]])

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            CoveringMatrix([[-1, 4], [1, 2]])

    @pytest.mark.parametrize("mat", [[[0, 10**20], [10**20, 0]],
                                     # entries fit, but each row sum wraps to -2^63
                                     [[2**62, 2**62], [2**62, 2**62]]])
    def test_entries_and_row_sums_outside_int64_rejected(self, mat):
        with pytest.raises(ValueError, match="64-bit"):
            CoveringMatrix(mat)

    def test_connectivity_enforced(self):
        with pytest.raises(ValueError):
            CoveringMatrix([[3, 0], [0, 3]])

    def test_named_matrices(self):
        m1 = dominating_matrix(3)
        assert m1.mat.tolist() == [[0, 3], [1, 2]]
        assert m1.d == 3 and m1.s_count == 2
        m2 = bipartite_matrix(4)
        assert m2.mat.tolist() == [[0, 4], [4, 0]]

    def test_file_roundtrip(self, tmp_path):
        matrix = CoveringMatrix([[1, 2], [2, 1]])
        path = tmp_path / "matrix.txt"
        write_covering_matrix(matrix, path)
        path.write_text("  # indented comment\n" + path.read_text())
        loaded = read_covering_matrix(path)
        assert np.array_equal(loaded.mat, matrix.mat)

    def test_file_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n0 3\n3 0\n")
        with pytest.raises(ValueError):
            read_covering_matrix(path)
        path.write_text("2 3\n0 3\n1 2\n5 5\n")
        with pytest.raises(ValueError, match="body has 3"):
            read_covering_matrix(path)


class TestIsCovering:
    def test_bipartition_of_k33(self):
        graph = complete_bipartite(3, 3)
        coloring = [0, 0, 0, 1, 1, 1]
        m2 = bipartite_matrix(3)
        assert all(is_covering_at(graph, coloring, v, m2) for v in range(6))
        assert error_ratio(graph, coloring, m2) == 0.0

    def test_constant_coloring_fails_everywhere(self):
        graph = complete_bipartite(3, 3)
        m2 = bipartite_matrix(3)
        assert error_ratio(graph, [0] * 6, m2) == 1.0

    @pytest.mark.parametrize("coloring", [
        [0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 2], [0, 0, 0, 1, 1, -1],
        [0, 0, 0, 1, 1, 0.5], np.zeros(6),
    ])
    def test_error_ratio_rejects_bad_colorings(self, coloring):
        # a short coloring or a color past s-1 raised IndexError; -1 read the last color;
        # a float color passed the range check and raised IndexError
        with pytest.raises(ValueError, match=r"each of 6 vertices a color in 0\.\.1$"):
            error_ratio(complete_bipartite(3, 3), coloring, bipartite_matrix(3))

    def test_loop_counts_twice(self):
        # vertex 0: loop (two slots to itself) plus one edge to vertex 1
        graph = graph_from_edges(2, 3, [(0, 0), (0, 1), (1, 1)])
        matrix = CoveringMatrix([[2, 1], [1, 2]])
        assert is_covering_at(graph, [0, 1], 0, matrix)
        assert is_covering_at(graph, [0, 1], 1, matrix)
        assert not is_covering_at(graph, [0, 0], 0, matrix)


class TestMinError:
    def test_k33_exact_zero(self):
        ratio, witness = min_error_exact(complete_bipartite(3, 3), bipartite_matrix(3))
        assert ratio == 0.0
        assert error_ratio(complete_bipartite(3, 3), witness, bipartite_matrix(3)) == 0.0

    def test_k4_exact_three_quarters(self):
        ratio, witness = min_error_exact(complete_graph(4), bipartite_matrix(3))
        assert ratio == 0.75
        assert error_ratio(complete_graph(4), witness, bipartite_matrix(3)) == 0.75

    def test_exhaustive_reference_on_k4(self):
        # independent full scan over all 16 colorings
        import itertools
        graph = complete_graph(4)
        m2 = bipartite_matrix(3)
        best = min(
            error_ratio(graph, list(c), m2) for c in itertools.product(range(2), repeat=4)
        )
        assert best == min_error_exact(graph, m2)[0]

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            min_error_exact(cycle_graph(5), bipartite_matrix(3))
        with pytest.raises(ValueError, match="graph degree 2 does not match matrix degree 3"):
            min_error_local_search(cycle_graph(5), bipartite_matrix(3), 1,
                                   np.random.default_rng(0))

    def test_budget(self):
        graph = sample_regular_graph(40, 3, simple=True, rng=np.random.default_rng(0))
        with pytest.raises(BudgetExceededError):
            min_error_exact(graph, bipartite_matrix(3), budget=10**6)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            min_error_exact(complete_graph(4), bipartite_matrix(3), budget=budget)

    def test_local_search_matches_exact(self):
        rng = np.random.default_rng(1)
        for graph in (complete_graph(4), complete_bipartite(3, 3)):
            exact, _ = min_error_exact(graph, bipartite_matrix(3))
            local, witness = min_error_local_search(graph, bipartite_matrix(3), 10, rng)
            assert local == exact
            assert error_ratio(graph, witness, bipartite_matrix(3)) == local

    def test_local_search_monotone_in_restarts(self):
        graph = sample_regular_graph(14, 3, simple=True, rng=np.random.default_rng(2))
        m1 = dominating_matrix(3)
        values = [
            min_error_local_search(graph, m1, r, np.random.default_rng(3))[0]
            for r in (1, 3, 10)
        ]
        assert values[0] >= values[1] >= values[2]

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_local_search_needs_a_restart(self, restarts):
        graph = sample_regular_graph(10, 3, simple=True, rng=np.random.default_rng(4))
        with pytest.raises(ValueError, match="restart"):
            min_error_local_search(graph, dominating_matrix(3), restarts,
                                   np.random.default_rng(5))

    def test_local_search_never_beats_exact(self):
        graph = sample_regular_graph(10, 3, simple=True, rng=np.random.default_rng(4))
        m1 = dominating_matrix(3)
        exact, _ = min_error_exact(graph, m1)
        local, _ = min_error_local_search(graph, m1, 8, np.random.default_rng(5))
        assert local >= exact


class TestDelta:
    def test_dominating_value(self):
        assert delta_lower_bound(dominating_matrix(3), 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_bipartite_value(self):
        assert delta_lower_bound(bipartite_matrix(3), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_generic_diameter_one(self):
        matrix = CoveringMatrix([[1, 2], [2, 1]])
        assert delta_lower_bound(matrix, 0.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_degree_zero_matrix_is_generic(self):
        # its only state has probability 1; no registered matrix has degree 0
        assert delta_lower_bound(CoveringMatrix([[0]]), 0.0) == 1.0
        with pytest.raises(ValueError, match="d must be at least 3"):
            epsilon0(CoveringMatrix([[0]]))

    def test_nonpositive_signaled(self):
        with pytest.raises(ValueError):
            delta_lower_bound(dominating_matrix(3), 1.0)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-9, float("-inf")])
    def test_negative_or_nan_eps_rejected(self, eps):
        # NaN used to pass both checks and come back as the bound
        for matrix in (dominating_matrix(3), CoveringMatrix([[1, 2], [2, 1]])):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                delta_lower_bound(matrix, eps)

    def test_monotone_and_positive_at_zero(self):
        for matrix in (dominating_matrix(4), bipartite_matrix(5), CoveringMatrix([[1, 2], [2, 1]])):
            values = [delta_lower_bound(matrix, e) for e in (0.0, 1e-4, 1e-3, 1e-2)]
            assert values[0] > 0.0
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestEpsilon0:
    def test_dominating_table_three_significant_figures(self):
        table = {3: 4.38e-5, 4: 6.15e-7, 5: 4.47e-9, 6: 2.08e-11}
        for d, target in table.items():
            report = epsilon0("dominating", d=d)
            assert abs(report.epsilon0 - target) / target < 0.02

    def test_dominating_bound_seven_decimals(self):
        report = epsilon0("dominating", d=3)
        assert f"{1 / 4 + report.epsilon0:.7f}" == "0.2500438"

    def test_matrix_route_matches_family_route(self):
        by_family = epsilon0("dominating", d=3).epsilon0
        by_matrix = epsilon0(dominating_matrix(3)).epsilon0
        assert by_matrix == pytest.approx(by_family, rel=1e-9)

    def test_bipartite_golden_value(self):
        report = epsilon0("independence", d=3)
        assert report.epsilon0 == pytest.approx(BIPARTITE_EPS0_D3, rel=1e-5)

    def test_bracketing_certificate(self):
        for family in ("dominating", "independence"):
            report = epsilon0(family, d=4)
            assert report.certificate_lo > 0.0
            assert report.certificate_hi <= 0.0

    def test_positive_and_decreasing_in_degree(self):
        values = [epsilon0("dominating", d=d).epsilon0 for d in range(3, 11)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("s_count", [0, 1])
    def test_rejects_fewer_than_two_states(self, s_count):
        with pytest.raises(ValueError, match="s_count must be at least 2"):
            epsilon0("dominating", d=3, s_count=s_count)

    def test_generic_matrix_threshold_exists(self):
        report = epsilon0(CoveringMatrix([[1, 2], [2, 1]]))
        assert report.epsilon0 > 0.0
        assert report.delta_id == "generic"
        assert report.ratio_bound is None

    @pytest.mark.parametrize("d", [48, 60, 79, 80])
    def test_tiny_thresholds_return(self, d):
        # roots below 1e-160, where a bisection midpoint sqrt(lo * hi) underflows to 0
        report = epsilon0("dominating", d=d)
        assert 0.0 < report.epsilon0 < 1e-160
        assert report.certificate_lo > 0.0 >= report.certificate_hi

    def test_threshold_below_normal_floats_raises(self):
        with pytest.raises(ValueError, match="smallest normal float"):
            epsilon0("dominating", d=81)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            epsilon0("nonsense", d=3)
        with pytest.raises(ValueError, match="d of at least 3"):
            epsilon0("dominating", d=2)

    def test_tables(self):
        rows = dominating_table(3, 4)
        assert [r.d for r in rows] == [3, 4]
        assert rows[0].ratio_bound == pytest.approx(0.25 + rows[0].epsilon0)
        ind = independence_threshold(3)
        assert ind.ratio_bound == pytest.approx(0.5 - ind.epsilon0)
        assert ind.ratio_bound < 0.5
        with pytest.raises(ValueError, match="empty degree range"):
            dominating_table(5, 3)


class TestRigidity:
    def test_exact_bipartite_covering_star_is_rigid(self):
        # alternating law: center 0 with all leaves 1, or center 1 with all leaves 0
        d = 3
        law = np.zeros((2,) * (d + 1))
        law[(0,) + (1,) * d] = 0.5
        law[(1,) + (0,) * d] = 0.5
        verdict = rigidity_check(law)
        assert verdict.rigid
        assert verdict.leaf_determined
        assert verdict.rest_tv_from_product > 1e-9

    def test_iid_star_not_rigid(self):
        d = 3
        p = np.array([0.5, 0.5])
        law = p.copy()
        for _ in range(d):
            law = np.multiply.outer(law, p)
        verdict = rigidity_check(law)
        assert not verdict.rigid
        assert not verdict.leaf_determined

    def test_eigenvector_style_law_is_rigid(self):
        # three encoded values -1, 0, 1 (indices 0, 1, 2); atoms satisfy
        # value(leaf1) = value(center) - value(leaf2) - value(leaf3)
        values = {-1: 0, 0: 1, 1: 2}
        law = np.zeros((3,) * 4)
        atoms = [
            ((0, 1, -1, 0), 0.5),
            ((1, 1, 1, -1), 0.25),
            ((-1, -1, -1, 1), 0.25),
        ]
        for (c, w1, w2, w3), prob in atoms:
            assert w1 == c - w2 - w3
            law[values[c], values[w1], values[w2], values[w3]] = prob
        verdict = rigidity_check(law)
        assert verdict.rigid

    def test_validation(self):
        with pytest.raises(ValueError):
            rigidity_check(np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            rigidity_check(np.full((2, 2, 2), 0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_law_rejected(self, bad):
        law = np.full((2, 2, 2), 0.125)
        law[1, 0, 1] = bad
        for joint in (law, np.full((2, 2, 2), bad)):
            with pytest.raises(ValueError, match="finite"):
                rigidity_check(joint)


def test_aligned_text_table():
    rows = dominating_table(3, 4)
    text = format_dominating_table(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split() == ["d", "epsilon0", "dominating_bound"]
    assert lines[1].split()[0] == "3"


def _mp_root(delta, d: int, s: int):
    """The root of g at 50 digits.

    In x = ln(eps), g / sqrt(eps ln(s) (d-1)/(d-2)) has the same sign as g and is
    of order 1, so mpmath's bracketing Anderson-Bjorck solver meets its absolute
    tolerance at full relative precision.  Bisection of [ln 1e-400, ln 1/2] to a
    width of 1 gives the bracket.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        coef = mp.log(s) * (d - 1) / (d - 2)

        def h(x):
            eps = mp.exp(x)
            dv = delta(eps)
            return (dv**d - eps) / (2 * mp.sqrt(eps * coef)) - 1 if dv > 0 else mp.mpf(-1)

        lo, hi = mp.log(mp.mpf(10) ** -400), mp.log(mp.mpf(1) / 2)
        assert h(lo) > 0 >= h(hi)
        while hi - lo > 1:
            mid = (lo + hi) / 2
            if h(mid) > 0:
                lo = mid
            else:
                hi = mid
        x = mp.findroot(h, (lo, hi), solver="anderson")
        assert lo <= x <= hi
        return mp.exp(x)


@pytest.mark.parametrize("family", ["dominating", "independence"])
@pytest.mark.parametrize("s_count", [None, 3])
def test_epsilon0_matches_mpmath_root(family, s_count):
    mp = pytest.importorskip("mpmath").mp
    for d in range(3, 80):
        if family == "dominating":
            delta = lambda e, d=d: (1 - e) / (d + 1)  # noqa: E731
        else:
            delta = lambda e: mp.mpf(1) / 2 - e  # noqa: E731
        root = _mp_root(delta, d, 2 if s_count is None else s_count)
        eps0 = epsilon0(family, d=d, s_count=s_count).epsilon0
        assert abs(eps0 - root) <= 1e-6 * root, (family, d, s_count)


def test_generic_epsilon0_matches_mpmath_root():
    mp = pytest.importorskip("mpmath").mp
    # support diameter K = 2 (0 -> 1 -> 2 and back), so delta = 1/(3 * 3^2) - eps (1/3 + 1/9)
    root = _mp_root(lambda e: mp.mpf(1) / 27 - e * mp.mpf(4) / 9, 3, 3)
    eps0 = epsilon0(CoveringMatrix([[1, 2, 0], [1, 0, 2], [0, 2, 1]])).epsilon0
    assert abs(eps0 - root) <= 1e-6 * root


def test_independence_threshold_values_match_standalone_bisection():
    # frozen from the same standalone script as the golden d=3 number
    targets = {4: 8.991884270e-04, 5: 2.584626198e-04, 6: 6.969980054e-05}
    for d, target in targets.items():
        assert independence_threshold(d).epsilon0 == pytest.approx(target, rel=1e-5)


# ---------------------------------------------------------------------------
# the searches against their per-vertex versions
# ---------------------------------------------------------------------------

def exact_per_vertex(graph, matrix):
    """min_error_exact as it was written with one is_covering_at per check."""
    from treelab.covering import _matrix_automorphism_orbit_reps
    from treelab.graphs import bfs

    s, n = matrix.s_count, graph.n
    reach = bfs(0, graph.neighbors.__getitem__)
    order = list(reach) + [v for v in range(n) if v not in reach]
    pos = {v: i for i, v in enumerate(order)}
    decided_at = [[] for _ in range(n)]
    for u in range(n):
        decided_at[max([pos[u]] + [pos[int(w)] for w in graph.neighbors[u]])].append(u)
    coloring = np.zeros(n, dtype=np.int64)
    best = [n + 1, coloring.copy()]
    first_colors = _matrix_automorphism_orbit_reps(matrix)

    def dfs(depth, violations):
        if violations >= best[0]:
            return
        if depth == n:
            best[:] = [violations, coloring.copy()]
            return
        v = order[depth]
        for c in (first_colors if depth == 0 else range(s)):
            coloring[v] = c
            extra = sum(not is_covering_at(graph, coloring, u, matrix) for u in decided_at[depth])
            dfs(depth + 1, violations + extra)

    dfs(0, 0)
    return best[0] / n, best[1]


def local_search_per_vertex(graph, matrix, restarts, rng):
    """min_error_local_search as it was written with one is_covering_at per check."""
    s, n = matrix.s_count, graph.n
    best_count, best_coloring = n + 1, None

    def bad(coloring, vertices):
        return sum(not is_covering_at(graph, coloring, u, matrix) for u in vertices)

    for _ in range(max(1, restarts)):
        coloring = rng.integers(0, s, size=n)
        current = bad(coloring, range(n))
        improved = True
        while improved and current > 0:
            improved = False
            move = None
            for v in range(n):
                old = coloring[v]
                affected = set([v] + [int(w) for w in graph.neighbors[v]])
                before = bad(coloring, affected)
                for c in range(s):
                    if c == old:
                        continue
                    coloring[v] = c
                    gain = before - bad(coloring, affected)
                    if gain > 0 and (move is None or gain > move[0]):
                        move = (gain, v, c)
                coloring[v] = old
            if move is not None:
                coloring[move[1]] = move[2]
                current -= move[0]
                improved = True
        if current < best_count:
            best_count, best_coloring = current, coloring.copy()
    return best_count / n, best_coloring


REFERENCE_MATRICES = {
    "dominating": dominating_matrix(3),
    "bipartite": bipartite_matrix(3),
    "generic": CoveringMatrix([[0, 2, 1], [2, 0, 1], [1, 1, 1]]),
}


def _reference_graphs(n, seeds):
    graphs = [sample_regular_graph(n, 3, simple=simple, rng=np.random.default_rng(seed))
              for seed in seeds for simple in (True, False)]
    # the pairing-model draws must include a loop and a multi-edge
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < len(g.edges) for g in graphs)
    return graphs


def _same(got, want):
    ratio, witness = got
    assert ratio == want[0]
    assert witness.dtype == want[1].dtype and np.array_equal(witness, want[1])


@pytest.mark.parametrize("name", sorted(REFERENCE_MATRICES))
def test_exact_search_equals_per_vertex_version(name):
    matrix = REFERENCE_MATRICES[name]
    n = 8 if matrix.s_count == 3 else 12
    for graph in _reference_graphs(n, (11, 12)):
        _same(min_error_exact(graph, matrix), exact_per_vertex(graph, matrix))


@pytest.mark.parametrize("name", sorted(REFERENCE_MATRICES))
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_local_search_equals_per_vertex_version(name, seed):
    matrix = REFERENCE_MATRICES[name]
    for graph in _reference_graphs(24, (seed,)):
        got = min_error_local_search(graph, matrix, 3, np.random.default_rng(seed))
        _same(got, local_search_per_vertex(graph, matrix, 3, np.random.default_rng(seed)))
