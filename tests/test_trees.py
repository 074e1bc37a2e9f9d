from fractions import Fraction

import numpy as np
import pytest

from treelab import trees
from treelab.errors import BudgetExceededError
from treelab.graphs import circulant_graph
from treelab.kernels import (TransitionKernel, make_ising, make_potts, make_walk_kernel,
                             uniform_kernel)
from treelab.trees import (_draw_rows, _row_sampler, build_tree, classify_correlation_decay, dump_configuration,
                           estimate_correlation, exact_bmc_marginals, exact_correlations,
                           local_correlation_bound, sample_bmc, sample_bmc_batch,
                           sample_iid, sample_uniform_labels, tree_distance,
                           tree_vertex_count)

# chi-square criticals at the two-sided 3-sigma tail probability (0.0027)
CHI2_3SIGMA = {1: 9.00, 2: 11.83, 3: 14.16, 4: 16.25, 6: 20.06}


def loop_built_tree(d, depth):
    """Per-vertex construction: parent, depth and neighbor tables, level by level."""
    n = tree_vertex_count(d, depth)
    parent = np.full(n, -1, dtype=np.int64)
    depth_of = np.zeros(n, dtype=np.int64)
    children = np.full((n, d), n, dtype=np.int64)
    child_count = np.zeros(n, dtype=np.int64)
    next_free, level = 1, [0]
    for ell in range(1, depth + 1):
        nxt = []
        for v in level:
            nkids = d if v == 0 else d - 1
            for j in range(nkids):
                children[v, j], parent[next_free], depth_of[next_free] = next_free, v, ell
                nxt.append(next_free)
                next_free += 1
            child_count[v] = nkids
        level = nxt
    neighbors = np.full((n, d), n, dtype=np.int64)
    neighbor_count = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nbrs = ([] if v == 0 else [int(parent[v])]) + children[v, : child_count[v]].tolist()
        neighbors[v, : len(nbrs)] = nbrs
        neighbor_count[v] = len(nbrs)
    return parent, depth_of, neighbors, neighbor_count


def column_count_draw(probs, u, rows):
    """Inverse-CDF draws by counting, one column at a time, cumulative values <= u."""
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[..., -1:]
    out = np.zeros(u.shape, dtype=np.int64)
    for col in cum.T[:-1]:
        out += col[rows] <= u
    return out


def per_level_sample(kernel, tree, rng, replicas):
    """sample_bmc_batch with each level found by a depth scan and drawn by column count."""
    states = np.empty((tree.n, replicas), dtype=np.int64)
    states[0] = _draw_rows(kernel.pi, rng.random(replicas))
    for ell in range(1, tree.depth + 1):
        verts = np.flatnonzero(tree.depth_of == ell)
        parents = states[tree.parent[verts]]
        states[verts] = column_count_draw(kernel.q, rng.random((verts.size, replicas)), parents)
    return states


WALK70 = make_walk_kernel(circulant_graph(70, [1, 2]))


class TestBuildTree:
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("depth", [1, 2, 3, 6])
    def test_equals_per_vertex_loop(self, d, depth):
        tree = build_tree(d, depth)
        arrays = (tree.parent, tree.depth_of, tree.neighbors, tree.neighbor_count)
        for got, want in zip(arrays, loop_built_tree(d, depth)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable


    @pytest.mark.parametrize("d,depth,count", [(3, 1, 4), (3, 3, 22), (4, 2, 17)])
    def test_vertex_counts(self, d, depth, count):
        tree = build_tree(d, depth)
        assert tree.n == count
        assert tree_vertex_count(d, depth) == count

    def test_structure(self):
        tree = build_tree(3, 3)
        assert tree.neighbor_count[0] == 3
        internal = (tree.depth_of > 0) & (tree.depth_of < tree.depth)
        assert np.all(tree.neighbor_count[internal] == 3)
        leaves = tree.depth_of == tree.depth
        assert np.all(tree.neighbor_count[leaves] == 1)
        assert np.all(tree.neighbors[leaves, 1:] == tree.n)
        # parent table and the children read from the neighbor table agree
        for v in range(1, tree.n):
            p = int(tree.parent[v])
            assert tree.neighbors[v, 0] == p
            assert v in tree.neighbors[p, int(p > 0) : tree.neighbor_count[p]]
            assert tree.depth_of[v] == tree.depth_of[p] + 1
        # explicit level-by-level count for d=4, depth=2: 1 + 4 + 12
        t2 = build_tree(4, 2)
        assert [int((t2.depth_of == l).sum()) for l in range(3)] == [1, 4, 12]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_tree(3, 20, max_vertices=1000)

    def test_degree_check(self):
        with pytest.raises(ValueError):
            build_tree(2, 3)

    def test_tree_distance(self):
        tree = build_tree(3, 3)
        assert tree_distance(tree, 0, 0) == 0
        child = int(tree.neighbors[0, 0])
        grand = int(tree.neighbors[child, 1])
        assert tree_distance(tree, 0, grand) == 2
        assert tree_distance(tree, int(tree.neighbors[0, 0]), int(tree.neighbors[0, 1])) == 2


    @pytest.mark.parametrize("d, depth", [(3, 1), (3, 6), (4, 4), (7, 2)])
    def test_level_is_the_depth_scan(self, d, depth):
        tree = build_tree(d, depth)
        for ell in range(-1, depth + 2):
            got = tree.level(ell)
            want = np.flatnonzero(tree.depth_of == ell)
            assert got.dtype == np.int64 and np.array_equal(got, want)


class TestSampleBmc:
    def test_uniform_kernel_gives_iid(self):
        tree = build_tree(3, 2)
        states = sample_bmc_batch(uniform_kernel(4), tree, np.random.default_rng(0), 20000)
        # root and a leaf are independent uniform: joint close to product
        joint = np.zeros((4, 4))
        leaf = tree.n - 1
        for a, b in zip(states[0], states[leaf]):
            joint[a, b] += 1
        joint /= joint.sum()
        assert np.abs(joint - 1 / 16).max() < 0.01

    def test_near_deterministic_disagreement_rate(self):
        # flip probability per edge is (1 - theta) / 2 = 0.0005
        theta = 0.999
        tree = build_tree(3, 1)
        states = sample_bmc_batch(make_ising(theta), tree, np.random.default_rng(1), 200_000)
        frac = float((states[0] != states[1]).mean())
        expect = (1 - theta) / 2
        sigma = np.sqrt(expect * (1 - expect) / 200_000)
        assert abs(frac - expect) < 3 * sigma

    def test_root_marginal_matches_pi(self):
        kernel = make_potts(5, 0.3)
        tree = build_tree(3, 2)
        states = sample_bmc_batch(kernel, tree, np.random.default_rng(2), 100_000)
        counts = np.bincount(states[0], minlength=5)
        for s in range(5):
            sigma = np.sqrt(0.2 * 0.8 / 100_000)
            assert abs(counts[s] / 100_000 - 0.2) < 3.5 * sigma

    def test_every_vertex_marginal_chi2(self):
        # chi-square at the 3-sigma level per vertex
        kernel = make_ising(0.4)
        tree = build_tree(3, 3)
        reps = 20_000
        states = sample_bmc_batch(kernel, tree, np.random.default_rng(3), reps)
        crit = CHI2_3SIGMA[1]
        worst = 0.0
        for v in range(tree.n):
            counts = np.bincount(states[v], minlength=2)
            chi2 = float((((counts - reps / 2) ** 2) / (reps / 2)).sum())
            worst = max(worst, chi2)
        assert worst < crit * 1.5  # small union slack over 22 vertices

    def test_exchangeability_of_children(self):
        kernel = make_ising(0.5)
        tree = build_tree(3, 2)
        reps = 40_000
        states = sample_bmc_batch(kernel, tree, np.random.default_rng(4), reps)
        c1, c2 = int(tree.neighbors[0, 0]), int(tree.neighbors[0, 1])
        law1 = np.zeros((2, 2))
        law2 = np.zeros((2, 2))
        np.add.at(law1, (states[0], states[c1]), 1)
        np.add.at(law2, (states[0], states[c2]), 1)
        tv = 0.5 * np.abs(law1 / reps - law2 / reps).sum()
        noise = sum(np.sqrt(p * (1 - p) / reps) for p in (law1 / reps).ravel())
        assert tv < 4 * noise

    @pytest.mark.parametrize("kernel", [WALK70, make_potts(12, 0.3), make_ising(0.3)],
                             ids=["walk70", "potts12", "ising"])
    def test_batch_equals_per_level_column_count(self, kernel):
        tree = build_tree(3, 6)
        for seed, replicas in ((60, 1), (61, 37)):
            got = sample_bmc_batch(kernel, tree, np.random.default_rng(seed), replicas)
            want = per_level_sample(kernel, tree, np.random.default_rng(seed), replicas)
            assert np.array_equal(got, want)

    def test_single_draw_wrapper(self):
        tree = build_tree(3, 2)
        config = sample_bmc(make_ising(0.2), tree, np.random.default_rng(5))
        assert config.states.shape == (tree.n,)
        assert set(np.unique(config.states)) <= {0, 1}


class TestDrawRows:
    def test_row_draw_equals_argmax_form(self):
        rng = np.random.default_rng(50)
        for k in (2, 3, 7):
            probs = rng.random((6, k))
            probs[0, 0] = 0.0  # an empty bin
            probs /= probs.sum(axis=1, keepdims=True)
            cum = np.cumsum(probs, axis=1)
            cum /= cum[:, -1:]
            rows = rng.integers(0, 6, size=(40, 25))
            u = rng.random(rows.shape)
            u[0] = 0.0
            u[1] = cum[rows[1], rng.integers(0, k - 1, size=25)]  # exactly on a cumulative value
            want = (u[..., None] < cum[rows]).argmax(axis=-1)
            assert np.array_equal(_draw_rows(probs, u, rows), want)

    @pytest.mark.parametrize("k", [2, 3, 7, 70])
    def test_per_row_draw_equals_argmax_form(self, k):
        # one law per draw (no ``rows``), as the sweeps' column-set and coupled draws use
        rng = np.random.default_rng(55 + k)
        probs = rng.random((300, k)) * (rng.random((300, k)) < 0.5)  # zero plateaus
        probs[:100, 0] = 0.0  # an empty first bin
        probs[np.arange(300), rng.integers(1, k, size=300)] += 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        u = rng.random(300)
        u[:50] = 0.0
        # exactly on a cumulative value of the row's own law, then just below one
        u[50:150] = cum[np.arange(50, 150), rng.integers(0, k - 1, size=100)]
        u[150:200] = np.nextafter(cum[np.arange(150, 200), rng.integers(0, k - 1, size=50)], 0.0)
        u = np.where(u < 1.0, u, 0.5)
        want = (u[:, None] < cum).argmax(axis=-1)
        assert np.array_equal(_draw_rows(probs, u), want)

    @pytest.mark.parametrize("law", [[0.0, 0.25, 0.0, 0.75], WALK70.pi, [1.0]],
                             ids=["plateaus", "walk70", "one-state"])
    def test_vector_draw_equals_argmax_form(self, law):
        law = np.asarray(law)
        cum = np.cumsum(law)
        cum /= cum[-1]
        u = np.concatenate([[0.0], cum[:-1], np.nextafter(cum[:-1], 0.0),
                            np.random.default_rng(56).random(500)])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = (u[:, None] < cum).argmax(axis=-1)
        assert np.array_equal(_draw_rows(law, u), want)

    @pytest.mark.parametrize("k", [2, 5, 70, 200])
    def test_row_sampler_equals_column_count(self, k):
        rng = np.random.default_rng(51 + k)
        probs = rng.random((k, k)) * (rng.random((k, k)) < 0.3)  # zero-probability plateaus
        probs[0, : k // 2] = 0.0
        probs[np.arange(k), rng.integers(k // 2, k, size=k)] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        self.check_edge_uniforms(probs, rng)

    def test_row_sampler_on_walk70_rows(self):
        self.check_edge_uniforms(WALK70.q, np.random.default_rng(52))

    @pytest.mark.parametrize("cells", [70, 70 * 8])
    def test_row_sampler_on_capped_grids(self, cells, monkeypatch):
        # a grid of 1 or 8 cells: most draws are finished by the binary search
        monkeypatch.setattr(trees, "_GUIDE_MAX_CELLS", cells)
        self.check_edge_uniforms(WALK70.q, np.random.default_rng(54))

    def test_row_sampler_with_negative_entry(self):
        # entries down to -1e-12 pass the kernel checks; such laws count columns
        q = make_potts(12, 0.4).q.copy()
        q[[0, 1], [0, 1]] += q[0, 1] + 1e-13
        q[[0, 1], [1, 0]] = -1e-13
        kernel = TransitionKernel(q=q, pi=np.full(12, 1 / 12))
        self.check_edge_uniforms(kernel.q, np.random.default_rng(53))

    @staticmethod
    def check_edge_uniforms(probs, rng):
        """Compare with the column count at u = 0, at every grid point b/1024 (the
        guide grids of k <= 256 divide it) and the float just below, at each row's
        own cumulative values and the float just below, and at random u."""
        k = probs.shape[0]
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        grid = np.arange(1024) / 1024
        grid = np.concatenate([grid, np.nextafter(grid[1:], 0.0)])
        own = cum[:, :-1]
        u = np.concatenate([np.tile(grid, k), own.ravel(), np.nextafter(own, 0.0).ravel(),
                            rng.random(4000)])
        rows = np.concatenate([np.repeat(np.arange(k), grid.size),
                               np.repeat(np.arange(k), k - 1), np.repeat(np.arange(k), k - 1),
                               rng.integers(0, k, size=4000)])
        keep = np.flatnonzero((u >= 0.0) & (u < 1.0))
        keep = keep[: keep.size // 2 * 2]  # an even count, for the (m, 2) view below
        u, rows = u[keep], rows[keep]
        want = column_count_draw(probs, u, rows)
        draw = _row_sampler(probs)
        assert np.array_equal(draw(u, rows), want)
        assert np.array_equal(draw(u.reshape(-1, 2)[:, ::-1], rows.reshape(-1, 2)[:, ::-1]),
                              want.reshape(-1, 2)[:, ::-1])
        assert np.array_equal(_draw_rows(probs, u, rows), want)


class TestStationarySampler:
    @pytest.mark.parametrize("make", [lambda: make_ising(0.25),
                                      lambda: make_walk_kernel(circulant_graph(70, [1, 2]))],
                             ids=["k2", "walk70"])
    @pytest.mark.parametrize("size", [1, 512])
    def test_cached_draw_equals_draw_rows(self, make, size):
        # u = 0, each cumulative value of pi and the float just below it, then random u
        kernel = make()
        assert "stationary_sampler" not in vars(kernel)  # built on first use
        cum = trees._cumulate(kernel.pi)[:-1]
        u = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0),
                            np.random.default_rng(size).random(1024)])
        for start in range(0, u.size - size + 1, size):
            block = u[start:start + size]
            assert np.array_equal(kernel.stationary_sampler(block), _draw_rows(kernel.pi, block))
        assert kernel.stationary_sampler is kernel.stationary_sampler


class TestSampleIid:
    def test_point_mass(self):
        tree = build_tree(3, 2)
        config = sample_iid([0.0, 1.0, 0.0], tree, np.random.default_rng(0))
        assert np.all(config.states == 1)

    def test_uniform_labels_in_unit_interval(self):
        tree = build_tree(3, 3)
        field = sample_uniform_labels(tree, np.random.default_rng(1))
        assert field.values.shape == (tree.n,)
        assert np.all((field.values >= 0) & (field.values < 1))

    def test_pair_factorizes(self):
        tree = build_tree(3, 2)
        rng = np.random.default_rng(2)
        reps = 30_000
        joint = np.zeros((2, 2))
        samples = np.stack([sample_iid([0.3, 0.7], tree, rng).states for _ in range(reps)])
        np.add.at(joint, (samples[:, 0], samples[:, 1]), 1)
        joint /= reps
        marg0, marg1 = joint.sum(1), joint.sum(0)
        tv = 0.5 * np.abs(joint - np.outer(marg0, marg1)).sum()
        assert tv < 3 * np.sqrt(0.25 / reps) * 4

    def test_invalid_dist(self):
        tree = build_tree(3, 1)
        with pytest.raises(ValueError):
            sample_iid([0.5, 0.6], tree, np.random.default_rng(0))

    @pytest.mark.parametrize("dist", [[np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan]])
    def test_non_finite_dist_rejected(self, dist):
        with pytest.raises(ValueError, match="finite"):
            sample_iid(dist, build_tree(3, 1), np.random.default_rng(0))


class TestExactMarginals:
    def test_ising_edge_entry(self):
        law = exact_bmc_marginals(make_ising(0.2), "edge")
        assert law[0, 0] == pytest.approx(0.3, abs=1e-14)

    def test_uniform_edge(self):
        law = exact_bmc_marginals(uniform_kernel(3), "edge")
        assert np.allclose(law, 1 / 9, atol=1e-14)

    def test_star_normalizes(self):
        law = exact_bmc_marginals(make_potts(3, 0.4), "star", d=4)
        assert law.shape == (3,) * 5
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    def test_edge_symmetric_under_detailed_balance(self):
        law = exact_bmc_marginals(make_potts(4, 0.3), "edge")
        assert np.allclose(law, law.T, atol=1e-12)

    def test_vertex_is_pi(self):
        kernel = make_potts(5, 0.2)
        assert np.allclose(exact_bmc_marginals(kernel, "vertex"), kernel.pi)

    def test_budget_and_validation(self):
        with pytest.raises(BudgetExceededError):
            exact_bmc_marginals(make_potts(50, 0.3), "star", d=8)
        with pytest.raises(ValueError):
            exact_bmc_marginals(make_ising(0.2), "triangle")
        with pytest.raises(ValueError):
            exact_bmc_marginals(make_ising(0.2), "star")


class TestCorrelations:
    def test_transfer_matrix_matches_power_oracle(self):
        # independent oracle: correlation at distance k for the +-1 encoding of
        # the two-state kernel is theta^k
        theta = 0.5
        enc = np.array([1.0, -1.0])
        exact = exact_correlations(make_ising(theta), enc, 6)
        assert np.allclose(exact, [theta**k for k in range(1, 7)], atol=1e-12)

    def test_exact_correlations_decay_below_the_rounding_floor(self):
        # theta^300 is 1.6e-43; an iterate q^k g that is not re-centred keeps a constant part
        # from rounding and stalls at 2.31e-33 from k = 229 on
        exact = exact_correlations(make_ising(0.72), [1.0, -1.0], 300)
        assert exact[-1] == pytest.approx(0.72**300, rel=1e-9, abs=0.0)

    def test_exact_correlation_of_walk70_is_the_rounded_rational_value(self):
        # q = A/4 for the 4-regular circulant A, pi uniform, g = 0..69: (pi(g q^3 g) - m^2) / var
        # in fractions, which float() rounds correctly
        g = [Fraction(s) for s in range(70)]
        v = g
        for _ in range(3):
            v = [sum(v[(s + j) % 70] for j in (-2, -1, 1, 2)) / 4 for s in range(70)]
        mean = sum(g) / 70
        var = sum(x * x for x in g) / 70 - mean**2
        value = (sum(x * y for x, y in zip(g, v)) / 70 - mean**2) / var
        assert exact_correlations(WALK70, np.arange(70.0), 3)[2] == float(value)

    def test_sampled_matches_exact(self):
        est = estimate_correlation(make_ising(0.5), 2, [1.0, -1.0], 100_000,
                                   np.random.default_rng(11))
        assert abs(est.value - 0.25) < 3 * est.stderr

    def test_uniform_kernel_uncorrelated(self):
        est = estimate_correlation(uniform_kernel(4), 3, [0.0, 1.0, 2.0, 3.0], 50_000,
                                   np.random.default_rng(12))
        assert abs(est.value) < 3 * est.stderr

    def test_chain_steps_equal_column_count(self):
        enc = np.arange(70, dtype=float)
        est = estimate_correlation(WALK70, 3, enc, 3000, np.random.default_rng(13))
        rng = np.random.default_rng(13)
        x0 = _draw_rows(WALK70.pi, rng.random(3000))
        x = x0
        for _ in range(3):
            x = column_count_draw(WALK70.q, rng.random(3000), x)
        assert est.value == float(np.corrcoef(enc[x0], enc[x])[0, 1])

    def test_distance_zero(self):
        est = estimate_correlation(make_ising(0.3), 0, [1.0, -1.0], 1000,
                                   np.random.default_rng(0))
        assert est.value == 1.0 and est.stderr == 0.0

    def test_distance_zero_checks_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            estimate_correlation(make_ising(0.3), 0, [1.0, -1.0], 0, np.random.default_rng(0))

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            estimate_correlation(make_ising(0.3), -2, [1.0, -1.0], 1000,
                                 np.random.default_rng(0))

    def test_zero_variance_encoding(self):
        with pytest.raises(ValueError):
            estimate_correlation(make_ising(0.3), 2, [1.0, 1.0], 1000,
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("encoding", [[0.0, np.nan], [np.inf, 1.0], [0.0, 1.0, 2.0], [1.0]])
    def test_bad_encoding_rejected_by_both(self, encoding):
        # the sampled and the exact correlations share one encoding check
        with pytest.raises(ValueError, match="one finite real per state"):
            estimate_correlation(make_ising(0.5), 2, encoding, 100, np.random.default_rng(0))
        with pytest.raises(ValueError, match="one finite real per state"):
            exact_correlations(make_ising(0.5), encoding, 3)
        with pytest.raises(ValueError, match="one finite real per state"):
            classify_correlation_decay(make_ising(0.5), 3, encoding, 3)

    def test_zero_variance_encoding_exact(self):
        with pytest.raises(ValueError, match="zero variance"):
            exact_correlations(make_ising(0.3), [2.0, 2.0], 3)

    def test_bound_value(self):
        assert local_correlation_bound(1, 3) == pytest.approx((4 / 3) * 2**-0.5, abs=1e-12)

    def test_bound_at_distance_zero_is_one(self):
        assert local_correlation_bound(0, 3) == 1.0
        with pytest.raises(ValueError, match="nonnegative"):
            local_correlation_bound(-1, 3)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_bound_needs_degree_three(self, d):
        with pytest.raises(ValueError, match="degree must be at least 3"):
            local_correlation_bound(1, d)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_classifier_needs_a_distance(self, k_max):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            classify_correlation_decay(make_ising(0.3), 3, [1.0, -1.0], k_max)

    def test_classifier_violation_witness(self):
        verdict = classify_correlation_decay(make_ising(0.8), 3, [1.0, -1.0], 30)
        assert verdict.verdict == "VIOLATES"
        assert verdict.witness == 15

    def test_classifier_consistent(self):
        verdict = classify_correlation_decay(make_ising(0.3), 4, [1.0, -1.0], 200)
        assert verdict.verdict == "CONSISTENT"
        assert verdict.witness is None

    def test_classifier_sees_violations_below_1e_12(self):
        # theta = 0.72 > 1/sqrt(2): theta^k beats the ceiling from some k on, where both are
        # near 1e-35; the first such k, in 60-digit arithmetic, is 245
        mp = pytest.importorskip("mpmath")
        kernel = make_ising(0.72)
        verdict = classify_correlation_decay(kernel, 3, [-1, 1], 600)
        assert (verdict.verdict, verdict.witness) == ("VIOLATES", 245)
        with mp.workdps(60):
            lam = mp.mpf(kernel.q[0, 0]) - mp.mpf(kernel.q[0, 1])
            first = next(k for k in range(1, 601)
                         if lam**k > (k + 1 - mp.mpf(2 * k) / 3) * mp.mpf(2) ** (-mp.mpf(k) / 2))
        assert first == 245
        assert np.allclose(verdict.correlations[:300], float(lam) ** np.arange(1, 301),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kernel, encoding", [
        (make_ising(0.70), [1.0, -1.0]), (make_ising(0.3), [0.0, 1.0]),
        (make_potts(3, 0.4), [-1.0, 0.0, 1.0]), (make_potts(3, 0.4), [0.0, 1.0, 2.0])],
        ids=["ising0.70", "ising0.3-01", "potts3-centred", "potts3-index"])
    def test_classifier_consistent_below_the_threshold(self, kernel, encoding):
        # spectral radius below 1/sqrt(2): no violation at any k, though transfer-matrix
        # correlations without re-centring stall near 1e-33 (centred) or 1e-16 (off-centre
        # encodings)
        verdict = classify_correlation_decay(kernel, 3, encoding, 600)
        assert (verdict.verdict, verdict.witness) == ("CONSISTENT", None)


def test_dump_configuration_format():
    tree = build_tree(3, 1)
    config = sample_bmc(make_ising(0.2), tree, np.random.default_rng(0))
    lines = dump_configuration(config).strip().split("\n")
    assert len(lines) == 4
    depth, index, state = lines[0].split()
    assert (depth, index) == ("0", "0")
    assert state in ("0", "1")
