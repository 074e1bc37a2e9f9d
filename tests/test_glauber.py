import numpy as np
import pytest

from treelab import glauber
from treelab.errors import ImpossibleConfigurationError
from treelab.glauber import (CoupledPair, _member_weights, _sweep_states, _waking_mask,
                             conditional_dist, converge_from_iid, coupled_sweep,
                             estimate_hamming_decay, fixed_point_test, glauber_sweep,
                             maximal_coupling, wake_probability, waking_set)
from treelab.graphs import circulant_graph
from treelab.kernels import (NeighborConfig, TransitionKernel, make_ising, make_potts,
                             make_walk_kernel, uniform_kernel)
from treelab.trees import (Configuration, RealField, build_tree, sample_bmc, sample_bmc_batch,
                           sample_uniform_labels, tree_distance)


def waking_reference_scan(tree, values):
    """Independent definition scan: strict radius-2 ball maxima with index tie-break."""
    member = np.zeros(tree.n, dtype=bool)
    for v in range(tree.n):
        if tree.neighbor_count[v] != tree.d:
            continue
        ball = [u for u in range(tree.n) if u != v and tree_distance(tree, u, v) <= 2]
        wins = all(
            values[v] > values[u] or (values[v] == values[u] and v < u) for u in ball
        )
        member[v] = wins
    return member


class TestWakingSet:
    def test_interior_probability(self):
        tree = build_tree(3, 4)
        rng = np.random.default_rng(0)
        draws = 20_000
        hits = 0
        for _ in range(10):
            labels = rng.random((tree.n, draws // 10))
            hits += _waking_mask(tree, labels)[0].sum()
        p = wake_probability(3)
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * sigma

    def test_three_separation_every_draw(self):
        tree = build_tree(3, 4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            ws = waking_set(tree, sample_uniform_labels(tree, rng))
            members = np.flatnonzero(ws.member)
            for i in range(members.size):
                for j in range(i + 1, members.size):
                    assert tree_distance(tree, int(members[i]), int(members[j])) >= 3

    def test_boundary_vertices_never_wake(self):
        tree = build_tree(3, 3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            ws = waking_set(tree, sample_uniform_labels(tree, rng))
            assert not ws.member[tree.depth_of == tree.depth].any()

    def test_matches_reference_scan_on_random_labels(self):
        tree = build_tree(3, 3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            field = sample_uniform_labels(tree, rng)
            ws = waking_set(tree, field)
            assert np.array_equal(ws.member, waking_reference_scan(tree, field.values))

    def test_monotone_labels_deterministic(self):
        tree = build_tree(3, 3)
        increasing = RealField(tree, np.arange(tree.n, dtype=float) / tree.n)
        decreasing = RealField(tree, -np.arange(tree.n, dtype=float) / tree.n)
        constant = RealField(tree, np.zeros(tree.n))
        for field in (increasing, decreasing, constant):
            ws = waking_set(tree, field)
            assert np.array_equal(ws.member, waking_reference_scan(tree, field.values))
        # increasing labels along breadth-first order: children always dominate
        assert waking_set(tree, increasing).member.sum() == 0
        # constant labels: the index tie-break elects exactly the root
        ws = waking_set(tree, constant)
        assert np.flatnonzero(ws.member).tolist() == [0]

    @pytest.mark.parametrize("d,depth", [(3, 4), (4, 3), (3, 1), (5, 2)])
    @pytest.mark.parametrize("levels", [3, 4])
    def test_label_block_with_ties_matches_reference_scan(self, d, depth, levels):
        # few label levels make ties at ball maxima common, in every replica
        tree = build_tree(d, depth)
        labels = np.floor(np.random.default_rng(levels).random((tree.n, 32)) * levels) / levels
        mask = _waking_mask(tree, labels)
        for r in range(labels.shape[1]):
            assert np.array_equal(mask[:, r], waking_reference_scan(tree, labels[:, r]))

    def test_density_field(self):
        tree = build_tree(3, 4)
        ws = waking_set(tree, sample_uniform_labels(tree, np.random.default_rng(4)))
        assert ws.density == pytest.approx(ws.member.mean())


class TestConditionalDist:
    def test_uniform_kernel(self):
        out = conditional_dist(uniform_kernel(4), [0, 1, 2])
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_balanced_neighbors_reduce_to_single_step(self):
        theta = 0.6
        out = conditional_dist(make_ising(theta), [0, 0, 1])
        assert out[0] == pytest.approx((1 + theta) / 2, abs=1e-12)

    def test_all_plus(self):
        out = conditional_dist(make_ising(0.2), [0, 0, 0])
        assert out[0] == pytest.approx(0.6**3 / (0.6**3 + 0.4**3), abs=1e-12)

    def test_normalization_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        kernel = make_potts(4, 0.35)
        for _ in range(50):
            omega = rng.integers(0, 4, size=5)
            out = conditional_dist(kernel, omega)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            out_perm = conditional_dist(kernel, rng.permutation(omega))
            assert np.allclose(out, out_perm, atol=1e-12)

    def test_neighbor_config_wrapper(self):
        cfg = NeighborConfig(states=(1, 0, 0))
        out = conditional_dist(make_ising(0.2), cfg)
        assert out[0] == pytest.approx(0.6, abs=1e-12)

    def test_impossible_configuration(self):
        identity = TransitionKernel(q=[[1.0, 0.0], [0.0, 1.0]], pi=[0.5, 0.5])
        with pytest.raises(ImpossibleConfigurationError):
            conditional_dist(identity, [0, 1])


def per_member_laws(states, member, tree, kernel):
    """The per-member formula: pi * prod_u q[:, s_u], normalized, one row per woken pair."""
    v_idx, r_idx = np.nonzero(member)
    w = kernel.pi[None, :] * np.prod(kernel.q.T[states[tree.neighbors[v_idx], r_idx[:, None]]], axis=1)
    return w / w.sum(axis=1)[:, None]


def weighted_walk():
    """Reversible 3-state walk on a weighted graph, with no symmetry among the states."""
    w = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 7.0], [3.0, 7.0, 11.0]])
    return TransitionKernel(q=w / w.sum(axis=1, keepdims=True), pi=w.sum(axis=1) / w.sum())


class TestLawTable:
    @pytest.mark.parametrize("kernel", [make_ising(0.25), make_potts(3, 0.4), weighted_walk()])
    def test_table_rows_equal_per_member_formula_bitwise(self, kernel):
        tree = build_tree(3, 5)
        rng = np.random.default_rng(40)
        states = sample_bmc_batch(kernel, tree, rng, 64)
        member = _waking_mask(tree, rng.random(states.shape))
        assert kernel.state_count ** 3 <= min(glauber._LAW_TABLE_MAX, member.sum())
        _, _, probs = _member_weights(states, member, tree, kernel)
        assert np.array_equal(probs, per_member_laws(states, member, tree, kernel))
        for row, (v, r) in zip(probs, zip(*np.nonzero(member))):
            assert np.allclose(row, conditional_dist(kernel, states[tree.neighbors[v], r]))

    @pytest.mark.parametrize("kernel", [make_ising(0.25), make_potts(3, 0.4)])
    def test_sweep_is_the_same_with_and_without_table(self, kernel, monkeypatch):
        tree = build_tree(3, 5)
        start = sample_bmc_batch(kernel, tree, np.random.default_rng(41), 64)
        swept = []
        for budget in (glauber._LAW_TABLE_MAX, 0):
            monkeypatch.setattr(glauber, "_LAW_TABLE_MAX", budget)
            states, rng = start.copy(), np.random.default_rng(42)
            for _ in range(3):
                _sweep_states(states, tree, kernel, rng)
            swept.append(states)
        assert np.array_equal(*swept)

    def test_zero_entries_raise_only_when_an_impossible_code_wakes(self):
        # the walk on the 5-cycle has no triangles: no state is adjacent to
        # both 0 and 1, so the table holds zero-total codes
        kernel = make_walk_kernel(circulant_graph(5, [1]))
        tree = build_tree(3, 4)
        states = sample_bmc_batch(kernel, tree, np.random.default_rng(43), 64)
        states[tree.children[0], 0] = [0, 1, 0]  # the root's neighborhood is now impossible
        member = np.zeros(states.shape, dtype=bool)
        member[tree.neighbor_count == 3, 1:] = True  # replica 0 stays asleep
        assert kernel.state_count ** 3 <= min(glauber._LAW_TABLE_MAX, member.sum())
        _, _, probs = _member_weights(states, member, tree, kernel)
        assert np.array_equal(probs, per_member_laws(states, member, tree, kernel))
        member[0, 0] = True
        with pytest.raises(ImpossibleConfigurationError):
            _member_weights(states, member, tree, kernel)


class TestGlauberSweep:
    def test_uniform_kernel_members_randomized_others_fixed(self):
        tree = build_tree(3, 3)
        kernel = uniform_kernel(5)
        rng = np.random.default_rng(6)
        config = Configuration(tree, np.zeros(tree.n, dtype=np.int64))
        changed = np.zeros(tree.n, dtype=bool)
        for _ in range(200):
            out = glauber_sweep(config, kernel, rng)
            changed |= out.states != config.states
        # leaves can never change; deep-interior vertices almost surely did
        assert not changed[tree.depth_of == tree.depth].any()
        assert changed[tree.depth_of <= 1].all()

    def test_constant_configuration_flip_rate(self):
        # a woken vertex leaves the constant state with probability
        # b^d / (a^d + b^d); flips per eligible vertex per sweep occur at
        # p_wake times that rate
        theta = 0.5
        a, b = 0.75, 0.25
        leave = b**3 / (a**3 + b**3)
        tree = build_tree(3, 4)
        kernel = make_ising(theta)
        rng = np.random.default_rng(7)
        config = Configuration(tree, np.zeros(tree.n, dtype=np.int64))
        trials = 600
        flips = 0
        for _ in range(trials):
            out = glauber_sweep(config, kernel, rng)
            flips += int((out.states != config.states).sum())
        eligible = int((tree.neighbor_count == tree.d).sum())
        n_cells = trials * eligible
        p_flip = wake_probability(3) * leave
        sigma = np.sqrt(p_flip * (1 - p_flip) * n_cells)
        assert abs(flips - p_flip * n_cells) < 4 * sigma


class TestMaximalCoupling:
    def test_equal_distributions_always_agree(self):
        rng = np.random.default_rng(8)
        p = np.array([0.2, 0.5, 0.3])
        for _ in range(500):
            x, y = maximal_coupling(p, p, rng)
            assert x == y

    def test_disjoint_supports_always_disagree(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x, y = maximal_coupling([1.0, 0.0], [0.0, 1.0], rng)
            assert (x, y) == (0, 1)

    def test_hand_value(self):
        rng = np.random.default_rng(10)
        n = 100_000
        neq = sum(
            x != y for x, y in (maximal_coupling([0.6, 0.4], [0.4, 0.6], rng) for _ in range(n))
        )
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(neq / n - 0.2) < 3 * sigma

    def test_randomized_distributions_achieve_tv(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            tv = 0.5 * np.abs(p - q).sum()
            n = 40_000
            neq = sum(x != y for x, y in (maximal_coupling(p, q, rng) for _ in range(n)))
            sigma = max(np.sqrt(tv * (1 - tv) / n), 1e-4)
            assert abs(neq / n - tv) < 3.5 * sigma

    def test_marginals_are_exact(self):
        rng = np.random.default_rng(12)
        p = np.array([0.7, 0.1, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        n = 60_000
        draws = np.array([maximal_coupling(p, q, rng) for _ in range(n)])
        for axis, target in ((0, p), (1, q)):
            counts = np.bincount(draws[:, axis], minlength=3) / n
            for s in range(3):
                sigma = np.sqrt(target[s] * (1 - target[s]) / n)
                assert abs(counts[s] - target[s]) < 3.5 * sigma

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            maximal_coupling([0.5, 0.5], [0.3, 0.3, 0.4], np.random.default_rng(0))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("kind", ["random", "equal", "disjoint", "half"])
    def test_one_row_equals_coupled_draw(self, k, kind):
        # numpy sums a row pairwise from 8 entries on, so k = 8 and 13 take
        # the other summation order; equal laws of mass 1/2 reach the guard
        # for an exact overlap that lost the branch lottery
        rng = np.random.default_rng(k)
        for _ in range(40):
            p = rng.dirichlet(np.full(k, 0.5))
            if kind == "half":
                p /= 2.0
            q = p.copy() if kind in ("equal", "half") else rng.dirichlet(np.full(k, 0.5))
            if kind == "disjoint":
                side = np.arange(k) < rng.integers(1, k)
                p, q = np.where(side, p, 0.0), np.where(side, 0.0, q)
                p, q = p / p.sum(), q / q.sum()
            seed = int(rng.integers(2**32))
            one, table = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(25):
                xa, xb = glauber._coupled_draw(p[None, :], q[None, :], table)
                assert maximal_coupling(p, q, one) == (int(xa[0]), int(xb[0]))
            assert one.random() == table.random()  # the same three uniforms per call


class TestCoupledSweep:
    def test_identical_configurations_stay_identical(self):
        tree = build_tree(3, 3)
        kernel = make_ising(0.4)
        rng = np.random.default_rng(13)
        config = sample_bmc(kernel, tree, rng)
        pair = CoupledPair(config, Configuration(tree, config.states.copy()))
        for _ in range(20):
            pair = coupled_sweep(pair, kernel, rng)
            assert np.array_equal(pair.config_a.states, pair.config_b.states)
        assert pair.sweeps_done == 20

    def test_single_disagreement_contracts_in_expectation(self):
        # one-step bookkeeping: E[new disagreements] <= 1 - p_wake (1 - d D)
        d, theta = 3, 0.25
        kernel = make_ising(theta)
        tree = build_tree(d, 4)
        rng = np.random.default_rng(14)
        v = int(np.flatnonzero(tree.depth_of == 1)[0])
        trials = 3000
        total = 0
        for _ in range(trials):
            config = sample_bmc(kernel, tree, rng)
            other = config.states.copy()
            other[v] = 1 - other[v]
            pair = coupled_sweep(CoupledPair(config, Configuration(tree, other)), kernel, rng)
            total += int((pair.config_a.states != pair.config_b.states).sum())
        p = wake_probability(d)
        bound = 1 - p * (1 - d * theta)
        mean = total / trials
        sigma = np.sqrt(bound / trials) * 3  # crude scale: counts are 0/1-ish
        assert mean <= bound + 3 * sigma + 0.01

    def test_mismatched_trees_rejected(self):
        t1, t2 = build_tree(3, 2), build_tree(3, 3)
        c1 = Configuration(t1, np.zeros(t1.n, dtype=np.int64))
        c2 = Configuration(t2, np.zeros(t2.n, dtype=np.int64))
        with pytest.raises(ValueError):
            CoupledPair(c1, c2)


class TestDrivers:
    def test_uniform_kernel_decay_rate(self):
        # zero Dobrushin coefficient: every wake resolves, rate = 1 - p_wake
        report = estimate_hamming_decay(uniform_kernel(3), 3, 6, 40, 1000,
                                        np.random.default_rng(15))
        assert report.dobrushin == 0.0
        assert report.contraction_bound == pytest.approx(0.9)
        assert abs(report.rate - 0.9) < 0.01

    def test_contraction_under_dobrushin_condition(self):
        report = estimate_hamming_decay(make_ising(0.25), 3, 6, 40, 1000,
                                        np.random.default_rng(16))
        assert report.rate <= report.contraction_bound + 0.02
        # per-sweep distances never increase materially in expectation
        diffs = np.diff(report.mean_distance)
        assert (diffs <= 3 * report.stderr[1:] + 1e-9).all()

    def test_fixed_point_small(self):
        report = fixed_point_test(make_ising(0.25), 3, 6, 20, 2000,
                                  np.random.default_rng(17))
        assert report.vertex_ok and report.edge_ok and report.star_ok

    def test_no_assertion_outside_dobrushin_regime(self):
        # D > 1/d: no contraction guarantee; the driver still reports a curve
        report = estimate_hamming_decay(make_ising(0.9), 3, 4, 8, 200,
                                        np.random.default_rng(30))
        assert report.dobrushin > 1 / 3
        assert report.mean_distance.shape == (9,)
        assert np.isfinite(report.mean_distance).all()

    def test_fixed_point_multistate_kernel(self):
        # invariance needs reversibility only, not the Dobrushin condition
        report = fixed_point_test(make_potts(7, 0.3), 3, 5, 15, 1500,
                                  np.random.default_rng(31))
        assert report.vertex_ok and report.edge_ok and report.star_ok

    def test_fixed_point_uniform_kernel(self):
        report = fixed_point_test(uniform_kernel(3), 3, 5, 10, 2000,
                                  np.random.default_rng(18))
        assert report.vertex_ok and report.edge_ok and report.star_ok

    def test_converge_initial_distance_predicted(self):
        report = converge_from_iid(make_ising(0.25), 3, 5, 3, 3000,
                                   np.random.default_rng(19))
        assert report.predicted_initial == pytest.approx(0.5)
        assert abs(report.mean_distance[0] - 0.5) < 4 * max(report.stderr[0], 1e-4)

    def test_converge_uniform_kernel_goes_to_zero(self):
        report = converge_from_iid(uniform_kernel(4), 3, 4, 120, 400,
                                   np.random.default_rng(20))
        assert report.predicted_initial == pytest.approx(0.75)
        assert report.final_distance < 0.002

    def test_converge_warns_outside_dobrushin_regime(self):
        with pytest.warns(UserWarning, match="no contraction guarantee"):
            converge_from_iid(make_ising(0.9), 3, 3, 1, 50, np.random.default_rng(21))

    @pytest.mark.parametrize("driver", [estimate_hamming_decay, converge_from_iid,
                                        fixed_point_test])
    def test_negative_sweeps_rejected(self, driver):
        with pytest.raises(ValueError, match="sweeps must be nonnegative"):
            driver(make_ising(0.2), 3, 3, -1, 5, np.random.default_rng(0))

    def test_reports_are_deterministic_given_seed(self):
        a = estimate_hamming_decay(make_ising(0.2), 3, 4, 5, 300, np.random.default_rng(22))
        b = estimate_hamming_decay(make_ising(0.2), 3, 4, 5, 300, np.random.default_rng(22))
        assert np.array_equal(a.mean_distance, b.mean_distance)
        assert a.rate == b.rate
