import itertools
import math
import tracemalloc

import numpy as np
import pytest

from treelab.errors import BudgetExceededError
from treelab.glauber import conditional_dist
from treelab import kernels
from treelab.graphs import (circulant_graph, complete_bipartite, complete_graph, cycle_graph,
                            graph_from_edges, sample_regular_graph)
from treelab.kernels import (NeighborConfig, TransitionKernel, dobrushin_coefficient,
                             kernel_from_matrix, load_kernel, make_ising, make_potts,
                             make_walk_kernel, spectral_radius, uniform_kernel, write_kernel)


def dobrushin_bruteforce(kernel, d):
    """Independent oracle: full enumeration over ordered neighbor configurations."""
    k = kernel.state_count
    q, pi = kernel.q, kernel.pi

    def cond(omega):
        w = pi.copy()
        for u in omega:
            w = w * q[:, u]
        t = w.sum()
        return None if t == 0 else w / t

    best = 0.0
    for omega in itertools.product(range(k), repeat=d):
        c1 = cond(omega)
        if c1 is None:
            continue
        for pos in range(d):
            for b in range(k):
                if b == omega[pos]:
                    continue
                om2 = list(omega)
                om2[pos] = b
                c2 = cond(om2)
                if c2 is None:
                    continue
                best = max(best, 0.5 * float(np.abs(c1 - c2).sum()))
    return best


class TestConstruction:
    def test_rejects_non_reversible(self):
        # 3-state ring with unequal forward/backward rates has uniform pi but
        # breaks detailed balance
        p, q = 0.5, 0.2
        ring = np.array([
            [1 - p - q, p, q],
            [q, 1 - p - q, p],
            [p, q, 1 - p - q],
        ])
        with pytest.raises(ValueError, match="reversible|detailed balance"):
            TransitionKernel(q=ring, pi=np.full(3, 1 / 3))
        with pytest.raises(ValueError):
            kernel_from_matrix(ring)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TransitionKernel(q=[[0.5, 0.4], [0.5, 0.5]], pi=[0.5, 0.5])
        with pytest.raises(ValueError):
            TransitionKernel(q=[[1.2, -0.2], [0.5, 0.5]], pi=[0.5, 0.5])
        with pytest.raises(ValueError, match="must be square"):
            TransitionKernel(q=[[0.5, 0.5]], pi=[0.5, 0.5])
        with pytest.raises(ValueError, match="at least one state"):
            TransitionKernel(q=np.zeros((0, 0)), pi=[])
        with pytest.raises(ValueError, match="k must be positive"):
            uniform_kernel(0)

    def test_rejects_bad_pi(self):
        q = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError):
            TransitionKernel(q=q, pi=[1.0, 0.0])
        with pytest.raises(ValueError):
            TransitionKernel(q=q, pi=[0.7, 0.7])
        with pytest.raises(ValueError, match="wrong length"):
            TransitionKernel(q=q, pi=[0.5, 0.25, 0.25])

    @pytest.mark.parametrize("states, message", [((), "cannot be empty"),
                                                 ((0, -1), "nonnegative indices")])
    def test_neighbor_config_rejects_empty_and_negative(self, states, message):
        with pytest.raises(ValueError, match=message):
            NeighborConfig(states=states)


    def test_rejects_non_finite(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            TransitionKernel(q=[[nan, 0.5], [0.5, 0.5]], pi=[0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            TransitionKernel(q=[[0.5, 0.5], [0.5, 0.5]], pi=[inf, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            kernel_from_matrix([[nan, 0.5], [0.5, 0.5]])


class TestIsing:
    def test_theta_zero_is_uniform(self):
        k = make_ising(0.0)
        assert np.allclose(k.q, 0.5)
        assert np.allclose(k.pi, 0.5)

    def test_rows(self):
        k = make_ising(0.2)
        assert k.q[0, 0] == pytest.approx(0.6, abs=1e-15)
        assert k.q[0, 1] == pytest.approx(0.4, abs=1e-15)

    def test_negative_theta(self):
        k = make_ising(-0.5)
        assert k.q[0, 0] == pytest.approx(0.25, abs=1e-15)
        flux = k.pi[:, None] * k.q
        assert np.allclose(flux, flux.T, atol=1e-15)

    @pytest.mark.parametrize("theta", [1.0, -1.0, 1.5])
    def test_out_of_range(self, theta):
        with pytest.raises(ValueError):
            make_ising(theta)


class TestPotts:
    def test_two_state_coincides_with_ising(self):
        # switch probability p maps to the two-state kernel with theta = 1 - 2p
        theta = 0.3
        k = make_potts(2, (1 - theta) / 2)
        assert np.allclose(k.q, make_ising(theta).q, atol=1e-15)

    def test_uniform_at_full_switch_rate(self):
        k = make_potts(5, 4 / 5)
        assert np.allclose(k.q, 0.2, atol=1e-15)

    def test_spectral_radius_formula(self):
        k = make_potts(7, 0.3)
        assert spectral_radius(k) == pytest.approx(abs(1 - 0.3 * 7 / 6), abs=1e-10)
        assert spectral_radius(k) == pytest.approx(0.65, abs=1e-10)

    @pytest.mark.parametrize("k,p", [(1, 0.5), (3, -0.1), (3, 1.1)])
    def test_out_of_range(self, k, p):
        with pytest.raises(ValueError):
            make_potts(k, p)


class TestWalkKernel:
    def test_complete_graph(self):
        k = make_walk_kernel(complete_graph(4))
        expect = (np.ones((4, 4)) - np.eye(4)) / 3
        assert np.allclose(k.q, expect, atol=1e-15)

    def test_cycle(self):
        k = make_walk_kernel(cycle_graph(4))
        assert k.q[0, 1] == pytest.approx(0.5)
        assert k.q[0, 3] == pytest.approx(0.5)
        assert k.q[0, 2] == 0.0

    def test_regularity_forces_uniform_pi(self):
        graph = circulant_graph(70, [1, 2, 3])  # any 6-regular graph works
        k = make_walk_kernel(graph)
        assert np.allclose(k.pi, 1 / 70, atol=1e-15)

    def test_disconnected_rejected(self):
        tri = list(itertools.combinations(range(4), 2))
        edges = tri + [(u + 4, v + 4) for u, v in tri]
        graph = graph_from_edges(8, 3, edges)
        with pytest.raises(ValueError, match="connected"):
            make_walk_kernel(graph)


def positive_multisets(kernel, d):
    """The multisets of d - 1 states, in order, with q[s, u] != 0 for some s and all their u."""
    support = kernel.q != 0
    every = itertools.combinations_with_replacement(range(kernel.state_count), d - 1)
    return [shared for shared in every if support[:, list(shared)].all(axis=1).any()]


def dobrushin_per_multiset(kernel, d, support_only=False):
    """dobrushin_coefficient as one loop over the positive multisets of shared neighbor states.

    ``support_only`` sums each total variation distance over the nonzero-weight
    states alone, which regroups numpy's pairwise sum.
    """
    best = 0.0
    for shared in positive_multisets(kernel, d):
        w = kernel.pi.copy()
        for u in shared:
            w = w * kernel.q[:, u]
        cond = w[:, None] * kernel.q
        totals = cond.sum(axis=0)
        live = totals > 0.0
        if np.count_nonzero(live) < 2:
            continue
        cond = cond[:, live] / totals[live]
        if support_only:
            cond = cond[w != 0]
        diffs = 0.5 * np.abs(cond[:, :, None] - cond[:, None, :]).sum(axis=0)
        best = max(best, float(diffs.max()))
    return best


def lazy(kernel):
    """Half the time stay put: the same support as ``kernel`` plus the diagonal."""
    return TransitionKernel(q=0.5 * np.eye(kernel.state_count) + 0.5 * kernel.q, pi=kernel.pi)


SPARSE_WALKS = {
    "cycle6": make_walk_kernel(cycle_graph(6)),
    "circulant10": make_walk_kernel(circulant_graph(10, [1, 2])),
    "k33": make_walk_kernel(complete_bipartite(3, 3)),
}


def sparse_uneven(k, seed):
    """Reversible kernel of symmetric integer weights from 0 to 9, about a third of them zero."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(1, 10, size=(k, k)) * (rng.random((k, k)) < 0.7), 1)
    w = w + w.T + np.diag(rng.integers(0, 4, size=k))
    return kernel_from_matrix(w / w.sum(axis=1, keepdims=True))


def negative_entries():
    """The lazy 5-cycle walk with q[0, 2] = q[2, 0] = -1e-12, which the checks allow."""
    q = 0.5 * np.eye(5) + 0.5 * make_walk_kernel(cycle_graph(5)).q
    q[0, 2] = q[2, 0] = -1e-12
    q[0, 0] += 1e-12
    q[2, 2] += 1e-12
    return TransitionKernel(q=q, pi=np.full(5, 0.2))


def skewed_sparse():
    """Symmetric weights over twelve decades on 9 states, half of them zero."""
    rng = np.random.default_rng(7)
    w = 10.0 ** rng.uniform(-12, 0, size=(9, 9)) * (rng.random((9, 9)) < 0.5)
    w = w + w.T + np.diag(10.0 ** rng.uniform(-12, 0, size=9))
    return TransitionKernel(q=w / w.sum(axis=1, keepdims=True), pi=w.sum(axis=1) / w.sum())


SPARSE9 = sparse_uneven(9, 17)
WALK70 = make_walk_kernel(circulant_graph(70, [1, 2]))
SPARSE_ZOO = {**{f"walk-{name}": kernel for name, kernel in SPARSE_WALKS.items()},
              **{f"lazy-{name}": lazy(kernel) for name, kernel in SPARSE_WALKS.items()},
              "sparse9": SPARSE9, "negative5": negative_entries(), "skewed9": skewed_sparse(),
              "walk70": WALK70}


class TestColumnSets:
    @pytest.mark.parametrize("kernel", [*SPARSE_WALKS.values(), lazy(SPARSE_WALKS["cycle6"]),
                                        make_walk_kernel(circulant_graph(70, [1, 2]))])
    def test_rows_list_the_nonzero_states_in_order(self, kernel):
        sets, q_t, pi_t = kernel.column_sets
        k = kernel.state_count
        width = max(np.count_nonzero(kernel.q[:, t]) for t in range(k))
        assert sets.shape == (k, width) and width < k
        for t in range(k):
            live = np.flatnonzero(kernel.q[:, t])
            assert sets[t].tolist() == live.tolist() + [k] * (width - live.size)
        assert np.array_equal(q_t[:, :k], kernel.q.T) and not q_t[:, k].any()
        assert np.array_equal(pi_t[:k], kernel.pi) and pi_t[k] == 0.0

    def test_uneven_supports_are_padded_with_the_sentinel(self):
        # a star with loops: the hub column holds every state, each leaf column two
        w = np.eye(4)
        w[0] += 1.0
        w[:, 0] += 1.0
        kernel = TransitionKernel(q=w / w.sum(axis=1, keepdims=True), pi=w.sum(axis=1) / w.sum())
        assert np.array_equal(kernel.column_sets[0], np.tile(np.arange(4), (4, 1)))
        sets = negative_entries().column_sets[0]  # != 0 keeps the -1e-12 entries
        assert sets.tolist() == [[0, 1, 2, 4], [0, 1, 2, 5], [0, 1, 2, 3], [2, 3, 4, 5],
                                 [0, 3, 4, 5]]

    def test_built_once_on_first_use(self):
        kernel = make_potts(3, 0.2)
        assert "column_sets" not in vars(kernel)
        first = kernel.column_sets
        assert kernel.column_sets is first
        assert all(not a.flags.writeable for a in first)


class TestDobrushin:
    @pytest.mark.parametrize("kernel, d", [
        *(pytest.param(lazy(SPARSE_WALKS[name]) if lazy_walk else SPARSE_WALKS[name], d,
                       id=f"{'lazy' if lazy_walk else 'walk'}-{name}-{d}")
          for lazy_walk in (False, True) for name in sorted(SPARSE_WALKS) for d in (1, 2, 3, 4)),
        pytest.param(SPARSE9, 2, id="sparse9-2"),
        pytest.param(SPARSE9, 3, id="sparse9-3"),
        pytest.param(SPARSE9, 4, id="sparse9-4"),
        pytest.param(SPARSE9, 5, id="sparse9-5"),
        pytest.param(sparse_uneven(8, 48), 3, id="sparse8-3"),
        pytest.param(negative_entries(), 2, id="negative5-2"),
        pytest.param(negative_entries(), 3, id="negative5-3"),
        pytest.param(make_potts(17, 0.1), 3, id="potts17-3"),
        pytest.param(WALK70, 2, id="walk70-2"),
        pytest.param(WALK70, 3, id="walk70-3"),
        pytest.param(WALK70, 4, id="walk70-4"),
    ])
    def test_equals_per_multiset_loop(self, kernel, d):
        # sparse8-3 moves its last bit if TVs of 3 or 4 nonzero weights, or of any at k=8,
        # are summed on the support
        assert dobrushin_coefficient(kernel, d) == dobrushin_per_multiset(kernel, d)

    @pytest.mark.parametrize("block", [None, 64], ids=["block", "block64"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", SPARSE_ZOO)
    def test_enumerates_the_kept_rows_of_the_full_enumeration(self, name, d, block, monkeypatch):
        # the multisets whose weights are not all zero, in order, also across blocks of 64
        # entries.  The rows' multisets are fewer than all, and merged, for walk70 and
        # walk-cycle6 from d=3 and walk-circulant10 at d=4.  The other kernels sift every
        # multiset, or keep every one with a row of full support (sparse9, skewed9)
        kernel = SPARSE_ZOO[name]
        every = np.array(list(itertools.combinations_with_replacement(range(kernel.state_count),
                                                                      d - 1)))
        kept = every[(kernels._heat_bath_weights(kernel, every) != 0).any(axis=1)]
        want, seen = dobrushin_coefficient(kernel, d), []
        monkeypatch.setattr(kernels, "_heat_bath_weights",
                            lambda kernel, shared, weights=kernels._heat_bath_weights:
                            seen.append(shared) or weights(kernel, shared))
        if block:
            monkeypatch.setattr(kernels, "_DOBRUSHIN_BLOCK", block)
        assert dobrushin_coefficient(kernel, d) == want
        assert np.array_equal(np.vstack(seen), kept)

    def test_budget_counts_the_multisets_of_the_rows(self):
        # walk70 at d=4: 70 rows list C(4 + 2, 3) = 20 multisets each, fewer than C(72, 3)
        count = 70 * math.comb(6, 3) * 70**2
        with pytest.raises(BudgetExceededError):
            dobrushin_coefficient(WALK70, 4, budget=count - 1)
        assert dobrushin_coefficient(WALK70, 4, budget=count) == 1.0

    def test_memory_stays_within_a_few_blocks(self):
        # the walk on K24 at d=4 sifts 2600 multisets whose weights are zero only at their
        # own states: gathering the rows of q for a whole block at once held 23 x 2340 x 24
        # floats, 13 MB, where a block of weights is 0.5 MB
        kernel = make_walk_kernel(complete_graph(24))
        tracemalloc.start()
        try:
            dobrushin_coefficient(kernel, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * kernels._DOBRUSHIN_BLOCK * 8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_support_only_sum_moves_the_last_bit(self, d):
        # the sparse case of the zoo above can tell the two summation orders apart
        value = dobrushin_coefficient(SPARSE9, d)
        assert value != dobrushin_per_multiset(SPARSE9, d, support_only=True)
        assert value == pytest.approx(dobrushin_per_multiset(SPARSE9, d, support_only=True),
                                      rel=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_per_multiset_loop_on_skewed_sparse_kernel(self, d):
        # tiny nonzero conditional weights must not be taken for zeros
        kernel = skewed_sparse()
        value = dobrushin_coefficient(kernel, d)
        assert value > 0.0
        assert value == dobrushin_per_multiset(kernel, d)

    def test_blocks_of_one_multiset(self, monkeypatch):
        kernel = lazy(SPARSE_WALKS["k33"])
        want = dobrushin_per_multiset(kernel, 3)
        monkeypatch.setattr(kernels, "_DOBRUSHIN_BLOCK", 1)
        assert dobrushin_coefficient(kernel, 3) == want

    @pytest.mark.parametrize("kernel, block", [(SPARSE9, 1000), (make_potts(17, 0.1), 10**4)],
                             ids=["sparse9", "potts17"])
    def test_groups_split_into_chunks(self, kernel, block, monkeypatch):
        # one block holds every multiset at d=3, all with k live columns, and the
        # group is cut into chunks of 3 multisets (sparse9) or 4 (potts17)
        want = dobrushin_per_multiset(kernel, 3)
        monkeypatch.setattr(kernels, "_DOBRUSHIN_BLOCK", block)
        assert dobrushin_coefficient(kernel, 3) == want

    def test_ising_point_two_d3(self):
        assert dobrushin_coefficient(make_ising(0.2), 3) == pytest.approx(0.2, abs=1e-12)

    def test_uniform_kernel_zero(self):
        for k in (2, 3, 5):
            assert dobrushin_coefficient(uniform_kernel(k), 3) == 0.0

    def test_potts_frozen_oracle_value(self):
        # exhaustive-oracle value for the 7-state switch kernel at p=0.3, d=3
        value = dobrushin_coefficient(make_potts(7, 0.3), 3)
        assert value == pytest.approx(0.8465116279069768, abs=1e-12)
        assert value == pytest.approx(dobrushin_bruteforce(make_potts(7, 0.3), 3), abs=1e-12)

    @pytest.mark.parametrize("kernel,d", [
        (make_ising(0.35), 3),
        (make_ising(0.35), 4),
        (make_potts(3, 0.4), 3),
        (make_potts(4, 0.85), 3),
    ])
    def test_matches_bruteforce(self, kernel, d):
        assert dobrushin_coefficient(kernel, d) == pytest.approx(
            dobrushin_bruteforce(kernel, d), abs=1e-12
        )

    def test_even_degree_ising_enumerated_truth(self):
        # at even d the supremum sits at the balanced neighbor split, giving
        # theta / (1 + theta^2) rather than theta
        theta = 0.3
        assert dobrushin_coefficient(make_ising(theta), 4) == pytest.approx(
            theta / (1 + theta**2), abs=1e-12
        )

    def test_relabeling_invariance(self):
        kernel = make_potts(4, 0.35)
        perm = [2, 0, 3, 1]
        permuted = TransitionKernel(
            q=kernel.q[np.ix_(perm, perm)], pi=kernel.pi[perm]
        )
        assert dobrushin_coefficient(permuted, 3) == pytest.approx(
            dobrushin_coefficient(kernel, 3), abs=1e-12
        )

    def test_single_change_bound_scales_with_disagreements(self):
        # TV between conditionals differing in j coordinates is at most j * D
        for kernel, d in ((make_ising(0.4), 3), (make_potts(3, 0.5), 3), (make_ising(0.3), 4)):
            dob = dobrushin_coefficient(kernel, d)
            k = kernel.state_count
            for om1 in itertools.product(range(k), repeat=d):
                c1 = conditional_dist(kernel, om1)
                for om2 in itertools.product(range(k), repeat=d):
                    j = sum(a != b for a, b in zip(om1, om2))
                    tv = 0.5 * float(np.abs(c1 - conditional_dist(kernel, om2)).sum())
                    assert tv <= j * dob + 1e-12

    def test_spectral_zero_switch_kernel_is_in_dobrushin_regime(self):
        # k = 2d + 1 states with spectral radius zero: the kernel is uniform
        # and the coefficient vanishes, comfortably below 1/d
        d = 3
        k = 2 * d + 1
        kernel = make_potts(k, (k - 1) / k)
        assert spectral_radius(kernel) == pytest.approx(0.0, abs=1e-10)
        assert dobrushin_coefficient(kernel, d) < 1 / d

    def test_underflow_raises(self):
        # the balanced multisets underflow from d = 993 on, to subnormals and then to zero;
        # at d = 991 the smallest weights underflow but every multiset keeps a normal one
        assert dobrushin_coefficient(make_ising(0.2), 991) == pytest.approx(0.2, abs=1e-12)
        for d in (1001, 1301):
            with pytest.raises(ValueError, match="underflow"):
                dobrushin_coefficient(make_ising(0.2), d)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            dobrushin_coefficient(make_potts(30, 0.5), 8, budget=10**6)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            dobrushin_coefficient(make_ising(0.2), 3, budget=budget)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="d must be positive"):
            dobrushin_coefficient(make_ising(0.2), 0)


class TestSpectralRadius:
    def test_ising_is_abs_theta(self):
        for theta in (-0.7, -0.2, 0.0, 0.45, 0.9):
            assert spectral_radius(make_ising(theta)) == pytest.approx(abs(theta), abs=1e-10)

    def test_potts_grid(self):
        for k in (2, 3, 4, 5, 7, 9):
            for p in np.linspace(0.0, 1.0, 11):
                expect = abs(1 - p * k / (k - 1))
                assert spectral_radius(make_potts(k, float(p))) == pytest.approx(expect, abs=1e-10)

    def test_uniform_kernel_zero(self):
        assert spectral_radius(uniform_kernel(6)) == pytest.approx(0.0, abs=1e-10)

    def test_lies_in_unit_interval(self):
        kernels = [make_ising(0.8), make_potts(5, 0.9), uniform_kernel(3),
                   make_walk_kernel(complete_graph(5))]
        for kernel in kernels:
            rho = spectral_radius(kernel)
            assert 0.0 <= rho <= 1.0 + 1e-12


class TestKernelFiles:
    def test_roundtrip(self, tmp_path):
        kernel = make_potts(4, 0.3)
        path = tmp_path / "kernel.txt"
        write_kernel(kernel, path)
        path.write_text("  # indented comment\n" + path.read_text())
        loaded = load_kernel(path)
        assert np.allclose(loaded.q, kernel.q, atol=1e-15)
        assert np.allclose(loaded.pi, kernel.pi, atol=1e-12)

    def test_load_rejects_non_reversible(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.3 0.5 0.2\n0.2 0.3 0.5\n0.5 0.2 0.3\n")
        with pytest.raises(ValueError):
            load_kernel(path)

    def test_load_rejects_ragged(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0.5 0.5\n1.0\n")
        with pytest.raises(ValueError):
            load_kernel(path)

    def test_walk_kernel_spectral_radius_matches_dense_eig(self):
        graph = sample_regular_graph(40, 4, simple=True, rng=np.random.default_rng(3))
        kernel = make_walk_kernel(graph)
        evals = np.sort(np.abs(np.linalg.eigvals(kernel.q)))[::-1]
        assert spectral_radius(kernel) == pytest.approx(float(evals[1]), abs=1e-9)
