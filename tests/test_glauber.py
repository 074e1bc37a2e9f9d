import hashlib
import warnings

import numpy as np
import pytest

from treelab import glauber, localstats, trees
from treelab.errors import ImpossibleConfigurationError
from treelab.glauber import (CoupledPair, _coupled_sweep_states, _member_weights, _sweep_states,
                             _waking_mask, conditional_dist, converge_from_iid, coupled_sweep,
                             estimate_hamming_decay, fixed_point_test, glauber_sweep,
                             maximal_coupling, wake_probability, waking_set)
from treelab.graphs import circulant_graph, complete_graph
from treelab.kernels import (NeighborConfig, TransitionKernel, make_ising, make_potts,
                             make_walk_kernel, uniform_kernel)
from treelab.trees import (Configuration, RealField, _cumulate, _draw_rows, build_tree,
                           sample_bmc, sample_bmc_batch, sample_uniform_labels, tree_distance)


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

    def test_pair_waking_law_matches_ball_oracle(self):
        """P(u and v both wake) = (1/|B_u| + 1/|B_v|) / |B_u union B_v| for complete radius-2
        balls B_u, B_v at distance >= 3 (the top label of the union is u's or v's, and
        the other tops its own ball), and 0 within distance 2.  On T_3 that is 0, 0, 1/90,
        1/95 and 1/100 at distances 1 to 5; pairs of depth <= 3 in a depth-5 tree reach
        all five.  Each estimate from 2*10^5 label draws must lie within 5 standard
        errors, a false-alarm rate of 5.7e-7 per check."""
        tree = build_tree(3, 5)
        inner = np.flatnonzero(tree.depth_of <= 3)  # vertices with complete radius-2 balls

        def ball(u):
            return {int(w) for w in range(tree.n) if tree_distance(tree, u, w) <= 2}

        u, pairs = int(np.flatnonzero(tree.depth_of == 2)[0]), {}
        for v in inner[inner != u]:  # the first vertex at each distance from u
            pairs.setdefault(tree_distance(tree, u, int(v)), int(v))
        assert sorted(pairs) == [1, 2, 3, 4, 5]
        rng = np.random.default_rng(33)
        draws, block = 200_000, 10_000
        both = dict.fromkeys(pairs, 0)
        for _ in range(draws // block):
            mask = _waking_mask(tree, rng.random((tree.n, block)))
            for dist, v in pairs.items():
                both[dist] += int((mask[u] & mask[v]).sum())
        for dist, v in pairs.items():
            bu, bv = ball(u), ball(v)
            p = (1 / len(bu) + 1 / len(bv)) / len(bu | bv) if dist >= 3 else 0.0
            assert p == pytest.approx([0, 0, 1 / 90, 1 / 95, 1 / 100][dist - 1])
            if p == 0.0:
                assert both[dist] == 0
            else:
                assert abs(both[dist] / draws - p) < 5 * np.sqrt(p * (1 - p) / draws)

    def test_nan_label_rejected(self):
        tree = build_tree(3, 3)
        values = np.random.default_rng(5).random(tree.n)
        values[7] = np.nan  # the maxima carry it into every ball it lies in
        with pytest.raises(ValueError, match="NaN"):
            waking_set(tree, RealField(tree, values))

    def test_infinite_labels_order(self):
        tree = build_tree(3, 3)
        values = np.random.default_rng(6).random(tree.n)
        values[[0, 5, 9]] = np.inf
        values[[3, 4, 12]] = -np.inf
        ws = waking_set(tree, RealField(tree, values))
        assert np.array_equal(ws.member, waking_reference_scan(tree, values))
        assert ws.member[0] and not ws.member[[1, 2, 3, 4, 5]].any()

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

    @pytest.mark.parametrize("neighbors", [[-1], [0.5], [2], [0, 1, 2], np.array([1.0, 0.0]),
                                           [[0, 1], [1, 1]], 1])
    def test_states_outside_the_kernel_rejected(self, neighbors):
        with pytest.raises(ValueError, match="integers in 0..1"):
            conditional_dist(make_ising(0.2), neighbors)

    def test_integer_arrays_accepted(self):
        out = conditional_dist(make_ising(0.2), np.array([1, 0, 0], dtype=np.uint8))
        assert out[0] == pytest.approx(0.6, abs=1e-12)


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
        assert glauber._code_tables(kernel, 3).index is not None  # the law table's rows
        _, _, probs = _member_weights(states, member, tree, kernel)
        assert np.array_equal(probs, per_member_laws(states, member, tree, kernel))
        for row, (v, r) in zip(probs, zip(*np.nonzero(member))):
            assert np.allclose(row, conditional_dist(kernel, states[tree.neighbors[v], r]))

    @pytest.mark.parametrize("kernel", [make_ising(0.25), make_potts(3, 0.4)])
    def test_sweep_is_the_same_with_and_without_table(self, kernel, monkeypatch):
        # the law table and the per-vertex product; each run on a fresh copy of the
        # kernel, as the tables are kept per kernel and degree
        tree = build_tree(3, 5)
        start = sample_bmc_batch(kernel, tree, np.random.default_rng(41), 64)
        swept = []
        for live_budget in (glauber._LIVE_CODE_MAX, 0):
            monkeypatch.setattr(glauber, "_LIVE_CODE_MAX", live_budget)
            fresh = TransitionKernel(kernel.q, kernel.pi)
            states, rng = start.copy(), np.random.default_rng(42)
            for _ in range(3):
                _sweep_states(states, tree, fresh, rng)
            assert (glauber._code_tables(fresh, 3).index is not None) == bool(live_budget)
            swept.append(states)
        assert np.array_equal(*swept)

    def test_zero_entries_raise_only_when_an_impossible_code_wakes(self):
        # the walk on the 5-cycle has no triangles: no state is adjacent to
        # both 0 and 1, so the table holds zero-total codes
        kernel = make_walk_kernel(circulant_graph(5, [1]))
        tree = build_tree(3, 4)
        states = sample_bmc_batch(kernel, tree, np.random.default_rng(43), 64)
        states[tree.neighbors[0], 0] = [0, 1, 0]  # the root's neighborhood is now impossible
        member = np.zeros(states.shape, dtype=bool)
        member[tree.neighbor_count == 3, 1:] = True  # replica 0 stays asleep
        tables = glauber._code_tables(kernel, 3)
        assert (tables.index == tables.laws.shape[1]).any()  # rows of zero-total codes
        _, _, probs = _member_weights(states, member, tree, kernel)
        assert np.array_equal(probs, per_member_laws(states, member, tree, kernel))
        member[0, 0] = True
        with pytest.raises(ImpossibleConfigurationError):
            _member_weights(states, member, tree, kernel)


def dense_coupled_draw(pa, pb, rng):
    """Row-wise maximal coupling of dense (m, k) laws: the reference for the column-set draw."""
    m = pa.shape[0]
    common = np.minimum(pa, pb)
    c = common.sum(axis=1)
    u_branch, u_draw, u_draw_b = rng.random((3, m))
    same = u_branch < c
    xa = np.empty(m, dtype=np.int64)
    xb = np.empty(m, dtype=np.int64)
    if same.any():
        rows = common[same] / c[same, None]
        xa[same] = xb[same] = _draw_rows(rows, u_draw[same])
    diff = ~same
    if diff.any():
        ra = pa[diff] - common[diff]
        rb = pb[diff] - common[diff]
        sa, sb = ra.sum(axis=1), rb.sum(axis=1)
        dead = (sa <= 0.0) | (sb <= 0.0)
        if dead.any():
            ra[dead] = pa[diff][dead]
            rb[dead] = ra[dead]
            sa[dead] = ra[dead].sum(axis=1)
            sb[dead] = sa[dead]
        xa[diff] = _draw_rows(ra / sa[:, None], u_draw[diff])
        xb[diff] = _draw_rows(rb / sb[:, None], u_draw_b[diff])
        both = np.flatnonzero(diff)[dead]
        xb[both] = xa[both]
    return xa, xb


def coupled_draw(pa, pb, rng, cols=None, k=0):
    """The per-row maximal coupling of (c, m) laws, on the states ``cols`` when given."""
    xa, xb = glauber._pair_draw(glauber._pair_rows(pa, pb, cols, k), rng)
    if cols is None:
        return xa, xb
    return tuple(np.take_along_axis(cols, x[None], axis=0)[0] for x in (xa, xb))


def dense_sweep(states, tree, kernel, rng):
    """One sweep drawing from the dense per-member laws."""
    member = _waking_mask(tree, rng.random(states.shape))
    if member.any():
        states[member] = _draw_rows(per_member_laws(states, member, tree, kernel),
                                    rng.random(member.sum()))


def dense_coupled_sweep(sa, sb, tree, kernel, rng):
    """One coupled sweep through ``dense_coupled_draw`` of the dense per-member laws."""
    member = _waking_mask(tree, rng.random(sa.shape))
    if member.any():
        sa[member], sb[member] = dense_coupled_draw(per_member_laws(sa, member, tree, kernel),
                                                    per_member_laws(sb, member, tree, kernel), rng)


class HighBranch:
    """A generator whose coupled-draw blocks, (3, m), carry the largest float below 1 as
    every branch uniform: each pair with overlap mass below 1 takes the residual branch,
    and pairs whose overlap is exact lose it to roundoff."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        u = self.rng.random(size)
        if np.ndim(u) == 2 and u.shape[0] == 3:
            u[0] = np.nextafter(1.0, 0.0)
        return u


def check_sweeps_equal_dense(kernel, tree, sa, sb, seed, generator=np.random.default_rng):
    """Four coupled, then four plain sweeps of each copy, equal the dense sweeps bit for
    bit and leave the generator in the same state; a pair that starts equal stays equal."""
    identical = np.array_equal(sa, sb)
    new, ref = [sa.copy(), sb.copy()], [sa.copy(), sb.copy()]
    new_rng, ref_rng = generator(seed), generator(seed)
    for _ in range(4):
        _coupled_sweep_states(*new, tree, kernel, new_rng)
        dense_coupled_sweep(*ref, tree, kernel, ref_rng)
        assert np.array_equal(new[0], ref[0]) and np.array_equal(new[1], ref[1])
    assert np.array_equal(*new) or not identical
    for _ in range(4):
        for i in range(2):
            _sweep_states(new[i], tree, kernel, new_rng)
            dense_sweep(ref[i], tree, kernel, ref_rng)
            assert np.array_equal(new[i], ref[i])
    assert new_rng.random() == ref_rng.random()


def walk70():
    return make_walk_kernel(circulant_graph(70, [1, 2]))


def uneven_kernel():
    """Reversible 23-state kernel of a sparse weighted graph: supports of 3 to 9 states."""
    rng = np.random.default_rng(23)
    w = np.triu(rng.random((23, 23)) * (rng.random((23, 23)) < 0.15), 1)
    w[np.arange(22), np.arange(1, 23)] += 1.0  # a path keeps it irreducible
    w = w + w.T + np.diag(rng.random(23) * (rng.random(23) < 0.5))
    return TransitionKernel(q=w / w.sum(axis=1, keepdims=True), pi=w.sum(axis=1) / w.sum())


def negative_entry_kernel():
    """Lazy walk on the 20-cycle with q[0, 10] = q[10, 0] = -1e-12, as the kernel checks allow."""
    q = (np.eye(20) + make_walk_kernel(circulant_graph(20, [1])).q) / 2.0
    q[0, 10] = q[10, 0] = -1e-12
    q[0, 0] += 1e-12
    q[10, 10] += 1e-12
    return TransitionKernel(q=q, pi=np.full(20, 0.05))


def hub_kernel():
    """Walk on a 79-cycle of leaves plus a hub: each leaf steps to the hub with probability
    1e-13, the hub to leaf 1 with probability 1, and pi[hub] = 1e-15, all within the checks'
    1e-12, so column 0 has 79 nonzero entries while row 0 has one."""
    q = np.zeros((80, 80))
    leaves = np.arange(1, 80)
    q[leaves, np.roll(leaves, 1)] = q[leaves, np.roll(leaves, -1)] = 0.5
    q[leaves, 0], q[0, 1] = 1e-13, 1.0
    return TransitionKernel(q=q, pi=np.append(1e-15, np.full(79, (1 - 1e-15) / 79)))


SPARSE_KERNELS = {"walk70": walk70, "uneven23": uneven_kernel,
                  "negative20": negative_entry_kernel, "potts17": lambda: make_potts(17, 0.1)}
# the (name, d) whose laws are read off the live-code table; the others' are evaluated
LIVE_AT = {("walk70", 3), ("uneven23", 3), ("uneven23", 4), ("negative20", 3),
           ("negative20", 4), ("potts17", 3)}


def union_columns(cols_a, cols_b, k):
    """Sorted unions of two sets of column sets, one per row, padded with k to one width,
    as (width, m) sets, one per column."""
    rows = [np.union1d(a, b) for a, b in zip(cols_a, cols_b)]
    width = max(map(len, rows))
    return np.array([np.pad(row, (0, width - row.size), constant_values=k) for row in rows]).T


def scatter(laws, cols, k):
    """(m, k) laws from (c, m) laws on column sets padded with the sentinel k."""
    dense = np.zeros((laws.shape[1], k + 1))
    np.put_along_axis(dense, cols.T, laws.T, axis=1)
    return dense[:, :k]


class TestColumnSets:
    @pytest.mark.parametrize("name", SPARSE_KERNELS)
    @pytest.mark.parametrize("d", [3, 4])
    def test_laws_equal_dense_laws_bitwise(self, name, d):
        kernel = SPARSE_KERNELS[name]()
        k = kernel.state_count
        tree = build_tree(d, 5 if d == 3 else 4)
        rng = np.random.default_rng(50 + d)
        sa, sb = (sample_bmc_batch(kernel, tree, rng, 64) for _ in range(2))
        member = _waking_mask(tree, rng.random(sa.shape))
        flat, (v_idx, r_idx) = np.flatnonzero(member), np.nonzero(member)
        tables = glauber._code_tables(kernel, d)
        assert (tables.index is not None) == ((name, d) in LIVE_AT) and tables.pair is None
        sets, first = kernel.column_sets[0], tree.neighbors[v_idx, 0]
        cols = union_columns(sets[sa[first, r_idx]], sets[sb[first, r_idx]], k)
        for states in (sa, sb):
            dense = per_member_laws(states, member, tree, kernel)
            assert np.array_equal(_member_weights(states, member, tree, kernel)[2], dense)
            _, rows, nbr = glauber._woken_keys(states, flat, tree, kernel)
            slots = None if rows is None else glauber._slots(sets[states[first, r_idx]].T, cols)
            laws = glauber._woken_laws(kernel, d, rows, nbr, cols, slots)
            assert np.array_equal(scatter(laws, cols, k), dense)
            if name == "walk70":  # rows of four terms take the dense-sum fallback
                assert (np.count_nonzero(dense, axis=1) > 2).any()

    @pytest.mark.parametrize("name", SPARSE_KERNELS)
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("pairing", ["independent", "identical"])
    def test_sweeps_equal_dense_sweeps(self, name, d, pairing):
        kernel = SPARSE_KERNELS[name]()
        tree = build_tree(d, 5 if d == 3 else 4)
        rng = np.random.default_rng(60 + d)
        sa = sample_bmc_batch(kernel, tree, rng, 64)
        sb = sample_bmc_batch(kernel, tree, rng, 64) if pairing == "independent" else sa.copy()
        check_sweeps_equal_dense(kernel, tree, sa, sb, 61)

    @pytest.mark.parametrize("k", [9, 23, 70])
    def test_row_sums_equal_dense_sums(self, k):
        # rows of 1 to 9 terms over several magnitudes, some with a -1e-12 term;
        # at k = 9 a full row widens the sets to k columns, most with sentinels
        rng = np.random.default_rng(k)
        dense = np.zeros((500, k))
        for row in dense:
            at = rng.choice(k, size=rng.integers(1, 10), replace=False)
            row[at] = rng.random(at.size) ** 6
            if rng.random() < 0.2:
                row[at[0]] = -1e-12
        live = dense != 0
        cols = np.sort(np.where(live, np.arange(k), k), axis=1)[:, : live.sum(axis=1).max()]
        w = np.take_along_axis(np.hstack([dense, np.zeros((500, 1))]), cols, axis=1)
        assert np.array_equal(glauber._row_sums(w.T.copy(), cols.T, k), dense.sum(axis=1))

    @pytest.mark.parametrize("seed", range(4))
    def test_coupled_draw_on_columns_equals_dense(self, seed):
        # sparse laws of mass 1 or 1/2, equal in some rows, so that the
        # dense-sum fallback and the guard for a lost exact overlap are reached
        rng = np.random.default_rng(seed)
        m, k = 400, 30
        pa, pb = np.zeros((m, k)), np.zeros((m, k))
        for law in (pa, pb):
            for row in law:
                at = rng.choice(k, size=rng.integers(1, 7), replace=False)
                row[at] = rng.dirichlet(np.ones(at.size))
        equal = rng.random(m) < 0.3
        pb[equal] = pa[equal]
        half = rng.random(m) < 0.3
        pa[half] /= 2.0
        pb[half] /= 2.0
        live = (pa != 0) | (pb != 0)
        width = live.sum(axis=1).max()
        cols = np.sort(np.where(live, np.arange(k), k), axis=1)[:, :width]
        ca = np.take_along_axis(np.hstack([pa, np.zeros((m, 1))]), cols, axis=1)
        cb = np.take_along_axis(np.hstack([pb, np.zeros((m, 1))]), cols, axis=1)
        one, ref = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        for _ in range(5):
            xa, xb = coupled_draw(ca.T.copy(), cb.T.copy(), one, cols.T.copy(), k)
            ya, yb = dense_coupled_draw(pa, pb, ref)
            assert np.array_equal(xa, ya) and np.array_equal(xb, yb)
        assert one.random() == ref.random()

    def test_iid_start_on_walk70_is_impossible(self):
        kernel, tree = walk70(), build_tree(3, 5)
        rng = np.random.default_rng(70)
        with pytest.raises(ImpossibleConfigurationError):
            _sweep_states(rng.integers(0, 70, size=(tree.n, 32)), tree, kernel, rng)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(ImpossibleConfigurationError):
                converge_from_iid(kernel, 3, 5, 2, 32, rng)
        # walk70 is outside the Dobrushin regime, which the driver reports before sweeping
        assert ["no contraction guarantee" in str(w.message) for w in record] == [True]


LIVE_TABLE_CASES = {  # name: (kernel factory, d)
    "walk70-d2": (walk70, 2), "walk70-d3": (walk70, 3), "uneven23": (uneven_kernel, 3),
    "negative20": (negative_entry_kernel, 3), "potts17": (lambda: make_potts(17, 0.1), 3),
    "cycle5": (lambda: make_walk_kernel(circulant_graph(5, [1])), 3),
    "cycle5-d4": (lambda: make_walk_kernel(circulant_graph(5, [1])), 4),
    "k4walk": (lambda: make_walk_kernel(complete_graph(4)), 3),
    "k4walk-d4": (lambda: make_walk_kernel(complete_graph(4)), 4),
    "lazy5": (lambda: TransitionKernel(q=(np.eye(5) + make_walk_kernel(circulant_graph(5, [1])).q)
                                       / 2, pi=np.full(5, 0.2)), 3),
}
# the cases with a union table: the others have no column set narrower than k (potts17)
# or a pair table (35 rows for cycle5 at d=3, 64 for k4walk)
UNION_CASES = [c for c in LIVE_TABLE_CASES if c not in ("potts17", "cycle5", "k4walk")]


def live_tables(case):
    """A fresh kernel of the case, its degree, and its tables."""
    factory, d = {**LIVE_TABLE_CASES, "hub80": (hub_kernel, 3)}[case]
    kernel = factory()
    return kernel, d, glauber._code_tables(kernel, d)


class TestLiveCodeTable:
    @pytest.mark.parametrize("case", LIVE_TABLE_CASES)
    def test_laws_equal_per_vertex_laws_bitwise(self, case):
        # every code, in blocks: a code has a row iff its dense weights have a positive total,
        # and the row, scattered to k states, is the per-vertex law pi * prod_u q[:, u] / total
        kernel, d, tables = live_tables(case)
        k, n_rows = kernel.state_count, tables.laws.shape[1]
        assert tables.index is not None and not tables.laws[-1].any()  # the sentinel's zero row
        assert tables.index.dtype == np.min_scalar_type(n_rows)
        sets = np.hstack([kernel.column_sets[0], np.full((k, 1), k)])
        for start in range(0, k**d, 2**14):
            codes = np.arange(start, min(start + 2**14, k**d))
            digits = np.array(np.unravel_index(codes, (k,) * d))
            w = kernel.pi * np.prod(kernel.q.T[digits.T], axis=1)
            total = w.sum(axis=1)
            rows = tables.index[codes]
            assert np.array_equal(rows == n_rows, total <= 0.0)
            ok = rows < n_rows
            laws = tables.laws[:, rows[ok]]
            assert np.array_equal(scatter(laws, sets[digits[0, ok]].T, k), w[ok] / total[ok, None])
            per_vertex, _ = glauber._laws(kernel, digits[:, ok], sets[digits[0, ok]].T)
            assert np.array_equal(laws, per_vertex)
            assert np.array_equal(tables.cum[:, rows[ok]], _cumulate(laws[:-1]))

    @pytest.mark.parametrize("case", UNION_CASES)
    def test_union_table_equals_sorted_unions(self, case):
        # all k^2 pairs: the sort of the two sets with each repeat made a sentinel, and
        # each copy's slots name a union state's row in its own set, or a zero-law row
        kernel, _, tables = live_tables(case)
        assert tables.pair is None
        k, sets = kernel.state_count, kernel.column_sets[0]
        a, b = np.divmod(np.arange(k * k), k)
        union = np.sort(np.vstack([sets[a].T, sets[b].T]), axis=0)
        union[1:][union[1:] == union[:-1]] = k
        assert np.array_equal(tables.union, union)
        padded = np.hstack([sets, np.full((k, 1), k)])
        for own, slots in zip((a, b), tables.slots):
            in_set = (union[:, :, None] == sets[own][None]).any(axis=2)
            assert np.array_equal(padded[own[:, None], slots.T].T, np.where(in_set, union, k))

    @pytest.mark.parametrize("case", ["walk70-d3", "uneven23", "negative20"])
    def test_union_laws_equal_per_vertex_laws(self, case):
        # laws read off the table on the union sets equal the laws evaluated there, up to
        # the sign of zero entries
        kernel, d, tables = live_tables(case)
        tree, rng = build_tree(d, 5), np.random.default_rng(95)
        sa, sb = (sample_bmc_batch(kernel, tree, rng, 64) for _ in range(2))
        flat = np.flatnonzero(_waking_mask(tree, rng.random(sa.shape)))
        v, r = np.divmod(flat, 64)
        key = sa[tree.neighbors[v, 0], r] * kernel.state_count + sb[tree.neighbors[v, 0], r]
        cols, slots = tables.union[:, key], tables.slots[:, :, key]
        for states, own in zip((sa, sb), slots):
            rows = glauber._woken_keys(states, flat, tree, kernel)[1]
            looked_up = glauber._woken_laws(kernel, d, rows, None, cols, own)
            evaluated = glauber._laws(kernel, glauber._neighbor_states(states, flat, tree), cols)[0]
            assert np.array_equal(looked_up, evaluated)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_dead_code_raises(self, coupled):
        # i.i.d. states on walk70 wake neighbor tuples with no common neighbor state
        kernel, tree = walk70(), build_tree(3, 5)
        rng = np.random.default_rng(96)
        iid = rng.integers(0, 70, size=(tree.n, 32))
        with pytest.raises(ImpossibleConfigurationError,
                           match="^a woken vertex saw a neighbor configuration of probability zero$"):
            if coupled:
                _coupled_sweep_states(sample_bmc_batch(kernel, tree, rng, 32), iid, tree, kernel, rng)
            else:
                _sweep_states(iid, tree, kernel, rng)
        tables = glauber._code_tables(kernel, 3)
        assert tables.index is not None and (tables.index == tables.laws.shape[1]).any()

    def test_tables_read_only_and_built_once(self, monkeypatch):
        kernel, tree = walk70(), build_tree(3, 4)
        calls = []
        monkeypatch.setattr(glauber, "_live_codes",
                            lambda *args, live=glauber._live_codes: calls.append(args) or live(*args))
        assert 3 not in kernel.code_tables  # built on first use
        rng = np.random.default_rng(97)
        sa, sb = (sample_bmc_batch(kernel, tree, rng, 16) for _ in range(2))
        for _ in range(3):
            _coupled_sweep_states(sa, sb, tree, kernel, rng)
            _sweep_states(sa, tree, kernel, rng)
        tables = glauber._code_tables(kernel, 3)
        assert len(calls) == 1 and glauber._code_tables(kernel, 3) is tables
        assert glauber._code_tables(kernel, 2) is not tables and len(calls) == 2
        arrays = (tables.index, tables.laws, tables.cum, tables.union, tables.slots)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_walk70_at_degree_4_keeps_the_per_vertex_product(self):
        # 70^4 codes exceed _LIVE_CODE_MAX; the union table still applies
        kernel = walk70()
        assert 70**4 > glauber._LIVE_CODE_MAX
        tables = glauber._code_tables(kernel, 4)
        assert tables.index is None and tables.laws is None and tables.union is not None
        tree, rng = build_tree(4, 3), np.random.default_rng(98)
        states = sample_bmc_batch(kernel, tree, rng, 16)
        flat = np.flatnonzero(_waking_mask(tree, rng.random(states.shape)))
        first, rows, nbr = glauber._woken_keys(states, flat, tree, kernel)
        assert rows is None and nbr.shape == (4, flat.size) and np.array_equal(first, nbr[0])
        cols = glauber._first_sets(kernel, first)
        laws = glauber._woken_laws(kernel, 4, rows, nbr, cols)
        assert laws.shape == cols.shape == (4, flat.size)

    def test_law_floats_over_the_cap_get_no_table(self):
        # the walk on the 50-state star at d=3 lists 117,698 tuples, under the cap, but its
        # (49 + 1) x 117,650 law floats are 11 times it
        q = np.zeros((50, 50))
        q[0, 1:], q[1:, 0] = 1 / 49, 1.0
        kernel = TransitionKernel(q=q, pi=np.append(0.5, np.full(49, 1 / 98)))
        assert kernel.column_sets[0].shape[1] == 49
        assert glauber._live_codes(kernel, 3).size == 117_650
        assert glauber._code_tables(kernel, 3).index is None

    @pytest.mark.parametrize("case, unions", [("cycle5-d4", True), ("k4walk-d4", True),
                                              ("lazy5", True), ("hub80", False)])
    @pytest.mark.parametrize("pairing", ["independent", "identical"])
    def test_sweeps_on_live_tables_equal_dense_sweeps(self, case, unions, pairing):
        # more rows than the pair table takes: laws read off the live-code table, on the
        # first neighbor's column set or, coupled, on the union: tabled, or sorted per sweep
        # past the union table's cap.  With a symmetric zero pattern a column set of c
        # states makes L >= c^3 rows, so at d >= 3 no live-code table has sets wide enough
        # for that cap (2 c k^2 > _LIVE_CODE_MAX); hub80's column 0 is wider than its rows
        kernel, d, tables = live_tables(case)
        assert tables.index is not None and tables.pair is None
        assert (tables.union is not None) == unions
        tree, rng = build_tree(d, 4), np.random.default_rng(99)
        sa = sample_bmc_batch(kernel, tree, rng, 64)
        sb = sample_bmc_batch(kernel, tree, rng, 64) if pairing == "independent" else sa.copy()
        check_sweeps_equal_dense(kernel, tree, sa, sb, 100)


class TestRowSamplerCache:
    @pytest.mark.parametrize("name", ["walk70", "uneven23", "negative20"])
    def test_cached_sampler_draws_as_a_fresh_kernel(self, name):
        # walk70 and uneven23 use the guide table; negative20's -1e-12 entries count columns
        kernel, tree = SPARSE_KERNELS[name](), build_tree(3, 6)
        assert "row_sampler" not in vars(kernel)  # built on first use
        first, second = (sample_bmc_batch(kernel, tree, np.random.default_rng(90), 16)
                         for _ in range(2))
        sampler = kernel.row_sampler
        assert kernel.row_sampler is sampler
        fresh = sample_bmc_batch(SPARSE_KERNELS[name](), tree, np.random.default_rng(90), 16)
        assert np.array_equal(first, fresh) and np.array_equal(second, fresh)
        arrays = [c.cell_contents for c in sampler.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert len(arrays) == (1 if name == "negative20" else 2)  # cum, and the guide table
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def k4_walk():
    """Walk on K4: zero diagonal, so overlaps of two laws can vanish."""
    return make_walk_kernel(complete_graph(4))


PAIR_TABLE_CASES = {"ising0.25": (make_ising(0.25), 3), "ising-0.6": (make_ising(-0.6), 3),
                    "potts3": (make_potts(3, 0.4), 3), "k4walk": (k4_walk(), 3),
                    "ising-d6": (make_ising(0.1), 6)}


class TestPairTable:
    @pytest.mark.parametrize("case", PAIR_TABLE_CASES)
    @pytest.mark.parametrize("start", ["independent", "identical", "iid"])
    def test_sweeps_equal_dense_sweeps(self, case, start):
        kernel, d = PAIR_TABLE_CASES[case]
        assert glauber._code_tables(kernel, d).pair is not None  # L^2 <= _PAIR_TABLE_MAX
        tree = build_tree(d, 6 if d == 3 else 4)
        rng = np.random.default_rng(80 + d)
        sa = sample_bmc_batch(kernel, tree, rng, 64)
        sb = {"independent": lambda: sample_bmc_batch(kernel, tree, rng, 64),
              "identical": sa.copy,
              "iid": lambda: rng.integers(0, kernel.state_count, size=sa.shape)}[start]()
        check_sweeps_equal_dense(kernel, tree, sa, sb, 81)

    @pytest.mark.parametrize("case", [*PAIR_TABLE_CASES, "cycle5"])
    def test_pair_table_couples_the_k_state_laws_of_the_live_codes(self, case):
        # the rows keyed a*L + b are the couplings of the laws of live codes a and b on all k
        # states, as evaluated per code; cycle5's 35 live codes of 125 include zero totals
        kernel, d = PAIR_TABLE_CASES.get(case) or (make_walk_kernel(circulant_graph(5, [1])), 3)
        tables, live = glauber._code_tables(kernel, d), glauber._live_codes(kernel, d)
        k, n_rows = kernel.state_count, live.size
        laws = glauber._laws(kernel, np.array(np.unravel_index(live, (k,) * d)))[0]
        c, *pair_laws, dead = glauber._pair_rows(np.repeat(laws, n_rows, axis=1),
                                                 np.tile(laws, n_rows))
        for table, ref in zip(tables.pair, (c, *map(_cumulate, pair_laws), dead)):
            assert np.array_equal(table, ref, equal_nan=True)
        assert tables.union is None and tables.pair[0].shape == (n_rows**2,)

    @pytest.mark.parametrize("case", ["ising-0.6", "ising-d6"])
    def test_lost_overlaps_equal_dense_sweeps(self, case):
        kernel, d = PAIR_TABLE_CASES[case]
        c, *_, dead = glauber._code_tables(kernel, d).pair
        assert (dead & (c < 1.0)).any()  # exact overlaps that can lose the lottery
        tree = build_tree(d, 6 if d == 3 else 4)
        rng = np.random.default_rng(83)
        sa, sb = (sample_bmc_batch(kernel, tree, rng, 64) for _ in range(2))
        check_sweeps_equal_dense(kernel, tree, sa, sb, 84, HighBranch)

    def test_zero_code_woken_in_one_copy_raises(self):
        # the walk on the 4-cycle is bipartite: no state is adjacent to both 0 and 1,
        # so i.i.d. states wake zero-total codes, and chain samples never do
        kernel, tree = make_walk_kernel(circulant_graph(4, [1])), build_tree(3, 4)
        tables = glauber._code_tables(kernel, 3)
        assert (tables.index == tables.laws.shape[1]).any() and tables.pair is not None
        rng = np.random.default_rng(82)
        chain = sample_bmc_batch(kernel, tree, rng, 64)
        iid = rng.integers(0, 4, size=chain.shape)
        for pair in ((chain, iid), (iid, chain)):
            with pytest.raises(ImpossibleConfigurationError):
                _coupled_sweep_states(*(s.copy() for s in pair), tree, kernel, rng)
        _coupled_sweep_states(chain, sample_bmc_batch(kernel, tree, rng, 64), tree, kernel, rng)

    def test_tables_built_once_per_kernel_and_degree(self):
        kernel = make_potts(3, 0.4)
        tables = glauber._code_tables(kernel, 3)
        assert glauber._code_tables(kernel, 3) is tables
        deeper = glauber._code_tables(kernel, 4)
        # three states and the sentinel for 81 codes; 81^2 row pairs exceed the pair table
        assert deeper is not tables and deeper.laws.shape == (4, 81) and deeper.pair is None
        assert glauber._code_tables(make_potts(3, 0.4), 3) is not tables
        for a in (tables.index, tables.laws, tables.cum, *tables.pair, deeper.cum):
            assert not a.flags.writeable


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

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_states_out_of_range_rejected(self, bad):
        tree, kernel = build_tree(3, 3), make_ising(0.25)
        good = Configuration(tree, np.zeros(tree.n, dtype=np.int64))
        states = np.zeros(tree.n, dtype=np.int64)
        states[tree.n // 2 :] = bad
        config = Configuration(tree, states)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match=r"0\.\.1"):
            glauber_sweep(config, kernel, rng)
        for pair in (CoupledPair(config, good), CoupledPair(good, config)):
            with pytest.raises(ValueError, match=r"0\.\.1"):
                coupled_sweep(pair, kernel, rng)

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_states_that_are_not_integers_rejected(self, dtype):
        # float states used to fail deep in the sweep, and boolean ones to run
        tree, kernel = build_tree(3, 3), make_ising(0.25)
        good = Configuration(tree, np.zeros(tree.n, dtype=np.int64))
        config = Configuration(tree, (np.arange(tree.n) % 2).astype(dtype))
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="integers"):
            glauber_sweep(config, kernel, rng)
        for pair in (CoupledPair(config, good), CoupledPair(good, config)):
            with pytest.raises(ValueError, match="integers"):
                coupled_sweep(pair, kernel, rng)

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

    @staticmethod
    def sample(p, q, n, rng):
        """n draws of the maximal coupling of p and q, as one ``coupled_draw`` call on n
        copies of the pair (``test_one_row_equals_coupled_draw`` ties it to
        ``maximal_coupling`` draw by draw)."""
        return coupled_draw(*(np.tile(np.asarray(x)[:, None], n) for x in (p, q)), rng)

    def test_hand_value(self):
        rng = np.random.default_rng(10)
        n = 100_000
        x, y = self.sample([0.6, 0.4], [0.4, 0.6], n, rng)
        neq = np.count_nonzero(x != y)
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(neq / n - 0.2) < 3 * sigma

    def test_randomized_distributions_achieve_tv(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            tv = 0.5 * np.abs(p - q).sum()
            n = 40_000
            x, y = self.sample(p, q, n, rng)
            neq = np.count_nonzero(x != y)
            sigma = max(np.sqrt(tv * (1 - tv) / n), 1e-4)
            assert abs(neq / n - tv) < 3.5 * sigma

    def test_marginals_are_exact(self):
        rng = np.random.default_rng(12)
        p = np.array([0.7, 0.1, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        n = 60_000
        for draws, target in zip(self.sample(p, q, n, rng), (p, q)):
            counts = np.bincount(draws, minlength=3) / n
            for s in range(3):
                sigma = np.sqrt(target[s] * (1 - target[s]) / n)
                assert abs(counts[s] - target[s]) < 3.5 * sigma

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            maximal_coupling([0.5, 0.5], [0.3, 0.3, 0.4], np.random.default_rng(0))

    @pytest.mark.parametrize("p, q", [([0.5, 0.5], [2.0, -1.0]), ([0.0, 0.0], [0.0, 0.0]),
                                      ([0.5, 0.5], [0.0, 0.0]), ([np.nan, 1.0], [0.5, 0.5]),
                                      ([1.0, 0.0], [np.inf, 0.0])])
    def test_rejects_laws_that_are_not_measures(self, p, q):
        with pytest.raises(ValueError, match="nonnegative"):
            maximal_coupling(p, q, np.random.default_rng(0))

    @pytest.mark.parametrize("p, q", [([2.0, 0.0], [1.0, 1.0]), ([0.5, 0.5 + 2e-12], [0.5, 0.5]),
                                      ([0.25, 0.25], [0.25, 0.25])])
    def test_rejects_laws_off_unit_mass(self, p, q):
        # the construction reads p and q as given: [2, 0] against the uniform [1, 1] would
        # give Y = 0 on every draw, P(X != Y) = 0 against a TV of 1/2
        for args in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="summing to 1"):
                maximal_coupling(*args, np.random.default_rng(0))

    def test_accepts_laws_within_atol_of_unit_mass(self):
        p = np.array([0.5, 0.5 - 0.9e-12])
        assert maximal_coupling(p, p, np.random.default_rng(0)) in ((0, 0), (1, 1))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("kind", ["random", "equal", "disjoint", "half"])
    def test_one_row_equals_coupled_draw(self, k, kind):
        # numpy sums a row pairwise from 8 entries on, so k = 8 and 13 take the other
        # summation order.  "half" takes equal laws of mass 1 - 1e-13 (within ATOL) and
        # branch uniforms just below 1: every draw loses the branch lottery to roundoff
        # and reaches the guard for an exact overlap, which keeps the two draws equal
        rng = np.random.default_rng(k)
        generator = HighBranch if kind == "half" else np.random.default_rng
        for _ in range(40):
            p = rng.dirichlet(np.full(k, 0.5))
            if kind == "half":
                p *= 1.0 - 1e-13
            q = p.copy() if kind in ("equal", "half") else rng.dirichlet(np.full(k, 0.5))
            if kind == "disjoint":
                side = np.arange(k) < rng.integers(1, k)
                p, q = np.where(side, p, 0.0), np.where(side, 0.0, q)
                p, q = p / p.sum(), q / q.sum()
            seed = int(rng.integers(2**32))
            one, table = generator(seed), generator(seed)
            for _ in range(25):
                xa, xb = coupled_draw(p[:, None], q[:, None], table)
                assert maximal_coupling(p, q, one) == (int(xa[0]), int(xb[0]))
                assert kind != "half" or xa[0] == xb[0]
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
        # D > 1/d: no contraction guarantee; the driver still reports a curve, and never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        with pytest.warns(UserWarning, match="no contraction guarantee") as record:
            converge_from_iid(make_ising(0.9), 3, 3, 1, 50, np.random.default_rng(21))
        assert [w.filename for w in record] == [__file__]  # attributed to the caller

    @pytest.mark.parametrize("depth, window_depth", [(1, None), (2, 0)])
    def test_fixed_point_rejects_window_without_edges(self, depth, window_depth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 RuntimeWarning on the way
            with pytest.raises(ValueError, match="edge law needs a window depth of at least 1"):
                fixed_point_test(make_ising(0.25), 3, depth, 1, 10, np.random.default_rng(0),
                                 window_depth=window_depth)

    def test_fixed_point_depth_one_with_window_one(self):
        report = fixed_point_test(make_ising(0.25), 3, 1, 2, 2000, np.random.default_rng(32),
                                  window_depth=1)
        assert np.isfinite(report.tv_edge) and report.edge_ok

    @pytest.mark.parametrize("driver", [estimate_hamming_decay, converge_from_iid,
                                        fixed_point_test])
    def test_negative_sweeps_rejected(self, driver):
        # before any Dobrushin enumeration, which for potts(30, 0.5) at d=8 exceeds its budget
        with pytest.raises(ValueError, match="sweeps must be nonnegative"):
            driver(make_potts(30, 0.5), 8, 2, -1, 5, np.random.default_rng(0))

    def test_reports_are_deterministic_given_seed(self):
        a = estimate_hamming_decay(make_ising(0.2), 3, 4, 5, 300, np.random.default_rng(22))
        b = estimate_hamming_decay(make_ising(0.2), 3, 4, 5, 300, np.random.default_rng(22))
        assert np.array_equal(a.mean_distance, b.mean_distance)
        assert a.rate == b.rate


def test_private_names_read_by_the_bench_reference_exist():
    # bench/reference.py sweeps member by member through these private names
    assert glauber._draw_rows is trees._draw_rows
    assert callable(glauber._waking_mask) and callable(glauber._member_weights)
    assert callable(localstats._extract_ball)


FINGERPRINT_KERNELS = {  # name: (kernel, degrees at which i.i.d. states wake no impossible code)
    "ising0.25": (make_ising(0.25), (3, 4)), "ising-0.6": (make_ising(-0.6), (3, 4)),
    "potts3": (make_potts(3, 0.4), (3, 4)), "k4walk": (k4_walk(), (3,)),
    "cycle5": (make_walk_kernel(circulant_graph(5, [1])), ()), "walk70": (walk70(), ()),
    "uneven23": (uneven_kernel(), ()), "negative20": (negative_entry_kernel(), ()),
    "potts17": (make_potts(17, 0.1), (3, 4)),
}

# sha256 digests of ``sweep_fingerprint``, recorded once from the sweeps as they stood
# before the one-pass waking maximum; any change to a draw, a state or the order of the
# generator's uniforms changes them
SWEEP_DIGESTS = {
    ('ising0.25', 3): "3b7c04fe000b882b9099085d0b34afe4750f4c3600f7d6cc19d1ebac97f47e03",
    ('ising0.25', 4): "3376f1852351e9158b07948022450f5afea75e87574eeee3c0f9ee037faaa3e8",
    ('ising-0.6', 3): "db82aaafea725eadb8a06126c18d1578e540dba294a0ef45b8399a0f984f972b",
    ('ising-0.6', 4): "1a261378a33580cb54f821dfcb5bb1a6db1db6b75789043e1dd3ec39226a28ee",
    ('potts3', 3): "16ba3d33d0eadf29b77f80f59f749d5874505da8b55a8bc36c208428a0844aeb",
    ('potts3', 4): "2d5458fd646eb4a4a7b93666496014d36a708134058e89ad58a76180bad2364d",
    ('k4walk', 3): "271d3b9610eae8ed84234151013ff4b1bb0b9e181146b3aceadd52bf568f2c8c",
    ('k4walk', 4): "08a2dea28bc403e53e906146fdecef2fed826076b93562fe57798d174f80269d",
    ('cycle5', 3): "81b19e050ddbf3c94b57f39f48ec8bc58c3efcb708c81682e5d28cb00c1ff531",
    ('cycle5', 4): "0d769c2e741a2349e2d4edb6ef43b063ea01b4cd1f4ecc6df1781517cccc52f3",
    ('walk70', 3): "eb063df1639fc230dc99b0cf555b7022d13a8b7f71ae3e89190a5eae1f0e7916",
    ('walk70', 4): "0a7582ccd514bb501ccebc8dbe50dbaa131b0477108ae87b90417d3140edb232",
    # recorded before the states-major column-set laws and the cached q-row sampler
    ('uneven23', 3): "bf71c5fe2a7cc680282f753972425c816fa03a0b0694db9129296bd9e90008ce",
    ('uneven23', 4): "9701d589c4da76d968eecd166296abcd0f7226d7b7aebbcc300718deacc21c50",
    ('negative20', 3): "63b2eb4941b3691482fc8286be1aad1fbdb1f6895cf241cd0f1beb3e4511c55b",
    ('negative20', 4): "0edfa229554208233df4001c38fa642f1d04d9838419eb436cafe45f6b7ae4f4",
    ('potts17', 3): "5c0e948cee1787c3a002740f0cb282f920dedb33143bdc41e0410067ffe11ea8",
    ('potts17', 4): "c6e0b378b391be353984e2151629584a56757ba90705ec3d5d7ade386bb21174",
}


def sweep_fingerprint(kernel, d, iid):
    """Digest of fixed-seed runs at depths 1, 2, 4 and 8 with 1, 3 and 64 replicas, from
    independent and identical chain starts (and i.i.d. states when ``iid``): the states
    after each of two coupled sweeps and of one plain sweep per copy, then the next draw."""
    digest = hashlib.sha256()
    for depth in (1, 2, 4, 8):
        tree = build_tree(d, depth)
        for reps in (1, 3, 64):
            for start in ("independent", "identical", "iid")[: 3 if iid else 2]:
                rng = np.random.default_rng([d, depth, reps, len(start)])
                sa = sample_bmc_batch(kernel, tree, rng, reps)
                sb = {"independent": lambda: sample_bmc_batch(kernel, tree, rng, reps),
                      "identical": sa.copy,
                      "iid": lambda: rng.integers(0, kernel.state_count, size=sa.shape)}[start]()
                for _ in range(2):
                    _coupled_sweep_states(sa, sb, tree, kernel, rng)
                    digest.update(sa.tobytes() + sb.tobytes())
                for states in (sa, sb):
                    _sweep_states(states, tree, kernel, rng)
                    digest.update(states.tobytes())
                digest.update(np.float64(rng.random()).tobytes())
    return digest.hexdigest()


class TestSweepFingerprint:
    @pytest.mark.parametrize("name", FINGERPRINT_KERNELS)
    @pytest.mark.parametrize("d", [3, 4])
    def test_sweeps_match_recorded_digest(self, name, d):
        kernel, iid_degrees = FINGERPRINT_KERNELS[name]
        assert sweep_fingerprint(kernel, d, d in iid_degrees) == SWEEP_DIGESTS[name, d]
