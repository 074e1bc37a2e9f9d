import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import treelab
from treelab.errors import BudgetExceededError
from treelab.graphs import (complete_bipartite, complete_graph, cycle_graph, graph_from_edges,
                            sample_regular_graph)
from treelab.localstats import (_extract_ball, ball_distribution, canonical_ball,
                                dcn_estimate, hausdorff_distance, tv_distance)


class TestCanonicalBall:
    def test_star_orderings_agree(self):
        # same colored star presented under two vertex orderings
        a = canonical_ball([(0, 1), (0, 2), (0, 3)], [5, 7, 7, 9], 0)
        b = canonical_ball([(0, 3), (0, 1), (0, 2)], [5, 9, 7, 7], 0)
        assert a == b

    def test_leaf_color_permutation_is_isomorphism(self):
        a = canonical_ball([(0, 1), (0, 2), (0, 3)], [5, 1, 2, 2], 0)
        b = canonical_ball([(0, 1), (0, 2), (0, 3)], [5, 2, 1, 2], 0)
        assert a == b

    def test_root_position_matters(self):
        path = [(0, 1), (1, 2)]
        end = canonical_ball(path, [4, 4, 4], 0)
        center = canonical_ball(path, [4, 4, 4], 1)
        assert end != center

    def test_colors_matter(self):
        star = [(0, 1), (0, 2), (0, 3)]
        assert canonical_ball(star, [0, 1, 1, 1], 0) != canonical_ball(star, [0, 1, 1, 2], 0)

    def test_multiplicity_matters(self):
        single = canonical_ball([(0, 1)], [0, 0], 0)
        double = canonical_ball([(0, 1), (0, 1)], [0, 0], 0)
        assert single != double

    def test_loop_matters(self):
        plain = canonical_ball([(0, 1)], [0, 0], 0)
        looped = canonical_ball([(0, 1), (1, 1)], [0, 0], 0)
        assert plain != looped

    def test_regular_graph_needs_backtracking(self):
        # monochromatic 6-cycle vs two monochromatic triangles: refinement alone
        # cannot split them, the search must
        hexagon = [(i, (i + 1) % 6) for i in range(6)]
        triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        a = canonical_ball(hexagon, [0] * 6, 0)
        b = canonical_ball(triangles, [0] * 6, 0)
        assert a != b

    def test_isomorphic_relabelings_agree(self):
        rng = np.random.default_rng(0)
        base = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5), (0, 5)]
        colors = [0, 1, 0, 1, 2, 2]
        code = canonical_ball(base, colors, 0)
        for _ in range(10):
            perm = rng.permutation(6)
            edges = [(int(perm[u]), int(perm[v])) for u, v in base]
            recolored = [0] * 6
            for v in range(6):
                recolored[int(perm[v])] = colors[v]
            assert canonical_ball(edges, recolored, int(perm[0])) == code

    def test_size_budget(self):
        edges = [(i, i + 1) for i in range(300)]
        with pytest.raises(BudgetExceededError):
            canonical_ball(edges, [0] * 301, 0)


def _relabelled(edges, colors, root, rng):
    """The same rooted colored multigraph under a random vertex permutation."""
    perm = rng.permutation(len(colors)).tolist()
    new_colors = [None] * len(colors)
    for v, c in enumerate(colors):
        new_colors[perm[v]] = c
    return [(perm[u], perm[v]) for u, v in edges], new_colors, perm[root]


def _random_tree(n, k, rng):
    """Random recursive tree on n vertices, k colors, random root."""
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    return edges, rng.integers(0, k, size=n).tolist(), int(rng.integers(n))


class TestCanonicalOracle:
    """Equal codes exactly for rooted colored isomorphic inputs, as networkx decides."""

    @staticmethod
    def _nx(ball):
        nx = pytest.importorskip("networkx")
        edges, colors, root = ball
        g = nx.MultiGraph()
        g.add_nodes_from((v, {"key": (c, v == root)}) for v, c in enumerate(colors))
        g.add_edges_from(edges)
        return g

    def _code(self, ball):
        """canonical_ball, with its first byte checked against networkx's tree test."""
        nx = pytest.importorskip("networkx")
        code = canonical_ball(*ball)
        assert code[:1] == (b"T" if nx.is_tree(self._nx(ball)) else b"G")
        return code

    def _check_pairs(self, balls):
        """Code equality against networkx isomorphism over all pairs; returns
        the number of isomorphic and non-isomorphic pairs seen."""
        nx = pytest.importorskip("networkx")
        graphs = [self._nx(b) for b in balls]
        codes = [self._code(b) for b in balls]
        seen = Counter()
        for i, j in itertools.combinations(range(len(balls)), 2):
            iso = nx.is_isomorphic(graphs[i], graphs[j],
                                   node_match=lambda x, y: x["key"] == y["key"])
            assert (codes[i] == codes[j]) == iso, (balls[i], balls[j])
            seen[iso] += 1
        return seen

    def test_random_trees_with_tied_colors(self):
        rng = np.random.default_rng(20)
        for n, k in ((5, 1), (7, 2), (9, 2), (8, 3)):
            trees = [_random_tree(n, k, rng) for _ in range(30)]
            trees += [_relabelled(*t, rng) for t in trees[:10]]
            seen = self._check_pairs(trees)
            assert seen[True] >= 10 and seen[False] > 0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_balls_of_pairing_model_graphs(self, r):
        rng = np.random.default_rng(30 + r)
        balls = []
        for n in (8, 14, 100):  # small graphs for loops and multi-edges, a large one for trees
            graph = sample_regular_graph(n, 3, simple=False, rng=rng)
            coloring = rng.integers(0, 2, size=n).tolist()
            balls += [(*_extract_ball(graph, coloring, v, r), 0) for v in range(n)]
        balls += [_relabelled(*b, rng) for b in balls[::4]]
        kinds = Counter(canonical_ball(*b)[:1] for b in balls)
        assert kinds[b"T"] > 0 and kinds[b"G"] > 0
        assert any(u == v for edges, _, _ in balls for u, v in edges)
        assert any(len(set(edges)) < len(edges) for edges, _, _ in balls)
        seen = self._check_pairs(balls)
        assert seen[True] > 0 and seen[False] > 0

    def test_tree_and_non_tree_never_share_a_code(self):
        # each pair has one vertex set, coloring and root and differs only in
        # whether the edges form a tree
        rng = np.random.default_rng(40)
        pairs = [([(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 0)], [0] * 4, 0),
                 ([(0, 1)], [(0, 0)], [0, 0], 0)]
        for _ in range(20):
            edges, colors, root = _random_tree(6, 2, rng)
            u, v = edges[int(rng.integers(len(edges)))]
            pairs.append((edges, edges + [(u, v)], colors, root))
            pairs.append((edges, edges + [(v, v)], colors, root))
        for tree, other, colors, root in pairs:
            assert self._check_pairs([(tree, colors, root), (other, colors, root)]) \
                == Counter({False: 1})


class TestBallDistribution:
    def test_high_girth_monochromatic_point_mass(self):
        dist = ball_distribution(cycle_graph(7), [0] * 7, 2)
        assert len(dist) == 1
        assert next(iter(dist.values())) == pytest.approx(1.0)

    def test_radius_zero_is_color_distribution(self):
        graph = complete_graph(4)
        dist = ball_distribution(graph, [0, 0, 1, 2], 0)
        assert sorted(dist.values()) == pytest.approx([0.25, 0.25, 0.5])

    def test_disjoint_union_invariance(self):
        k4 = complete_graph(4)
        edges = list(k4.edges)
        doubled = graph_from_edges(8, 3, edges + [(u + 4, v + 4) for u, v in edges])
        coloring = [0, 1, 0, 1]
        one = ball_distribution(k4, coloring, 1)
        two = ball_distribution(doubled, coloring * 2, 1)
        assert set(one) == set(two)
        for code in one:
            assert one[code] == pytest.approx(two[code], abs=1e-12)

    def test_probabilities_sum_to_one(self):
        graph = sample_regular_graph(20, 3, simple=True, rng=np.random.default_rng(1))
        coloring = np.random.default_rng(2).integers(0, 2, size=20).tolist()
        dist = ball_distribution(graph, coloring, 2)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


class TestDistances:
    def test_tv_trivial(self):
        a = {b"x": 0.6, b"y": 0.4}
        assert tv_distance(a, a) == 0.0
        assert tv_distance({b"x": 1.0}, {b"y": 1.0}) == 1.0
        assert tv_distance(a, {b"x": 0.4, b"y": 0.6}) == pytest.approx(0.2)

    def test_tv_independent_of_hash_seed(self):
        # ball codes are bytes, whose set order follows PYTHONHASHSEED
        script = (
            "import numpy as np\n"
            "from treelab.graphs import sample_regular_graph\n"
            "from treelab.localstats import ball_distribution, tv_distance\n"
            "for seed in range(6):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    ga = sample_regular_graph(30, 3, True, rng)\n"
            "    gb = sample_regular_graph(30, 3, True, rng)\n"
            "    a = ball_distribution(ga, rng.integers(0, 2, size=30).tolist(), 2)\n"
            "    b = ball_distribution(gb, rng.integers(0, 2, size=30).tolist(), 2)\n"
            "    print(repr(tv_distance(a, b)), not set(a) & set(b))\n"
        )
        src = str(Path(treelab.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert outs[0] == outs[1]
        rows = [line.split() for line in outs[0].splitlines()]
        disjoint = [value for value, flag in rows if flag == "True"]
        assert disjoint and all(value == "1.0" for value in disjoint)

    def test_tv_metric_properties(self):
        rng = np.random.default_rng(3)
        keys = [b"a", b"b", b"c", b"d"]
        dists = []
        for _ in range(6):
            p = rng.dirichlet(np.ones(4))
            dists.append(dict(zip(keys, p)))
        for x, y, z in itertools.permutations(dists, 3):
            assert tv_distance(x, y) == pytest.approx(tv_distance(y, x))
            assert tv_distance(x, z) <= tv_distance(x, y) + tv_distance(y, z) + 1e-12

    def test_hausdorff_trivial(self):
        a = {b"x": 1.0}
        b = {b"y": 1.0}
        assert hausdorff_distance([a], [a]) == 0.0
        assert hausdorff_distance([a], [b]) == 1.0

    def test_hausdorff_extra_far_point(self):
        a = {b"x": 1.0}
        c = {b"x": 0.5, b"y": 0.5}
        assert hausdorff_distance([a], [a, c]) == pytest.approx(0.5)

    def test_hausdorff_zero_iff_equal_sets(self):
        a = {b"x": 1.0}
        b = {b"x": 0.7, b"y": 0.3}
        assert hausdorff_distance([a, b], [b, a]) == 0.0
        assert hausdorff_distance([a], [a, b]) > 0.0

    def test_hausdorff_needs_nonempty(self):
        with pytest.raises(ValueError):
            hausdorff_distance([], [{b"x": 1.0}])


class TestDcn:
    def test_identical_graphs(self):
        graph = complete_graph(4)
        est = dcn_estimate(graph, graph, 2, 2)
        assert est.exact
        assert est.value == 0.0

    def test_isomorphic_graphs(self):
        base = complete_bipartite(3, 3)
        perm = [3, 0, 4, 1, 5, 2]
        relabeled = graph_from_edges(6, 3, [(perm[u], perm[v]) for u, v in base.edges])
        est = dcn_estimate(base, relabeled, 2, 2, coloring_budget=64)
        assert est.exact
        assert est.value == 0.0

    def test_symmetric_in_arguments(self):
        g1 = complete_graph(4)
        g2 = graph_from_edges(4, 3, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
        a = dcn_estimate(g1, g2, 2, 2)
        b = dcn_estimate(g2, g1, 2, 2)
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.value > 0.0

    def test_tail_bound(self):
        est = dcn_estimate(complete_graph(4), complete_graph(4), 3, 2)
        assert est.tail_bound == pytest.approx(2.0**-2 + 2.0**-3 - 2.0**-5)
        assert est.tail_bound < 2.0**-3 + 2.0**-2 + 1e-15

    def test_estimate_mode_flagged(self):
        rng = np.random.default_rng(4)
        g1 = sample_regular_graph(16, 3, simple=True, rng=rng)
        g2 = sample_regular_graph(16, 3, simple=True, rng=rng)
        est = dcn_estimate(g1, g2, 1, 2, coloring_budget=64, samples=20,
                           rng=np.random.default_rng(5))
        assert not est.exact

    def test_estimate_mode_needs_rng(self):
        g1 = complete_graph(4)
        with pytest.raises(ValueError, match="rng"):
            dcn_estimate(g1, g1, 1, 4, coloring_budget=64)


def build_edge_swapped_pair(n, rng):
    """A simple cubic graph and a copy with one double edge swap applied."""
    while True:
        graph = sample_regular_graph(n, 3, simple=True, rng=rng)
        edges = list(graph.edges)
        edge_set = {tuple(sorted(e)) for e in edges}
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            if len({a, b, c, d}) < 4:
                continue
            if tuple(sorted((a, c))) in edge_set or tuple(sorted((b, d))) in edge_set:
                continue
            swapped = [e for e in edges if e not in ((a, b), (c, d))]
            swapped += [(a, c), (b, d)]
            return graph, graph_from_edges(n, 3, swapped)


def test_edge_swap_tv_bound():
    # one double edge swap changes four edge slots; each single-edge change
    # moves any fixed-coloring ball law by at most 2(d+1)^r / n, so the pair
    # stays within 8(d+1)^r / n = 0.32 at r=1, n=100
    rng = np.random.default_rng(6)
    g1, g2 = build_edge_swapped_pair(100, rng)
    worst = 0.0
    for _ in range(30):
        coloring = rng.integers(0, 2, size=100).tolist()
        tv = tv_distance(ball_distribution(g1, coloring, 1),
                         ball_distribution(g2, coloring, 1))
        worst = max(worst, tv)
    assert worst <= 0.32

