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
from treelab import localstats
from treelab.graphs import (complete_bipartite, complete_graph, cycle_graph, graph_from_edges,
                            sample_regular_graph)
from treelab.localstats import (DcnEstimate, _extract_ball, ball_distribution, canonical_ball,
                                dcn_estimate, hausdorff_distance, tv_distance)
from treelab.trees import build_tree

# vertex-transitive cubic graphs whose balls have large root-fixing automorphism groups
PRISM = graph_from_edges(6, 3, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])
CUBE = graph_from_edges(8, 3, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)
                               if v < v ^ bit])
PETERSEN = graph_from_edges(10, 3, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


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
        # the same color set with different counts, on a graph the search handles
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert canonical_ball(k4, [0, 0, 0, 1], 0) != canonical_ball(k4, [0, 0, 1, 1], 0)

    def test_multiplicity_matters(self):
        single = canonical_ball([(0, 1)], [0, 0], 0)
        double = canonical_ball([(0, 1), (0, 1)], [0, 0], 0)
        assert single != double
        triangle = [(0, 1), (1, 2), (2, 0)]
        assert canonical_ball(triangle, [0] * 3, 0) != canonical_ball(triangle + [(1, 2)], [0] * 3, 0)

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
        # the cap counts what is left after the fold, and a cycle keeps every vertex
        edges = [(i, (i + 1) % 301) for i in range(301)]
        with pytest.raises(BudgetExceededError):
            canonical_ball(edges, [0] * 301, 0)

    def test_path_folds_past_the_size_cap(self):
        # a 301-vertex path folds into its root; rooted at an end it is 300
        # deep, past the depth cap that keeps nested codes off the recursion limit
        path = [(i, i + 1) for i in range(300)]
        assert canonical_ball(path, [0] * 301, 150).startswith(b"T")
        with pytest.raises(BudgetExceededError, match="depth"):
            canonical_ball(path, [0] * 301, 0)

    def test_depth_seven_cubic_tree_ball(self):
        tree = build_tree(3, 7)
        assert tree.n == 382
        edges = [(int(tree.parent[v]), v) for v in range(1, tree.n)]
        rng = np.random.default_rng(7)
        colors = rng.integers(0, 2, size=tree.n).tolist()
        code = canonical_ball(edges, colors, 0)
        assert code.startswith(b"T")
        perm = rng.permutation(tree.n)
        recolored = [0] * tree.n
        for v in range(tree.n):
            recolored[int(perm[v])] = colors[v]
        moved = [(int(perm[u]), int(perm[v])) for u, v in edges]
        assert canonical_ball(moved, recolored, int(perm[0])) == code
        leaf = tree.n - 1
        colors[leaf] = 1 - colors[leaf]
        assert canonical_ball(edges, colors, 0) != code

    def test_numpy_colors_give_plain_codes(self):
        k4 = complete_graph(4)
        plain = [0, 1, 0, 1]
        for colors in (np.array(plain), [np.int64(c) for c in plain]):
            assert canonical_ball(k4.edges, colors, 0) == canonical_ball(k4.edges, plain, 0)
            assert canonical_ball([(0, 1), (0, 2)], colors[:3], 0) == \
                canonical_ball([(0, 1), (0, 2)], plain[:3], 0)
            assert ball_distribution(k4, colors, 1) == ball_distribution(k4, plain, 1)
            assert tv_distance(ball_distribution(k4, colors, 1),
                               ball_distribution(k4, plain, 1)) == 0.0

    def test_tree_code_bytes_pinned(self):
        # the bytes of tree codes are part of the ball laws' keys
        assert canonical_ball([(0, 1), (0, 2)], [0, 1, 1], 0) == b"T(0, ((1, ()), (1, ())))"

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_out_of_range(self, root):
        with pytest.raises(ValueError, match="root"):
            canonical_ball([(0, 1), (1, 2)], [0, 0, 0], root)

    @pytest.mark.parametrize("edge", [(0, -1), (0, 2), (-1, -1)])
    def test_edge_endpoint_out_of_range(self, edge):
        # a negative endpoint used to alias vertex n-1
        with pytest.raises(ValueError, match="endpoint"):
            canonical_ball([edge], [0, 1], 0)


def _relabelled(edges, colors, root, rng):
    """The same rooted colored multigraph under a random vertex permutation."""
    perm = rng.permutation(len(colors)).tolist()
    new_colors = [None] * len(colors)
    for v, c in enumerate(colors):
        new_colors[perm[v]] = c
    return [(perm[u], perm[v]) for u, v in edges], new_colors, perm[root]


def _scrambled(edges, colors, root, rng):
    """Relabelled, with the edge list shuffled and each edge's ends in random
    order, so that adjacency and peeling orders change too."""
    edges, colors, root = _relabelled(edges, colors, root, rng)
    edges = [(v, u) if rng.integers(2) else (u, v) for u, v in edges]
    return [edges[i] for i in rng.permutation(len(edges))], colors, root


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

    @staticmethod
    def _decorated_cycle(length, extra, k, rng):
        """A cycle with random trees of ``extra`` vertices hung off it, k colors,
        random root (on the cycle or inside a hung tree)."""
        n = length + extra
        edges = [(v, (v + 1) % length) for v in range(length)]
        edges += [(int(rng.integers(v)), v) for v in range(length, n)]
        return edges, rng.integers(0, k, size=n).tolist(), int(rng.integers(n))

    def test_cycles_with_pendant_trees(self):
        rng = np.random.default_rng(50)
        # the same two hung leaves at distance 2 and 3 on a hexagon, and on
        # adjacent vertices of a square against a pendant path of two
        hexagon = [(v, (v + 1) % 6) for v in range(6)]
        balls = [(hexagon + [(0, 6), (2, 7)], [0] * 8, 1),
                 (hexagon + [(0, 6), (3, 7)], [0] * 8, 1),
                 ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5)], [0] * 6, 0),
                 ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)], [0] * 6, 0)]
        for length, extra, k in ((3, 4, 1), (4, 4, 2), (5, 5, 2), (6, 3, 2), (3, 8, 2)):
            balls += [self._decorated_cycle(length, extra, k, rng) for _ in range(25)]
        balls += [_scrambled(*b, rng) for b in balls[::3]]
        degree = [Counter(v for e in edges for v in e)[root] for edges, _, root in balls]
        assert 1 in degree  # a root inside a hung tree
        seen = self._check_pairs(balls)
        assert seen[True] >= 40 and seen[False] > 0

    def test_loops_and_double_edges(self):
        rng = np.random.default_rng(60)
        path = [(0, 1), (1, 2), (2, 3)]
        balls = [(path, [0] * 4, 0), (path + [(0, 0)], [0] * 4, 0),
                 (path + [(3, 3)], [0] * 4, 0), (path + [(2, 2)], [0] * 4, 0),
                 (path + [(2, 3)], [0] * 4, 0), (path + [(0, 1)], [0] * 4, 0),
                 (path + [(3, 3)], [0] * 4, 3), (path + [(0, 0)], [0] * 4, 3)]
        for _ in range(40):
            edges, colors, root = _random_tree(6, 2, rng)
            leaves = [v for v, c in Counter(v for e in edges for v in e).items()
                      if c == 1 and v != root]
            leaf = leaves[int(rng.integers(len(leaves)))]
            edge = next(e for e in edges if leaf in e)
            balls.append((edges + [(root, root)], colors, root))  # loop at the root
            balls.append((edges + [(leaf, leaf)], colors, root))  # loop ending a pendant path
            balls.append((edges + [edge], colors, root))  # the leaf hangs by a double edge
        balls += [_scrambled(*b, rng) for b in balls[::3]]
        seen = self._check_pairs(balls)
        assert seen[True] >= 40 and seen[False] > 0

    def test_parts_away_from_the_root(self):
        # a K2 component and an isolated vertex beside a tree, or a tree plus an edge;
        # folding inside the K2 would depend on the vertex order
        rng = np.random.default_rng(70)
        balls = [([(0, 1), (2, 3)], [0, 1, 0, 1], 0), ([(0, 1), (2, 3)], [0, 1, 1, 0], 0),
                 ([(0, 1), (2, 3)], [0, 1, 1, 1], 0), ([(0, 1)], [0, 1, 0, 1], 0)]
        for _ in range(30):
            edges, colors, root = _random_tree(5, 2, rng)
            if rng.integers(2):
                edges = edges + [(edges[0][0], edges[1][1])]
            balls.append((edges + [(5, 6)], colors + rng.integers(0, 2, size=3).tolist(), root))
        balls += [_scrambled(*b, rng) for b in balls for _ in range(2)]
        seen = self._check_pairs(balls)
        assert seen[True] >= 60 and seen[False] > 0

    def test_raw_tuple_colors_never_meet_folded_ones(self):
        # a triangle with a hung leaf, and a bare triangle whose raw colors
        # are the first one's folded colors
        leaf = (0, ((0, ()),))
        balls = [([(0, 1), (1, 2), (2, 0), (1, 3)], [0, 0, 0, 0], 0),
                 ([(0, 1), (1, 2), (2, 0)], [(0, ()), leaf, (0, ())], 0),
                 ([(0, 1), (0, 1)], [0, 0], 0), ([(0, 1), (0, 1)], [(0, ()), (0, ())], 0),
                 ([(0, 0), (0, 1)], [0, 0], 0), ([(0, 0)], [leaf], 0)]
        assert self._check_pairs(balls) == Counter({False: 15})


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

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            ball_distribution(complete_graph(4), [0] * 4, -1)

    def test_monochrome_radius_four_on_cubic_300(self):
        # symmetric hung trees made the search visit one leaf per automorphism,
        # so this did not finish before pendant trees were folded
        rng = np.random.default_rng(80)
        graph = sample_regular_graph(300, 3, simple=True, rng=rng)
        perm = rng.permutation(300).tolist()
        relabelled = graph_from_edges(300, 3, [(perm[u], perm[v]) for u, v in graph.edges])
        dist = ball_distribution(graph, [0] * 300, 4)
        assert len(dist) > 1
        assert ball_distribution(relabelled, [0] * 300, 4) == dist

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

    def test_estimate_mode_needs_a_sample(self):
        g1 = complete_graph(4)
        with pytest.raises(ValueError, match="sample"):
            dcn_estimate(g1, g1, 1, 4, coloring_budget=64, samples=0,
                         rng=np.random.default_rng(0))

    def test_exact_mode_checks_samples_too(self):
        g1 = complete_graph(4)
        with pytest.raises(ValueError, match="sample"):
            dcn_estimate(g1, g1, 1, 1, samples=0)

    def test_estimate_mode_needs_rng(self):
        g1 = complete_graph(4)
        with pytest.raises(ValueError, match="rng"):
            dcn_estimate(g1, g1, 1, 4, coloring_budget=64)

    @pytest.mark.parametrize("budget", [0, -7])
    def test_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="coloring_budget"):
            dcn_estimate(complete_graph(4), complete_graph(4), 1, 1, coloring_budget=budget,
                         rng=np.random.default_rng(1))

    def test_each_colored_ball_canonicalised_once(self, monkeypatch):
        # K3,3 and the prism are vertex-transitive, but the prism's radius-1 ball holds a
        # triangle edge: four shapes and 2^4 + 2^4 + 2^6 + 2^6 = 160 colored balls (1560
        # with one call per coloring, radius and root).  One call per orbit of a shape's
        # root-fixing automorphisms leaves 8 + 24 + 12 + 40 = 84 (Burnside)
        calls = []
        monkeypatch.setattr(localstats, "canonical_ball",
                            lambda *args: calls.append(args) or canonical_ball(*args))
        graphs = [complete_bipartite(3, 3), PRISM]
        dcn_estimate(*graphs, 2, 2)
        shapes = _ball_shapes(graphs, (1, 2))
        assert len(shapes) == 4
        assert len(calls) == sum(_orbit_count(b, shape, 2) for b, shape in shapes) == 84
        calls.clear()
        dcn_estimate(complete_graph(8), complete_graph(8), 1, 2)
        assert len(calls) == 16  # a root color and the count of the other color, 2 * 8


def _ball_shapes(graphs, radii) -> set:
    """The distinct (vertex count, shape) of the rooted balls of the graphs."""
    return {(len(verts), shape) for graph in graphs for r in radii
            for _, verts, shape in localstats._root_balls(graph, r)}


def _preserves(g, shape) -> bool:
    """Whether the permutation maps the shape's sorted edge multiset onto itself."""
    return tuple(sorted(tuple(sorted((g[u], g[v]))) for u, v in shape)) == shape


def _brute_automorphisms(b, shape) -> set:
    """Every permutation of 0..b-1 that fixes 0 and maps the edge multiset onto itself."""
    perms = ((0, *p) for p in itertools.permutations(range(1, b)))
    return {g for g in perms if _preserves(g, shape)}


def _closure(b, gens) -> set:
    """The group the permutations generate: products until no new one appears."""
    group = [tuple(range(b))]
    seen = set(group)
    for h in group:
        for g in gens:
            gh = tuple(g[v] for v in h)
            if gh not in seen:
                seen.add(gh)
                group.append(gh)
    return seen


def _orbit_count(b, shape, k) -> int:
    """Burnside: orbits of the k-colorings under the shape's root-fixing automorphisms,
    the mean of k^(cycles) over the group."""
    group = _brute_automorphisms(b, shape)
    return sum(k ** _cycle_count(g) for g in group) // len(group)


def _cycle_count(g) -> int:
    """Cycles of a permutation, fixed points included."""
    seen, count = set(), 0
    for v in range(len(g)):
        count += v not in seen
        while v not in seen:
            seen.add(v)
            v = g[v]
    return count


class TestAutomorphismGenerators:
    def test_generators_close_to_the_brute_force_group(self):
        graphs = [g for pair in _multigraph_pairs(40, 12) for g in pair]
        graphs += [complete_graph(4), complete_bipartite(3, 3), PRISM, CUBE, PETERSEN]
        brute = 0
        for b, shape in _ball_shapes(graphs, (1, 2, 3)):
            gens = localstats._automorphism_generators(b, shape)
            assert all(g[0] == 0 and sorted(g) == list(range(b)) for g in gens)
            group = _closure(b, gens)
            if b <= 8:
                assert group == _brute_automorphisms(b, shape)
                brute += 1
            else:  # the whole Petersen graph: 120 automorphisms, 12 fix a vertex
                assert all(_preserves(g, shape) for g in group)
                assert len(group) == 12
        assert brute > 100


def _reference_dcn(graph_a, graph_b, r_max, k_max, coloring_budget, samples=200, rng=None):
    """dcn_estimate as one ``ball_distribution`` per coloring and radius, with
    the same coloring families and draw order, then ``hausdorff_distance``."""
    terms, total, exact = {}, 0.0, True
    for k in range(1, k_max + 1):
        enumerate_all = k ** max(graph_a.n, graph_b.n) <= coloring_budget
        exact &= enumerate_all

        def family(n):
            if enumerate_all:
                return [list(c) for c in itertools.product(range(k), repeat=n)]
            return [rng.integers(0, k, size=n).tolist() for _ in range(samples)]

        fam_a = family(graph_a.n)
        fam_b = fam_a if graph_b.n == graph_a.n else family(graph_b.n)
        for r in range(1, r_max + 1):
            dists = [{tuple(sorted(d.items())): d for d in
                      (ball_distribution(graph, c, r) for c in fam)}.values()
                     for graph, fam in ((graph_a, fam_a), (graph_b, fam_b))]
            terms[(k, r)] = hausdorff_distance(*dists)
            total += 2.0 ** (-k - r) * terms[(k, r)]
    tail = 2.0**-k_max + 2.0**-r_max - 2.0 ** (-k_max - r_max)
    return DcnEstimate(value=total, tail_bound=tail, exact=exact, terms=terms)


def _multigraph_pairs(seed, count):
    """Seeded pairs of pairing-model multigraphs on 4 to 8 vertices, degree 2 to 4."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        d = int(rng.integers(2, 5))
        sizes = [n for n in range(4, 9) if n * d % 2 == 0]
        pairs.append(tuple(sample_regular_graph(int(rng.choice(sizes)), d, False, rng)
                           for _ in range(2)))
    edges = [e for pair in pairs for g in pair for e in g.edges]
    assert any(u == v for u, v in edges) and len(set(edges)) < len(edges)
    return pairs


class TestDcnReference:
    def test_exact_mode_equals_per_coloring_loop(self):
        terms = []
        for i, (ga, gb) in enumerate(_multigraph_pairs(40, 12)):
            r_max, k_max = 1 + i % 3, 1 + i % 2
            est = dcn_estimate(ga, gb, r_max, k_max, coloring_budget=300)
            assert est.exact
            assert est == _reference_dcn(ga, gb, r_max, k_max, 300)
            terms += est.terms.values()
        # symmetric graphs, where the orbits of a ball shape's colorings are large
        for ga, gb in ((complete_graph(4), complete_bipartite(3, 3)),
                       (complete_bipartite(3, 3), PRISM), (PRISM, CUBE)):
            est = dcn_estimate(ga, gb, 2, 2, coloring_budget=300)
            assert est.exact
            assert est == _reference_dcn(ga, gb, 2, 2, 300)
            terms += est.terms.values()
        assert any(0.0 < t < 1.0 for t in terms)

    def test_sampled_mode_equals_per_coloring_loop(self):
        for i, (ga, gb) in enumerate(_multigraph_pairs(41, 8)):
            r_max = 1 + i % 3
            est = dcn_estimate(ga, gb, r_max, 2, coloring_budget=10, samples=15,
                               rng=np.random.default_rng(i))
            assert not est.exact
            assert est == _reference_dcn(ga, gb, r_max, 2, 10, 15, np.random.default_rng(i))


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

