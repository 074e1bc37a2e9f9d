"""Self-tests of the benchmark's oracles: one hand-known case each, and one
wrong input each must reject.  Run with ``python3 -m pytest bench/test_oracles.py``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as O

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K33 = [(i, 3 + j) for i in range(3) for j in range(3)]
PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
BIPARTITE = [[0, 3], [3, 0]]
ISING_02 = ([[0.6, 0.4], [0.4, 0.6]], [0.5, 0.5])


def nb(n, edges):
    return O.neighbor_table(n, 3, edges)


def test_dobrushin_brute():
    assert O.dobrushin_brute(*ISING_02, 3) == pytest.approx(0.2, abs=1e-12)
    assert O.dobrushin_brute(np.full((3, 3), 1 / 3), np.full(3, 1 / 3), 3) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        O.dobrushin_brute([[0.6, 0.6], [0.4, 0.6]], [0.5, 0.5], 3)


def test_covering_min_brute():
    assert O.covering_min_brute(nb(4, K4), BIPARTITE) == Fraction(3, 4)
    assert O.covering_min_brute(nb(6, K33), BIPARTITE) == 0
    with pytest.raises(ValueError):
        O.covering_min_brute(nb(4, K4), [[0, 4], [4, 0]])


def test_covering_errors():
    assert O.covering_errors(nb(6, K33), BIPARTITE, [0, 0, 0, 1, 1, 1]).tolist() == [0]
    assert O.covering_errors(nb(6, K33), BIPARTITE, [1, 0, 0, 1, 1, 1]).tolist() == [4]
    with pytest.raises(ValueError):
        O.covering_errors(nb(6, K33), BIPARTITE, [0, 0, 0, 1, 1, 2])


def test_short_cycle_fraction():
    assert O.short_cycle_fraction(4, K4, 3) == 1.0
    assert O.short_cycle_fraction(6, K33, 3) == 0.0
    assert O.short_cycle_fraction(6, K33, 4) == 1.0
    assert O.short_cycle_fraction(6, PRISM, 3) == 1.0
    # a loop at 0, a double edge 2-3
    multi = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)]
    assert O.short_cycle_fraction(4, multi, 1) == 0.25
    assert O.short_cycle_fraction(4, multi, 2) == 0.75
    with pytest.raises(ValueError):
        O.short_cycle_fraction(4, [(0, 1), (1, 4)], 3)


def test_ball_and_tree_share():
    order, edges = O.ball(nb(4, K4), 0, 1)
    assert len(order) == 4 and len(edges) == 6 and not O.is_tree(len(order), edges)
    path = [[1], [0, 2], [1, 3], [2]]
    assert O.tree_ball_share(path, (1, 2)) == (1.0, 8)
    assert O.tree_ball_share(nb(6, K33), (1, 2)) == (0.5, 12)
    with pytest.raises(ValueError):
        O.tree_ball_share([[1], [0, 2]], (1,))


def test_balls_isomorphic():
    tri = ([(0, 1), (1, 2), (0, 2)], [0, 0, 1], 0)
    assert O.balls_isomorphic(tri, O.relabel(*tri, [2, 0, 1]))
    path_end = ([(0, 1), (1, 2)], [0, 0, 0], 0)
    path_mid = ([(0, 1), (1, 2)], [0, 0, 0], 1)
    assert not O.balls_isomorphic(path_end, path_mid)
    assert not O.balls_isomorphic(tri, ([(0, 1), (1, 2), (0, 2)], [1, 0, 0], 0))
    with pytest.raises(ValueError):
        O.relabel(*tri, [0, 0, 1])


def test_closed_forms():
    assert O.ising_dobrushin(-0.2, 3) == 0.2
    with pytest.raises(ValueError):
        O.ising_dobrushin(0.2, 4)
    assert O.sweep0_disagreement([0.5, 0.5]) == 0.5
    assert O.sweep0_disagreement(np.full(70, 1 / 70)) == pytest.approx(69 / 70)
    with pytest.raises(ValueError):
        O.sweep0_disagreement([0.7, 0.7])
    assert O.potts_spectral_radius(2, 0.5) == 0.0
    assert O.potts_spectral_radius(3, 0.3) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        O.potts_spectral_radius(3, 1.5)
    assert O.double_factorial_pm(6) == 15
    with pytest.raises(ValueError):
        O.double_factorial_pm(5)
    assert O.tree_vertex_count(3, 2) == 10
    with pytest.raises(ValueError):
        O.tree_vertex_count(2, 3)


def test_offset_law():
    assert O.circulant_offset_law(ISING_02[0]).tolist() == [0.6, 0.4]
    walk = np.zeros((5, 5))
    for s in range(5):
        walk[s, (s + 1) % 5] = walk[s, (s - 1) % 5] = 0.5
    assert O.circulant_offset_law(walk).tolist() == [0, 0.5, 0, 0, 0.5]
    with pytest.raises(ValueError):
        O.circulant_offset_law([[0.9, 0.1], [0.4, 0.6]])
    # offsets 1, 4, 1, 4 against 1/2 each: no deviation at all
    assert O.offset_deviation([0, 1, 2, 3], [1, 0, 3, 2], [0, 0.5, 0, 0, 0.5]) == 0.0
    # a state drawn without regard to the kernel lands off its support
    assert O.offset_deviation([0, 1], [1, 3], [0, 0.5, 0, 0, 0.5]) == math.inf
    rng = np.random.default_rng(0)
    par = rng.integers(0, 5, 20000)
    assert O.offset_deviation(par, (par + rng.choice([1, 4], 20000)) % 5, walk[0]) < 6
    assert O.offset_deviation(par, (par + rng.choice([1, 1, 4], 20000)) % 5, walk[0]) > 6
    with pytest.raises(ValueError):
        O.offset_deviation([0, 1], [1, 5], walk[0])


def test_paper_thresholds():
    assert float(O.PAPER_DOMINATING_D3) - 0.25 == pytest.approx(O.PAPER_EPS0[3], rel=0.02)
    assert list(O.PAPER_EPS0) == [3, 4, 5, 6]


def test_walk_certificate():
    assert O.walk_nontypical(70, 4, 3) and not O.walk_nontypical(60, 4, 3)
    with pytest.raises(ValueError):
        O.walk_nontypical(70, 4, 2)
    hv, he = O.walk_entropies(70, 4)
    assert hv == math.log(70) and he == math.log(70) + math.log(4)
    assert 1.5 * he < 2 * hv
    with pytest.raises(ValueError):
        O.walk_entropies(0, 4)


def test_correlation_ceiling():
    assert O.locality_bound(1, 3) == pytest.approx((2 - 2 / 3) / math.sqrt(2))
    assert O.ising_first_violation(0.8, 3, 30) == 15
    assert O.ising_first_violation(0.3, 4, 200) is None
    with pytest.raises(ValueError):
        O.ising_first_violation(1.0, 3, 30)


def test_parse_graph_file():
    n, d, edges = O.parse_graph_file("4 3\n" + "".join(f"{u} {v}\n" for u, v in K4))
    assert (n, d, len(edges)) == (4, 3, 6)
    with pytest.raises(ValueError):  # vertex 3 written as -1
        O.parse_graph_file("4 3\n0 1\n0 2\n0 -1\n1 2\n1 -1\n2 -1\n")
