import math

import numpy as np
import pytest

from treelab.entropy import (bmc_entropy_report, expander_counterexample, pinsker_tv_bound,
                             shannon, total_correlation)
from treelab.graphs import circulant_graph
from treelab.kernels import (TransitionKernel, make_ising, make_potts, make_walk_kernel,
                             uniform_kernel)
from treelab.trees import exact_bmc_marginals


class TestShannon:
    def test_point_mass(self):
        assert shannon([1.0, 0.0, 0.0]) == 0.0

    def test_uniform(self):
        for k in (2, 5, 9):
            assert shannon(np.full(k, 1 / k)) == pytest.approx(math.log(k), abs=1e-12)

    def test_hand_value(self):
        assert shannon([0.3, 0.7]) == pytest.approx(0.6108643020548935, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            shannon([0.5, 0.6])
        with pytest.raises(ValueError):
            shannon([1.2, -0.2])

    @pytest.mark.parametrize("dist", [[np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan]])
    def test_non_finite_rejected(self, dist):
        with pytest.raises(ValueError, match="finite"):
            shannon(dist)

    def test_concavity_spot_checks(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            lam = rng.random()
            mix = lam * p + (1 - lam) * q
            assert shannon(mix) >= lam * shannon(p) + (1 - lam) * shannon(q) - 1e-12


class TestEntropyReport:
    def test_uniform_kernel(self):
        k = 4
        report = bmc_entropy_report(uniform_kernel(k), 3)
        assert report.h_vertex == pytest.approx(math.log(k), abs=1e-12)
        assert report.h_edge == pytest.approx(2 * math.log(k), abs=1e-12)
        assert report.slack_edge_vertex == pytest.approx(math.log(k), abs=1e-12)
        assert report.edge_vertex_verdict == "PASSES"
        assert report.star_edge_verdict == "PASSES"

    def test_walk_kernel_closed_form(self):
        # uniform stationary law on k vertices, uniform rows over q_deg neighbors
        graph = circulant_graph(70, [1, 2])
        report = bmc_entropy_report(make_walk_kernel(graph), 3)
        assert report.h_vertex == pytest.approx(math.log(70), abs=1e-12)
        assert report.h_edge == pytest.approx(math.log(70) + math.log(4), abs=1e-12)

    def test_edge_matches_exact_law(self):
        for kernel in (make_ising(0.35), make_potts(4, 0.3)):
            report = bmc_entropy_report(kernel, 3)
            law = exact_bmc_marginals(kernel, "edge")
            assert report.h_edge == pytest.approx(shannon(law.ravel()), abs=1e-10)

    @pytest.mark.parametrize("kernel,d", [
        (make_ising(0.4), 3), (make_potts(3, 0.25), 4), (make_potts(5, 0.6), 3),
    ])
    def test_star_matches_exact_law(self, kernel, d):
        report = bmc_entropy_report(kernel, d)
        law = exact_bmc_marginals(kernel, "star", d=d)
        assert report.h_star == pytest.approx(shannon(law.ravel()), abs=1e-10)

    def test_entropy_ordering(self):
        for kernel in (make_ising(0.7), make_potts(6, 0.2), uniform_kernel(3)):
            report = bmc_entropy_report(kernel, 3)
            assert report.h_vertex <= report.h_edge + 1e-12
            assert report.h_edge <= 2 * report.h_vertex + 1e-12


class TestInequalities:
    def test_edge_vertex_uniform_passes_all_degrees(self):
        for d in range(3, 11):
            report = bmc_entropy_report(uniform_kernel(3), d)
            assert report.edge_vertex_verdict == "PASSES"

    def test_walk_chain_violation_at_70(self):
        report = bmc_entropy_report(make_walk_kernel(circulant_graph(70, [1, 2])), 3)
        assert report.edge_vertex_verdict == "FAILS"
        assert 1.5 * (math.log(70) + math.log(4)) < 2 * math.log(70)
        assert report.slack_edge_vertex == pytest.approx(
            1.5 * (math.log(70) + math.log(4)) - 2 * math.log(70), abs=1e-12
        )

    def test_walk_chain_passes_at_60(self):
        report = bmc_entropy_report(make_walk_kernel(circulant_graph(60, [1, 2])), 3)
        assert report.edge_vertex_verdict == "PASSES"

    def test_ising_passes(self):
        report = bmc_entropy_report(make_ising(0.2), 3)
        assert report.edge_vertex_verdict == "PASSES"

    def test_star_edge_iid_passes(self):
        report = bmc_entropy_report(uniform_kernel(4), 3)
        assert report.star_edge_verdict == "PASSES"

    def test_star_edge_chain_value(self):
        # for any chain the slack is (1 - d/2) h_vertex + (d/2) mean row entropy
        kernel = make_ising(0.5)
        d = 3
        report = bmc_entropy_report(kernel, d)
        row = sum(kernel.pi[s] * shannon(kernel.q[s]) for s in range(2))
        expect = (1 - d / 2) * report.h_vertex + (d / 2) * row
        assert report.slack_star_edge == pytest.approx(expect, abs=1e-12)

    def test_permutation_kernel_fails_star_edge(self):
        swap = TransitionKernel(q=[[0.0, 1.0], [1.0, 0.0]], pi=[0.5, 0.5])
        report = bmc_entropy_report(swap, 3)
        assert report.h_vertex == pytest.approx(math.log(2), abs=1e-12)
        assert report.h_edge == pytest.approx(math.log(2), abs=1e-12)
        assert report.h_star == pytest.approx(math.log(2), abs=1e-12)
        assert report.star_edge_verdict == "FAILS"


class TestCounterexample:
    def test_d3_q4(self):
        assert expander_counterexample(70, 4, 3).nontypical
        assert not expander_counterexample(60, 4, 3).nontypical

    def test_d3_q6(self):
        cert = expander_counterexample(100, 6, 3)
        assert not cert.nontypical
        assert cert.threshold == pytest.approx(216.0)

    def test_d4_q6_integer_boundary(self):
        assert expander_counterexample(37, 6, 4).nontypical
        assert not expander_counterexample(36, 6, 4).nontypical

    def test_ramanujan_target(self):
        cert = expander_counterexample(70, 4, 3)
        assert cert.ramanujan_target == pytest.approx(2 * math.sqrt(3) / 4, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            expander_counterexample(1, 4, 3)


class TestTotalCorrelation:
    def test_product_law_zero(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        joint = np.multiply.outer(p, q)
        assert total_correlation(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_bits(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert total_correlation(joint) == pytest.approx(math.log(2), abs=1e-12)

    def test_pinsker(self):
        assert pinsker_tv_bound(0.5) == pytest.approx(math.sqrt(0.25), abs=1e-15)
        assert pinsker_tv_bound(-1e-12) == 0.0

    def test_chain_algebra(self):
        # plumbing b = eps ln|S| through t = b (2d-2)/(d-2) and the Pinsker
        # bound gives sqrt(eps ln|S| (d-1)/(d-2))
        eps, s, d = 1e-3, 2, 3
        b = eps * math.log(s)
        t = b * (2 * d - 2) / (d - 2)
        assert pinsker_tv_bound(t) == pytest.approx(
            math.sqrt(eps * math.log(s) * (d - 1) / (d - 2)), abs=1e-15
        )
