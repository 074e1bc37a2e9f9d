import json

import numpy as np
import pytest

from treelab.cli import _COMMANDS, parse_kernel, run
from treelab.covering import bipartite_matrix, write_covering_matrix
from treelab.graphs import complete_graph, sample_regular_graph, write_graph
from treelab.kernels import make_ising, make_potts


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    assert rc == 0, f"exit {rc} for {argv}"
    return json.loads(out)


class TestKernelGrammar:
    def test_inline_constructors(self):
        assert np.allclose(parse_kernel("ising(0.2)").q, make_ising(0.2).q)
        assert np.allclose(parse_kernel("potts(7,0.3)").q, make_potts(7, 0.3).q)
        assert np.allclose(parse_kernel("uniform(4)").q, 0.25)

    def test_walk_constructor(self, tmp_path):
        path = tmp_path / "k4.txt"
        write_graph(complete_graph(4), path)
        kernel = parse_kernel(f"walk({path})")
        assert kernel.q[0, 1] == pytest.approx(1 / 3)

    def test_kernel_file_path(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("0.6 0.4\n0.4 0.6\n")
        kernel = parse_kernel(str(path))
        assert np.allclose(kernel.q, make_ising(0.2).q)


class TestCommands:
    def test_dobrushin(self, capsys):
        out = run_json(capsys, ["dobrushin", "--kernel", "ising(0.2)", "--d", "3"])
        assert out["dobrushin"] == pytest.approx(0.2, abs=1e-12)

    def test_spectral(self, capsys):
        out = run_json(capsys, ["spectral", "--kernel", "potts(7,0.3)"])
        assert out["spectral_radius"] == pytest.approx(0.65, abs=1e-10)

    def test_epsilon0_family(self, capsys):
        out = run_json(capsys, ["epsilon0", "--family", "dominating", "--d", "3"])
        assert abs(out["epsilon0"] - 4.38e-5) / 4.38e-5 < 0.02
        assert f"{out['dominating_bound']:.7f}" == "0.2500438"

    def test_dominating_table(self, capsys, tmp_path):
        csv = tmp_path / "table.csv"
        out = run_json(capsys, ["dominating-table", "--d-from", "3", "--d-to", "4",
                                "--csv", str(csv)])
        assert [row["d"] for row in out["rows"]] == [3, 4]
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "d,epsilon0,dominating_bound"
        assert len(lines) == 3

    def test_dominating_table_past_d_47(self, capsys):
        # thresholds below 1e-150, where a bisection midpoint sqrt(lo * hi) underflows to 0
        out = run_json(capsys, ["dominating-table", "--d-from", "47", "--d-to", "50"])
        assert [row["d"] for row in out["rows"]] == [47, 48, 49, 50]
        assert all(0.0 < row["epsilon0"] < 1e-150 for row in out["rows"])

    def test_counterexample(self, capsys):
        out = run_json(capsys, ["counterexample", "--k", "70", "--q-deg", "4", "--d", "3"])
        assert out["verdict"] == "NONTYPICAL"

    def test_entropy_check_bits(self, capsys):
        out = run_json(capsys, ["entropy-check", "--kernel", "uniform(2)", "--d", "3",
                                "--bits"])
        assert out["h_vertex_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_bmc_sample_writes_dump(self, capsys, tmp_path):
        dump = tmp_path / "config.txt"
        out = run_json(capsys, ["bmc-sample", "--kernel", "ising(0.5)", "--d", "3",
                                "--depth", "3", "--seed", "7", "--out", str(dump)])
        assert out["n"] == 22
        assert sum(out["state_counts"]) == 22
        assert len(dump.read_text().strip().split("\n")) == 22

    def test_correlation_with_classifier(self, capsys):
        out = run_json(capsys, [
            "correlation", "--kernel", "ising(0.8)", "--d", "3", "--distance", "2",
            "--replicas", "20000", "--seed", "1", "--encoding", "pm1", "--k-max", "30",
        ])
        assert out["exact"] == pytest.approx(0.64, abs=1e-12)
        assert abs(out["estimate"] - 0.64) < 4 * out["stderr"]
        assert out["verdict"] == "VIOLATES" and out["witness"] == 15

    def test_glauber_contraction_csv(self, capsys, tmp_path):
        csv = tmp_path / "curve.csv"
        out = run_json(capsys, [
            "glauber-contraction", "--kernel", "ising(0.2)", "--d", "3", "--depth", "4",
            "--sweeps", "5", "--replicas", "100", "--seed", "3", "--csv", str(csv),
        ])
        assert len(out["mean_distance"]) == 6
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "sweep,mean_distance,stderr"
        assert len(lines) == 7
        rows = [[float(field) for field in line.split(",")] for line in lines[1:]]
        assert [row[1] for row in rows] == out["mean_distance"]

    def test_glauber_fixed_point(self, capsys):
        out = run_json(capsys, [
            "glauber-fixed-point", "--kernel", "uniform(2)", "--d", "3", "--depth", "4",
            "--sweeps", "4", "--replicas", "500", "--seed", "4",
        ])
        assert out["vertex_ok"] and out["edge_ok"]

    def test_glauber_converge(self, capsys):
        out = run_json(capsys, [
            "glauber-converge", "--kernel", "uniform(3)", "--d", "3", "--depth", "4",
            "--sweeps", "30", "--replicas", "200", "--seed", "5",
        ])
        assert out["predicted_initial"] == pytest.approx(2 / 3)
        assert out["final_distance"] < 0.05

    def test_graph_sample_and_girth(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        out = run_json(capsys, ["graph-sample", "--n", "20", "--d", "3", "--seed", "6",
                                "--girth-l", "3", "--out", str(path)])
        assert out["simple"] is True
        assert out["edge_count"] == 30
        assert 0.0 <= out["short_cycle_fraction"] <= 1.0
        assert path.exists()

    def test_entlem_check(self, capsys):
        out = run_json(capsys, ["entlem-check", "--sizes", "4"])
        assert out["all_hold"] is True

    def test_eigen_quantize(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        write_graph(sample_regular_graph(40, 3, simple=True,
                                         rng=np.random.default_rng(0)), path)
        out = run_json(capsys, ["eigen-quantize", "--graph", str(path), "--which", "0",
                                "--levels", "1", "--seed", "0"])
        assert out["eigenvalue"] == pytest.approx(3.0, abs=1e-9)
        assert out["error_ratio"] == 0.0

    def test_local_distance(self, capsys, tmp_path):
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        write_graph(complete_graph(4), pa)
        write_graph(complete_graph(4), pb)
        out = run_json(capsys, ["local-distance", "--graph-a", str(pa), "--graph-b",
                                str(pb), "--r-max", "2", "--k-max", "2"])
        assert out["value"] == 0.0
        assert out["exact"] is True

    def test_covering_min(self, capsys, tmp_path):
        gpath = tmp_path / "k4.txt"
        mpath = tmp_path / "m2.txt"
        write_graph(complete_graph(4), gpath)
        write_covering_matrix(bipartite_matrix(3), mpath)
        out = run_json(capsys, ["covering-min", "--graph", str(gpath),
                                "--matrix", str(mpath)])
        assert out["ratio"] == 0.75
        assert out["method"] == "exact"
        # inline matrix id route
        out2 = run_json(capsys, ["covering-min", "--graph", str(gpath), "--matrix", "m2"])
        assert out2["ratio"] == 0.75


class TestContracts:
    def test_dominating_table_text_output(self, capsys, tmp_path):
        text = tmp_path / "table.txt"
        assert run(["dominating-table", "--d-from", "3", "--d-to", "3",
                    "--text", str(text)]) == 0
        capsys.readouterr()
        assert "dominating_bound" in text.read_text()

    def test_identical_seed_identical_output(self, capsys):
        argv = ["bmc-sample", "--kernel", "potts(5,0.3)", "--d", "3", "--depth", "4",
                "--seed", "11"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_seed_exits_2(self, capsys):
        assert run(["bmc-sample", "--kernel", "ising(0.2)", "--d", "3",
                    "--depth", "3"]) == 2

    def test_malformed_kernel_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.3 0.5 0.2\n0.2 0.3 0.5\n0.5 0.2 0.3\n")
        assert run(["spectral", "--kernel", str(path)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(["spectral", "--kernel", "/nonexistent/kernel.txt"]) == 2

    @pytest.mark.parametrize("argv", [
        ["spectral", "--kernel", "walk({neg})"],
        ["spectral", "--kernel", "walk({big})"],
        ["correlation", "--kernel", "ising(0.5)", "--d", "3", "--distance", "-2",
         "--seed", "1", "--replicas", "2000"],
        ["glauber-fixed-point", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "1", "--replicas", "0", "--seed", "1"],
        ["glauber-contraction", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "1", "--replicas", "0", "--seed", "1"],
        ["glauber-converge", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "1", "--replicas", "0", "--seed", "1"],
        ["spectral", "--kernel", "{nan}"],
        ["epsilon0", "--family", "dominating", "--d", "3", "--s-count", "0"],
        ["epsilon0", "--family", "dominating", "--d", "3", "--s-count", "1"],
        ["eigen-quantize", "--graph", "{k4}", "--which", "0", "--levels", "1", "--seed", "0",
         "--tol", "nan"],
        ["epsilon0", "--matrix", "{tall}"],
        ["spectral", "--kernel", "walk({triple})"],
        ["spectral", "--kernel", "{reducible_identity}"],
        ["spectral", "--kernel", "{reducible_absorbing}"],
        ["epsilon0", "--family", "independence", "--d", "5", "--matrix", "{m3}"],
        ["epsilon0", "--d", "5", "--matrix", "{m3}"],
        ["dominating-table", "--d-from", "5", "--d-to", "3"],
        ["graph-sample", "--n", "10", "--d", "3", "--seed", "1", "--girth-l", "-1"],
        ["correlation", "--kernel", "ising(0.5)", "--d", "3", "--distance", "1",
         "--seed", "1", "--replicas", "100", "--k-max", "-1"],
        ["covering-min", "--graph", "{empty}", "--matrix", "m1"],
        ["eigen-quantize", "--graph", "{empty}", "--which", "0", "--levels", "1", "--seed", "0"],
        ["local-distance", "--graph-a", "{empty}", "--graph-b", "{k4}", "--r-max", "1",
         "--k-max", "1"],
        ["spectral", "--kernel", "walk({huge})"],
        ["epsilon0", "--matrix", "{overflow}"],
        ["covering-min", "--graph", "{k4}", "--matrix", "{overflow}"],
        ["eigen-quantize", "--graph", "{k4}", "--which", "4", "--levels", "1", "--seed", "0"],
        ["glauber-contraction", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "-1", "--replicas", "5", "--seed", "1"],
        ["glauber-converge", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "-1", "--replicas", "5", "--seed", "1"],
        ["glauber-fixed-point", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
         "--sweeps", "-1", "--replicas", "5", "--seed", "1"],
        ["correlation", "--kernel", "ising(0.5)", "--d", "0", "--distance", "1",
         "--seed", "1", "--replicas", "100"],
        ["correlation", "--kernel", "ising(0.5)", "--d", "1", "--distance", "1",
         "--seed", "1", "--replicas", "100"],
        ["local-distance", "--graph-a", "{k4}", "--graph-b", "{k4}", "--r-max", "1",
         "--k-max", "2", "--coloring-budget", "1", "--samples", "0", "--seed", "1"],
        ["covering-min", "--graph", "{k4}", "--matrix", "m1", "--budget", "1",
         "--restarts", "-3", "--seed", "1"],
        ["correlation", "--kernel", "ising(0.5)", "--d", "3", "--distance", "0",
         "--replicas", "0", "--seed", "1"],
        # a window of depth 0 holds no edge, so the edge law would be 0/0
        ["glauber-fixed-point", "--kernel", "ising(0.25)", "--d", "3", "--depth", "2",
         "--sweeps", "1", "--replicas", "10", "--seed", "1", "--window-depth", "0"],
        # one state: every TV and every floor is 0, and 0 < 3 * 0 fails every law
        ["glauber-fixed-point", "--kernel", "uniform(1)", "--d", "3", "--depth", "2",
         "--sweeps", "1", "--replicas", "2", "--seed", "1"],
        # eps_0 lies below the smallest normal float
        ["epsilon0", "--family", "dominating", "--d", "200"],
        # the exact paths never read these flags, which are still rejected
        ["covering-min", "--graph", "{k4}", "--matrix", "m1", "--restarts", "-3"],
        ["local-distance", "--graph-a", "{k4}", "--graph-b", "{k4}", "--r-max", "1",
         "--k-max", "1", "--samples", "0"],
        ["local-distance", "--graph-a", "{k4}", "--graph-b", "{k4}", "--r-max", "1",
         "--k-max", "1", "--coloring-budget", "-7", "--seed", "1"],
        # a search budget below 1, rejected before any search or fallback
        ["dobrushin", "--kernel", "ising(0.2)", "--d", "3", "--budget", "-1"],
        ["covering-min", "--graph", "{k4}", "--matrix", "m1", "--budget", "-1"],
        ["covering-min", "--graph", "{k4}", "--matrix", "m1", "--budget", "-1", "--seed", "1"],
        # sweeps are checked before a Dobrushin enumeration that would exceed its budget
        ["glauber-converge", "--kernel", "potts(30,0.5)", "--d", "8", "--depth", "2",
         "--sweeps", "-1", "--replicas", "5", "--seed", "1"],
        # the balanced multisets' heat-bath weights underflow to zero
        ["dobrushin", "--kernel", "ising(0.2)", "--d", "1301"],
    ])
    def test_bad_input_exits_2(self, capsys, tmp_path, argv):
        files = {
            # K4 with vertex 3 written as -1, and with an edge to vertex 4
            "neg": "4 3\n0 1\n0 2\n0 -1\n1 2\n1 -1\n2 -1\n",
            "big": "4 3\n0 1\n0 2\n0 4\n1 2\n1 3\n2 3\n",
            "nan": "nan 0.5\n0.5 0.5\n",
            "k4": "4 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
            # a third body row past the two the header announces
            "tall": "2 3\n0 3\n1 2\n5 5\n",
            # K4 with a third token on one edge line
            "triple": "4 3\n0 1\n0 2 1\n0 3\n1 2\n1 3\n2 3\n",
            "reducible_identity": "1 0\n0 1\n",
            "reducible_absorbing": "1 0 0\n0.5 0.5 0\n0 0.5 0.5\n",
            # the d=3 dominating matrix, whose degree --d must not override
            "m3": "2 3\n0 3\n1 2\n",
            "empty": "0 3\n",
            # a million-vertex header with one edge: rejected before allocation
            "huge": "1000000 3\n0 1\n",
            "overflow": "2 3\n0 3\n99999999999999999999 2\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        assert run([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err
        if "reducible" in argv[-1]:
            assert "kernel is reducible" in captured.err
        if argv[argv.index("--budget") + 1 if "--budget" in argv else 0] == "-1":
            assert "budget must be at least 1" in captured.err

    @pytest.mark.parametrize("argv, nulls, note", [
        # one sweep of five replicas: fewer than two sweeps to fit a rate to
        pytest.param(["glauber-contraction", "--kernel", "ising(0.2)", "--d", "3", "--depth", "3",
                      "--sweeps", "1", "--replicas", "5", "--seed", "1"],
                     ("rate", "rate_interval"), ("rate_note", "10 standard errors"),
                     id="glauber-contraction"),
        # both sampled root states are equal: the Pearson correlation is 0/0
        pytest.param(["correlation", "--kernel", "ising(0.999)", "--d", "3", "--distance", "1",
                      "--replicas", "2", "--seed", "1"],
                     ("estimate", "stderr"), ("estimate_note", "all equal"), id="correlation"),
    ])
    def test_undefined_contraction_rate_is_strict_json(self, capsys, argv, nulls, note):
        assert run(argv) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert all(out[key] is None for key in nulls)
        assert note[1] in out[note[0]]

    def test_non_finite_result_exits_2(self, capsys, monkeypatch):
        _, *rest = _COMMANDS["spectral"]
        monkeypatch.setitem(_COMMANDS, "spectral",
                            (lambda args: {"spectral_radius": float("nan")}, *rest))
        assert run(["spectral", "--kernel", "ising(0.2)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_budget_exits_3(self, capsys):
        assert run(["dobrushin", "--kernel", "potts(30,0.5)", "--d", "8",
                    "--budget", "1000000"]) == 3

    def test_stochastic_outputs_embed_seed_and_errors(self, capsys):
        out = run_json(capsys, [
            "correlation", "--kernel", "ising(0.5)", "--d", "3", "--distance", "2",
            "--replicas", "5000", "--seed", "9", "--encoding", "pm1",
        ])
        assert out["seed"] == 9
        assert out["replicas"] == 5000
        assert out["stderr"] > 0
