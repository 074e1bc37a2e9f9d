"""Golden-output check: fixed CLI commands must print byte-identical output.

Every subcommand runs at a fixed seed and a small size; stdout and every file
a command writes are compared byte for byte with ``tests/golden_cli.json``,
after the temporary input directory is replaced by ``<tmp>``.  A change that
alters any of these outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from treelab.cli import run
from treelab.covering import CoveringMatrix, bipartite_matrix, write_covering_matrix
from treelab.graphs import (circulant_graph, complete_bipartite, complete_graph,
                            sample_regular_graph, write_graph)

GOLDEN = Path(__file__).with_name("golden_cli.json")
_OUTPUT_FLAGS = ("--out", "--csv", "--text")

CASES = [
    "dobrushin --kernel ising(0.2) --d 3",
    "dobrushin --kernel potts(5,0.3) --d 4",
    "dobrushin --kernel walk(<tmp>/k4.txt) --d 3",
    "spectral --kernel potts(7,0.3)",
    "spectral --kernel <tmp>/kernel.txt",
    "bmc-sample --kernel ising(0.5) --d 3 --depth 3 --seed 7 --out <tmp>/config.txt",
    "bmc-sample --kernel potts(5,0.3) --d 4 --depth 3 --seed 11",
    "correlation --kernel ising(0.8) --d 3 --distance 2 --replicas 2000 --seed 1"
    " --encoding pm1 --k-max 30",
    "correlation --kernel potts(3,0.4) --d 3 --distance 0 --replicas 100 --seed 2",
    "glauber-fixed-point --kernel uniform(2) --d 3 --depth 4 --sweeps 4 --replicas 300"
    " --seed 4",
    "glauber-fixed-point --kernel potts(3,0.3) --d 3 --depth 4 --sweeps 2 --replicas 2100"
    " --seed 8 --window-depth 1",
    "glauber-contraction --kernel ising(0.2) --d 3 --depth 4 --sweeps 5 --replicas 100"
    " --seed 3 --csv <tmp>/contraction.csv",
    "glauber-contraction --kernel potts(3,0.2) --d 3 --depth 4 --sweeps 3 --replicas 2050"
    " --seed 9",
    "glauber-converge --kernel uniform(3) --d 3 --depth 4 --sweeps 10 --replicas 200"
    " --seed 5 --csv <tmp>/converge.csv",
    "glauber-converge --kernel ising(0.2) --d 3 --depth 4 --sweeps 3 --replicas 2050"
    " --seed 6 --window-depth 2",
    "entropy-check --kernel uniform(2) --d 3 --bits",
    "entropy-check --kernel walk(<tmp>/c70.txt) --d 3",
    "counterexample --k 70 --q-deg 4 --d 3",
    "counterexample --k 60 --q-deg 4 --d 3",
    "graph-sample --n 20 --d 3 --seed 6 --girth-l 3 --out <tmp>/sampled.txt",
    "graph-sample --n 8 --d 3 --seed 1 --multigraph --girth-l 2",
    "entlem-check --sizes 4",
    "eigen-quantize --graph <tmp>/cubic40.txt --which 0 --levels 1 --seed 0",
    "eigen-quantize --graph <tmp>/cubic40.txt --which 1 --levels 2 --seed 3",
    "local-distance --graph-a <tmp>/k4.txt --graph-b <tmp>/k33.txt --r-max 2 --k-max 2",
    "local-distance --graph-a <tmp>/k4.txt --graph-b <tmp>/k33.txt --r-max 1 --k-max 2"
    " --coloring-budget 8 --samples 5 --seed 3",
    "covering-min --graph <tmp>/k4.txt --matrix <tmp>/m2.txt",
    "covering-min --graph <tmp>/cubic10.txt --matrix m1",
    "covering-min --graph <tmp>/cubic10.txt --matrix m1 --budget 10 --restarts 2 --seed 1",
    "epsilon0 --family dominating --d 3",
    "epsilon0 --family independence --d 4",
    "epsilon0 --matrix <tmp>/m3.txt",
    "dominating-table --d-from 3 --d-to 4 --csv <tmp>/table.csv --text <tmp>/table.txt",
]


def write_inputs(tmp: Path) -> None:
    """The graph, kernel and matrix files the cases read."""
    write_graph(complete_graph(4), tmp / "k4.txt")
    write_graph(complete_bipartite(3, 3), tmp / "k33.txt")
    write_graph(circulant_graph(70, [1, 2]), tmp / "c70.txt")
    write_graph(sample_regular_graph(10, 3, True, np.random.default_rng(2)), tmp / "cubic10.txt")
    write_graph(sample_regular_graph(40, 3, True, np.random.default_rng(0)), tmp / "cubic40.txt")
    (tmp / "kernel.txt").write_text("0.7 0.3\n0.3 0.7\n")
    write_covering_matrix(bipartite_matrix(3), tmp / "m2.txt")
    write_covering_matrix(CoveringMatrix([[1, 2, 0], [1, 0, 2], [0, 2, 1]]), tmp / "m3.txt")


def run_case(case: str, tmp: Path) -> dict:
    """Exit code, stdout and written files of one case, with ``<tmp>`` restored."""
    argv = case.replace("<tmp>", str(tmp)).split()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in _OUTPUT_FLAGS:
            files[Path(value).name] = Path(value).read_text()
    return {"rc": rc, "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"), "files": files}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand(golden):
    from treelab.cli import _COMMANDS

    assert sorted(golden) == sorted(CASES)
    assert {case.split()[0] for case in CASES} == set(_COMMANDS)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, inputs, golden):
    assert run_case(case, inputs) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        write_inputs(Path(tmpdir))
        records = {case: run_case(case, Path(tmpdir)) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
