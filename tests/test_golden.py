"""Golden-output check: fixed CLI commands and the demos must print byte-identical output.

Every subcommand runs at a fixed seed and a small size; stdout and every file
a command writes are compared byte for byte with ``tests/golden_cli.json``,
after the temporary input directory is replaced by ``<tmp>``.  Each demo in
``demos/`` runs in-process and its stdout is compared with
``tests/golden_demos.json``.  A change that alters any of these outputs on
purpose regenerates both files with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each case and demo whose recorded output changed;
CHANGES.md says why each one did.
"""

import contextlib
import io
import json
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest

from treelab.cli import run
from treelab.covering import CoveringMatrix, bipartite_matrix, write_covering_matrix
from treelab.graphs import (circulant_graph, complete_bipartite, complete_graph,
                            graph_from_edges, sample_regular_graph, write_graph)
from treelab.kernels import kernel_from_matrix, write_kernel

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_DEMOS = Path(__file__).with_name("golden_demos.json")
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
_OUTPUT_FLAGS = ("--out", "--csv", "--text")
# symmetric weights of a reversible 8-state kernel with 13 zero entries: its Dobrushin
# values (0.7578... at d=2, 0.8552... at d=3) move in the last bit if a total-variation
# sum skips the zero entries of a conditional law
SPARSE_WEIGHTS = [
    [0, 0, 2, 0, 5, 3, 3, 6],
    [0, 2, 8, 1, 7, 0, 8, 7],
    [2, 8, 2, 7, 7, 8, 6, 5],
    [0, 1, 7, 1, 0, 7, 0, 7],
    [5, 7, 7, 0, 1, 0, 3, 3],
    [3, 0, 8, 7, 0, 2, 3, 2],
    [3, 8, 6, 0, 3, 3, 1, 7],
    [6, 7, 5, 7, 3, 2, 7, 1],
]
# the triangular prism and the cube Q3: vertex-transitive, so exhaustive
# local-distance runs meet large automorphism orbits of colorings
PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
CUBE = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]

CASES = [
    "dobrushin --kernel ising(0.2) --d 3",
    "dobrushin --kernel potts(5,0.3) --d 4",
    "dobrushin --kernel walk(<tmp>/k4.txt) --d 3",
    "dobrushin --kernel walk(<tmp>/c70.txt) --d 3",
    "dobrushin --kernel potts(3,0.4) --d 1",
    "dobrushin --kernel walk(<tmp>/c70.txt) --d 2",
    "dobrushin --kernel walk(<tmp>/c70.txt) --d 4",
    "dobrushin --kernel <tmp>/sparse.txt --d 2",
    "dobrushin --kernel <tmp>/sparse.txt --d 3",
    "spectral --kernel potts(7,0.3)",
    "spectral --kernel <tmp>/kernel.txt",
    "bmc-sample --kernel ising(0.5) --d 3 --depth 3 --seed 7 --out <tmp>/config.txt",
    "bmc-sample --kernel potts(5,0.3) --d 4 --depth 3 --seed 11",
    "bmc-sample --kernel walk(<tmp>/c70.txt) --d 3 --depth 5 --seed 12 --out <tmp>/w70.txt",
    "correlation --kernel ising(0.8) --d 3 --distance 2 --replicas 2000 --seed 1"
    " --encoding pm1 --k-max 30",
    "correlation --kernel potts(3,0.4) --d 3 --distance 0 --replicas 100 --seed 2",
    "correlation --kernel walk(<tmp>/c70.txt) --d 3 --distance 3 --replicas 2000 --seed 13",
    "glauber-fixed-point --kernel uniform(2) --d 3 --depth 4 --sweeps 4 --replicas 300"
    " --seed 4",
    "glauber-fixed-point --kernel potts(3,0.3) --d 3 --depth 4 --sweeps 2 --replicas 2100"
    " --seed 8 --window-depth 1",
    "glauber-fixed-point --kernel walk(<tmp>/c70.txt) --d 3 --depth 4 --sweeps 2 --replicas 300"
    " --seed 5",
    "glauber-contraction --kernel ising(0.2) --d 3 --depth 4 --sweeps 5 --replicas 100"
    " --seed 3 --csv <tmp>/contraction.csv",
    "glauber-contraction --kernel potts(3,0.2) --d 3 --depth 4 --sweeps 3 --replicas 2050"
    " --seed 9",
    "glauber-contraction --kernel walk(<tmp>/c70.txt) --d 3 --depth 4 --sweeps 3 --replicas 200"
    " --seed 6",
    "glauber-contraction --kernel walk(<tmp>/c70.txt) --d 4 --depth 5 --sweeps 3 --replicas 64"
    " --seed 6",
    "glauber-contraction --kernel potts(17,0.1) --d 3 --depth 4 --sweeps 3 --replicas 200"
    " --seed 6",
    "glauber-contraction --kernel walk(<tmp>/k4.txt) --d 3 --depth 4 --sweeps 3 --replicas 200"
    " --seed 7",
    "glauber-converge --kernel uniform(3) --d 3 --depth 4 --sweeps 10 --replicas 200"
    " --seed 5 --csv <tmp>/converge.csv",
    "glauber-converge --kernel ising(0.2) --d 3 --depth 4 --sweeps 3 --replicas 2050"
    " --seed 6 --window-depth 2",
    "glauber-converge --kernel potts(3,0.3) --d 4 --depth 3 --sweeps 3 --replicas 300"
    " --seed 7",
    "glauber-converge --kernel walk(<tmp>/c4.txt) --d 3 --depth 4 --sweeps 3 --replicas 50"
    " --seed 7",
    "entropy-check --kernel uniform(2) --d 3 --bits",
    "entropy-check --kernel walk(<tmp>/c70.txt) --d 3",
    "counterexample --k 70 --q-deg 4 --d 3",
    "counterexample --k 60 --q-deg 4 --d 3",
    "graph-sample --n 20 --d 3 --seed 6 --girth-l 3 --out <tmp>/sampled.txt",
    "graph-sample --n 8 --d 3 --seed 1 --multigraph --girth-l 2",
    "graph-sample --n 60 --d 3 --seed 2 --multigraph --girth-l 6",
    "entlem-check --sizes 4",
    "eigen-quantize --graph <tmp>/cubic40.txt --which 0 --levels 1 --seed 0",
    "eigen-quantize --graph <tmp>/cubic40.txt --which 1 --levels 2 --seed 3",
    "local-distance --graph-a <tmp>/k4.txt --graph-b <tmp>/k33.txt --r-max 2 --k-max 2",
    "local-distance --graph-a <tmp>/k4.txt --graph-b <tmp>/k33.txt --r-max 1 --k-max 2"
    " --coloring-budget 8 --samples 5 --seed 3",
    "local-distance --graph-a <tmp>/cubic10.txt --graph-b <tmp>/k33.txt --r-max 1 --k-max 2",
    "local-distance --graph-a <tmp>/cubic40.txt --graph-b <tmp>/cubic10.txt --r-max 2 --k-max 2"
    " --samples 20 --seed 3",
    "local-distance --graph-a <tmp>/k33.txt --graph-b <tmp>/prism.txt --r-max 2 --k-max 2",
    "local-distance --graph-a <tmp>/q3.txt --graph-b <tmp>/cubic8.txt --r-max 2 --k-max 2",
    "covering-min --graph <tmp>/k4.txt --matrix <tmp>/m2.txt",
    "covering-min --graph <tmp>/cubic10.txt --matrix m1",
    "covering-min --graph <tmp>/cubic10.txt --matrix m1 --budget 10 --restarts 2 --seed 1",
    "epsilon0 --family dominating --d 3",
    "epsilon0 --family independence --d 4",
    "epsilon0 --matrix <tmp>/m3.txt",
    "epsilon0 --family dominating --d 60",
    "dominating-table --d-from 3 --d-to 4 --csv <tmp>/table.csv --text <tmp>/table.txt",
]


def write_inputs(tmp: Path) -> None:
    """The graph, kernel and matrix files the cases read."""
    write_graph(complete_graph(4), tmp / "k4.txt")
    write_graph(complete_bipartite(3, 3), tmp / "k33.txt")
    write_graph(graph_from_edges(6, 3, PRISM), tmp / "prism.txt")
    write_graph(graph_from_edges(8, 3, CUBE), tmp / "q3.txt")
    write_graph(circulant_graph(70, [1, 2]), tmp / "c70.txt")
    write_graph(circulant_graph(4, [1]), tmp / "c4.txt")
    write_graph(sample_regular_graph(10, 3, True, np.random.default_rng(2)), tmp / "cubic10.txt")
    write_graph(sample_regular_graph(8, 3, True, np.random.default_rng(2)), tmp / "cubic8.txt")
    write_graph(sample_regular_graph(40, 3, True, np.random.default_rng(0)), tmp / "cubic40.txt")
    (tmp / "kernel.txt").write_text("0.7 0.3\n0.3 0.7\n")
    w = np.array(SPARSE_WEIGHTS, dtype=float)
    write_kernel(kernel_from_matrix(w / w.sum(axis=1, keepdims=True)), tmp / "sparse.txt")
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


def run_demo(path: Path) -> str:
    """Stdout of one demo script run in this process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")
    return stdout.getvalue()


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


# the warning each case must emit; warnings are errors elsewhere
WARNINGS = {
    "glauber-converge --kernel potts(3,0.3) --d 4 --depth 3 --sweeps 3 --replicas 300"
    " --seed 7": "no contraction guarantee",
}


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, inputs, golden):
    with (pytest.warns(UserWarning, match=WARNINGS[case]) if case in WARNINGS
          else contextlib.nullcontext()):
        assert run_case(case, inputs) == golden[case]


def test_golden_covers_every_demo():
    assert sorted(json.loads(GOLDEN_DEMOS.read_text())) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_output(path):
    assert run_demo(path) == json.loads(GOLDEN_DEMOS.read_text())[path.name]


def regenerate(path: Path, records: dict) -> None:
    """Write ``records`` to ``path`` and print each entry that is new, changed or gone."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for name in sorted(old.keys() | records.keys()):
        if old.get(name) != records.get(name):
            status = "new" if name not in old else "gone" if name not in records else "changed"
            print(f"{path.name}: {status}: {name}")
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        write_inputs(Path(tmpdir))
        regenerate(GOLDEN, {case: run_case(case, Path(tmpdir)) for case in CASES})
    regenerate(GOLDEN_DEMOS, {path.name: run_demo(path) for path in DEMOS})
