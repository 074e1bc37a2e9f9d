"""Fuzzing of the three file readers and the subcommands that read their files.

On generated text, ``read_graph``, ``load_kernel`` and ``read_covering_matrix``
either load or raise ``ValueError``, and ``cli.run`` on such a file exits 0 or
2, never with a traceback.  Sizes stay small, so every run is quick and no
exact search meets its budget.
"""

import contextlib
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treelab.cli import run  # noqa: E402
from treelab.covering import read_covering_matrix  # noqa: E402
from treelab.graphs import complete_graph, read_graph, write_graph  # noqa: E402
from treelab.kernels import load_kernel  # noqa: E402

SMALL = st.integers(-2, 6).map(str)
TOKEN = st.one_of(
    SMALL,
    st.sampled_from(["0", "1", "0.5", "0.25", "1.0", "-0", "1e400", "nan", "-inf", "#",
                     "99999999999999999999", "3.5", "x"]),
    st.text(max_size=3),
)
# free-form lines, and lines shaped like the formats: a pair header over rows of small ints
LOOSE = st.lists(st.lists(TOKEN, max_size=4).map(" ".join), max_size=8)
SHAPED = st.tuples(st.tuples(SMALL, SMALL).map(" ".join),
                   st.lists(st.lists(st.one_of(SMALL, TOKEN), min_size=1, max_size=3)
                            .map(" ".join), max_size=8)).map(lambda t: [t[0], *t[1]])
KERNEL_ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(["0", "1", "0.5", "0.25", "0.75", "1.0", "nan", "-0.5"]),
             min_size=k, max_size=k).map(" ".join), min_size=1, max_size=k + 1))
TEXT = st.one_of(LOOSE, SHAPED).map("\n".join)

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("fuzz")
    write_graph(complete_graph(4), tmp / "k4.txt")
    return tmp


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def loads_or_value_error(reader, path) -> None:
    try:
        reader(path)
    except ValueError:
        pass


@FUZZ
@given(text=TEXT)
def test_graph_files(work, text):
    path = work / "graph.txt"
    path.write_text(text)
    loads_or_value_error(read_graph, path)
    for argv in (["spectral", "--kernel", f"walk({path})"],
                 ["covering-min", "--graph", str(path), "--matrix", "m1"],
                 ["eigen-quantize", "--graph", str(path), "--which", "0", "--levels", "1",
                  "--seed", "0"],
                 ["local-distance", "--graph-a", str(path), "--graph-b", str(path),
                  "--r-max", "1", "--k-max", "1"]):
        assert exit_code(argv) in (0, 2), argv


@FUZZ
@given(text=st.one_of(TEXT, KERNEL_ROWS.map("\n".join)))
def test_kernel_files(work, text):
    path = work / "kernel.txt"
    path.write_text(text)
    loads_or_value_error(load_kernel, path)
    for argv in (["spectral", "--kernel", str(path)],
                 ["dobrushin", "--kernel", str(path), "--d", "3"]):
        assert exit_code(argv) in (0, 2), argv


@FUZZ
@given(text=TEXT)
def test_covering_matrix_files(work, text):
    path = work / "matrix.txt"
    path.write_text(text)
    loads_or_value_error(read_covering_matrix, path)
    for argv in (["epsilon0", "--matrix", str(path)],
                 ["covering-min", "--graph", str(work / "k4.txt"), "--matrix", str(path)]):
        assert exit_code(argv) in (0, 2), argv
