#!/usr/bin/env python3
"""Reference figures for the benchmark README, measured one at a time.

    python3 bench/reference.py            # sweeps, memory, one symmetric ball (~1 min)
    python3 bench/reference.py --long     # adds ball_distribution of a monochrome
                                          # colouring, n=1000, r=3 (over 10 min)

Each figure is printed as one JSON line.  The sweep breakdown calls private
helpers of ``treelab.glauber`` to split one sweep into its phases; the memory
figures run ``fixed_point_test`` with one full replica chunk in a child
process each, so that each peak is that of one configuration alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import treelab as tl  # noqa: E402
from treelab import glauber  # noqa: E402
from treelab.localstats import _extract_ball  # noqa: E402


def _emit(name: str, **fields) -> None:
    print(json.dumps({"figure": name, **fields}), flush=True)


def sweep_breakdown(kernel, label: str, replicas: int = 2048, repeats: int = 5) -> None:
    """Median time of one heat-bath sweep at d=3, depth 8, split into phases."""
    tree = tl.build_tree(3, 8)
    rng = np.random.default_rng(1)
    states = tl.sample_bmc_batch(kernel, tree, rng, replicas)
    mask_t, laws_t, draw_t, total_t = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        labels = rng.random(states.shape)
        member = glauber._waking_mask(tree, labels)
        t1 = time.perf_counter()
        v_idx, r_idx, probs = glauber._member_weights(states, member, tree, kernel)
        t2 = time.perf_counter()
        states[v_idx, r_idx] = glauber._draw_rows(probs, rng.random(v_idx.size))
        t3 = time.perf_counter()
        mask_t.append(t1 - t0)
        laws_t.append(t2 - t1)
        draw_t.append(t3 - t2)
        total_t.append(t3 - t0)
    sites = tree.n * replicas
    total = float(np.median(total_t))
    _emit(f"sweep.{label}", k=kernel.state_count, replicas=replicas,
          ns_per_site=total / sites * 1e9,
          mask_share=float(np.median(mask_t)) / total,
          laws_and_draw_share=(float(np.median(laws_t)) + float(np.median(draw_t))) / total)


def _peak_child(kernel_spec: str) -> float:
    code = (
        "import resource, sys, numpy as np\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import treelab as tl\n"
        f"k = {kernel_spec}\n"
        "tl.fixed_point_test(k, 3, 8, 1, 2048, np.random.default_rng(1))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_memory() -> None:
    """Peak RSS of a process running one 2048-replica chunk of fixed_point_test."""
    _emit("peak_rss_mb.ising", value=_peak_child("tl.make_ising(0.25)"))
    _emit("peak_rss_mb.walk70",
          value=_peak_child("tl.make_walk_kernel(tl.circulant_graph(70, [1, 2]))"))


def _tree_root(graph, r: int) -> int:
    for v in range(graph.n):
        edges, colors = _extract_ball(graph, [0] * graph.n, v, r)
        if len(edges) == len(colors) - 1 and len(colors) == 22:
            return v
    raise RuntimeError("no tree ball in this graph")


def symmetric_ball() -> None:
    """canonical_ball of one monochrome radius-3 ball of the cubic tree (22 vertices)."""
    graph = tl.sample_regular_graph(1000, 3, True, np.random.default_rng(1))
    edges, colors = _extract_ball(graph, [0] * graph.n, _tree_root(graph, 3), 3)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        tl.canonical_ball(edges, colors, 0)
        times.append(time.perf_counter() - t0)
    _emit("canonical_ball.symmetric_r3", seconds=float(np.median(times)))


def monochrome_distribution() -> None:
    graph = tl.sample_regular_graph(1000, 3, True, np.random.default_rng(1))
    t0 = time.perf_counter()
    dist = tl.ball_distribution(graph, [0] * graph.n, 3)
    _emit("ball_distribution.monochrome_n1000_r3", seconds=time.perf_counter() - t0,
          classes=len(dist))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--long", action="store_true", help="also run the >10 min case")
    args = parser.parse_args()
    _emit("machine", nproc=os.cpu_count(), python=sys.version.split()[0],
          numpy=np.__version__)
    # first, while this process is small: a child's peak RSS starts from the
    # peak of the process it was forked from
    peak_memory()
    sweep_breakdown(tl.make_ising(0.25), "ising")
    sweep_breakdown(tl.make_walk_kernel(tl.circulant_graph(70, [1, 2])), "walk70")
    symmetric_ball()
    if args.long:
        monochrome_distribution()
    _emit("self.peak_rss_mb", value=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
