"""The four benchmark workloads: inputs, timed operations and output checks.

A workload builds its inputs from the seed (``build``), lists the operations
of one round (``ops``) and checks the outputs of a round against the oracles
(``check``).  Every operation is one call into treelab, or one CLI command,
and constructs its own random generator from a seed fixed at build time, so
every round repeats the same work and gives bitwise the same outputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as O
import treelab as tl
from treelab import cli


@dataclass(frozen=True)
class Op:
    """One timed call.  ``fn(outs, tracer)`` sees the outputs of earlier ops.

    ``fault`` names a known defect: the op passes only once treelab rejects
    the input with exit code 2 and a message, and counts as failed until then.
    """

    key: str
    span: str
    fn: Callable[[dict, Any], Any]
    attrs: dict = field(default_factory=dict)
    fault: str | None = None


@dataclass(frozen=True)
class CliResult:
    argv: tuple
    rc: int
    stdout: str
    stderr: str
    payload: dict | None  # stdout parsed as strict JSON; None when it does not parse


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    text = out.getvalue()
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        payload = None
    return CliResult(tuple(argv), rc, text, err.getvalue(), payload)


def op_succeeded(op: Op, value) -> bool:
    if isinstance(value, Exception):
        return False
    if isinstance(value, CliResult):
        if op.fault:
            return value.rc == 2 and not value.stdout and "error" in value.stderr
        return value.rc == 0 and isinstance(value.payload, dict)
    return True


def fingerprint(value) -> Any:
    """What must repeat bitwise between rounds (CLI stderr may carry warnings once)."""
    if isinstance(value, CliResult):
        return (value.rc, value.stdout)
    if isinstance(value, Exception):
        return repr(value)
    return value


def _seeds(seed: int, name: str, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(x) for x in ss.generate_state(count)]


def _rng(s: int) -> np.random.Generator:
    return np.random.default_rng(s)


def _tree_adjacency(tree) -> list[list[int]]:
    return [[int(w) for w in tree.neighbors[v, : tree.neighbor_count[v]]] for v in range(tree.n)]


class _Problems(list):
    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)


def _close(a, b, tol: float = 1e-12) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# sweep-ising and sweep-walk70: the heat-bath sweep and the chain sampler
# ---------------------------------------------------------------------------

class SweepWorkload:
    """Glauber and trees code at d=3 on one chain."""

    provides = {
        "glauber.sweep_ns_per_site", "glauber.coupled_sweep_ns_per_site",
        "glauber.fixed_point_test.s", "glauber.estimate_hamming_decay.s",
        "glauber.woken_fraction", "glauber.woken_fraction.base",
        "trees.sample_bmc_batch.ns_per_site",
    }
    D = 3

    def __init__(self, name: str, sizes: dict, deep: bool):
        self.name = name
        self.sizes = sizes
        self.deep = deep
        if deep:
            self.provides = self.provides | {"glauber.converge_from_iid.s",
                                             "trees.build_tree.ns_per_vertex"}
        else:
            self.provides = self.provides | {"kernels.dobrushin_coefficient.ms"}

    def kernel(self):
        if self.deep:
            return tl.make_ising(0.25)
        return tl.make_walk_kernel(tl.circulant_graph(70, [1, 2]))

    def build(self, seed: int, workdir: str) -> dict:
        z = self.sizes
        s = _seeds(seed, self.name, 8)
        kernel = self.kernel()
        wake_tree = tl.build_tree(self.D, z["wake_depth"])
        rng = _rng(s[0])
        labels = [tl.sample_uniform_labels(wake_tree, rng) for _ in range(z["wake_fields"])]
        return {"z": z, "s": s, "kernel": kernel, "tree": tl.build_tree(self.D, z["depth"]),
                "wake_tree": wake_tree, "labels": labels}

    def ops(self, inp: dict) -> list[Op]:
        z, s, k, d = inp["z"], inp["s"], inp["kernel"], self.D
        tree = inp["tree"]
        sites = tree.n
        ops = []
        for S in (z["fp_sweeps"], 0):
            ops.append(Op(f"fp{S}", "glauber.fixed_point_test",
                          lambda o, t, S=S: tl.fixed_point_test(k, d, z["depth"], S, z["fp_reps"],
                                                                _rng(s[1])),
                          {"sweeps": S, "sites": sites * z["fp_reps"]}))
        for S in (z["decay_sweeps"], 0):
            ops.append(Op(f"decay{S}", "glauber.estimate_hamming_decay",
                          lambda o, t, S=S: tl.estimate_hamming_decay(k, d, z["depth"], S,
                                                                      z["decay_reps"], _rng(s[2])),
                          {"sweeps": S, "sites": sites * z["decay_reps"]}))
        if self.deep:
            ops.append(Op("conv", "glauber.converge_from_iid",
                          lambda o, t: tl.converge_from_iid(k, d, z["conv_depth"], z["conv_sweeps"],
                                                            z["conv_reps"], _rng(s[3])),
                          {"sweeps": z["conv_sweeps"]}))
        else:
            ops.append(Op("dob", "kernels.dobrushin_coefficient",
                          lambda o, t: tl.dobrushin_coefficient(k, d)))
        ops.append(Op("batch", "trees.sample_bmc_batch",
                      lambda o, t: tl.sample_bmc_batch(k, tree, _rng(s[4]), z["batch_reps"]),
                      {"sites": sites * z["batch_reps"]}))

        def chain_sweeps(o, t):
            """Exact draws, each swept ``chain_sweeps`` times; (n, configs) states."""
            rng = _rng(s[6])
            out = []
            for _ in range(z["chain_configs"]):
                config = tl.sample_bmc(k, tree, rng)
                for _ in range(z["chain_sweeps"]):
                    config = tl.glauber_sweep(config, k, rng)
                out.append(config.states)
            return np.stack(out, axis=1)
        ops.append(Op("swept", "glauber.glauber_sweep", chain_sweeps,
                      {"sites": sites * z["chain_configs"] * z["chain_sweeps"]}))
        ops.append(Op("waking", "glauber.waking_set",
                      lambda o, t: [tl.waking_set(inp["wake_tree"], lab) for lab in inp["labels"]],
                      {"sites": inp["wake_tree"].n * len(inp["labels"])}))
        if self.deep:
            ops.append(Op("deep_tree", "trees.build_tree",
                          lambda o, t: tl.build_tree(d, z["deep"], max_vertices=10**7),
                          {"vertices": O.tree_vertex_count(d, z["deep"])}))
            ops.append(Op("deep_sample", "trees.sample_bmc",
                          lambda o, t: tl.sample_bmc(k, o["deep_tree"], _rng(s[5]))))
        return ops

    def _interior(self, tree) -> np.ndarray:
        # radius-2 balls are complete down to depth R-2, where the waking
        # probability is exactly 1/(d^2+1)
        return np.asarray(tree.depth_of) <= tree.depth - 2

    def check(self, inp: dict, outs: dict) -> list[str]:
        z, k, d = inp["z"], inp["kernel"], self.D
        p = _Problems()
        for S in (z["fp_sweeps"], 0):
            rep = outs[f"fp{S}"]
            p.expect(rep.tv_vertex < 3 * rep.floor_vertex and rep.tv_edge < 3 * rep.floor_edge,
                     f"fixed point at {S} sweeps: tv {rep.tv_vertex:.3g}/{rep.tv_edge:.3g} "
                     f"vs 3x floor {rep.floor_vertex:.3g}/{rep.floor_edge:.3g}")
            p.expect(rep.tv_star is None or rep.tv_star < 3 * rep.floor_star,
                     f"fixed point star law at {S} sweeps: {rep.tv_star} vs {rep.floor_star}")
        # The floor takes the replica count as the sample size; at k=70 three
        # times the edge floor is above 1 and cannot fail.  Both reports start
        # from the same exact draws, and a law-preserving sweep kept their TVs
        # within 0.006 of each other (20 seeds at k=70, 10 at k=2).  Faulty
        # sweeps raised the edge TV by 0.06 (k=2, members redrawn uniformly)
        # and 0.065 (k=70, laws that see one neighbour only).
        fp, fp0 = outs[f"fp{z['fp_sweeps']}"], outs["fp0"]
        p.expect(fp.tv_vertex <= fp0.tv_vertex + FIXED_POINT_SLACK
                 and fp.tv_edge <= fp0.tv_edge + FIXED_POINT_SLACK,
                 f"sweeps moved the fixed-point TV from {fp0.tv_vertex:.3g}/{fp0.tv_edge:.3g} "
                 f"to {fp.tv_vertex:.3g}/{fp.tv_edge:.3g}")
        dob_exact = O.dobrushin_brute(k.q, k.pi, d)
        if self.deep:
            p.expect(_close(dob_exact, O.ising_dobrushin(0.25, d)), "brute Dobrushin != |theta|")
        decay, decay0 = outs[f"decay{z['decay_sweeps']}"], outs["decay0"]
        p.expect(_close(decay.dobrushin, dob_exact), f"decay Dobrushin {decay.dobrushin} != {dob_exact}")
        p.expect(np.isfinite(decay.rate) and decay.rate <= decay.contraction_bound + 0.02,
                 f"contraction rate {decay.rate} above 1 - p(1 - dD) = {decay.contraction_bound}")
        p.expect(_close(decay.contraction_bound, 1 - (1 - d * dob_exact) / (d * d + 1)),
                 "contraction bound is not 1 - p(1 - dD)")
        mix0 = O.sweep0_disagreement(k.pi)
        p.expect(abs(decay.mean_distance[0] - mix0) <= 5 * decay.stderr[0] + 1e-12,
                 f"sweep-0 disagreement {decay.mean_distance[0]} vs 1 - sum pi^2 = {mix0}")
        p.expect(decay0.mean_distance[0] == decay.mean_distance[0],
                 "same seed, different sweep-0 disagreement")
        if self.deep:
            conv = outs["conv"]
            p.expect(abs(conv.mean_distance[0] - (1 - 1 / k.state_count))
                     <= 5 * conv.stderr[0] + 1e-12, "convergence start is not 1 - 1/k")
            limit = conv.mean_distance[0] * (decay.contraction_bound + 0.02) ** z["conv_sweeps"]
            p.expect(conv.final_distance <= limit + 5 * conv.final_stderr,
                     f"converge_from_iid ends at {conv.final_distance}, above {limit}")
        else:
            p.expect(_close(outs["dob"], dob_exact), f"Dobrushin {outs['dob']} != brute {dob_exact}")
        self._check_chain(p, "chain sample", k, inp["tree"], outs["batch"])
        self._check_chain(p, "swept chain sample", k, inp["tree"], outs["swept"])
        wake_tree = inp["wake_tree"]
        adj = _tree_adjacency(wake_tree)
        for ws in outs["waking"]:
            members = set(np.flatnonzero(ws.member).tolist())
            close = any(u in members or (set(adj[u]) - {v}) & members
                        for v in members for u in adj[v])
            p.expect(not close, "waking set is not 3-separated")
        frac, base = self.woken(inp, outs)
        wake = 1 / (d * d + 1)
        p.expect(abs(frac - wake) <= 6 * math.sqrt(wake * (1 - wake) / base),
                 f"woken fraction {frac} vs 1/(d^2+1) over {base} sites")
        if self.deep:
            tree = outs["deep_tree"]
            p.expect(tree.n == O.tree_vertex_count(d, z["deep"]), "deep tree vertex count")
            levels = np.bincount(np.asarray(tree.depth_of))
            p.expect(levels.tolist() == [1] + [d * (d - 1) ** (e - 1) for e in range(1, z["deep"] + 1)],
                     "deep tree level sizes")
            # two-state symmetric chain: each child agrees with its parent
            # independently with probability (1 + theta) / 2
            states = outs["deep_sample"].states
            child = np.arange(1, tree.n)
            agree = float((states[child] == states[np.asarray(tree.parent)[child]]).mean())
            q = float(k.q[0, 0])
            p.expect(abs(agree - q) <= 6 * math.sqrt(q * (1 - q) / child.size),
                     f"deep sample agreement {agree} vs (1 + theta)/2 = {q}")
        return p

    @staticmethod
    def _check_chain(p: _Problems, what: str, kernel, tree, states: np.ndarray) -> None:
        """Exact chain samples, one column each: every parent-child pair has
        q[s, t] > 0, and the offsets t - s (mod k) of a circulant kernel are
        independent draws from its offset law, so all edges of all columns
        count as the sample size."""
        kk = kernel.state_count
        if not (states.ndim == 2 and states.shape[0] == tree.n
                and states.min() >= 0 and states.max() < kk):
            p.append(f"{what} has the wrong shape or states")
            return
        child = np.arange(1, tree.n)
        parents, children = states[np.asarray(tree.parent)[child]], states[child]
        p.expect(bool(np.all(kernel.q[parents, children] > 0)),
                 f"{what} has a parent-child pair of probability zero")
        dev = O.offset_deviation(parents, children, O.circulant_offset_law(kernel.q))
        p.expect(dev <= 6, f"{what} offsets are {dev:.3g} sigma off the kernel's law")

    def woken(self, inp: dict, outs: dict) -> tuple[float, int]:
        inner = self._interior(inp["wake_tree"])
        hits = sum(int(ws.member[inner].sum()) for ws in outs["waking"])
        base = int(inner.sum()) * len(outs["waking"])
        return hits / base, base

    def output_metrics(self, inp: dict, outs: dict) -> dict:
        frac, base = self.woken(inp, outs)
        return {"glauber.woken_fraction": frac, "glauber.woken_fraction.base": base}

    def tree_share(self, inp: dict) -> tuple[float, int]:
        """Radius-1 and radius-2 balls of the sweep tree (the waking balls)."""
        return O.tree_ball_share(_tree_adjacency(inp["tree"]), (1, 2))


# how far S sweeps may move a fixed-point TV above its value at 0 sweeps
FIXED_POINT_SLACK = 0.05

SWEEP_ISING = SweepWorkload(
    "sweep-ising",
    dict(depth=8, fp_reps=256, fp_sweeps=4, decay_reps=128, decay_sweeps=20,
         conv_depth=10, conv_reps=64, conv_sweeps=12, batch_reps=1024,
         chain_configs=16, chain_sweeps=8, wake_depth=12, wake_fields=4, deep=15),
    deep=True,
)

SWEEP_WALK70 = SweepWorkload(
    "sweep-walk70",
    dict(depth=8, fp_reps=256, fp_sweeps=3, decay_reps=128, decay_sweeps=6,
         batch_reps=512, chain_configs=16, chain_sweeps=8, wake_depth=12, wake_fields=4),
    deep=False,
)


# ---------------------------------------------------------------------------
# rrg-local: random cubic graphs, balls, canonical forms, local search
# ---------------------------------------------------------------------------

def _relabelled_graph(graph, perm):
    return tl.graph_from_edges(graph.n, graph.d, [(int(perm[u]), int(perm[v]))
                                                   for u, v in graph.edges])


def _tree_roots(graph, r: int) -> list[int]:
    out = []
    for v in range(graph.n):
        order, edges = O.ball(graph.neighbors, v, r)
        if O.is_tree(len(order), edges):
            out.append(v)
    return out


def _shape(ball) -> tuple:
    """Vertex count, edge count and colour counts of an (edges, colors, root) ball."""
    edges, colors, _ = ball
    return len(colors), len(edges), tuple(sorted(Counter(colors).items()))


def _nx_classes(balls) -> list[int]:
    """Sizes of the isomorphism classes of (edges, colors, root) balls, sorted."""
    reps: list[tuple[tuple, list]] = []  # (shape, balls of one class)
    for b in balls:
        inv = _shape(b)
        for key, members in reps:
            if key == inv and O.balls_isomorphic(members[0], b):
                members.append(b)
                break
        else:
            reps.append((inv, [b]))
    return sorted(len(m) for _, m in reps)


def _mono_ball(graph, v: int, r: int):
    order, edges = O.ball(graph.neighbors, v, r)
    return edges, [0] * len(order), 0


class RrgLocalWorkload:
    name = "rrg-local"
    provides = {
        "graphs.sample_regular_graph.ms", "graphs.girth_profile.us_per_vertex",
        "localstats.ball_distribution.r1.ms_per_root", "localstats.ball_distribution.r2.ms_per_root",
        "localstats.ball_distribution.r3.ms_per_root",
        "localstats.canonical_ball.symmetric.ms_per_ball", "covering.min_error_local_search.s",
    }
    sizes = dict(samples=10, n_sample=200, n_girth=200, girth_l=6, n_balls=50,
                 n_mono3=50, n_small=12, small_restarts=3)

    def build(self, seed: int, workdir: str) -> dict:
        z = self.sizes
        s = _seeds(seed, self.name, 12)
        rng = _rng(s[0])
        g_girth = tl.sample_regular_graph(z["n_girth"], 3, True, _rng(s[1]))
        g = tl.sample_regular_graph(z["n_balls"], 3, True, _rng(s[2]))
        col = rng.integers(0, 2, size=g.n).tolist()
        perm = rng.permutation(g.n)
        g_perm = _relabelled_graph(g, perm)
        col_perm = [0] * g.n
        for v in range(g.n):
            col_perm[int(perm[v])] = col[v]
        # a pairing-model graph with exactly one tree-shaped radius-3 ball,
        # so each round canonizes one monochrome ball of the cubic tree
        # inside ball_distribution and the rest of the work stays small.
        # Monochrome balls cost as much as their symmetries, which differ
        # threefold between draws, so this graph is drawn from a fixed seed
        # and every run does the same monochrome work.
        cand = _rng(_seeds(0, f"{self.name}/mono", 1)[0])
        for _ in range(10_000):
            g_mono3 = tl.sample_regular_graph(z["n_mono3"], 3, True, cand)
            roots = _tree_roots(g_mono3, 3)
            if len(roots) == 1:
                break
        else:
            raise RuntimeError("no graph with exactly one tree-shaped radius-3 ball")
        edges, colors, root = _mono_ball(g_mono3, roots[0], 3)
        sym = O.relabel(edges, colors, root, rng.permutation(len(colors)))
        return {
            "z": z, "s": s, "g_girth": g_girth, "g": g, "col": col, "g_perm": g_perm,
            "col_perm": col_perm, "g_mono3": g_mono3, "sym": sym,
            "g_small": tl.sample_regular_graph(z["n_small"], 3, True, _rng(s[4])),
            "matrices": {"dom": tl.dominating_matrix(3), "bip": tl.bipartite_matrix(3)},
        }

    def ops(self, inp: dict) -> list[Op]:
        z, s, g = inp["z"], inp["s"], inp["g"]
        ops = [Op(f"sample{i}", "graphs.sample_regular_graph",
                  lambda o, t, i=i: tl.sample_regular_graph(z["n_sample"], 3, True, _rng(s[5] + i)),
                  {"n": z["n_sample"]}) for i in range(z["samples"])]
        ops.append(Op("girth", "graphs.girth_profile",
                      lambda o, t: tl.girth_profile(inp["g_girth"], z["girth_l"]),
                      {"vertices": inp["g_girth"].n}))
        g3 = inp["g_mono3"]
        mono = [0] * g3.n
        for r in (1, 2, 3):
            ops.append(Op(f"bd{r}", "localstats.ball_distribution",
                          lambda o, t, r=r: tl.ball_distribution(g, inp["col"], r),
                          {"r": r, "roots": g.n, "mono": False}))
            ops.append(Op(f"bdp{r}", "localstats.ball_distribution",
                          lambda o, t, r=r: tl.ball_distribution(inp["g_perm"], inp["col_perm"], r),
                          {"r": r, "roots": g.n, "mono": False}))
            ops.append(Op(f"tv{r}", "localstats.tv_distance",
                          lambda o, t, r=r: tl.tv_distance(o[f"bd{r}"], o[f"bdp{r}"])))
        for r in (1, 2):
            ops.append(Op(f"mono{r}", "localstats.ball_distribution",
                          lambda o, t, r=r: tl.ball_distribution(g3, mono, r),
                          {"r": r, "roots": g3.n, "mono": True}))
        # monochrome tree balls are the symmetric ones, whose cost the "sym"
        # op reports; the per-root metrics leave them out
        ops.append(Op("mono3", "localstats.ball_distribution",
                      lambda o, t: tl.ball_distribution(g3, mono, 3),
                      {"r": 3, "roots": g3.n, "mono": True}))
        ops.append(Op("sym", "localstats.canonical_ball",
                      lambda o, t: tl.canonical_ball(*inp["sym"]), {"symmetric": True}))
        for name, mat in inp["matrices"].items():
            ops.append(Op(f"ls_{name}", "covering.min_error_local_search",
                          lambda o, t, mat=mat: tl.min_error_local_search(g, mat, 1, _rng(s[6])),
                          {"n": g.n}))
            ops.append(Op(f"ls_small_{name}", "covering.min_error_local_search",
                          lambda o, t, mat=mat: tl.min_error_local_search(
                              inp["g_small"], mat, z["small_restarts"], _rng(s[7])),
                          {"n": inp["g_small"].n}))
        return ops

    def check(self, inp: dict, outs: dict) -> list[str]:
        z, g = inp["z"], inp["g"]
        p = _Problems()
        for i in range(z["samples"]):
            h = outs[f"sample{i}"]
            deg = Counter(v for e in h.edges for v in e)
            p.expect(h.simple and len(set(map(frozenset, h.edges))) == len(h.edges)
                     and all(u != v for u, v in h.edges)
                     and all(deg[v] == 3 for v in range(h.n)), f"sample {i} is not simple cubic")
        gg = inp["g_girth"]
        p.expect(outs["girth"] == O.short_cycle_fraction(gg.n, gg.edges, z["girth_l"]),
                 "girth_profile disagrees with the BFS short-cycle count")
        for key in ("bd1", "bd2", "bd3", "mono1", "mono2", "mono3"):
            dist = outs[key]
            n = inp["g_mono3"].n if key.startswith("mono") else g.n
            counts = [v * n for v in dist.values()]
            p.expect(abs(sum(dist.values()) - 1) < 1e-9
                     and all(abs(c - round(c)) < 1e-9 for c in counts),
                     f"{key}: probabilities are not counts over {n} roots")
        for r in (1, 2, 3):
            p.expect(outs[f"tv{r}"] == 0.0, f"relabelled graph gives TV {outs[f'tv{r}']} at r={r}")
        g3 = inp["g_mono3"]
        for key, graph, r in (("mono1", g3, 1), ("mono2", g3, 2), ("mono3", g3, 3)):
            classes = _nx_classes([_mono_ball(graph, v, r) for v in range(graph.n)])
            got = sorted(round(v * graph.n) for v in outs[key].values())
            p.expect(classes == got, f"{key}: class sizes {got} vs networkx {classes}")
        self._check_codes(p, inp, outs["bd2"])
        code = outs["sym"]
        p.expect(outs["mono3"].get(code) == 1 / g3.n,
                 "relabelled tree ball's code is not the single tree class of the r=3 law")
        for name, mat in inp["matrices"].items():
            for graph, key in ((g, f"ls_{name}"), (inp["g_small"], f"ls_small_{name}")):
                ratio, witness = outs[key]
                errors = int(O.covering_errors(graph.neighbors, mat.mat, witness)[0])
                p.expect(errors / graph.n == ratio, f"{key}: witness has {errors} errors, ratio {ratio}")
            low = O.covering_min_brute(inp["g_small"].neighbors, mat.mat)
            p.expect(round(outs[f"ls_small_{name}"][0] * inp["g_small"].n) >= low * inp["g_small"].n,
                     f"local search {outs[f'ls_small_{name}'][0]} below the exact minimum {low}")
        return p

    @staticmethod
    def _check_codes(p: _Problems, inp: dict, dist2: dict) -> None:
        """Equal codes must be isomorphic balls and unequal codes must not, and
        the per-root codes must add up to the r=2 law."""
        g, col = inp["g"], inp["col"]
        balls = []
        for v in range(g.n):
            order, edges = O.ball(g.neighbors, v, 2)
            balls.append((edges, [col[u] for u in order], 0))
        codes = [tl.canonical_ball(*b) for b in balls]
        rng = _rng(inp["s"][8])
        groups: dict = {}
        for i, c in enumerate(codes):
            groups.setdefault(c, []).append(i)
        same = [m for m in groups.values() if len(m) > 1]
        for m in same[:8]:
            i, j = rng.choice(m, size=2, replace=False)
            p.expect(O.balls_isomorphic(balls[i], balls[j]), "equal codes, non-isomorphic balls")
        tried = 0
        for i, j in itertools.combinations(range(g.n), 2):
            if tried == 8:
                break
            if codes[i] != codes[j] and _shape(balls[i]) == _shape(balls[j]):
                tried += 1
                p.expect(not O.balls_isomorphic(balls[i], balls[j]),
                         "unequal codes, isomorphic balls")
        p.expect(tried > 0, "no unequal-code pair of equal shape to test")
        counts = Counter(codes)
        p.expect({c: n / g.n for c, n in counts.items()} == dist2,
                 "r=2 law differs from per-root canonical codes")

    def output_metrics(self, inp: dict, outs: dict) -> dict:
        return {}

    def tree_share(self, inp: dict) -> tuple[float, int]:
        parts = [O.tree_ball_share(inp["g"].neighbors, (1, 2, 3)),
                 O.tree_ball_share(inp["g_perm"].neighbors, (1, 2, 3)),
                 O.tree_ball_share(inp["g_mono3"].neighbors, (1, 2, 3)),
                 (1.0, 1)]  # the relabelled symmetric ball
        base = sum(b for _, b in parts)
        return sum(s * b for s, b in parts) / base, base


# ---------------------------------------------------------------------------
# exact-cli: the exact subcommands through treelab.cli.run
# ---------------------------------------------------------------------------

PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
# K4 with vertex 3 written as -1: a valid file would have to be refused
BAD_K4 = "4 3\n0 1\n0 2\n0 -1\n1 2\n1 -1\n2 -1\n"


def _symmetric_doubly_stochastic(k: int, rng) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, (k, k))
    w = w + w.T
    for _ in range(200):
        r = w.sum(axis=1)
        w = w / np.sqrt(r[:, None] * r[None, :])
    return (w + w.T) / 2


class ExactCliWorkload:
    name = "exact-cli"
    provides = {
        "kernels.dobrushin_coefficient.ms", "graphs.matching_identity_check.ms",
        "localstats.dcn_estimate.ms", "covering.min_error_exact.ms", "covering.epsilon0.ms",
        "cli.run.ms", "cli.overhead_ms", "cli.stdout_bytes",
    }
    # exact covering search on n=12 took 14-78 ms by graph; two n=10 graphs
    # keep the seeded work within a few ms of each other
    sizes = dict(sample_n=100, cover_n=(10, 10))

    def build(self, seed: int, workdir: str) -> dict:
        z = self.sizes
        s = _seeds(seed, self.name, 8)
        rng = _rng(s[0])
        theta = round(float(rng.uniform(0.1, 0.9)) * float(rng.choice([-1, 1])), 4)
        potts = (int(rng.integers(3, 8)), round(float(rng.uniform(0.05, 0.95)), 4))
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        graphs = {
            "circ70": tl.circulant_graph(70, [1, 2]),
            "circ10": tl.circulant_graph(10, [1, 2]),
            "k4": tl.complete_graph(4),
            "k4p": _relabelled_graph(tl.complete_graph(4), rng.permutation(4)),
            "k33": tl.complete_bipartite(3, 3),
            "prism": tl.graph_from_edges(6, 3, PRISM),
        }
        for i, n in enumerate(z["cover_n"]):
            graphs[f"rand{i}"] = tl.sample_regular_graph(n, 3, True, _rng(s[1] + i))
        for name, graph in graphs.items():
            tl.write_graph(graph, path(f"{name}.txt"))
        with open(path("bad.txt"), "w") as fh:
            fh.write(BAD_K4)
        kq = _symmetric_doubly_stochastic(4, rng)
        with open(path("kernel4.txt"), "w") as fh:
            fh.write("".join(" ".join(repr(float(x)) for x in row) + "\n" for row in kq))
        return {"z": z, "s": s, "theta": theta, "potts": potts, "graphs": graphs,
                "path": path, "kq": kq}

    def ops(self, inp: dict) -> list[Op]:
        z, s, path = inp["z"], inp["s"], inp["path"]
        theta, (pk, pp) = inp["theta"], inp["potts"]
        ops: list[Op] = []

        def pair(key, argv, direct):
            """A CLI command and the library calls its handler makes, timed apart."""
            ops.append(Op(key, "cli.run", lambda o, t: run_cli(argv),
                          {"command": argv[0], "twin": f"{key}.direct"}))
            ops.append(Op(f"{key}.direct", "direct", direct, {"command": argv[0]}))

        def dob_direct(make):
            def fn(o, t):
                kernel = make()
                with t.span("kernels.dobrushin_coefficient"):
                    return tl.dobrushin_coefficient(kernel, 3)
            return fn

        walk10 = path("circ10.txt")
        for key, spec, make in (
                ("dob_ising", f"ising({theta})", lambda: tl.make_ising(theta)),
                ("dob_potts", f"potts({pk},{pp})", lambda: tl.make_potts(pk, pp)),
                ("dob_file", path("kernel4.txt"), lambda: tl.load_kernel(path("kernel4.txt"))),
                ("dob_walk10", f"walk({walk10})",
                 lambda: tl.make_walk_kernel(tl.read_graph(walk10)))):
            pair(key, ["dobrushin", "--kernel", spec, "--d", "3"], dob_direct(make))

        pair("spectral", ["spectral", "--kernel", f"potts({pk},{pp})"],
             lambda o, t: tl.spectral_radius(tl.make_potts(pk, pp)))

        def eps_direct(o, t):
            with t.span("covering.epsilon0"):
                return tl.epsilon0("dominating", d=3)
        pair("eps0", ["epsilon0", "--family", "dominating", "--d", "3"], eps_direct)
        pair("table", ["dominating-table", "--d-from", "3", "--d-to", "6"],
             lambda o, t: tl.dominating_table(3, 6))
        for kk in (70, 60):
            pair(f"counter{kk}", ["counterexample", "--k", str(kk), "--q-deg", "4", "--d", "3"],
                 lambda o, t, kk=kk: tl.expander_counterexample(kk, 4, 3))
        circ70 = path("circ70.txt")
        pair("entropy70", ["entropy-check", "--kernel", f"walk({circ70})", "--d", "3"],
             lambda o, t: tl.bmc_entropy_report(tl.make_walk_kernel(tl.read_graph(circ70)), 3))

        def entlem_direct(o, t):
            out = []
            for n in (4, 6):
                with t.span("graphs.matching_identity_check", n=n):
                    out.extend(tl.matching_identity_check(n))
            return out
        pair("entlem", ["entlem-check", "--sizes", "4", "6"], entlem_direct)

        corr_seed = s[2] % 10**6

        def corr_direct(o, t):
            k = tl.make_ising(0.8)
            est = tl.estimate_correlation(k, 2, [1.0, -1.0], 20000, _rng(corr_seed))
            return est, tl.classify_correlation_decay(k, 3, [1.0, -1.0], 30)
        pair("corr", ["correlation", "--kernel", "ising(0.8)", "--d", "3", "--distance", "2",
                      "--seed", str(corr_seed), "--encoding", "pm1", "--k-max", "30",
                      "--replicas", "20000"], corr_direct)

        bmc_seed = s[3] % 10**6
        pair("bmc", ["bmc-sample", "--kernel", "ising(0.5)", "--d", "3", "--depth", "6",
                     "--seed", str(bmc_seed), "--out", path("bmc_out.txt")],
             lambda o, t: tl.sample_bmc(tl.make_ising(0.5), tl.build_tree(3, 6), _rng(bmc_seed)))

        graph_seed = s[4] % 10**6
        pair("graph", ["graph-sample", "--n", str(z["sample_n"]), "--d", "3",
                       "--seed", str(graph_seed), "--girth-l", "4", "--out", path("graph_out.txt")],
             lambda o, t: tl.girth_profile(
                 tl.sample_regular_graph(z["sample_n"], 3, True, _rng(graph_seed)), 4))

        def cover_direct(name, matrix):
            def fn(o, t):
                graph = tl.read_graph(path(f"{name}.txt"))
                mat = tl.dominating_matrix(3) if matrix == "m1" else tl.bipartite_matrix(3)
                with t.span("covering.min_error_exact", n=graph.n):
                    return tl.min_error_exact(graph, mat)
            return fn
        covers = [("k4", "m2"), ("k33", "m2")] + [(f"rand{i}", m)
                                                  for i in range(len(z["cover_n"]))
                                                  for m in ("m1", "m2")]
        for name, matrix in covers:
            pair(f"cover_{name}_{matrix}",
                 ["covering-min", "--graph", path(f"{name}.txt"), "--matrix", matrix],
                 cover_direct(name, matrix))

        def dist_direct(a, b):
            def fn(o, t):
                ga, gb = tl.read_graph(path(f"{a}.txt")), tl.read_graph(path(f"{b}.txt"))
                with t.span("localstats.dcn_estimate"):
                    return tl.dcn_estimate(ga, gb, 2, 2)
            return fn
        for a, b in (("k4", "k4p"), ("k33", "prism")):
            pair(f"dist_{a}_{b}", ["local-distance", "--graph-a", path(f"{a}.txt"),
                                   "--graph-b", path(f"{b}.txt"), "--r-max", "2", "--k-max", "2"],
                 dist_direct(a, b))

        for key, argv, fault in (
                ("fault_replicas0",
                 ["glauber-fixed-point", "--kernel", "ising(0.25)", "--d", "3", "--depth", "4",
                  "--sweeps", "1", "--replicas", "0", "--seed", "1"],
                 "--replicas 0 prints NaN/Infinity and exits 0"),
                ("fault_distance",
                 ["correlation", "--kernel", "ising(0.5)", "--d", "3", "--distance", "-2",
                  "--seed", "1", "--replicas", "2000"],
                 "--distance -2 reports an estimate of 1.0 and exits 0"),
                ("fault_vertex",
                 ["spectral", "--kernel", f"walk({path('bad.txt')})"],
                 "an edge to vertex -1 is read as an edge to vertex n-1")):
            ops.append(Op(key, "cli.run", lambda o, t, argv=argv: run_cli(argv),
                          {"command": argv[0]}, fault=fault))
        return ops

    def check(self, inp: dict, outs: dict) -> list[str]:
        p = _Problems()
        z, path = inp["z"], inp["path"]
        pl = {key: v.payload for key, v in outs.items() if isinstance(v, CliResult)}
        theta, (pk, pp) = inp["theta"], inp["potts"]
        for key, q, pi in (
                ("dob_ising", tl.make_ising(theta).q, [0.5, 0.5]),
                ("dob_potts", tl.make_potts(pk, pp).q, np.full(pk, 1 / pk)),
                ("dob_file", inp["kq"], np.full(4, 0.25)),
                ("dob_walk10", tl.make_walk_kernel(inp["graphs"]["circ10"]).q, np.full(10, 0.1))):
            brute = O.dobrushin_brute(q, pi, 3)
            p.expect(_close(pl[key]["dobrushin"], brute), f"{key}: {pl[key]['dobrushin']} vs brute {brute}")
            p.expect(pl[key]["dobrushin"] == outs[f"{key}.direct"], f"{key}: CLI and library differ")
        p.expect(_close(pl["dob_ising"]["dobrushin"], O.ising_dobrushin(theta, 3)),
                 "Ising Dobrushin is not |theta|")
        p.expect(_close(pl["spectral"]["spectral_radius"], O.potts_spectral_radius(pk, pp), 1e-10),
                 "spectral radius is not |1 - pk/(k-1)|")
        e0 = pl["eps0"]
        p.expect(f"{e0['dominating_bound']:.7f}" == O.PAPER_DOMINATING_D3,
                 f"dominating bound prints {e0['dominating_bound']:.7f}")
        p.expect(e0["certificate_lo"] > 0 >= e0["certificate_hi"], "eps0 bracket does not cross")
        for row in pl["table"]["rows"]:
            ref = O.PAPER_EPS0[row["d"]]
            p.expect(abs(row["epsilon0"] - ref) / ref < 0.02, f"eps0 at d={row['d']} off the paper")
            p.expect(row["dominating_bound"] == 1 / (row["d"] + 1) + row["epsilon0"],
                     "dominating bound is not 1/(d+1) + eps0")
        p.expect([r["d"] for r in pl["table"]["rows"]] == [3, 4, 5, 6], "table rows")
        for kk in (70, 60):
            c = pl[f"counter{kk}"]
            p.expect(c["nontypical"] == O.walk_nontypical(kk, 4, 3), f"k={kk}: k^(d-2) > q^d")
            hv, he = O.walk_entropies(kk, 4)
            p.expect(_close(c["lhs"], 1.5 * he) and _close(c["rhs"], 2 * hv), f"k={kk}: lhs/rhs")
        ent = pl["entropy70"]
        hv, he = O.walk_entropies(70, 4)
        p.expect(_close(ent["h_vertex"], hv, 1e-9) and _close(ent["h_edge"], he, 1e-9),
                 "walk-70 entropies are not ln 70 and ln 70 + ln 4")
        p.expect(ent["edge_vertex"] == "FAILS", "walk-70 chain passes the edge/vertex inequality")
        recs = pl["entlem"]["records"]
        p.expect(pl["entlem"]["all_hold"] and all(r["lhs"] == r["rhs"] for r in recs),
                 "matching identity fails")
        totals = Counter()
        for r in recs:
            totals[(r["n"], tuple(r["mu_counts"]))] += r["m_f"]
        p.expect(all(v == O.double_factorial_pm(n) for (n, _), v in totals.items()),
                 "matchings per colouring do not add up to (n-1)!!")
        corr = pl["corr"]
        p.expect(_close(corr["exact"], 0.64) and abs(corr["estimate"] - 0.64) <= 5 * corr["stderr"],
                 f"correlation {corr['estimate']} vs 0.8^2")
        p.expect(corr["witness"] == O.ising_first_violation(0.8, 3, 30)
                 and corr["verdict"] == "VIOLATES", "correlation classifier witness")
        p.expect(_close(corr["bound"], O.locality_bound(2, 3)), "locality bound")
        bmc = pl["bmc"]
        n_tree = O.tree_vertex_count(3, 6)
        with open(path("bmc_out.txt")) as fh:
            lines = [tuple(map(int, line.split())) for line in fh]
        p.expect(bmc["n"] == n_tree and sum(bmc["state_counts"]) == n_tree and len(lines) == n_tree
                 and Counter(dep for dep, _, _ in lines)
                 == Counter({0: 1, **{e: 3 * 2 ** (e - 1) for e in range(1, 7)}}),
                 "bmc-sample vertex count or dump")
        p.expect(np.bincount([st for *_, st in lines], minlength=2).tolist() == bmc["state_counts"]
                 and bmc["state_counts"] == np.bincount(outs["bmc.direct"].states,
                                                        minlength=2).tolist(),
                 "bmc-sample counts differ from the dump or the library")
        gs = pl["graph"]
        with open(path("graph_out.txt")) as fh:
            n, d, edges = O.parse_graph_file(fh.read())
        p.expect(gs["edge_count"] == len(edges) == n * 3 // 2 and gs["simple"]
                 and n == z["sample_n"], "graph-sample file")
        p.expect(gs["short_cycle_fraction"] == O.short_cycle_fraction(n, edges, 4)
                 == outs["graph.direct"], "graph-sample short-cycle fraction")
        covers = [k for k in pl if k.startswith("cover_")]
        for key in covers:
            name, matrix = key.split("_")[1:]
            graph = inp["graphs"][name]
            mat = (tl.dominating_matrix(3) if matrix == "m1" else tl.bipartite_matrix(3)).mat
            low = O.covering_min_brute(graph.neighbors, mat)
            c = pl[key]
            errors = int(O.covering_errors(graph.neighbors, mat, c["witness"])[0])
            p.expect(c["method"] == "exact" and c["ratio"] == float(low)
                     and errors == low * graph.n, f"{key}: {c['ratio']} vs brute {low}")
        p.expect(pl["cover_k4_m2"]["ratio"] == 0.75 and pl["cover_k33_m2"]["ratio"] == 0.0,
                 "c(K4) = 3/4 and c(K33) = 0")
        iso = pl["dist_k4_k4p"]
        p.expect(iso["value"] == 0.0 and iso["exact"], "relabelled K4 at nonzero distance")
        non = pl["dist_k33_prism"]
        for r in (1, 2):
            ref = self._mono_tv(inp["graphs"]["k33"], inp["graphs"]["prism"], r)
            p.expect(non["terms"][f"k=1,r={r}"] == ref, f"K33/prism k=1 r={r}: vs networkx {ref}")
        p.expect(non["exact"], "small-graph distance not exact")
        return p

    @staticmethod
    def _mono_tv(ga, gb, r: int) -> float:
        """TV between monochrome r-ball laws of two graphs, classes by networkx."""
        balls = [(0, _mono_ball(ga, v, r)) for v in range(ga.n)] + \
                [(1, _mono_ball(gb, v, r)) for v in range(gb.n)]
        classes: list[list] = []
        for side, b in balls:
            for cls in classes:
                if O.balls_isomorphic(cls[0][1], b):
                    cls.append((side, b))
                    break
            else:
                classes.append([(side, b)])
        return 0.5 * sum(abs(sum(s == 0 for s, _ in c) / ga.n - sum(s == 1 for s, _ in c) / gb.n)
                         for c in classes)

    def output_metrics(self, inp: dict, outs: dict) -> dict:
        return {"cli.stdout_bytes": sum(len(v.stdout) for v in outs.values()
                                        if isinstance(v, CliResult))}

    def tree_share(self, inp: dict) -> tuple[float, int]:
        parts = [O.tree_ball_share(inp["graphs"][name].neighbors, (1, 2))
                 for name in ("k4", "k4p", "k33", "prism")]
        base = sum(b for _, b in parts)
        return sum(s * b for s, b in parts) / base, base


WORKLOADS = {w.name: w for w in (SWEEP_ISING, SWEEP_WALK70, RrgLocalWorkload(), ExactCliWorkload())}
