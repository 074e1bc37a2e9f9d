"""Command-line interface.

One subcommand per capability; every command prints a single JSON object to
stdout (keys sorted, so identical configuration and seed give bitwise
identical output) and returns exit code 0 on success, 2 on validation errors,
and 3 when an exact computation exceeds its budget.  Decay curves can
additionally be written as CSV files.

Wherever a kernel is expected, inline constructors are accepted besides plain
matrix files: ``ising(0.2)``, ``potts(7,0.3)``, ``uniform(4)``, and
``walk(graph.txt)``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import covering, entropy, glauber, graphs, kernels, localstats, trees
from .errors import BudgetExceededError

_KERNEL_RE = re.compile(r"^(ising|potts|uniform|walk)\((.*)\)$")


def parse_kernel(spec: str) -> kernels.TransitionKernel:
    m = _KERNEL_RE.match(spec.strip())
    if not m:
        return kernels.load_kernel(spec)
    name, args = m.group(1), m.group(2)
    if name == "ising":
        return kernels.make_ising(float(args))
    if name == "potts":
        k, p = args.split(",")
        return kernels.make_potts(int(k), float(p))
    if name == "uniform":
        return kernels.uniform_kernel(int(args))
    return kernels.make_walk_kernel(graphs.read_graph(args))


def parse_matrix(spec: str, d: int | None = None) -> covering.CoveringMatrix:
    if spec == "m1" or spec == "dominating":
        if d is None:
            raise ValueError("inline matrix families need the graph degree")
        return covering.dominating_matrix(d)
    if spec == "m2" or spec == "bipartite":
        if d is None:
            raise ValueError("inline matrix families need the graph degree")
        return covering.bipartite_matrix(d)
    return covering.read_covering_matrix(spec)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True))


def _write_curve_csv(path: str, sweeps, means, stderrs) -> None:
    with open(path, "w") as fh:
        fh.write("sweep,mean_distance,stderr\n")
        for s, m, e in zip(sweeps, means, stderrs):
            fh.write(f"{int(s)},{m!r},{e!r}\n")


# Glauber subcommands: the experiment each runs, the report fields it emits,
# and whether a decay curve (and so --csv) comes with the report.
_GLAUBER = {
    "glauber-fixed-point": (glauber.fixed_point_test, (
        "tv_vertex", "floor_vertex", "tv_edge", "floor_edge", "tv_star", "floor_star",
        "vertex_ok", "edge_ok", "star_ok"), False),
    "glauber-contraction": (glauber.estimate_hamming_decay, (
        "rate", "rate_interval", "dobrushin", "p_wake", "contraction_bound",
        "mean_distance", "stderr"), True),
    "glauber-converge": (glauber.converge_from_iid, (
        "predicted_initial", "final_distance", "final_stderr", "dobrushin",
        "contraction_bound", "mean_distance", "stderr"), True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dobrushin", help="exact Dobrushin coefficient of a kernel at degree d")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8)

    p = sub.add_parser("spectral", help="spectral radius of a kernel")
    p.add_argument("--kernel", required=True)

    p = sub.add_parser("bmc-sample", help="draw one branching-chain configuration")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write 'depth index state' lines here")

    p = sub.add_parser("correlation", help="two-point correlation: sampled, exact, and classified")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--distance", type=int, required=True)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--encoding", choices=["index", "pm1"], default="index")
    p.add_argument("--k-max", type=int, default=0, help="also classify decay up to this distance")

    for name, (_, _, curve) in _GLAUBER.items():
        p = sub.add_parser(name)
        p.add_argument("--kernel", required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--sweeps", type=int, required=True)
        p.add_argument("--replicas", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--window-depth", type=int, default=None)
        if curve:
            p.add_argument("--csv", help="write the decay curve here")

    p = sub.add_parser("entropy-check", help="pattern entropies and both inequalities")
    p.add_argument("--kernel", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bits", action="store_true", help="also display entropies in bits")

    p = sub.add_parser("counterexample", help="walk-chain entropy certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-deg", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("graph-sample", help="pairing-model random regular graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--multigraph", action="store_true", help="skip the simplicity rejection")
    p.add_argument("--girth-l", type=int, default=0, help="report the short-cycle profile at this L")
    p.add_argument("--out", help="write the graph file here")

    p = sub.add_parser("entlem-check", help="exact matching-count identity over two colors")
    p.add_argument("--sizes", type=int, nargs="+", default=[4, 6])

    p = sub.add_parser("eigen-quantize", help="quantized-eigenvector error ratio")
    p.add_argument("--graph", required=True)
    p.add_argument("--which", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("local-distance", help="truncated colored-neighborhood distance")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--coloring-budget", type=int, default=4096)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("covering-min", help="covering error ratio of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", required=True, help="matrix file, or inline 'm1'/'m2'")
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=None, help="needed if the exact search overflows")

    p = sub.add_parser("epsilon0", help="threshold where random graphs detach from coverings")
    p.add_argument("--family", choices=["dominating", "independence"])
    p.add_argument("--matrix")
    p.add_argument("--d", type=int)
    p.add_argument("--s-count", type=int, default=None)

    p = sub.add_parser("dominating-table", help="epsilon0 and dominating bounds over a degree range")
    p.add_argument("--d-from", type=int, default=3)
    p.add_argument("--d-to", type=int, default=6)
    p.add_argument("--csv")
    p.add_argument("--text", help="also write an aligned-text table here")

    return parser


def _encoding_vector(kind: str, k: int) -> np.ndarray:
    if kind == "pm1":
        if k != 2:
            raise ValueError("pm1 encoding needs a 2-state kernel")
        return np.array([1.0, -1.0])
    return np.arange(k, dtype=float)


def _cmd_dobrushin(args) -> dict:
    kernel = parse_kernel(args.kernel)
    value = kernels.dobrushin_coefficient(kernel, args.d, budget=args.budget)
    return {"command": "dobrushin", "kernel": args.kernel, "d": args.d, "dobrushin": value}


def _cmd_spectral(args) -> dict:
    kernel = parse_kernel(args.kernel)
    return {"command": "spectral", "kernel": args.kernel,
            "spectral_radius": kernels.spectral_radius(kernel)}


def _cmd_bmc_sample(args) -> dict:
    kernel = parse_kernel(args.kernel)
    tree = trees.build_tree(args.d, args.depth)
    config = trees.sample_bmc(kernel, tree, np.random.default_rng(args.seed))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trees.dump_configuration(config))
    counts = np.bincount(config.states, minlength=kernel.state_count)
    return {"command": "bmc-sample", "kernel": args.kernel, "d": args.d,
            "depth": args.depth, "seed": args.seed, "n": tree.n,
            "state_counts": counts, "out": args.out}


def _cmd_correlation(args) -> dict:
    kernel = parse_kernel(args.kernel)
    enc = _encoding_vector(args.encoding, kernel.state_count)
    rng = np.random.default_rng(args.seed)
    est = trees.estimate_correlation(kernel, args.distance, enc, args.replicas, rng)
    exact = trees.exact_correlations(kernel, enc, max(args.distance, 1))[args.distance - 1] \
        if args.distance >= 1 else 1.0
    out = {
        "command": "correlation", "kernel": args.kernel, "d": args.d,
        "distance": args.distance, "replicas": args.replicas, "seed": args.seed,
        "encoding": args.encoding, "estimate": est.value, "stderr": est.stderr,
        "exact": float(exact),
        "bound": trees.local_correlation_bound(max(args.distance, 1), args.d),
    }
    if args.k_max > 0:
        verdict = trees.classify_correlation_decay(kernel, args.d, enc, args.k_max)
        out["verdict"] = verdict.verdict
        out["witness"] = verdict.witness
        out["k_max"] = args.k_max
    return out


def _cmd_glauber(args) -> dict:
    experiment, fields, curve = _GLAUBER[args.command]
    kernel = parse_kernel(args.kernel)
    report = experiment(kernel, args.d, args.depth, args.sweeps, args.replicas,
                        np.random.default_rng(args.seed), window_depth=args.window_depth)
    out = {
        "command": args.command, "kernel": args.kernel, "d": args.d,
        "depth": args.depth, "sweeps": args.sweeps, "replicas": args.replicas,
        "seed": args.seed, "window_depth": report.window_depth,
    }
    out.update((name, getattr(report, name)) for name in fields)
    if "rate" in fields and not np.isfinite(report.rate):
        out.update(rate=None, rate_interval=None, rate_note=(
            "undefined: fewer than two sweeps have a mean distance above 10 standard errors"))
    if curve:
        if args.csv:
            _write_curve_csv(args.csv, report.sweeps, report.mean_distance, report.stderr)
        out["csv"] = args.csv
    return out


def _cmd_entropy_check(args) -> dict:
    kernel = parse_kernel(args.kernel)
    report = entropy.bmc_entropy_report(kernel, args.d)
    out = {
        "command": "entropy-check", "kernel": args.kernel, "d": args.d,
        "h_vertex": report.h_vertex, "h_edge": report.h_edge, "h_star": report.h_star,
        "slack_edge_vertex": report.slack_edge_vertex,
        "slack_star_edge": report.slack_star_edge,
        "edge_vertex": report.edge_vertex_verdict, "star_edge": report.star_edge_verdict,
    }
    if args.bits:
        ln2 = np.log(2.0)
        out["h_vertex_bits"] = report.h_vertex / ln2
        out["h_edge_bits"] = report.h_edge / ln2
        out["h_star_bits"] = report.h_star / ln2
    return out


def _cmd_counterexample(args) -> dict:
    cert = entropy.expander_counterexample(args.k, args.q_deg, args.d)
    return {
        "command": "counterexample", "k": cert.k, "q_deg": cert.q_deg, "d": cert.d,
        "verdict": cert.verdict, "nontypical": cert.nontypical,
        "lhs": cert.lhs, "rhs": cert.rhs, "threshold": cert.threshold,
        "ramanujan_target": cert.ramanujan_target,
    }


def _cmd_graph_sample(args) -> dict:
    graph = graphs.sample_regular_graph(
        args.n, args.d, simple=not args.multigraph, rng=np.random.default_rng(args.seed)
    )
    if args.out:
        graphs.write_graph(graph, args.out)
    out = {
        "command": "graph-sample", "n": graph.n, "d": graph.d, "seed": args.seed,
        "simple": graph.simple, "edge_count": len(graph.edges), "out": args.out,
    }
    if args.girth_l > 0:
        out["girth_l"] = args.girth_l
        out["short_cycle_fraction"] = graphs.girth_profile(graph, args.girth_l)
    return out


def _cmd_entlem_check(args) -> dict:
    all_records = []
    for n in args.sizes:
        for rec in graphs.matching_identity_check(n):
            all_records.append({
                "n": rec.n, "mu_counts": rec.mu_counts, "nu_counts": rec.nu_counts,
                "m_f": rec.m_f, "lhs": rec.lhs, "rhs": rec.rhs, "holds": rec.holds,
            })
    return {"command": "entlem-check", "sizes": args.sizes,
            "records": all_records, "all_hold": all(r["holds"] for r in all_records)}


def _cmd_eigen_quantize(args) -> dict:
    graph = graphs.read_graph(args.graph)
    report = graphs.eigen_experiment(graph, args.which, args.levels,
                                     tol=args.tol, seed=args.seed)
    return {
        "command": "eigen-quantize", "graph": args.graph, "which": args.which,
        "levels": args.levels, "seed": args.seed, "tol": args.tol,
        "eigenvalue": report.eigenvalue, "centers": report.centers,
        "error_ratio": report.error_ratio, "max_residual": report.max_residual,
    }


def _cmd_local_distance(args) -> dict:
    ga = graphs.read_graph(args.graph_a)
    gb = graphs.read_graph(args.graph_b)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    est = localstats.dcn_estimate(ga, gb, args.r_max, args.k_max,
                                  coloring_budget=args.coloring_budget,
                                  samples=args.samples, rng=rng)
    return {
        "command": "local-distance", "graph_a": args.graph_a, "graph_b": args.graph_b,
        "r_max": args.r_max, "k_max": args.k_max, "seed": args.seed,
        "value": est.value, "tail_bound": est.tail_bound, "exact": est.exact,
        "terms": {f"k={k},r={r}": v for (k, r), v in sorted(est.terms.items())},
    }


def _cmd_covering_min(args) -> dict:
    graph = graphs.read_graph(args.graph)
    matrix = parse_matrix(args.matrix, d=graph.d)
    try:
        ratio, witness = covering.min_error_exact(graph, matrix, budget=args.budget)
        method = "exact"
    except BudgetExceededError:
        if args.seed is None:
            raise ValueError("exact search over budget: local search needs --seed") from None
        ratio, witness = covering.min_error_local_search(
            graph, matrix, args.restarts, np.random.default_rng(args.seed)
        )
        method = "local-search"
    return {
        "command": "covering-min", "graph": args.graph, "matrix": args.matrix,
        "ratio": ratio, "method": method, "witness": witness,
    }


def _cmd_epsilon0(args) -> dict:
    if args.family is None and args.matrix is None:
        raise ValueError("epsilon0 needs --family or --matrix")
    if args.matrix is not None:
        family = covering.read_covering_matrix(args.matrix)
        report = covering.epsilon0(family, s_count=args.s_count)
    else:
        if args.d is None:
            raise ValueError("--family needs --d")
        report = covering.epsilon0(args.family, d=args.d, s_count=args.s_count)
    out = {
        "command": "epsilon0", "family": args.family, "matrix": args.matrix,
        "d": report.d, "s_count": report.s_count, "delta_id": report.delta_id,
        "epsilon0": report.epsilon0,
        "certificate_lo": report.certificate_lo, "certificate_hi": report.certificate_hi,
        "scan_eps": report.grid, "scan_g": report.grid_values,
    }
    if report.delta_id == "dominating":
        out["dominating_bound"] = 1.0 / (report.d + 1.0) + report.epsilon0
    if report.delta_id == "bipartite":
        out["independence_bound"] = 0.5 - report.epsilon0
    return out


def _cmd_dominating_table(args) -> dict:
    rows = covering.dominating_table(args.d_from, args.d_to)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("d,epsilon0,dominating_bound\n")
            for row in rows:
                fh.write(f"{row.d},{row.epsilon0!r},{row.dominating_bound!r}\n")
    if args.text:
        with open(args.text, "w") as fh:
            fh.write(covering.format_dominating_table(rows))
    return {
        "command": "dominating-table", "d_from": args.d_from, "d_to": args.d_to,
        "rows": [{"d": r.d, "epsilon0": r.epsilon0, "dominating_bound": r.dominating_bound}
                 for r in rows],
        "csv": args.csv,
    }


_DISPATCH = {
    "dobrushin": _cmd_dobrushin,
    "spectral": _cmd_spectral,
    "bmc-sample": _cmd_bmc_sample,
    "correlation": _cmd_correlation,
    **dict.fromkeys(_GLAUBER, _cmd_glauber),
    "entropy-check": _cmd_entropy_check,
    "counterexample": _cmd_counterexample,
    "graph-sample": _cmd_graph_sample,
    "entlem-check": _cmd_entlem_check,
    "eigen-quantize": _cmd_eigen_quantize,
    "local-distance": _cmd_local_distance,
    "covering-min": _cmd_covering_min,
    "epsilon0": _cmd_epsilon0,
    "dominating-table": _cmd_dominating_table,
}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        payload = _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
