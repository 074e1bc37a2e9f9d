"""Command-line interface.

Each subcommand is declared once, by ``_command`` on its handler: name, parser
arguments, help text and the argument names its output echoes.  The parser is
built from that registry on the first ``run``, the one envelope every command
goes through: it prints ``{"command": name, **echoed inputs, **handler result}``
as strict JSON with sorted keys (so identical configuration and seed give
bitwise identical output) and exits 0, or 2 on validation errors, or 3 when an
exact computation exceeds its budget.  An undefined statistic prints ``null``
beside a ``*_note`` reason; any other NaN or infinity exits 2 with nothing
printed.  Curves and tables can also go to CSV files of plain decimal numbers.

Kernels are given inline, ``ising(0.2)``, ``potts(7,0.3)``, ``uniform(4)`` or
``walk(graph.txt)``, or as plain matrix files.
"""

from __future__ import annotations

import argparse
import functools
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


def parse_matrix(spec: str, d: int) -> covering.CoveringMatrix:
    """An inline family ('m1'/'dominating', 'm2'/'bipartite') at degree d, or a matrix file."""
    if spec == "m1" or spec == "dominating":
        return covering.dominating_matrix(d)
    if spec == "m2" or spec == "bipartite":
        return covering.bipartite_matrix(d)
    return covering.read_covering_matrix(spec)


def _emit(payload: dict) -> None:
    """Print strict JSON: a NaN or infinity raises ValueError before anything is printed.

    numpy arrays and scalars go through ``tolist``; ``np.float64`` is a float already.
    """
    print(json.dumps(payload, sort_keys=True, allow_nan=False, default=lambda o: o.tolist()))


def _write_csv(path: str, header: str, rows) -> None:
    """Comma-separated rows of ints and plain decimal floats under a header line."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(int(x)) if isinstance(x, (int, np.integer))
                              else repr(float(x)) for x in row) + "\n")


def _fields(report, names: str) -> dict:
    """The named attributes of a report, keyed by name."""
    return {name: getattr(report, name) for name in names.split()}


# subcommand name -> (handler, echoed argument names, parser arguments, parser options)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, echo: str, *arguments, **options):
    """Register the decorated handler as subcommand ``name``.

    ``echo`` names the arguments the output repeats, ``arguments`` are
    ``_arg`` pairs and ``options`` (the help text) go to ``add_parser``.
    """
    def register(handler):
        _COMMANDS[name] = (handler, echo.split(), arguments, options)
        return handler
    return register


def _arg(flag: str, **kwargs):
    return flag, kwargs


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, arguments, options) in _COMMANDS.items():
        p = sub.add_parser(name, **options)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


@_command("dobrushin", "kernel d",
          _arg("--kernel", required=True), _arg("--d", type=int, required=True),
          _arg("--budget", type=int, default=10**8),
          help="exact Dobrushin coefficient of a kernel at degree d")
def _dobrushin(args) -> dict:
    kernel = parse_kernel(args.kernel)
    return {"dobrushin": kernels.dobrushin_coefficient(kernel, args.d, budget=args.budget)}


@_command("spectral", "kernel", _arg("--kernel", required=True),
          help="spectral radius of a kernel")
def _spectral(args) -> dict:
    return {"spectral_radius": kernels.spectral_radius(parse_kernel(args.kernel))}


@_command("bmc-sample", "kernel d depth seed out",
          _arg("--kernel", required=True), _arg("--d", type=int, required=True),
          _arg("--depth", type=int, required=True), _arg("--seed", type=int, required=True),
          _arg("--out", help="write 'depth index state' lines here"),
          help="draw one branching-chain configuration")
def _bmc_sample(args) -> dict:
    kernel = parse_kernel(args.kernel)
    tree = trees.build_tree(args.d, args.depth)
    config = trees.sample_bmc(kernel, tree, np.random.default_rng(args.seed))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trees.dump_configuration(config))
    return {"n": tree.n, "state_counts": np.bincount(config.states, minlength=kernel.state_count)}


@_command("correlation", "kernel d distance replicas seed encoding",
          _arg("--kernel", required=True), _arg("--d", type=int, required=True),
          _arg("--distance", type=int, required=True),
          _arg("--replicas", type=int, default=100_000), _arg("--seed", type=int, required=True),
          _arg("--encoding", choices=["index", "pm1"], default="index"),
          _arg("--k-max", type=int, default=0,
               help="also classify decay up to this distance (0: off)"),
          help="two-point correlation: sampled, exact, and classified")
def _correlation(args) -> dict:
    kernel = parse_kernel(args.kernel)
    if args.encoding == "pm1" and kernel.state_count != 2:
        raise ValueError("pm1 encoding needs a 2-state kernel")
    enc = (np.array([1.0, -1.0]) if args.encoding == "pm1"
           else np.arange(kernel.state_count, dtype=float))
    rng = np.random.default_rng(args.seed)
    est = trees.estimate_correlation(kernel, args.distance, enc, args.replicas, rng)
    exact = trees.exact_correlations(kernel, enc, args.distance)[args.distance - 1] \
        if args.distance >= 1 else 1.0
    out = {
        "estimate": est.value, "stderr": est.stderr, "exact": float(exact),
        "bound": trees.local_correlation_bound(args.distance, args.d),
    }
    if not np.isfinite(est.value):
        out.update(estimate=None, stderr=None, estimate_note=(
            "undefined: the sampled states at one of the two points are all equal"))
    if args.k_max:
        verdict = trees.classify_correlation_decay(kernel, args.d, enc, args.k_max)
        out.update(verdict=verdict.verdict, witness=verdict.witness, k_max=args.k_max)
    return out


def _glauber(experiment, fields: str, args) -> dict:
    """Run one Glauber experiment; a decay curve, if the report has one, may go to --csv."""
    report = experiment(parse_kernel(args.kernel), args.d, args.depth, args.sweeps,
                        args.replicas, np.random.default_rng(args.seed),
                        window_depth=args.window_depth)
    out = _fields(report, "window_depth " + fields)
    if "rate" in out and not np.isfinite(report.rate):
        out.update(rate=None, rate_interval=None, rate_note=(
            "undefined: fewer than two sweeps have a mean distance above 10 standard errors"))
    if getattr(args, "csv", None):
        _write_csv(args.csv, "sweep,mean_distance,stderr",
                   zip(report.sweeps, report.mean_distance, report.stderr))
    return out


def _glauber_command(name: str, experiment, fields: str, curve: bool) -> None:
    """Register a Glauber subcommand; one whose report carries a decay curve takes --csv."""
    csv = (_arg("--csv", help="write the decay curve here"),) if curve else ()
    _command(name, "kernel d depth sweeps replicas seed" + (" csv" if curve else ""),
             _arg("--kernel", required=True), _arg("--d", type=int, required=True),
             _arg("--depth", type=int, required=True), _arg("--sweeps", type=int, required=True),
             _arg("--replicas", type=int, required=True), _arg("--seed", type=int, required=True),
             _arg("--window-depth", type=int, default=None),
             *csv)(functools.partial(_glauber, experiment, fields))


_glauber_command("glauber-fixed-point", glauber.fixed_point_test,
                 "tv_vertex floor_vertex tv_edge floor_edge tv_star floor_star "
                 "vertex_ok edge_ok star_ok", False)
_glauber_command("glauber-contraction", glauber.estimate_hamming_decay,
                 "rate rate_interval dobrushin p_wake contraction_bound mean_distance stderr",
                 True)
_glauber_command("glauber-converge", glauber.converge_from_iid,
                 "predicted_initial final_distance final_stderr dobrushin contraction_bound "
                 "mean_distance stderr", True)


@_command("entropy-check", "kernel d",
          _arg("--kernel", required=True), _arg("--d", type=int, required=True),
          _arg("--bits", action="store_true", help="also display entropies in bits"),
          help="pattern entropies and both inequalities")
def _entropy_check(args) -> dict:
    report = entropy.bmc_entropy_report(parse_kernel(args.kernel), args.d)
    out = _fields(report, "h_vertex h_edge h_star slack_edge_vertex slack_star_edge")
    out.update(edge_vertex=report.edge_vertex_verdict, star_edge=report.star_edge_verdict)
    if args.bits:
        ln2 = np.log(2.0)
        out.update({f"{h}_bits": out[h] / ln2 for h in ("h_vertex", "h_edge", "h_star")})
    return out


@_command("counterexample", "k q_deg d",
          _arg("--k", type=int, required=True), _arg("--q-deg", type=int, required=True),
          _arg("--d", type=int, required=True),
          help="walk-chain entropy certificate")
def _counterexample(args) -> dict:
    cert = entropy.expander_counterexample(args.k, args.q_deg, args.d)
    return _fields(cert, "verdict nontypical lhs rhs threshold ramanujan_target")


@_command("graph-sample", "n d seed out",
          _arg("--n", type=int, required=True), _arg("--d", type=int, required=True),
          _arg("--seed", type=int, required=True),
          _arg("--multigraph", action="store_true", help="skip the simplicity rejection"),
          _arg("--girth-l", type=int, default=0,
               help="report the short-cycle profile at this L (0: off)"),
          _arg("--out", help="write the graph file here"),
          help="pairing-model random regular graph")
def _graph_sample(args) -> dict:
    graph = graphs.sample_regular_graph(
        args.n, args.d, simple=not args.multigraph, rng=np.random.default_rng(args.seed)
    )
    if args.out:
        graphs.write_graph(graph, args.out)
    out = {"simple": graph.simple, "edge_count": len(graph.edges)}
    if args.girth_l:
        out.update(girth_l=args.girth_l,
                   short_cycle_fraction=graphs.girth_profile(graph, args.girth_l))
    return out


@_command("entlem-check", "sizes", _arg("--sizes", type=int, nargs="+", default=[4, 6]),
          help="exact matching-count identity over two colors")
def _entlem_check(args) -> dict:
    records = [_fields(rec, "n mu_counts nu_counts m_f lhs rhs holds")
               for n in args.sizes for rec in graphs.matching_identity_check(n)]
    return {"records": records, "all_hold": all(r["holds"] for r in records)}


@_command("eigen-quantize", "graph which levels seed tol",
          _arg("--graph", required=True), _arg("--which", type=int, required=True),
          _arg("--levels", type=int, required=True), _arg("--seed", type=int, required=True),
          _arg("--tol", type=float, default=1e-8),
          help="quantized-eigenvector error ratio")
def _eigen_quantize(args) -> dict:
    report = graphs.eigen_experiment(graphs.read_graph(args.graph), args.which, args.levels,
                                     tol=args.tol, seed=args.seed)
    return _fields(report, "eigenvalue centers error_ratio max_residual")


@_command("local-distance", "graph_a graph_b r_max k_max seed",
          _arg("--graph-a", required=True), _arg("--graph-b", required=True),
          _arg("--r-max", type=int, required=True), _arg("--k-max", type=int, required=True),
          _arg("--coloring-budget", type=int, default=4096),
          _arg("--samples", type=int, default=200), _arg("--seed", type=int, default=None),
          help="truncated colored-neighborhood distance")
def _local_distance(args) -> dict:
    ga = graphs.read_graph(args.graph_a)
    gb = graphs.read_graph(args.graph_b)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    est = localstats.dcn_estimate(ga, gb, args.r_max, args.k_max,
                                  coloring_budget=args.coloring_budget,
                                  samples=args.samples, rng=rng)
    return {**_fields(est, "value tail_bound exact"),
            "terms": {f"k={k},r={r}": v for (k, r), v in sorted(est.terms.items())}}


@_command("covering-min", "graph matrix",
          _arg("--graph", required=True),
          _arg("--matrix", required=True, help="matrix file, or inline 'm1'/'m2'"),
          _arg("--budget", type=int, default=10**8), _arg("--restarts", type=int, default=20),
          _arg("--seed", type=int, default=None, help="needed if the exact search overflows"),
          help="covering error ratio of a graph")
def _covering_min(args) -> dict:
    if args.restarts < 1:
        raise ValueError("--restarts must be at least 1")
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
    return {"ratio": ratio, "method": method, "witness": witness}


@_command("epsilon0", "family matrix",
          _arg("--family", choices=["dominating", "independence"]), _arg("--matrix"),
          _arg("--d", type=int), _arg("--s-count", type=int, default=None),
          help="threshold where random graphs detach from coverings")
def _epsilon0(args) -> dict:
    if (args.family is None) == (args.matrix is None):
        raise ValueError("epsilon0 needs exactly one of --family and --matrix")
    if args.matrix is not None:
        if args.d is not None:
            raise ValueError("--d goes with --family: a --matrix file gives its own degree")
        report = covering.epsilon0(covering.read_covering_matrix(args.matrix),
                                   s_count=args.s_count)
    elif args.d is None:
        raise ValueError("--family needs --d")
    else:
        report = covering.epsilon0(args.family, d=args.d, s_count=args.s_count)
    out = _fields(report, "d s_count delta_id epsilon0 certificate_lo certificate_hi")
    bound = {"dominating": "dominating_bound", "bipartite": "independence_bound"}
    if report.delta_id in bound:
        out[bound[report.delta_id]] = report.ratio_bound
    return out


@_command("dominating-table", "d_from d_to csv",
          _arg("--d-from", type=int, default=3), _arg("--d-to", type=int, default=6),
          _arg("--csv"), _arg("--text", help="also write an aligned-text table here"),
          help="epsilon0 and dominating bounds over a degree range")
def _dominating_table(args) -> dict:
    rows = covering.dominating_table(args.d_from, args.d_to)
    if args.csv:
        _write_csv(args.csv, "d,epsilon0,dominating_bound",
                   ((r.d, r.epsilon0, r.ratio_bound) for r in rows))
    if args.text:
        with open(args.text, "w") as fh:
            fh.write(covering.format_dominating_table(rows))
    return {"rows": [{**_fields(r, "d epsilon0"), "dominating_bound": r.ratio_bound} for r in rows]}


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, echo, _, _ = _COMMANDS[args.command]
    try:
        _emit({"command": args.command, **{name: getattr(args, name) for name in echo},
               **handler(args)})
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
