#!/usr/bin/env python3
"""treelab benchmark: seeded workloads against the public functions of treelab.

    python3 bench/run.py --workload sweep-ising --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20      # every workload, one process each

One run times set-up in fresh interpreters, builds the workload's inputs
from the seed, then repeats whole rounds of its operations for ``--seconds``
seconds, checks the outputs of the rounds against the oracles in
``oracles.py``, and prints a run record line and, last, one JSON object
(``run_ref`` is a round in units of a fixed reference computation,
``hostspeed.py``, timed while its operations run; see README.md):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_ref,
peak_rss_mb).  With ``--trace 1`` rounds alternate between traced and
untraced, the spans are written to ``bench/out/`` and the metrics are the
per-module ones derived from the spans.  A module metric the workload does
not reach is taken from one traced round of the workload that owns it, on
that workload's own inputs, so every workload reports every module metric
and a borrowed one equals the owner's.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
from tracing import duration as _dur

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 10
SAMPLE_INTERVAL = 0.05  # seconds between host-speed samples

WORKLOAD_NAMES = ["sweep-ising", "sweep-walk70", "rrg-local", "exact-cli"]

END_TO_END = {"setup_s": "s", "run_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    "glauber.sweep_ns_per_site": "ns",
    "glauber.coupled_sweep_ns_per_site": "ns",
    "glauber.fixed_point_test.s": "s",
    "glauber.estimate_hamming_decay.s": "s",
    "glauber.converge_from_iid.s": "s",
    "glauber.woken_fraction": "ratio",
    "glauber.woken_fraction.base": "count",
    "trees.sample_bmc_batch.ns_per_site": "ns",
    "trees.build_tree.ns_per_vertex": "ns",
    "kernels.dobrushin_coefficient.ms": "ms",
    "graphs.sample_regular_graph.ms": "ms",
    "graphs.girth_profile.us_per_vertex": "us",
    "graphs.matching_identity_check.ms": "ms",
    "localstats.ball_distribution.r1.ms_per_root": "ms",
    "localstats.ball_distribution.r2.ms_per_root": "ms",
    "localstats.ball_distribution.r3.ms_per_root": "ms",
    "localstats.canonical_ball.symmetric.ms_per_ball": "ms",
    "localstats.dcn_estimate.ms": "ms",
    "localstats.tree_ball_share": "ratio",
    "localstats.tree_ball_share.base": "count",
    "covering.min_error_local_search.s": "s",
    "covering.min_error_exact.ms": "ms",
    "covering.epsilon0.ms": "ms",
    "cli.run.ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# metrics derived from spans
# ---------------------------------------------------------------------------

def _named(spans, name, **match):
    return [s for s in spans if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())]


def _mean_ms(spans, name, **match):
    hit = _named(spans, name, **match)
    return 1e3 * sum(map(_dur, hit)) / len(hit) if hit else None


def _per_unit(spans, name, unit_attr, scale, **match):
    hit = _named(spans, name, **match)
    units = sum(s["attrs"][unit_attr] for s in hit)
    return scale * sum(map(_dur, hit)) / units if units else None


def _sweep_cost(spans, name):
    """(time at S sweeps - time at 0 sweeps) / (sites * S), in ns."""
    hit = _named(spans, name)
    pos = [s for s in hit if s["attrs"]["sweeps"] > 0]
    zero = [s for s in hit if s["attrs"]["sweeps"] == 0]
    if not pos or len(pos) != len(zero):
        return None
    work = sum(s["attrs"]["sites"] * s["attrs"]["sweeps"] for s in pos)
    return 1e9 * (sum(map(_dur, pos)) - sum(map(_dur, zero))) / work


def _cli_overhead(spans):
    direct = {(s["parent"], s["attrs"]["key"]): _dur(s) for s in _named(spans, "direct")}
    diffs = [_dur(s) - direct[(s["parent"], s["attrs"]["twin"])]
             for s in _named(spans, "cli.run") if "twin" in s["attrs"]]
    return 1e3 * sum(diffs) / len(diffs) if diffs else None


def span_metrics(spans) -> dict:
    m = {
        "glauber.sweep_ns_per_site": _sweep_cost(spans, "glauber.fixed_point_test"),
        "glauber.coupled_sweep_ns_per_site": _sweep_cost(spans, "glauber.estimate_hamming_decay"),
        "trees.sample_bmc_batch.ns_per_site": _per_unit(spans, "trees.sample_bmc_batch", "sites", 1e9),
        "trees.build_tree.ns_per_vertex": _per_unit(spans, "trees.build_tree", "vertices", 1e9),
        "kernels.dobrushin_coefficient.ms": _mean_ms(spans, "kernels.dobrushin_coefficient"),
        "graphs.sample_regular_graph.ms": _mean_ms(spans, "graphs.sample_regular_graph"),
        "graphs.girth_profile.us_per_vertex": _per_unit(spans, "graphs.girth_profile", "vertices", 1e6),
        "graphs.matching_identity_check.ms": _mean_ms(spans, "graphs.matching_identity_check"),
        "localstats.canonical_ball.symmetric.ms_per_ball":
            _mean_ms(spans, "localstats.canonical_ball", symmetric=True),
        "localstats.dcn_estimate.ms": _mean_ms(spans, "localstats.dcn_estimate"),
        "covering.min_error_exact.ms": _mean_ms(spans, "covering.min_error_exact"),
        "covering.epsilon0.ms": _mean_ms(spans, "covering.epsilon0"),
        "cli.run.ms": _mean_ms(spans, "cli.run"),
        "cli.overhead_ms": _cli_overhead(spans),
    }
    for r in (1, 2, 3):
        m[f"localstats.ball_distribution.r{r}.ms_per_root"] = _per_unit(
            spans, "localstats.ball_distribution", "roots", 1e3, r=r, mono=False)
    for name in ("fixed_point_test", "estimate_hamming_decay", "converge_from_iid"):
        hit = [s for s in _named(spans, f"glauber.{name}") if s["attrs"].get("sweeps", 1) > 0]
        m[f"glauber.{name}.s"] = sum(map(_dur, hit)) / len(hit) if hit else None
    hit = _named(spans, "covering.min_error_local_search")
    m["covering.min_error_local_search.s"] = sum(map(_dur, hit)) / len(hit) if hit else None
    return {k: v for k, v in m.items() if v is not None}


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------

class Runner:
    """Runs rounds of one workload; keeps the counts, the first outputs and
    the fastest time of each operation, apart for traced and untraced rounds."""

    def __init__(self, workload, inputs):
        # workloads imports treelab, which is importable once run_workload
        # has put src/ on the path
        from workloads import fingerprint, op_succeeded

        self._fingerprint, self._ok = fingerprint, op_succeeded
        self.workload, self.inputs = workload, inputs
        self.ops = workload.ops(inputs)
        self.attempted = self.failed = 0
        self.first = None
        self.problems: list[str] = []
        self._prints = None
        self.fastest = {False: {}, True: {}}
        self.relative: dict[str, list[float]] = {}
        self.reference: list[float] = []

    def best_round(self, traced: bool) -> float:
        """A round at each operation's fastest observed speed, in seconds."""
        return sum(self.fastest[traced].values())

    def relative_round(self) -> float:
        """An untraced round in units of the host-speed reference: the sum,
        over the round's operations, of each one's median time over the
        reference timed while it ran."""
        return sum(statistics.median(v) for v in self.relative.values())

    def round(self, tracer) -> tuple[float, dict]:
        """One round; returns its operations' wall time and their outputs.
        An untraced round runs under the host-speed sampler, whose own time
        is taken out of each operation's."""
        outs = {}
        traced = tracer is not tracing.NULL
        best = self.fastest[traced]
        sampler = hostspeed.Sampler(SAMPLE_INTERVAL)
        times = []
        with tracer.span("round", workload=self.workload.name):
            if not traced:
                sampler.start()
            try:
                for op in self.ops:
                    inside = sampler.inside
                    t0 = time.perf_counter()
                    with tracer.span(op.span, key=op.key, **op.attrs):
                        try:
                            outs[op.key] = op.fn(outs, tracer)
                        except Exception as exc:  # counted as a failed operation
                            outs[op.key] = exc
                    t1 = time.perf_counter()
                    t_op = t1 - t0 - (sampler.inside - inside)
                    times.append((op.key, t0, t1, t_op))
                    best[op.key] = min(best.get(op.key, t_op), t_op)
            finally:
                if not traced:
                    sampler.stop()
        if not traced:
            for key, t0, t1, t_op in times:
                self.relative.setdefault(key, []).append(t_op / sampler.reference_during(t0, t1))
            self.reference.extend(d for _, d in sampler.samples)
        elapsed = sum(t for *_, t in times)
        for op in self.ops:
            self.attempted += 1
            if not self._ok(op, outs[op.key]):
                self.failed += 1
                if not op.fault:
                    self.problems.append(f"{op.key} failed: {outs[op.key]!r}")
        prints = {k: self._fingerprint(v) for k, v in outs.items()}
        if self.first is None:
            self.first, self._prints = outs, prints
        elif not _same(prints, self._prints):
            self.problems.append("a round's outputs differ from the first round's")
        return elapsed, outs

    def check(self) -> list[str]:
        try:
            return self.problems + list(self.workload.check(self.inputs, self.first))
        except Exception as exc:  # a check that cannot run is a wrong output
            return self.problems + [f"check raised {exc!r}"]


def _same(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


_SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])")


def _setup_seconds(src: Path, name: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports treelab, builds the
    workload's inputs from the seed and exits."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src), str(BENCH), name, str(seed),
                    str(workdir)], check=True)
    return time.perf_counter() - t0


def _build(workload, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return workload.build(seed, str(workdir))


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "treelab" / "__init__.py").is_file():
        print(f"error: no treelab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import treelab
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = OUT / f"work-{run_id}"
    try:
        inputs = _build(workload, args.seed, workdir)
        runner = Runner(workload, inputs)
        tracer = tracing.Tracer(run_id) if args.trace else tracing.NULL
        plain, traced, setups = [], [], []

        def sample_setup():
            setups.append(_setup_seconds(src, workload.name, args.seed,
                                         workdir / f"setup{len(setups)}"))

        def measured():
            """Seconds spent in rounds so far: set-up samples do not count."""
            return time.perf_counter() - start - sum(setups)

        start = time.perf_counter()
        while True:
            # set-up samples spread over the run, between rounds: the host's
            # speed drifts over seconds, and the fastest sample needs one
            # quiet moment; each sample pays every one-time cost
            if len(setups) < SETUP_REPEATS and measured() >= len(setups) * args.seconds / SETUP_REPEATS:
                sample_setup()
            use_trace = args.trace and len(traced) <= len(plain)
            elapsed, outs = runner.round(tracer if use_trace else tracing.NULL)
            (traced if use_trace else plain).append(elapsed)
            if use_trace and len(traced) == 1:
                first_traced = outs
            if measured() >= args.seconds and (plain and (traced or not args.trace)):
                break
        while len(setups) < SETUP_REPEATS:
            sample_setup()
        setup_s = min(setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = runner.check()

        borrowed = {}
        if args.trace:
            layer = span_metrics(tracer.spans)
            layer.update(workload.output_metrics(inputs, first_traced))
            problems += _unmeasured(workload.name, workload.provides, layer)
            share, base = workload.tree_share(inputs)
            layer["localstats.tree_ball_share"] = share
            layer["localstats.tree_ball_share.base"] = base
            layer["trace.overhead_s"] = runner.best_round(True) - runner.best_round(False)
            problems += _borrow(args, workload, tracer, layer, borrowed, workdir)
            values = {k: layer.get(k) for k in PER_LAYER}
            units = PER_LAYER
            OUT.mkdir(exist_ok=True)
            tracing.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", tracer,
                          {"run_id": run_id, "layer_metrics": values, "borrowed": borrowed})
        else:
            values = {"setup_s": setup_s, "run_ref": runner.relative_round(),
                      "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [k for k, v in values.items() if v is None]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain) + len(traced),
        "round_s": plain, "traced_round_s": traced,
        "fastest_round_s": runner.best_round(False),
        "op_ref": {k: statistics.median(v) for k, v in runner.relative.items()},
        "reference_s": statistics.median(runner.reference),
        "ops_per_round": len(runner.ops), "attempted": runner.attempted, "failed": runner.failed,
        "known_faults": sorted({op.fault for op in runner.ops if op.fault}),
        "borrowed_metrics": borrowed,
        "setup_s": setups,
        "nproc": NPROC, "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "treelab": treelab.__version__, "commit": _git_commit(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


def _unmeasured(name: str, wanted, got: dict) -> list[str]:
    missing = sorted(set(wanted) & set(PER_LAYER) - set(got))
    return [f"{name} did not measure {missing}"] if missing else []


def _borrow(args, workload, tracer, layer: dict, borrowed: dict, workdir: Path) -> list[str]:
    """Fill the module metrics this workload does not reach from one traced
    round of each workload that owns them, built from the same seed; records
    in ``borrowed`` which workload gave each, and returns problems seen."""
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOAD_NAMES:
        owner = WORKLOADS[name]
        wanted = (owner.provides & set(PER_LAYER)) - set(layer)
        if owner is workload or not wanted:
            continue
        inputs = _build(owner, args.seed, workdir / name)
        runner = Runner(owner, inputs)
        owner_tracer = tracing.Tracer(f"{tracer.run_id}/{name}")
        _, outs = runner.round(owner_tracer)
        problems += [f"{name} round: {p}" for p in runner.problems]
        got = span_metrics(owner_tracer.spans)
        got.update(owner.output_metrics(inputs, outs))
        problems += _unmeasured(name, wanted, got)
        for key in wanted & set(got):
            layer[key] = got[key]
            borrowed[key] = name
        tracer.spans.extend(owner_tracer.spans)
    return problems


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            results[name] = None
            continue
        res = json.loads(lines[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


def _cap_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _cap_blas_threads()
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
