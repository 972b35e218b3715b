"""pplab benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload {sweep,query,boxing} --seed N \
        --seconds S --trace {0,1}

Run from the root of a pplab checkout; pplab is imported from its ``src``.
A run sets up its inputs SETUP_REPS times (each time a fresh interpreter
imports ``pplab.cli``, then the workload writes its input files and runs
one warm-up operation) and reports the median as ``setup_s``.  It then
runs a fixed number of whole rounds of operations, sized from --seconds by
the workload's nominal round time on the reference machine (and never
fewer than its min_rounds), so both sides of a comparison do the same
work.  Every output is checked against
reference.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first half of
the rounds untraced, then one set-up and the same rounds again under the
tracer, prints the per-layer metrics and writes the tracer's JSON to
perfbench/out/.  The last line of stdout is the result as JSON; the exit
code is 1 when an operation raised or a check failed (the JSON then holds
no metrics) and 2 when pplab's sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3

# (name, unit, better); the --trace 1 result reports exactly these.
# Work counts are 'lower': the same answer from less work.  The greedy
# counts are 'higher': more paths that complete and that the bound binds.
PER_LAYER = [
    ("models.generate.s", "s", "lower"),
    ("models.generate.calls", "count", "lower"),
    ("models.edges", "count", "lower"),
    ("models.Graph.s", "s", "lower"),
    ("models.Graph.calls", "count", "lower"),
    ("models.adjacency.s", "s", "lower"),
    ("models.adjacency.calls", "count", "lower"),
    ("models.relength.s", "s", "lower"),
    ("models.relength.calls", "count", "lower"),
    ("rng.uniform.s", "s", "lower"),
    ("rng.uniform.calls", "count", "lower"),
    ("rng.uniform_array.s", "s", "lower"),
    ("rng.uniform_array.calls", "count", "lower"),
    ("metrics.components.s", "s", "lower"),
    ("metrics.components.calls", "count", "lower"),
    ("metrics.largest_component.calls", "count", "lower"),
    ("metrics.distance_matrix.s", "s", "lower"),
    ("metrics.distance_matrix.calls", "count", "lower"),
    ("metrics.distance_matrix.sources", "count", "lower"),
    ("metrics.cost_search.s", "s", "lower"),
    ("metrics.cost_search.calls", "count", "lower"),
    ("metrics.cost_search.settled", "count", "lower"),
    ("metrics.delta_good_scan.s", "s", "lower"),
    ("metrics.delta_good_scan.calls", "count", "lower"),
    ("geometry.locate_subbox.s", "s", "lower"),
    ("geometry.locate_subbox.calls", "count", "lower"),
    ("geometry.build_boxing.s", "s", "lower"),
    ("metrics.check_F2.s", "s", "lower"),
    ("metrics.build_greedy_path.s", "s", "lower"),
    ("metrics.build_greedy_path.calls", "count", "lower"),
    ("metrics.greedy.completed", "count", "higher"),
    ("metrics.greedy.applicable", "count", "higher"),
    ("experiments.phase_sweep.s", "s", "lower"),
    ("experiments.two_point_distance.s", "s", "lower"),
    ("experiments.two_point_distance.calls", "count", "lower"),
    ("experiments.sweep_to_csv.s", "s", "lower"),
    ("cost.classify.s", "s", "lower"),
    ("cost.classify.calls", "count", "lower"),
    ("cost.solve_boxing_params.s", "s", "lower"),
    ("cli.read_graph_text.s", "s", "lower"),
    ("cli.read_graph_text.calls", "count", "lower"),
    ("cli.graph_bytes", "byte", "lower"),
    ("cli.write_graph_text.s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _probes():
    """(home module, function, span name, counter hook) for the tracer."""
    def count(name, value):
        return lambda tr, args, kwargs, result: tr.count(name, value(args, kwargs, result))

    def arg(args, kwargs, index, key):
        return args[index] if len(args) > index else kwargs[key]

    return [
        ("pplab.models", "generate", "models.generate",
         count("models.edges", lambda a, k, r: r.m)),
        ("pplab.models", "relength", "models.relength", None),
        ("pplab.rng", "uniform", "rng.uniform", None),
        ("pplab.rng", "uniform_array", "rng.uniform_array", None),
        ("pplab.metrics", "components", "metrics.components", None),
        ("pplab.metrics", "largest_component", "metrics.largest_component", None),
        ("pplab.metrics", "distance_matrix", "metrics.distance_matrix",
         count("metrics.distance_matrix.sources",
               lambda a, k, r: len(arg(a, k, 2, "sources")))),
        ("pplab.metrics", "cost_search", "metrics.cost_search",
         count("metrics.cost_search.settled", lambda a, k, r: len(r.settled))),
        ("pplab.metrics", "delta_good_scan", "metrics.delta_good_scan", None),
        ("pplab.geometry", "locate_subbox", "geometry.locate_subbox", None),
        ("pplab.geometry", "build_boxing", "geometry.build_boxing", None),
        ("pplab.metrics", "check_F2", "metrics.check_F2", None),
        ("pplab.metrics", "build_greedy_path", "metrics.build_greedy_path",
         count("metrics.greedy.completed",
               lambda a, k, r: int(type(r).__name__ == "GreedyPath"))),
        ("pplab.metrics", "greedy_bound_report", "metrics.greedy_bound_report",
         count("metrics.greedy.applicable", lambda a, k, r: int(r.applicable))),
        ("pplab.experiments", "phase_sweep", "experiments.phase_sweep", None),
        ("pplab.experiments", "two_point_distance",
         "experiments.two_point_distance", None),
        ("pplab.experiments", "sweep_to_csv", "experiments.sweep_to_csv", None),
        ("pplab.cost", "classify", "cost.classify", None),
        ("pplab.cost", "solve_boxing_params", "cost.solve_boxing_params", None),
        ("pplab.cli", "read_graph_text", "cli.read_graph_text",
         count("cli.graph_bytes",
               lambda a, k, r: len(arg(a, k, 0, "text").encode()))),
        ("pplab.cli", "write_graph_text", "cli.write_graph_text", None),
    ]


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _machine(np, scipy) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"machine nproc={nproc} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__}")


def _fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing pplab's CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pplab.cli"], env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


class Phase:
    """Operations run one after another; only the operations are timed."""

    def __init__(self, workload):
        self.wl = workload
        self.op_s = []
        self.cpu_s = 0.0
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, count: int):
        for i in range(count):
            inp = self.wl.inputs(i)
            self.attempted += 1
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = self.wl.op(inp)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                self.failed += 1
                self.problems.append(
                    f"op {i} failed: {type(exc).__name__}: {exc}")
                continue
            self.op_s.append(time.perf_counter() - t0)
            self.cpu_s += _cpu_seconds() - c0
            self.problems += [f"op {i}: {p}"
                              for p in self.wl.check(i, inp, result)]
        return self

    @property
    def seconds(self) -> float:
        return sum(self.op_s)


def _percentile_ms(values, q: float) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "query", "boxing"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pplab" / "__init__.py").is_file():
        print(f"error: no pplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import pplab
    if Path(pplab.__file__).resolve().parent != SRC / "pplab":
        print(f"error: imported pplab from {pplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from pplab import models
    from tracer import Tracer
    from workloads import WORKLOADS

    print(_machine(np, scipy))
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = cls(args.seed, workdir)
        setup_s = []
        for _ in range(SETUP_REPS):
            t = _fresh_import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(t + time.perf_counter() - t0)
        wl.prepare()
        rounds = max(cls.min_rounds,
                     round(args.seconds / cls.nominal_round_s))
        if not args.trace:
            phase = Phase(wl).run(rounds * cls.round_ops)
            phases = [phase]
        else:
            half = max(1, rounds // 2) * cls.round_ops
            phase = Phase(wl).run(half)
            tracer = Tracer()
            tracer.install(_probes())
            tracer.install_graph_probes(models.Graph)
            try:
                wl.setup()
                traced = Phase(wl).run(half)
            finally:
                tracer.uninstall()
            phases = [phase, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [x for p in phases for x in p.problems]
    print(f"workload {args.workload}: {wl.summary()}")
    print(f"seed {args.seed}: {phase.attempted // cls.round_ops} rounds of "
          f"{cls.round_ops} ops per pass, {len(phases)} passes; ops attempted "
          f"{attempted} failed {failed}")
    for p in problems[:20]:
        print(f"check FAILED {p}")
    print(f"checks {'passed' if not problems else 'FAILED'}: "
          f"{attempted - failed} outputs checked, {len(problems)} problems")

    if failed:
        # A failed op is left out of the timings, so they would read as a gain.
        metrics = {}
    elif not args.trace:
        ops = phase.op_s
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (phase.seconds, "s"),
            "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        print(f"op_ms over {len(ops)} ops: min {1e3 * min(ops):.3f} "
              f"p50 {1e3 * statistics.median(ops):.3f} max {1e3 * max(ops):.3f}")
        if len(ops) >= 100:
            print(f"op_p90_ms {_percentile_ms(ops, 0.9):.3f} over {len(ops)} ops")
    else:
        overhead = traced.seconds - phase.seconds
        values = {}
        for name, unit, _ in PER_LAYER:
            if name.endswith(".s"):
                v = tracer.seconds(name[:-2])
            elif name.endswith(".calls"):
                v = tracer.calls(name[:-6])
            else:
                v = tracer.counts.get(name, 0)
            values[name] = v
        values["run.cpu_s"] = phase.cpu_s
        values["trace.overhead_s"] = overhead
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path, extra={
            "workload": args.workload, "seed": args.seed,
            "untraced_s": phase.seconds, "traced_s": traced.seconds,
            "untraced_cpu_s": phase.cpu_s, "ops_per_pass": len(traced.op_s)})
        print(f"trace written to {trace_path.relative_to(ROOT)}; traced "
              f"{traced.seconds:.3f} s vs untraced {phase.seconds:.3f} s")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
