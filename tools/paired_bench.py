"""Paired benchmark runs of two pplab checkouts, alternating between them.

    python3 tools/paired_bench.py --parent DIR --change DIR --out BENCH.json \
        --first-seed S0

The protocol is fixed: each of the benchmark's three workloads runs in 10
pairs of 30 s runs (WORKLOADS, PAIRS, SECONDS).  Pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0``
in each checkout, with S = S0 + i on both sides.  Pick an S0 that no run
has used while building.  The parent runs first in even pairs and the
change first in odd ones, so a drift of the machine loads both sides
alike.  Each checkout runs its own, unmodified perfbench.  For every
end-to-end metric the output holds both sides' medians and quartiles,
change / parent, the number of pairs in which the change came out lower,
and the acceptance rule's verdict, with the metric's bound read from the
parent's BENCHMARK.json (lower is better):

    gain        the change is lower in at least 9 of 10 pairs, and the
                parent median minus the change median exceeds the parent's
                q3 - q1
    worse       change / parent exceeds 1 + bound
    unresolved  the change's median is above the parent's q3, inside the
                bound
    unchanged   otherwise

After the pairs, each checkout runs ``pplab sweep`` twice with the sweep
workload's config, each time in a fresh interpreter.  It reports its own
peak RSS (``RUSAGE_SELF``, all the benchmark's ``peak_rss_mb`` sees), that
of its largest sweep worker (``RUSAGE_CHILDREN``) and the sha256 of the
CSV, so the two sides' CSVs can be compared.  Then, at each size of
DISTANCE_NS (2^14 and 2^16), each checkout runs ``pplab distance`` twice,
each time in a fresh interpreter, on one Girg file with the query
workload's spec, written once by the parent.  It reports the rise of its
peak RSS over ``import pplab.cli``, its wall time and the lines it
printed, which must be equal on both sides.

The JSON is rewritten after every run, so an interrupted batch keeps what
it measured.  Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("setup_s", "run_s", "op_p50_ms", "peak_rss_mb")
WORKLOADS = ("sweep", "query", "boxing")
PAIRS = 10
SECONDS = 30
SIDES = ("parent", "change")

# One sweep in a fresh interpreter: argv = checkout, seed, scratch dir.
_SWEEP_PROBE = """\
import hashlib, json, resource, sys, time
from pathlib import Path
root, seed, tmp = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from pplab import cli
from workloads import SWEEP_CONFIG
cfg, csv = tmp / "sweep.cfg", tmp / "sweep.csv"
cfg.write_text(SWEEP_CONFIG)
t0 = time.perf_counter()
code = cli.main(["sweep", "--config", str(cfg), "--out", str(csv),
                 "--seed", seed])
wall = time.perf_counter() - t0
own = resource.getrusage(resource.RUSAGE_SELF)
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "exit": code, "wall_s": wall,
    "self_maxrss_mb": own.ru_maxrss / 1024.0,
    "children_maxrss_mb": kids.ru_maxrss / 1024.0,
    "self_cpu_s": own.ru_utime + own.ru_stime,
    "children_cpu_s": kids.ru_utime + kids.ru_stime,
    "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest()}))
"""
DISTANCE_NS = (2**14, 2**16)
# The distance probe's graph, written once: argv = checkout, graph path, n.
_GRAPH_WRITER = """\
import sys
from pathlib import Path
root, graph, n = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from pplab import cli
from workloads import QUERY_CONFIG, QUERY_GRAPH_SEED, QUERY_N
cfg = graph.with_suffix(".cfg")
line = f"n = {QUERY_N}\\n"
if QUERY_CONFIG.count(line) != 1:
    sys.exit(f"the query config holds {line!r} not exactly once")
cfg.write_text(QUERY_CONFIG.replace(line, f"n = {n}\\n"))
sys.exit(cli.main(["generate", "--config", str(cfg), "--out", str(graph),
                   "--seed", str(QUERY_GRAPH_SEED)]))
"""
# One query in a fresh interpreter: argv = checkout, graph path.
_DISTANCE_PROBE = """\
import contextlib, io, json, resource, sys, time
root, graph = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src"]
from pplab import cli
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["distance", "--graph", graph, "--penalty", "prod:1",
                     "--source", "0", "--target", "1"])
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "wall_s": wall,
                  "rss_rise_mb": (peak - base) / 1024.0,
                  "lines": out.getvalue().splitlines()}))
"""


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its last stdout line is the result as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}, "error": proc.stderr.strip()[-500:]}
    row = {"exit": proc.returncode, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    for name in METRICS:
        if name in result["metrics"]:
            row[name] = result["metrics"][name]["value"]
    if "error" in result:
        row["error"] = result["error"]
    return row


def sweep_probe(checkout: Path, seed: int, tmp: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_PROBE, str(checkout), str(seed),
         str(tmp)], capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def distance_probe(checkout: Path, graph: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _DISTANCE_PROBE, str(checkout), str(graph)],
        capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def distance_probes(checkouts: dict, record: dict, save) -> None:
    """The distance probe at each size of DISTANCE_NS, into record."""
    sizes = {}
    record["distance_probe"] = {
        "what": ("`pplab distance` (prod:1, 0 -> 1) on one Girg file per "
                 "size with the query workload's spec, in a fresh "
                 "interpreter, twice per checkout in alternating order; "
                 "rss_rise_mb is the peak RSS above that after "
                 "`import pplab.cli`"),
        "sizes": sizes}
    with tempfile.TemporaryDirectory() as tmp:
        for n in DISTANCE_NS:
            graph = Path(tmp) / f"distance_{n}.graph"
            subprocess.run([sys.executable, "-c", _GRAPH_WRITER,
                            str(checkouts["parent"]), str(graph), str(n)],
                           check=True, capture_output=True)
            queries = []
            sizes[str(n)] = {"graph_bytes": graph.stat().st_size,
                             "runs": queries}
            for side in SIDES + SIDES[::-1]:
                queries.append(dict(distance_probe(checkouts[side], graph),
                                    side=side))
                save()
            graph.unlink()
            printed = {json.dumps(q.get("lines")) for q in queries}
            sizes[str(n)]["lines_identical"] = (
                len(printed) == 1 and all(q.get("exit") == 0 for q in queries))
            save()


def verdict(cell: dict, bound: float) -> str:
    """The acceptance rule's word for one metric's summary cell."""
    parent, change = cell["parent"], cell["change"]
    if cell["change_over_parent"] > 1.0 + bound:
        return "worse"
    if (10 * cell["change_lower_in"] >= 9 * cell["pairs"]
            and parent["median"] - change["median"]
            > parent["q3"] - parent["q1"]):
        return "gain"
    if change["median"] > parent["q3"]:
        return "unresolved"
    return "unchanged"


def summarize(runs: list, bounds: dict) -> dict:
    """Per metric: medians, quartiles, change / parent, change wins and the
    verdict against the metric's bound."""
    out = {}
    for name in METRICS:
        by_pair = {}
        for r in runs:
            if name in r:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r[name]
        both = [p for p in by_pair.values() if len(p) == 2]
        if len(both) < 2:
            continue
        cell = {"pairs": len(both)}
        for side in SIDES:
            values = [p[side] for p in both]
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            cell[side] = {"median": med, "q1": q1, "q3": q3}
        cell["change_over_parent"] = (cell["change"]["median"]
                                      / cell["parent"]["median"])
        cell["change_lower_in"] = sum(p["change"] < p["parent"] for p in both)
        cell["verdict"] = verdict(cell, bounds[name])
        out[name] = cell
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    for side, root in checkouts.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: {side} {root} has no perfbench/run.py",
                  file=sys.stderr)
            return 2
    declared = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]
              if m["better"] == "lower"}

    record = {
        "tool": ("python3 tools/paired_bench.py --parent P --change C "
                 f"--out {args.out.name} --first-seed {args.first_seed}"),
        "machine": machine(),
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {SECONDS} --trace 0"),
        "pairing": (f"pair i uses seed {args.first_seed}+i on both sides; "
                    "the parent runs first in even pairs, the change first "
                    "in odd pairs"),
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in WORKLOADS:
        runs = []
        record["workloads"][workload] = {"runs": runs}
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for rank, side in enumerate(order):
                t0 = time.perf_counter()
                row = run_bench(checkouts[side], workload, seed)
                row.update(pair=i, seed=seed, side=side,
                           ran=("first", "second")[rank])
                runs.append(row)
                print(f"{workload} pair {i} {side}: "
                      f"op_p50_ms {row.get('op_p50_ms')} correct "
                      f"{row['correct']} ({time.perf_counter() - t0:.0f} s)",
                      file=sys.stderr, flush=True)
                record["workloads"][workload]["summary"] = summarize(
                    runs, bounds)
                save()

    probes = []
    record["sweep_probe"] = {
        "what": ("`pplab sweep` (sweep workload config, seed 77) in a fresh "
                 "interpreter, twice per checkout in alternating order; "
                 "children_maxrss_mb is the largest single sweep worker, "
                 "counting the pages it shares with the parent after fork"),
        "runs": probes}
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES + SIDES[::-1]:
            probe = sweep_probe(checkouts[side], 77, Path(tmp))
            probes.append(dict(probe, side=side, seed=77))
            save()
    shas = {p.get("csv_sha256") for p in probes}
    record["sweep_probe"]["csv_identical"] = len(shas) == 1 and None not in shas
    save()

    distance_probes(checkouts, record, save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
