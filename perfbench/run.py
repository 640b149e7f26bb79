"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A wrong answer exits 1; a checkout without ``src/repro``
exits 2 without a result.  ``--workload all`` runs the four workloads in
this one process and prints every figure.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the first line)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import catalog, stats  # noqa: E402
from perfbench.hostinfo import host_info  # noqa: E402
from perfbench.tracer import Recorder  # noqa: E402
from perfbench.workloads import pass_seconds, passes  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")


def make_workload(name: str):
    from perfbench.workloads.exact import Exact
    from perfbench.workloads.paper import Paper
    from perfbench.workloads.served import Served
    from perfbench.workloads.sweep import Sweep

    if name == "served":
        return Served(ROOT)
    return {"exact": Exact, "paper": Paper, "sweep": Sweep}[name]()


def probe_setup(name: str, seed: int) -> float:
    """One set-up, imports included, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def set_up(workload, seed: int, workdir: str, trace: bool,
           first: bool) -> list[float]:
    """Set the workload up for measuring; returns the set-up samples.

    ``served`` sets up (server start and cache warm-up) several times in
    this process.  The others set up once here, timed from the first line
    of this file when no other workload ran before in this process, and
    again in fresh interpreters, so every sample includes the imports.
    """
    if workload.name == "served":
        samples = []
        for _ in range(1 if trace else SETUP_SAMPLES):
            workload.close()
            began = time.perf_counter()
            workload.setup(seed, workdir)
            samples.append(time.perf_counter() - began)
        return samples
    workload.setup(seed, workdir)
    if trace:
        return []
    samples = [time.perf_counter() - T0] if first else []
    while len(samples) < SETUP_SAMPLES:
        samples.append(probe_setup(workload.name, seed))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, first: bool) -> dict:
    workload = make_workload(name)
    recorder = Recorder()
    try:
        setups = set_up(workload, seed, workdir, trace, first)
        workload.warm_up()
        outcome = workload.measure(seconds, trace, recorder)
    finally:
        workload.close()
    if name != "served":
        outcome.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    figures = {
        "wall_s": (outcome.wall_s, "s"),
        "raw_wall_s": (pass_seconds(outcome.raw_walls), "s"),
        **outcome.figures,
        "error_rate": (outcome.failed / outcome.attempted, "fraction"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
    }
    if setups:
        figures["setup_s"] = (stats.median(setups), "s")
    if trace:
        extra = dict(outcome.layers)
        extra["bench.trace_overhead"] = (pass_seconds(outcome.traced_walls)
                                         / outcome.wall_s)
        metrics = catalog.layer_values(recorder.self_times(), recorder.counts,
                                       passes(outcome.traced_walls), extra)
        units = {m.name: m.unit for m in catalog.PER_LAYER}
    else:
        metrics = {m.name: figures[m.name][0] for m in catalog.END_TO_END}
        units = {m.name: m.unit for m in catalog.END_TO_END}
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "host": host_info(ROOT, seed), "setup_samples": setups,
        "walls": outcome.walls, "traced_walls": outcome.traced_walls,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "wrong": outcome.wrong,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if trace:
        recorder.dump(stem + "-spans.json")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"{name}: {passes(record['walls']):.3g} untraced and "
          f"{passes(record['traced_walls']):.3g} traced passes, "
          f"{record['attempted']} operations, {record['failed']} failed")
    for key, entry in record["figures"].items():
        value = entry["value"]
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"figure {name}.{key} = {shown} {entry['unit']}")
    for key, entry in record["metrics"].items():
        print(f"metric {name}.{key} = {entry['value']:.6g} {entry['unit']}")
    for problem in record["wrong"]:
        print(f"WRONG {name}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*catalog.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds it took, exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP_DIR)
    try:
        if args.setup_probe:
            make_workload(args.workload).setup(args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        names = (catalog.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        records = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace), workdir, index == 0)
                   for index, name in enumerate(names)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in records[0]["host"].items():
        print(f"host {key} = {value}")
    for record in records:
        print_record(record)
    correct = not any(record["wrong"] for record in records)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {(f"{record['workload']}.{key}" if prefix else key): value
                    for record in records
                    for key, value in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
