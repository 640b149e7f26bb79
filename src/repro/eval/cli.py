"""Command-line interface: run paper experiments from the shell.

::

    nanoxbar list                 # enumerate experiments
    nanoxbar run fig5             # one experiment (full sweep)
    nanoxbar run fig5 --fast      # reduced sweep
    nanoxbar all --fast           # everything
    nanoxbar bench xnor2          # inspect one benchmark function
    nanoxbar serve                # start the async batch server
    nanoxbar submit ...           # drive a running server
    nanoxbar stats                # telemetry snapshot of a running server
    nanoxbar top                  # live terminal view of a server's metrics
    nanoxbar batch --profile      # span-tree timing breakdown
    nanoxbar batch --sample-profile  # sampling wall-clock profile
    nanoxbar --log-json ...       # structured JSON logs on stderr
    nanoxbar lint src/            # repo invariant lint (determinism,
                                  # concurrency, layering rules)
    nanoxbar lint --self-test     # every rule against its own fixtures
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys

from .benchsuite import by_name, standard_suite
from .experiments import all_experiments, get_experiment
from .flags import count, positive_count, positive_seconds


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment in all_experiments():
        print(f"{experiment.experiment_id:12s} {experiment.title}  "
              f"[{experiment.paper_ref}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    result = experiment.run(args.fast)
    print(result.render())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for experiment in all_experiments():
        result = experiment.run(args.fast)
        print(result.render())
        print()
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from ..boolean import BooleanFunction, ExpressionError
    from ..synthesis import (
        optimize_lattice,
        synthesize_diode,
        synthesize_fet,
        synthesize_lattice_dual,
        synthesize_lattice_optimal,
    )

    try:
        f = BooleanFunction.from_expression(args.expression)
    except ExpressionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"f = {f.to_expression()}   (n = {f.n})")
    style = args.style
    # Constant 0 has no diode array and neither constant has a FET array
    # (an empty pull-up or pull-down plane); the lattice is 1 x 1.
    if style in ("diode", "all"):
        if f.on.is_contradiction():
            print("\ndiode array: none (constant function)")
        else:
            diode = synthesize_diode(f.on)
            print(f"\ndiode array {diode.num_rows} x {diode.num_cols}:")
            print(diode.render(f.names))
    if style in ("fet", "all"):
        if f.on.is_constant():
            print("\nFET array: none (constant function)")
        else:
            fet = synthesize_fet(f.on)
            print(f"\nFET array {fet.num_rows} x {fet.num_cols}:")
            print(fet.render(f.names))
    if style in ("lattice", "all"):
        lattice = synthesize_lattice_dual(f.on)
        folded = optimize_lattice(lattice, f.on).lattice
        print(f"\nlattice {lattice.rows} x {lattice.cols} "
              f"(folded: {folded.rows} x {folded.cols}):")
        print(folded.render(f.names))
    if style == "optimal":
        result = synthesize_lattice_optimal(f.on)
        print(f"\noptimal lattice {result.shape[0]} x {result.shape[1]} "
              f"(proved: {result.proved_optimal}):")
        print(result.lattice.render(f.names))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.name is None:
        for benchmark in standard_suite():
            tags = ",".join(sorted(benchmark.tags))
            print(f"{benchmark.name:14s} n={benchmark.n}  [{tags}]  "
                  f"{benchmark.description}")
        return 0
    try:
        benchmark = by_name(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    f = benchmark.function
    print(f"{benchmark.name}: {benchmark.description}")
    print(f"  n = {f.n}, |on| = {f.on.count_ones()}")
    print(f"  minimized SOP: {f.to_expression()}")
    metrics = f.sop_metrics()
    print(f"  products = {metrics['products']}, "
          f"dual products = {metrics['dual_products']}, "
          f"distinct literals = {metrics['distinct_literals']}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from ..engine import (
        DEFAULT_STRATEGIES,
        BatchEngine,
        FaultToleranceSpec,
        SynthesisJob,
    )
    from .benchsuite import suite

    benchmarks = suite(tags=args.tags or None, max_vars=args.max_vars)
    if not benchmarks:
        print("error: no benchmarks match the selection", file=sys.stderr)
        return 2
    strategies = DEFAULT_STRATEGIES
    if args.no_optimal:
        strategies = tuple(s for s in strategies if s != "optimal")
    fault_tolerance = None
    if args.defect_density != 0 or args.redundancy != "none":
        try:
            fault_tolerance = FaultToleranceSpec(
                defect_density=args.defect_density,
                redundancy=args.redundancy,
                seed=args.seed,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    jobs = [
        SynthesisJob.from_function(b.function, b.name, strategies,
                                   fault_tolerance)
        for b in benchmarks
    ]
    cache_path = ":memory:" if args.no_cache else args.cache
    try:
        engine = BatchEngine(cache_path=cache_path,
                             processes=_processes(args))
    except sqlite3.DatabaseError as error:
        print(f"error: cannot open cache {cache_path!r}: {error}",
              file=sys.stderr)
        print(f"hint: delete {cache_path!r} and rerun", file=sys.stderr)
        return 1
    with engine:
        try:
            results = engine.run(jobs)
        except (RuntimeError, sqlite3.DatabaseError) as error:
            print(f"error: {error}", file=sys.stderr)
            if not args.no_cache:
                # Corrupted entries self-heal on the next run; deleting the
                # cache is the last resort (and destroys valid results), so
                # suggest retrying first — e.g. a concurrent batch run can
                # surface here as a transient "database is locked".
                print(f"hint: rerun the command; if the error persists, "
                      f"delete {cache_path!r} to rebuild the cache",
                      file=sys.stderr)
            return 1
        for result in results:
            line = (f"{result.label:14s} n={result.n}  "
                    f"{result.strategy:10s} {result.shape[0]:>2d}x"
                    f"{result.shape[1]:<2d} area={result.area:<3d} "
                    f"{'hit' if result.cache_hit else 'miss'}")
            ft = result.fault_tolerance
            if ft is not None:
                if args.defect_density > 0:
                    line += ("  mapped" if ft.mapped else "  unmapped")
                if ft.tmr_area:
                    line += f"  tmr_area={ft.tmr_area}"
            print(line)
        print()
        print(engine.report())
    return 0


def _add_server_flags(parser: argparse.ArgumentParser,
                      timeout: float | None) -> None:
    """The server's address; for a client also its per-request timeout."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (the bind address for serve)")
    parser.add_argument("--port", type=int, default=8351,
                        help="server port (0 = ephemeral for serve)")
    if timeout is not None:
        parser.add_argument("--timeout", type=positive_seconds,
                            default=timeout,
                            help="per-request timeout in seconds")


def _add_store_flags(parser: argparse.ArgumentParser, cache: str) -> None:
    """The store file a command persists into, and its pool width."""
    parser.add_argument("--cache", default=cache,
                        help="SQLite store file results persist in "
                             "(default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="keep no store file (results live in memory "
                             "for this run)")
    parser.add_argument("--processes", type=count, default=1,
                        help="worker processes (0 = auto)")


def _processes(args: argparse.Namespace) -> int:
    """``--processes``, where 0 means one worker per CPU (capped)."""
    from ..engine import default_processes

    return args.processes or default_processes()


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    """The two profilers :func:`main` wraps a command in."""
    parser.add_argument("--profile", action="store_true",
                        help="print a span-tree timing breakdown afterwards")
    parser.add_argument("--sample-profile", action="store_true",
                        help="sample the main thread's wall-clock stacks "
                             "and print a top-N self-time table afterwards")


def _add_campaign_flags(parser: argparse.ArgumentParser,
                        kinds: tuple[str, ...]) -> None:
    """Declare the request flags of the campaign families ``kinds``.

    ``nanoxbar faultsim``/``varsweep`` and ``nanoxbar submit`` all declare
    them here, so every front end sends the same request.  Flags are named
    after the spec fields they set; one left out takes the spec's default
    (see :func:`_campaign_params`).
    """
    if "faultsim" in kinds:
        parser.add_argument("--n", dest="n_values", type=int, nargs="+",
                            default=[16], help="crossbar sizes N to sweep")
        parser.add_argument("--k", dest="k_values", type=int, nargs="+",
                            help="clean-square thresholds (default: N/2, "
                                 "3N/4, N of the largest size)")
        parser.add_argument("--densities", type=float, nargs="+",
                            default=[0.01, 0.05, 0.1],
                            help="defect densities to sweep")
        parser.add_argument("--models", nargs="+",
                            choices=["bernoulli", "clustered"],
                            help="defect models to sweep")
        parser.add_argument("--strategies", nargs="+",
                            choices=["greedy", "exact"],
                            help="clean-subarray extraction strategies")
        parser.add_argument("--stuck-open-fraction", type=float,
                            help="share of defects that are stuck-open")
    if "varsweep" in kinds:
        parser.add_argument("--bench", default="xnor2",
                            help="benchmark function to synthesize "
                                 "(dual-construction lattice; see `bench`)")
        parser.add_argument("--sigmas", type=float, nargs="+",
                            default=[0.1, 0.3, 0.6],
                            help="lognormal variation strengths to sweep")
        parser.add_argument("--crossbar-rows", type=int,
                            help="physical crossbar rows the lattice is "
                                 "placed on (default: the lattice's, at "
                                 "least 16)")
        parser.add_argument("--crossbar-cols", type=int,
                            help="physical crossbar columns (default: the "
                                 "lattice's, at least 16)")
        parser.add_argument("--nominal", type=float,
                            help="nominal crosspoint resistance")
    parser.add_argument("--trials", type=int,
                        help="Monte-Carlo trials per grid point")
    parser.add_argument("--seed", type=int,
                        help="campaign seed (bit-reproducible)")
    parser.add_argument("--batch-size", type=int,
                        help="trials per sharded worker batch")


def _campaign_params(args: argparse.Namespace, kind: str) -> dict:
    """The request the given campaign flags make (the family fills in)."""
    from ..grid.families import CAMPAIGNS

    params = {key: value for key, value in vars(args).items()
              if key in CAMPAIGNS[kind].keys and value is not None}
    if kind == "faultsim" and "k_values" not in params:
        # Thresholds off the largest swept N (the Fig. 6 regime: half,
        # three-quarter and full recovery).
        n_max = max(params["n_values"])
        params["k_values"] = sorted({max(1, n_max // 2),
                                     max(1, 3 * n_max // 4), n_max})
    return params


def _cmd_campaign(args: argparse.Namespace) -> int:
    from ..grid.families import CAMPAIGNS

    campaign = CAMPAIGNS[args.command]
    try:
        spec = campaign.spec(_campaign_params(args, args.command))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = None if args.no_cache else args.cache
    try:
        result = campaign.run(spec, store=store, processes=_processes(args))
    except sqlite3.DatabaseError as error:
        print(f"error: cannot use campaign store {store!r}: {error}",
              file=sys.stderr)
        print(f"hint: delete {store!r} and rerun", file=sys.stderr)
        return 1
    if args.command == "varsweep":
        print(f"benchmark {args.bench}: {by_name(args.bench).description}")
    print(result.render())
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from ..engine.store import JsonStore
    from ..grid import (
        GridConfigError,
        GridPointError,
        export_rows,
        grid_status,
        load_config,
        plan,
        release_claims,
        run_workers,
        work_loop,
    )

    try:
        config = load_config(args.config)
    except (GridConfigError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store_path = args.store or config.store or ".nanoxbar-campaigns.sqlite"

    def emit(payload: dict) -> None:
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            counts = payload.get("counts")
            line = f"grid {payload['grid_id']}: {payload['points']} points"
            if counts is not None:
                line += " — " + ", ".join(
                    f"{count} {status}"
                    for status, count in sorted(counts.items()))
            print(line)

    try:
        with JsonStore(store_path) as store:
            grid_id, _, added = plan(config, store)
            if args.grid_command == "plan":
                status = grid_status(store, grid_id)
                status["added"] = added
                emit(status)
                return 0
            if args.grid_command == "status":
                emit(grid_status(store, grid_id))
                return 0
            if args.grid_command == "export":
                rows = export_rows(store, grid_id)
                text = json.dumps({"grid_id": grid_id, "rows": rows},
                                  sort_keys=True, indent=2)
                if args.output:
                    with open(args.output, "w", encoding="utf-8") as handle:
                        handle.write(text + "\n")
                else:
                    print(text)
                return 0
            if args.grid_command == "resume":
                released = release_claims(store, grid_id)
                if not args.json:
                    print(f"released {released} stale claims")
            workers = args.workers if args.workers else config.workers
            if workers <= 1:
                work_loop(config, grid_id, store, "w0")
                failures = 0
            else:
                failures = None  # fan out below, outside this connection
        if failures is None:
            failures = run_workers(config, args.config, grid_id,
                                   store_path, workers=workers)
        with JsonStore(store_path) as store:
            status = grid_status(store, grid_id)
        emit(status)
        if failures:
            print(f"error: {failures} workers exited non-zero",
                  file=sys.stderr)
            return 1
        return 0 if status["finished"] and not \
            status["counts"].get("failed") else 1
    except (GridConfigError, GridPointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except sqlite3.DatabaseError as error:
        print(f"error: cannot use grid store {store_path!r}: {error}",
              file=sys.stderr)
        return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from ..server import BatchServer

    cache_path = ":memory:" if args.no_cache else args.cache
    processes = _processes(args)
    server = BatchServer(host=args.host, port=args.port,
                         cache_path=cache_path, processes=processes,
                         job_workers=args.job_workers)

    async def main() -> None:
        await server.start()
        print(f"nanoxbar server listening on "
              f"http://{server.host}:{server.port} "
              f"(cache={cache_path}, processes={processes}, "
              f"job_workers={args.job_workers})", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop; ctrl-C still raises KeyboardInterrupt
        await server.serve_forever()
        print("nanoxbar server stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        print(f"error: cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _submit_payload(args: argparse.Namespace) -> dict:
    if args.kind == "synthesis":
        return {"kind": "synthesis",
                "jobs": [{"bench": name} for name in args.benches]}
    return {"kind": args.kind, **_campaign_params(args, args.kind)}


def _cmd_submit(args: argparse.Namespace) -> int:
    from http.client import HTTPException

    from ..server.client import ServerClient, ServerError

    client = ServerClient(args.host, args.port, timeout=args.timeout)
    payload = _submit_payload(args)
    try:
        # Tolerate a server that is still binding its port (the CI smoke
        # backgrounds `nanoxbar serve` and submits immediately).
        client.wait_healthy(deadline=args.wait_server)
        submitted = client.submit(payload)
        job_id = submitted["job_id"]
        print(f"job {job_id}  "
              f"({'coalesced' if submitted['coalesced'] else 'new'}, "
              f"{submitted['points_total']} points)")
        if args.stream:
            for record in client.stream(job_id):
                print(json.dumps(record, sort_keys=True))
        result = client.result(job_id)
        if result["state"] != "done":
            print(f"error: job {job_id} {result['state']}: "
                  f"{result['error']}", file=sys.stderr)
            return 1
        if not args.stream:
            for record in result["points"]:
                print(json.dumps(record, sort_keys=True))
        if args.shutdown:
            client.shutdown()
            client.wait_stopped()
            print("server stopped")
    except ServerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Our stdout reader went away (e.g. `submit ... | head`); the
        # conventional quiet exit, not a server-connectivity failure.
        return 0
    except (OSError, HTTPException) as error:
        # HTTPException covers a server dying mid-exchange (e.g.
        # IncompleteRead while streaming a chunked response).
        print(f"error: cannot reach server at "
              f"{args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..analysis import (
        lint_paths,
        render_human,
        render_json,
        render_rules,
        run_selftest,
    )

    if args.rules:
        print(render_rules())
        return 0
    if args.self_test:
        result = run_selftest()
        print(result.render())
        return 0 if result.ok else 1
    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    report = lint_paths(paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_human(report, show_suppressed=args.show_suppressed))
    return report.exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    from http.client import HTTPException

    from ..server.client import ServerClient, ServerError

    client = ServerClient(args.host, args.port, timeout=args.timeout)
    try:
        stats = client.stats()
    except (OSError, HTTPException, ServerError) as error:
        print(f"error: cannot fetch stats from {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    queue = stats.get("queue", {})
    engine = stats.get("engine", {})
    print("queue:  " + "  ".join(f"{key}={queue[key]}"
                                 for key in sorted(queue)))
    if engine:
        wins = engine.pop("strategy_wins", {})
        print("engine: " + "  ".join(
            f"{key}={engine[key]:.3g}" if isinstance(engine[key], float)
            else f"{key}={engine[key]}" for key in sorted(engine)))
        if wins:
            print("wins:   " + "  ".join(f"{name}={count}"
                                         for name, count in wins.items()))
    snapshot = stats.get("metrics", {})
    counters = snapshot.get("counters", {})
    if counters:
        print("counters:")
        for name in sorted(counters):
            for label_text in sorted(counters[name]):
                suffix = f"{{{label_text}}}" if label_text else ""
                print(f"  {name}{suffix} = {counters[name][label_text]}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        print("latency histograms:")
        for name in sorted(histograms):
            for label_text in sorted(histograms[name]):
                series = histograms[name][label_text]
                suffix = f"{{{label_text}}}" if label_text else ""
                print(f"  {name}{suffix}: count={series['count']} "
                      f"p50={series['p50']:.4g}s p90={series['p90']:.4g}s "
                      f"p99={series['p99']:.4g}s")
    return 0


def _render_top_frame(frame: dict, health: dict, interval: float,
                      rows: int) -> str:
    """One repaint of the ``nanoxbar top`` view from a recorder frame."""
    resources = frame.get("resources", {})
    status = health.get("status", "ok")
    lines = [
        f"nanoxbar top  cursor={frame['cursor']}  tick={interval:g}s  "
        f"status={status}",
        f"process: cpu={resources.get('cpu_seconds', 0.0):.1f}s  "
        f"rss={resources.get('rss_bytes', 0) / 2**20:.0f}MiB  "
        f"max_rss={resources.get('max_rss_bytes', 0) / 2**20:.0f}MiB",
    ]
    for alert in health.get("alerts", []):
        lines.append(f"ALERT {alert['rule']}: {alert['message']}")
    counters = sorted(frame["counters"].items(),
                      key=lambda kv: kv[1]["rate"], reverse=True)
    if counters:
        lines.append("")
        lines.append(f"{'rate/s':>10s} {'delta':>8s} {'total':>10s}  counter")
        for key, entry in counters[:rows]:
            lines.append(f"{entry['rate']:10.2f} {entry['delta']:8g} "
                         f"{entry['value']:10g}  {key}")
    gauges = sorted(frame["gauges"].items())
    if gauges:
        lines.append("")
        lines.append("gauges: " + "  ".join(f"{key}={value:g}"
                                            for key, value in gauges))
    histograms = sorted(frame["histograms"].items(),
                        key=lambda kv: kv[1]["rate"], reverse=True)
    if histograms:
        lines.append("")
        lines.append(f"{'rate/s':>10s} {'p50':>9s} {'p99':>9s}  latency")
        for key, entry in histograms[:rows]:
            lines.append(f"{entry['rate']:10.2f} {entry['p50']:8.4g}s "
                         f"{entry['p99']:8.4g}s  {key}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time
    from http.client import HTTPException

    from ..server.client import ServerClient, ServerError

    if args.local:
        from ..obs.timeline import local_recorder
        recorder = local_recorder()

        def fetch() -> tuple[dict | None, dict, float]:
            recorder.tick_once()
            return recorder.latest(), {"status": "ok (local)",
                                       "alerts": []}, recorder.interval
    else:
        client = ServerClient(args.host, args.port, timeout=args.timeout)
        cursor = {"value": 0}

        def fetch() -> tuple[dict | None, dict, float]:
            page = client.history(since=max(0, cursor["value"] - 1))
            frames = page["frames"]
            if frames:
                cursor["value"] = frames[-1]["cursor"]
            return (frames[-1] if frames else None, client.health(),
                    page["interval"])

    try:
        while True:
            try:
                frame, health, interval = fetch()
            except (OSError, HTTPException, ServerError) as error:
                print(f"error: cannot reach server at "
                      f"{args.host}:{args.port}: {error}", file=sys.stderr)
                return 1
            text = (_render_top_frame(frame, health, interval, args.rows)
                    if frame else "(no frames yet — recorder warming up)")
            if args.once:
                print(text)
                return 0
            # Full-screen repaint: clear + home, like watch(1).
            print(f"\x1b[2J\x1b[H{text}", flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoxbar",
        description="Nano-crossbar synthesis & fault tolerance experiments "
                    "(Altun, Ciriani, Tahoori — DATE 2017 reproduction)",
    )
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured JSON logs on stderr "
                             "(equivalent to NANOXBAR_LOG=json)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id (see `list`)")
    run.add_argument("--fast", action="store_true", help="reduced sweep")
    run.set_defaults(fn=_cmd_run)

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--fast", action="store_true", help="reduced sweeps")
    everything.set_defaults(fn=_cmd_all)

    bench = sub.add_parser("bench", help="inspect benchmark functions")
    bench.add_argument("name", nargs="?", default=None)
    bench.set_defaults(fn=_cmd_bench)

    synth = sub.add_parser("synth", help="synthesize an expression")
    synth.add_argument("expression", help="e.g. \"x1 x2 + x1' x2'\"")
    synth.add_argument("--style", default="all",
                       choices=["all", "diode", "fet", "lattice", "optimal"])
    synth.set_defaults(fn=_cmd_synth)

    batch = sub.add_parser(
        "batch",
        help="synthesize a whole benchmark suite through the batch engine")
    _add_store_flags(batch, ".nanoxbar-cache.sqlite")
    batch.add_argument("--tags", nargs="*", default=None,
                       help="restrict to benchmarks carrying any of these tags")
    batch.add_argument("--max-vars", type=int, default=None,
                       help="restrict to benchmarks with at most this many "
                            "variables")
    batch.add_argument("--no-optimal", action="store_true",
                       help="drop the SAT-optimal strategy from the portfolio")
    batch.add_argument("--defect-density", type=float, default=0.0,
                       help="also map each lattice onto a random defective "
                            "fabric with this defect density")
    batch.add_argument("--redundancy", default="none",
                       choices=["none", "tmr"],
                       help="also build TMR redundancy around each lattice")
    batch.add_argument("--seed", type=int, default=0,
                       help="seed for the fault-tolerance post-processing")
    _add_profile_flags(batch)
    batch.set_defaults(fn=_cmd_batch)

    faultsim = sub.add_parser(
        "faultsim",
        help="run a Monte-Carlo fault-tolerance campaign (yield / clean-k "
             "recovery sweeps) through the faultlab engine")
    _add_campaign_flags(faultsim, ("faultsim",))

    varsweep = sub.add_parser(
        "varsweep",
        help="run a variation-aware vs oblivious Monte-Carlo delay "
             "campaign through the varsim engine")
    _add_campaign_flags(varsweep, ("varsweep",))
    for campaign in (faultsim, varsweep):
        _add_store_flags(campaign, ".nanoxbar-campaigns.sqlite")
        _add_profile_flags(campaign)
        campaign.set_defaults(fn=_cmd_campaign)

    grid = sub.add_parser(
        "grid",
        help="declarative experiment grids: plan claimable rows in a "
             "shared store and drain them with N workers")
    grid_sub = grid.add_subparsers(dest="grid_command", required=True)
    for name, help_text in (
            ("plan", "materialise the config's rows (idempotent)"),
            ("run", "plan, then drain the grid with worker processes"),
            ("status", "report row counts for the config's grid"),
            ("resume", "release stale claims, then drain what remains"),
            ("export", "dump every row (params, status, result) as JSON")):
        grid_cmd = grid_sub.add_parser(name, help=help_text)
        grid_cmd.add_argument("config",
                              help="grid config file (TOML or JSON)")
        grid_cmd.add_argument("--store", default=None,
                              help="shared store path (default: the "
                                   "config's, else "
                                   ".nanoxbar-campaigns.sqlite)")
        grid_cmd.add_argument("--json", action="store_true",
                              help="machine-readable output")
        if name in ("run", "resume"):
            grid_cmd.add_argument("--workers", type=count, default=0,
                                  help="worker processes (default: the "
                                       "config's; 1 = in-process)")
        if name == "export":
            grid_cmd.add_argument("-o", "--output", default=None,
                                  help="write JSON here instead of stdout")
        grid_cmd.set_defaults(fn=_cmd_grid)

    serve = sub.add_parser(
        "serve",
        help="start the async HTTP/JSON batch server fronting the "
             "engine, faultlab and varsim workload families")
    _add_server_flags(serve, timeout=None)
    _add_store_flags(serve, ".nanoxbar-server.sqlite")
    serve.add_argument("--job-workers", type=positive_count, default=2,
                       help="how many jobs may compute concurrently")
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a job to a running nanoxbar server and print its "
             "per-point results")
    _add_server_flags(submit, timeout=300.0)
    submit.add_argument("--wait-server", type=float, default=10.0,
                        help="seconds to wait for the server to come up "
                             "before the first request")
    submit.add_argument("--kind", default="synthesis",
                        choices=["synthesis", "faultsim", "varsweep"],
                        help="workload family to submit")
    submit.add_argument("--stream", action="store_true",
                        help="stream per-point records as they complete "
                             "(chunked endpoint) instead of waiting")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to stop after the results "
                             "arrive (smoke tests)")
    submit.add_argument("--benches", nargs="+", default=["xnor2"],
                        help="[synthesis] benchmark functions to "
                             "synthesize")
    _add_campaign_flags(submit, ("faultsim", "varsweep"))
    submit.set_defaults(fn=_cmd_submit)

    lint = sub.add_parser(
        "lint",
        help="check the repo's determinism / concurrency / layering "
             "invariants with the AST lint engine (repro.analysis)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", default="human",
                      choices=["human", "json"],
                      help="output format")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print findings silenced by "
                           "'# nanoxbar: allow[...]' pragmas")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--self-test", action="store_true",
                      help="lint every rule's embedded fire/no-fire "
                           "fixtures and exit non-zero on drift")
    lint.set_defaults(fn=_cmd_lint)

    stats = sub.add_parser(
        "stats",
        help="fetch and pretty-print a running server's queue, engine "
             "and telemetry snapshot")
    _add_server_flags(stats, timeout=30.0)
    stats.add_argument("--json", action="store_true",
                       help="print the raw /api/stats JSON instead")
    stats.set_defaults(fn=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="live refreshing terminal view of the metrics timeline "
             "(a running server's, or this process's with --local)")
    _add_server_flags(top, timeout=30.0)
    top.add_argument("--interval", type=positive_seconds, default=1.0,
                     help="refresh period in seconds")
    top.add_argument("--rows", type=positive_count, default=12,
                     help="series shown per table")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen clearing)")
    top.add_argument("--local", action="store_true",
                     help="read this process's recorder instead of a "
                          "server (ticks it on demand)")
    top.set_defaults(fn=_cmd_top)
    return parser


def _run(args: argparse.Namespace) -> int:
    """The command itself, under ``--profile``'s span tree when asked."""
    if not getattr(args, "profile", False):
        return args.fn(args)
    from ..obs import profiled

    with profiled(f"cli.{args.command}") as prof:
        code = args.fn(args)
    print()
    print(prof.render())
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_json or os.environ.get("NANOXBAR_LOG"):
        from ..obs import configure_logging
        configure_logging(json_mode=True if args.log_json else None)
    if not getattr(args, "sample_profile", False):
        return _run(args)
    # Sampling profiler around the whole command, main thread only: the
    # serial compute path runs here, and pool children are separate
    # processes the sampler cannot see anyway.
    import threading

    from ..obs import StackSampler
    sampler = StackSampler(thread_ids={threading.get_ident()})
    with sampler:
        code = _run(args)
    print()
    print(sampler.report().render_top())
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `nanoxbar top |
        # head`); exit quietly instead of tracebacking mid-print.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
