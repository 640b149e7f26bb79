"""Grid worker entry point: ``python -m repro.grid.worker``.

One worker process = one claim loop (:func:`repro.grid.runner.work_loop`)
on one shared store file.  ``nanoxbar grid run --workers N`` launches N
of these; nothing stops an operator starting more by hand on another
host mounting the same filesystem — the claim protocol is the only
coordination.

Exit status: 0 when the loop drained without terminal failures, 1 when
any point this worker touched landed in ``failed``, 2 on a bad
invocation.
"""

from __future__ import annotations

import argparse
import sys

from ..engine.store import JsonStore
from .config import GridConfigError, load_config
from .runner import DEFAULT_POLL_SECONDS, work_loop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.grid.worker",
        description="claim and compute points of one experiment grid")
    parser.add_argument("--config", required=True,
                        help="grid config file (TOML or JSON)")
    parser.add_argument("--store", required=True,
                        help="shared JsonStore file path")
    parser.add_argument("--grid-id", required=True,
                        help="grid identity as printed by 'grid plan'")
    parser.add_argument("--worker-id", default="w0",
                        help="worker name recorded on claimed rows")
    parser.add_argument("--poll", type=float, default=DEFAULT_POLL_SECONDS,
                        help="sleep between claim attempts while peers "
                             "hold leases")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
    except GridConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with JsonStore(args.store) as store:
        tally = work_loop(config, args.grid_id, store, args.worker_id,
                          poll_seconds=args.poll)
    return 1 if tally.get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
