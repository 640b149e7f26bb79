"""Concurrency rules (NX2xx): paid-for bugs, mechanised.

PR 5 hit a fork-from-threads deadlock (children inheriting held mutexes)
and concurrent-writer SQLite locking; these rules pin the resulting
discipline — process creation and SQLite connections each have exactly
one owning module — plus the classic leaked-``acquire`` hazard.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .linting import Finding, ModuleContext, Rule, register
from .scopes import may_open_sqlite, may_start_processes

#: process-starting attributes on the multiprocessing module itself.
_MP_STARTERS = frozenset({"Pool", "Process", "get_context",
                          "set_start_method", "spawn", "forkserver"})


@register
class StraySqliteConnect(Rule):
    rule_id = "NX201"
    category = "concurrency"
    description = ("sqlite3.connect only inside engine.store: it owns "
                   "WAL mode, busy timeouts and the cross-thread "
                   "connection discipline")
    node_types = (ast.Call,)
    selftest_module = "repro.server.worker"
    fires = (
        "import sqlite3\nconn = sqlite3.connect('results.sqlite')\n",
        "from sqlite3 import connect\nconn = connect(':memory:')\n",
    )
    clean = (
        "import sqlite3\n"
        "try:\n    pass\nexcept sqlite3.DatabaseError:\n    raise\n",
        "from ..engine.store import JsonStore\n"
        "store = JsonStore(':memory:')\n",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not may_open_sqlite(ctx.module)

    def visit_node(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.qualified_name(node.func) == "sqlite3.connect":
            yield self.finding(
                ctx, node,
                "direct sqlite3.connect outside engine.store; "
                "go through JsonStore")


@register
class RawProcessSpawn(Rule):
    rule_id = "NX202"
    category = "concurrency"
    description = ("no raw multiprocessing starts (Pool/Process/"
                   "get_context) or os.fork outside engine.pool: its "
                   "_pool_context owns start-method selection (fork from "
                   "server worker threads deadlocks)")
    node_types = (ast.Call,)
    selftest_module = "repro.faultlab.campaign"
    fires = (
        "import multiprocessing\n"
        "pool = multiprocessing.Pool(4)\n",
        "import multiprocessing as mp\n"
        "ctx = mp.get_context('fork')\n",
        "import os\npid = os.fork()\n",
    )
    clean = (
        "from ..engine.pool import map_sharded\n"
        "out = map_sharded(func, tasks, processes=4)\n",
        "import multiprocessing\n"
        "methods = multiprocessing.get_all_start_methods()\n",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not may_start_processes(ctx.module)

    def visit_node(self, node: ast.Call,
                   ctx: ModuleContext) -> Iterator[Finding]:
        name = ctx.qualified_name(node.func)
        if name is None:
            return
        if name == "os.fork":
            yield self.finding(
                ctx, node,
                "direct os.fork outside engine.pool: a fork from a "
                "threaded process inherits held mutexes")
            return
        if name.startswith("multiprocessing.") and \
                name.rsplit(".", 1)[1] in _MP_STARTERS:
            yield self.finding(
                ctx, node,
                f"raw '{name}' outside engine.pool._pool_context; route "
                "process creation through engine.pool")


@register
class BareLockAcquire(Rule):
    rule_id = "NX203"
    category = "concurrency"
    description = ("no bare .acquire() statements: a raise between "
                   "acquire and release leaks the lock; use 'with lock:'")
    node_types = (ast.Expr,)
    selftest_module = "repro.engine.engine"
    fires = (
        "import threading\nlock = threading.Lock()\nlock.acquire()\n",
        "class Box:\n"
        "    def grab(self):\n        self._lock.acquire()\n",
    )
    clean = (
        "import threading\nlock = threading.Lock()\n"
        "with lock:\n    pass\n",
        "def try_grab(lock):\n"
        "    if lock.acquire(timeout=0.5):\n"
        "        try:\n            pass\n"
        "        finally:\n            lock.release()\n",
    )

    def visit_node(self, node: ast.Expr,
                   ctx: ModuleContext) -> Iterator[Finding]:
        call = node.value
        if isinstance(call, ast.Call) and \
                isinstance(call.func, ast.Attribute) and \
                call.func.attr == "acquire":
            yield self.finding(
                ctx, node,
                "bare .acquire() statement (no 'with', result unused): "
                "an exception before release() deadlocks later users")
