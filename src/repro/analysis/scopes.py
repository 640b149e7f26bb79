"""Which invariant applies where: the repo's module taxonomy.

One place to answer "is this a kernel module?", "may this file open
SQLite?", so the rules stay mechanical.  Files outside the ``repro``
package (benchmarks, examples, scripts) have module ``None``; each helper
states its out-of-tree policy explicitly.
"""

from __future__ import annotations

#: Packages whose results must be bit-reproducible: compute kernels and
#: the Monte-Carlo campaign layers built on them.
DETERMINISM_PACKAGES = (
    "repro.boolean",
    "repro.crossbar",
    "repro.xbareval",
    "repro.synthesis",
    "repro.sat",
    "repro.faultlab",
    "repro.varsim",
)

#: Pure-compute packages that must stay importable with zero knowledge of
#: the serving/observability layers above them.
KERNEL_PACKAGES = (
    "repro.boolean",
    "repro.crossbar",
    "repro.xbareval",
    "repro.synthesis",
    "repro.sat",
    "repro.arch",
)

#: Layers allowed to condition control flow on observability state
#: (they *present* telemetry; everything below must only emit it).
OBS_CONSUMER_PACKAGES = (
    "repro.obs",
    "repro.server",
    "repro.eval",
    "repro.analysis",
)

#: The only module that may open SQLite connections; everything else
#: goes through its connection-owning ``JsonStore`` (WAL mode, busy
#: timeouts, cross-thread discipline live there).
SQLITE_OWNERS = (
    "repro.engine.store",
)

#: The only module that may start worker processes; it owns start-method
#: selection (fork from server worker threads deadlocked — PR 5).
PROCESS_OWNERS = (
    "repro.engine.pool",
)


def in_packages(module: str | None, packages: tuple[str, ...]) -> bool:
    if module is None:
        return False
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


def is_determinism_scope(module: str | None) -> bool:
    """Out-of-tree files (benchmarks/examples) are held to it too: they
    assert bit-exactness against committed artifacts."""
    return module is None or in_packages(module, DETERMINISM_PACKAGES)


def is_kernel_module(module: str | None) -> bool:
    return in_packages(module, KERNEL_PACKAGES)


def may_consume_obs(module: str | None) -> bool:
    """Out-of-tree files may read telemetry (the obs benches must)."""
    return module is None or in_packages(module, OBS_CONSUMER_PACKAGES)


def may_open_sqlite(module: str | None) -> bool:
    return in_packages(module, SQLITE_OWNERS)


def may_start_processes(module: str | None) -> bool:
    return in_packages(module, PROCESS_OWNERS)
