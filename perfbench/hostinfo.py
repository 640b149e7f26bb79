"""What every result records about the code and the host it ran on."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
import sys


def _git_commit(root: str) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest(root: str) -> str:
    """Digest of the program's sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> str | None:
    if importlib.util.find_spec(module) is None:
        return None
    return __import__(module).__version__


def host_info(root: str, seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_digest": _src_digest(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": sys.platform,
        # The program's lru caches are emptied before every unit of work
        # (see workloads.clear_program_caches), on every commit alike.
        "program_caches": "cold per unit",
    }
