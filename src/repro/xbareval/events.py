"""Kernel-side degradation-event hook (dependency inversion point).

The evaluation kernels occasionally need to say something operational —
"scipy label pass failed, degrading" — but kernel
packages must stay importable with zero knowledge of the observability
stack (lint rule NX302).  So the kernels emit through this one-function
seam, and the composition root (``repro/__init__``) injects the
:mod:`repro.obs` structured logger as the sink.  With no sink installed
(kernels embedded somewhere without the full package) events are
silently dropped — they are advisory, never load-bearing.
"""

from __future__ import annotations

from typing import Callable, Optional

#: ``sink(source, message, **fields)`` — installed by the composition
#: root; ``None`` drops events.
_sink: Optional[Callable[..., None]] = None


def set_event_sink(sink: Optional[Callable[..., None]]) -> None:
    """Install (or clear, with ``None``) the process-wide event sink."""
    global _sink
    _sink = sink


def emit(source: str, message: str, **fields: object) -> None:
    """Report one operational event; failures in the sink are swallowed
    (telemetry must never break a kernel mid-campaign)."""
    sink = _sink
    if sink is None:
        return
    try:
        sink(source, message, **fields)
    except Exception:
        pass
