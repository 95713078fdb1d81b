"""Trace-cache reset, kept under its historical import path.

The process pool's one chunk entry is
:func:`repro.runtime.parallel._pool_worker`; trace sharing is
:func:`~repro.workloads.tracegen.compiled_trace`'s process-wide cache.
"""

from __future__ import annotations

from repro.workloads import tracegen


def clear_trace_cache() -> None:
    """Drop the process-wide trace cache (tests; benchmark harnesses)."""
    tracegen.clear_cache()
