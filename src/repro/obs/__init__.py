"""``repro.obs`` — the simulator telemetry layer.

Hierarchical named counters, gauges, histograms and wall-clock timers,
with a process-wide on/off switch and near-zero overhead when disabled:
instrumented call sites ask the module for an instrument and get a
shared no-op singleton unless a registry is active.

Usage::

    from repro import obs

    with obs.capture() as registry:          # or obs.enable()
        run_experiments()
        snap = obs.snapshot(meta={"scale": "small"})
    obs.write_snapshot(snap, "run.json")

Instrumented library code stays declarative::

    obs.counter("tmu.engine.runs").add()
    obs.gauge("runtime.executor.cells_per_sec").set(rate)
    with obs.timer("sim.memsys.profile"):
        ...

Snapshots serialize to the stable JSON schema in
:mod:`repro.obs.snapshot`; ``repro stats`` dumps and diffs them, and the
``bench-smoke`` CI job gates on schema validity plus a cells/sec
regression bound.

The metrics answer *how much*; :mod:`repro.obs.tracing` answers *when*:
an event timeline (spans / instants / counter samples on the same
dotted paths) behind its own switch (:func:`enable_tracing` /
:func:`trace_capture`), exported to Perfetto or folded into a stall
report by :mod:`repro.obs.export` and the ``repro trace`` CLI.

The *live* plane renders the same data while a process runs:
:mod:`repro.obs.live` turns any registry into Prometheus text
exposition (mounted at ``GET /metrics`` by ``repro serve``),
:mod:`repro.obs.logging` is the structured JSON log layer with
contextvar correlation ids, and :mod:`repro.obs.report` renders the
experiment store as a self-contained HTML flight recorder (``repro
report``; imported lazily by the CLI, not re-exported here, because it
reads from :mod:`repro.store`).
"""

from __future__ import annotations

from contextlib import contextmanager

from .metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMER,
    Counter,
    Gauge,
    Histogram,
    Timer,
)
from .registry import PrefixedRegistry, Registry, add_deltas
from .live import PROM_CONTENT_TYPE, to_prometheus
from .logging import (
    configure as configure_logging,
    correlation,
    get_logger,
    log_event,
)
from .export import (
    fold_trace,
    stall_report,
    to_perfetto,
    write_perfetto,
)
from .tracing import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    load_trace,
    make_trace,
    trace_capture,
    trace_snapshot,
    tracer,
    tracing_enabled,
    validate_trace,
    write_trace,
)
from .snapshot import (
    SCHEMA,
    bench_rev,
    current_rev,
    diff_snapshots,
    load_snapshot,
    make_snapshot,
    render_diff,
    render_snapshot,
    validate_snapshot,
    worktree_dirty,
    write_bench_snapshot,
    write_snapshot,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "PrefixedRegistry",
    "add_deltas",
    "SCHEMA",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "snapshot",
    "make_snapshot",
    "validate_snapshot",
    "load_snapshot",
    "write_snapshot",
    "write_bench_snapshot",
    "diff_snapshots",
    "render_diff",
    "render_snapshot",
    "current_rev",
    "bench_rev",
    "worktree_dirty",
    "Tracer",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "active_tracer",
    "tracer",
    "trace_capture",
    "trace_snapshot",
    "make_trace",
    "validate_trace",
    "load_trace",
    "write_trace",
    "to_perfetto",
    "write_perfetto",
    "fold_trace",
    "stall_report",
    "to_prometheus",
    "PROM_CONTENT_TYPE",
    "configure_logging",
    "correlation",
    "get_logger",
    "log_event",
]

_active: Registry | None = None


def enable(registry: Registry | None = None) -> Registry:
    """Install (and return) the process-wide registry."""
    global _active
    _active = registry if registry is not None else Registry()
    return _active


def disable() -> None:
    """Turn telemetry off; instrumented code reverts to no-ops."""
    global _active
    _active = None


def enabled() -> bool:
    return _active is not None


def active() -> Registry | None:
    """The live registry, or None when telemetry is off."""
    return _active


@contextmanager
def capture(registry: Registry | None = None):
    """Scoped telemetry: enable for the block, restore the previous
    state after (tests, the benchmark harness, worker processes)."""
    global _active
    previous = _active
    _active = registry if registry is not None else Registry()
    try:
        yield _active
    finally:
        _active = previous


def counter(name: str):
    """The named counter of the active registry (no-op when disabled)."""
    return _active.counter(name) if _active is not None else NULL_COUNTER


def gauge(name: str):
    return _active.gauge(name) if _active is not None else NULL_GAUGE


def histogram(name: str):
    return _active.histogram(name) if _active is not None else NULL_HISTOGRAM


def timer(name: str):
    return _active.timer(name) if _active is not None else NULL_TIMER


def snapshot(meta: dict | None = None) -> dict:
    """Snapshot the active registry (an empty registry when disabled,
    so callers can always write a schema-valid file)."""
    return make_snapshot(_active if _active is not None else Registry(), meta)
