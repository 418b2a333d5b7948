"""Ambient observability context.

Simulation components are built deep inside scenario builders that
long predate observability, so instead of threading a tracer through
every constructor, components capture the *ambient* tracer/registry at
construction time::

    from repro.obs import runtime
    ...
    self._trace = runtime.tracer()      # NullTracer unless activated
    self._metrics = runtime.metrics()   # NullRegistry unless activated

Callers that want a run observed activate the context *before*
building the scenario::

    with runtime.activated(tracer=Tracer(), metrics=MetricsRegistry()):
        scenario = build_zeus_scenario(...)
        scenario.run_for(...)

Outside an activation everything is the null implementation, so the
default cost of the whole subsystem is one truthy-check per
instrumented event.  The context is process-global (the simulator is
single-threaded by design); sweep workers activate a fresh registry
per point, which is what makes per-point metric snapshots shard-safe.

Two further slots follow the same pattern: the subsystem
:func:`profiler` (schedulers install it on their ``set_profile`` seam
at construction; transports tag deliveries and drops through it) and the
:func:`telemetry` emitter (schedulers tick it once per dispatch batch;
transports register for path-cache stats).  Both default to falsy
nulls, so simulation code never branches on "is observability on".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullRegistry
from repro.obs.profile.profiler import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

_tracer = NULL_TRACER
_metrics = NULL_METRICS
_profiler: Any = NULL_PROFILER
_telemetry: Optional[Any] = None


def tracer():
    """The ambient tracer (:data:`NULL_TRACER` unless activated)."""
    return _tracer


def metrics():
    """The ambient metrics registry (:data:`NULL_METRICS` unless
    activated)."""
    return _metrics


def profiler():
    """The ambient subsystem profiler (falsy ``NULL_PROFILER`` unless
    activated)."""
    return _profiler


def telemetry():
    """The ambient telemetry emitter, or None when not activated."""
    return _telemetry


def activate(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Any] = None,
    telemetry: Optional[Any] = None,
) -> None:
    """Install the given objects as the ambient context.

    ``None`` leaves the corresponding slot unchanged.  Prefer
    :func:`activated` unless the activation must outlive a scope (the
    CLI uses this form around its whole command body).
    """
    global _tracer, _metrics, _profiler, _telemetry
    if tracer is not None:
        _tracer = tracer
    if metrics is not None:
        _metrics = metrics
    if profiler is not None:
        _profiler = profiler
    if telemetry is not None:
        _telemetry = telemetry


def deactivate() -> None:
    """Reset every slot to the null implementations."""
    global _tracer, _metrics, _profiler, _telemetry
    _tracer = NULL_TRACER
    _metrics = NULL_METRICS
    _profiler = NULL_PROFILER
    _telemetry = None


@contextmanager
def activated(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Any] = None,
    telemetry: Optional[Any] = None,
) -> Iterator[None]:
    """Scoped activation; restores the previous context on exit (so
    nested activations -- a per-point registry inside a traced sweep --
    compose)."""
    global _tracer, _metrics, _profiler, _telemetry
    previous = (_tracer, _metrics, _profiler, _telemetry)
    if tracer is not None:
        _tracer = tracer
    if metrics is not None:
        _metrics = metrics
    if profiler is not None:
        _profiler = profiler
    if telemetry is not None:
        _telemetry = telemetry
    try:
        yield
    finally:
        _tracer, _metrics, _profiler, _telemetry = previous
