"""repro.obs — unified tracing and metrics for the whole toolchain.

A zero-dependency observability layer with three pieces:

* **Spans** (:mod:`repro.obs.spans`): hierarchical timed regions —
  ``obs.span("pass.schedule", ii=ii)`` context managers, thread- and
  process-safe, a near-no-op unless ``REPRO_TRACE`` is set. The engine
  executor, every pipeline pass, the II-escalation loop, the modulo
  scheduler and the partitioner's coarsen/refine stages are
  instrumented; worker-process spans ship back through ``JobResult``
  and are re-parented under their engine job's span.
* **Metrics** (:mod:`repro.obs.metrics`): typed counters, gauges and
  log-bucketed histograms behind a :class:`MetricsRegistry`, replacing
  the ad-hoc counter dicts previously threaded through the pipeline.
  Each compile counts into its own registry, made current for the
  compile by :func:`use_registry`; its flattened snapshot is
  ``CompileDiagnostics.counters``.
* **Trace files** (:mod:`repro.obs.export`): JSONL span files and
  Chrome trace-event output (``chrome://tracing`` / Perfetto).
  :mod:`repro.obs.summary` renders text flame summaries, per-stage
  histograms and trace diffs for ``python -m repro trace``.

Typical use::

    from repro import obs

    with obs.span("my.stage", loop=ddg.name):
        ...

    REPRO_TRACE=trace.jsonl python -m repro bench --jobs 4
    python -m repro trace trace.jsonl --summary
"""

from repro.obs.export import (
    chrome_trace,
    read_trace,
    write_chrome_trace,
    write_spans,
)
from repro.obs.log import LOG_ENV, LOG_LEVEL_ENV, Logger, get_logger
from repro.obs.metrics import (
    LOG_SECONDS_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    current_registry,
    use_registry,
)
from repro.obs.prometheus import (
    parse_exposition,
    render_exposition,
    validate_exposition,
)
from repro.obs.propagate import (
    TRACEPARENT_HEADER,
    format_traceparent,
    parse_traceparent,
)
from repro.obs.spans import (
    NOOP_SPAN,
    TRACE_ENV,
    Span,
    SpanContext,
    Tracer,
    current_context,
    disable,
    enable,
    enabled,
    force_enabled,
    new_trace_id,
    span,
    trace_path,
    tracer,
)
from repro.obs.summary import (
    aggregate,
    diff_summary,
    flame_summary,
    self_times,
    stage_summary,
)

__all__ = [
    "chrome_trace",
    "read_trace",
    "write_chrome_trace",
    "write_spans",
    "LOG_ENV",
    "LOG_LEVEL_ENV",
    "Logger",
    "get_logger",
    "parse_exposition",
    "render_exposition",
    "validate_exposition",
    "TRACEPARENT_HEADER",
    "format_traceparent",
    "parse_traceparent",
    "LOG_SECONDS_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "current_registry",
    "use_registry",
    "NOOP_SPAN",
    "TRACE_ENV",
    "Span",
    "SpanContext",
    "Tracer",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "force_enabled",
    "new_trace_id",
    "span",
    "trace_path",
    "tracer",
    "aggregate",
    "diff_summary",
    "flame_summary",
    "self_times",
    "stage_summary",
]
