"""Trace-context propagation across process and wire boundaries.

A :class:`~repro.obs.spans.SpanContext` travels between processes as a
W3C-``traceparent``-style header::

    traceparent: 00-<32 hex trace id>-<16 hex span id>-01

The serve client injects it on every HTTP request when a span is open
(:func:`repro.obs.spans.current_context`), and the server extracts it
and opens its ``serve.request`` span with ``remote=ctx``. The compile
worker's spans are adopted into that trace when they come back
(:meth:`repro.obs.spans.Tracer.adopt`) — so one submitted job yields
one stitched trace spanning client, server, and worker processes.

Parsing is forgiving by design: a malformed or absent header yields
``None`` and the receiver simply roots a fresh trace. Propagation must
never be able to fail a request.
"""

from __future__ import annotations

import re

from repro.obs.spans import SpanContext

#: Header carrying the caller's span context.
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(
    r"^[0-9a-f]{2}-(?P<trace>[0-9a-f]{32})-(?P<span>[0-9a-f]{16})-[0-9a-f]{2}$"
)


def format_traceparent(ctx: SpanContext) -> str:
    """Render a context as a ``traceparent`` header value."""
    return f"00-{ctx.trace_id}-{ctx.span_id & (2**64 - 1):016x}-01"


def parse_traceparent(value: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header value; None when malformed.

    All-zero trace or span ids (the spec's "invalid" sentinels) are
    rejected too, so a context round-tripped through here always names
    a real position in a real trace.
    """
    if not value:
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    trace_id = match.group("trace")
    span_id = int(match.group("span"), 16)
    if span_id == 0 or trace_id == "0" * 32:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)
