"""Hierarchical spans: the tracing half of :mod:`repro.obs`.

A *span* is one timed region of work — an engine job, a pipeline pass,
a partitioner refinement — with a name, free-form attributes, and a
parent link to the span that was open on the same thread when it
started. Spans are created with the :func:`span` context manager::

    with obs.span("pass.partition", ii=ii) as s:
        ...
        s.set(levels=len(levels))

Tracing is **off by default**: unless ``REPRO_TRACE`` is set (or
:func:`enable` is called), :func:`span` returns a shared no-op handle
and the instrumented code pays one flag check per call site. When
enabled, finished spans collect in the process-wide :class:`Tracer`
until :meth:`Tracer.drain` takes them (the CLI writes them to a trace
file with :func:`repro.obs.export.write_spans`).

The tracer is thread- and task-safe (the open-span stack lives in a
:mod:`contextvars` context variable, so two asyncio tasks interleaving
on one event loop cannot adopt each other's parents) and process-safe:
its identity is keyed on ``os.getpid``, so a forked worker starts from
a clean tracer instead of inheriting the parent's open spans, and
worker-side spans travel back to the engine as plain dicts
(:meth:`Span.to_wire`) to be re-parented with :meth:`Tracer.adopt`.

Every span belongs to a **trace**: a root span mints a fresh 128-bit
``trace_id`` and children inherit it, so one request's spans share one
id even across process boundaries. A remote caller's position in the
tree travels as a :class:`SpanContext` (see
:mod:`repro.obs.propagate` for the ``traceparent`` header form);
opening a span with ``remote=ctx`` continues the caller's trace when
there is no local parent. Span ids are drawn from a per-tracer
random-based sequence (unique across processes with overwhelming
probability, still monotone within one tracer) so traces merged from
several processes stitch without remapping.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import itertools
import os
import threading
import time

#: Environment variable enabling tracing. ``off``/``0``/``false``/empty
#: disable (the default); ``on``/``1`` enable; any other value enables
#: *and* names the JSONL file the CLI writes spans to at exit.
TRACE_ENV = "REPRO_TRACE"

_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})
_ON_VALUES = frozenset({"1", "on", "true", "yes"})


def _env_state() -> tuple[bool, str | None]:
    """(enabled, default trace path) from ``REPRO_TRACE``."""
    raw = os.environ.get(TRACE_ENV, "").strip()
    if raw.lower() in _OFF_VALUES:
        return False, None
    if raw.lower() in _ON_VALUES:
        return True, None
    return True, raw


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """A span's position in a trace, small enough to put in a header.

    The cross-boundary handle: a client captures the context of its
    open span (:func:`current_context`), ships it (see
    :func:`repro.obs.propagate.format_traceparent`), and the server
    opens its own span with ``remote=ctx`` so both sides share one
    ``trace_id`` and the server's root points at the client's span.
    """

    trace_id: str
    span_id: int


class Span:
    """One finished-or-open timed region.

    Attributes:
        name: dotted span name (``"engine.job"``, ``"pass.schedule"``).
        span_id: id from the owning tracer's sequence (random-based, so
            unique across processes with overwhelming probability).
        parent_id: id of the enclosing span, or None for roots. The
            parent may live in another process (remote contexts).
        trace_id: 128-bit hex id shared by every span of one trace.
        start: UNIX time the span opened (cross-process comparable).
        duration: wall-clock seconds (0.0 while still open).
        attrs: free-form attributes from the call site and :meth:`set`.
        error: True when the region exited with an exception.
        pid / tid: process and thread that ran the region.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "duration",
        "attrs",
        "error",
        "pid",
        "tid",
        "_tracer",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict,
        tracer: "Tracer | None" = None,
        trace_id: str = "",
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = attrs
        self.start = time.time()
        self.duration = 0.0
        self.error = False
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._tracer = tracer
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> None:
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def context(self) -> SpanContext:
        """This span's :class:`SpanContext` (for propagation)."""
        return SpanContext(self.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.error = True
        if self._tracer is not None:
            self._tracer._pop(self)
        return False  # never swallow

    def finish(self, error: bool = False) -> None:
        """Close a span that was never entered as a context manager.

        For regions whose lifetime does not nest in one call frame
        (e.g. an async request handler that must not leave the span on
        the context stack across awaits): stamps the duration and
        exports through the owning tracer. Safe to call whether or not
        the span is on the stack.
        """
        self.duration = time.perf_counter() - self._t0
        if error:
            self.error = True
        if self._tracer is not None:
            self._tracer._pop(self)

    def to_wire(self) -> dict:
        """JSON/pickle-friendly dict (the trace-file line format)."""
        record = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": round(self.start, 6),
            "dur": round(self.duration, 6),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.trace_id:
            record["trace"] = self.trace_id
        if self.error:
            record["error"] = True
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @staticmethod
    def from_wire(record: dict) -> "Span":
        """Rebuild a finished span from :meth:`to_wire` output."""
        span = Span.__new__(Span)
        span.name = record["name"]
        span.span_id = record["id"]
        span.parent_id = record.get("parent")
        span.trace_id = record.get("trace", "")
        span.start = record.get("start", 0.0)
        span.duration = record.get("dur", 0.0)
        span.attrs = dict(record.get("attrs", {}))
        span.error = bool(record.get("error", False))
        span.pid = record.get("pid", 0)
        span.tid = record.get("tid", 0)
        span._tracer = None
        span._t0 = 0.0
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration:.6f})"
        )


class _NoopSpan:
    """Shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    trace_id = ""
    error = False

    def set(self, **attrs) -> None:
        pass

    def finish(self, error: bool = False) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()

#: The open-span stack. A context variable instead of thread-local
#: state: asyncio tasks get isolated (copied) contexts, so a request
#: span left open across an ``await`` cannot become the parent of an
#: unrelated task's spans. Entries are immutable tuples, never mutated
#: in place, so tasks sharing a snapshot cannot see each other's pushes.
#: Spans of a forked parent are filtered out by pid in
#: :meth:`Tracer.current_span`.
_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class Tracer:
    """Process-wide collector of finished spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._finished: list[Span] = []
        # Random high bits + a small counter space keeps ids unique
        # across processes (so merged multi-process traces stitch
        # without remapping) while staying below 2**53 — exact in every
        # JSON consumer, including the Chrome trace viewer.
        base = (int.from_bytes(os.urandom(4), "big") << 21) + 1
        self._ids = itertools.count(base)
        self._lock = threading.Lock()

    # -- span lifecycle -------------------------------------------------

    def span(self, name: str, remote: SpanContext | None = None, **attrs) -> Span:
        """Open a span parented under the current span.

        The parent is the innermost span open in the calling context;
        with no local parent, ``remote`` (a propagated
        :class:`SpanContext`, e.g. from a ``traceparent`` header)
        continues the caller's trace; with neither, the span roots a
        fresh trace.
        """
        parent = self.current_span()
        with self._lock:
            span_id = next(self._ids)
        if parent is not None:
            parent_id: int | None = parent.span_id
            trace_id = parent.trace_id or new_trace_id()
        elif remote is not None and remote.trace_id:
            parent_id = remote.span_id
            trace_id = remote.trace_id
        else:
            parent_id = None
            trace_id = new_trace_id()
        return Span(name, span_id, parent_id, attrs, tracer=self, trace_id=trace_id)

    def current_span(self) -> Span | None:
        """The innermost open span in the calling context, if any."""
        pid = os.getpid()
        for span in reversed(_STACK.get()):
            if span.pid == pid:  # skip stale pre-fork entries
                return span
        return None

    def _push(self, span: Span) -> None:
        _STACK.set(_STACK.get() + (span,))

    def _pop(self, span: Span) -> None:
        stack = _STACK.get()
        if span in stack:
            index = len(stack) - 1 - stack[::-1].index(span)
            _STACK.set(stack[:index] + stack[index + 1 :])
        with self._lock:
            self._finished.append(span)

    # -- manual + cross-process records ---------------------------------

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        parent_id: int | None = None,
        trace_id: str = "",
        **attrs,
    ) -> Span:
        """Append an already-measured span (no context manager)."""
        with self._lock:
            span_id = next(self._ids)
        span = Span(name, span_id, parent_id, attrs, tracer=None, trace_id=trace_id)
        span.start = start
        span.duration = duration
        with self._lock:
            self._finished.append(span)
        return span

    def adopt(
        self,
        wire_spans: list[dict],
        parent_id: int | None,
        trace_id: str = "",
    ) -> list[Span]:
        """Ingest spans shipped from another process.

        Ids are remapped onto this tracer's sequence (worker-local ids
        could collide across workers); internal parent links are
        preserved and every *root* of the shipped batch is re-parented
        under ``parent_id`` — this is how worker-side pass spans end up
        under their engine job's span. A span's own ``trace_id`` is
        preserved when present (workers that received a propagated
        context already stamp the right trace); spans without one take
        ``trace_id``.
        """
        spans = [Span.from_wire(record) for record in wire_spans]
        with self._lock:
            remap = {span.span_id: next(self._ids) for span in spans}
        for span in spans:
            span.span_id = remap[span.span_id]
            if span.parent_id in remap:
                span.parent_id = remap[span.parent_id]
            else:
                span.parent_id = parent_id
            if not span.trace_id:
                span.trace_id = trace_id
        with self._lock:
            self._finished.extend(spans)
        return spans

    # -- consumption ----------------------------------------------------

    def drain(self) -> list[Span]:
        """Return and clear every finished span collected so far."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def snapshot(self) -> list[Span]:
        """Finished spans collected so far, without clearing."""
        with self._lock:
            return list(self._finished)

    def drain_wire(self) -> list[dict]:
        """Drain, as wire dicts (for shipping through ``JobResult``)."""
        return [span.to_wire() for span in self.drain()]


# ----------------------------------------------------------------------
# Module-level state (per process, fork-aware)
# ----------------------------------------------------------------------

_state_lock = threading.Lock()
_tracer: Tracer | None = None
_enabled: bool | None = None  # None = not yet derived from the env
_trace_path: str | None = None


def _refresh_from_env() -> None:
    global _enabled, _trace_path
    _enabled, _trace_path = _env_state()


def tracer() -> Tracer:
    """The process-wide tracer (fresh after a fork)."""
    global _tracer
    current = _tracer
    if current is None or current.pid != os.getpid():
        with _state_lock:
            if _tracer is None or _tracer.pid != os.getpid():
                _tracer = Tracer()
                if _tracer.pid != os.getpid():  # pragma: no cover - defensive
                    raise RuntimeError("tracer pid mismatch")
            current = _tracer
    return current


def enabled() -> bool:
    """Is tracing on for this process?"""
    global _enabled
    if _enabled is None:
        _refresh_from_env()
    if _tracer is not None and _tracer.pid != os.getpid():
        # Forked child: re-derive from the (inherited) environment so a
        # worker of a tracing parent traces too, without parent state.
        _refresh_from_env()
        tracer()
    return bool(_enabled)


def enable(path: str | None = None) -> None:
    """Turn tracing on (and optionally set the default trace path).

    Also sets ``REPRO_TRACE`` so worker processes spawned later —
    which re-derive their state from the environment — trace as well.
    """
    global _enabled, _trace_path
    _enabled = True
    if path is not None:
        _trace_path = path
    os.environ[TRACE_ENV] = path if path is not None else "on"


def disable() -> None:
    """Turn tracing off and drop any collected spans."""
    global _enabled, _trace_path
    _enabled = False
    _trace_path = None
    os.environ[TRACE_ENV] = "off"
    if _tracer is not None and _tracer.pid == os.getpid():
        _tracer.drain()


def trace_path() -> str | None:
    """Default trace output path (from ``REPRO_TRACE=<path>``), if any."""
    if _enabled is None:
        _refresh_from_env()
    return _trace_path


def span(name: str, remote: SpanContext | None = None, **attrs):
    """Open a span (a context manager); no-op while tracing is off.

    ``remote`` continues a propagated trace when there is no local
    parent (see :class:`SpanContext`).
    """
    if not enabled():
        return NOOP_SPAN
    return tracer().span(name, remote=remote, **attrs)


def current_context() -> SpanContext | None:
    """The calling context's span as a :class:`SpanContext`, if any.

    None while tracing is off or no span is open — callers injecting a
    ``traceparent`` header simply skip it then.
    """
    if not enabled():
        return None
    current = tracer().current_span()
    if current is None or not current.trace_id:
        return None
    return current.context


@contextlib.contextmanager
def force_enabled(path: str | None = None):
    """Temporarily enable tracing (tests and the ``trace`` CLI)."""
    previous = os.environ.get(TRACE_ENV)
    enable(path)
    try:
        yield tracer()
    finally:
        if previous is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = previous
        _refresh_from_env()
