"""Structured progress events for engine runs.

The executor and the serving layer emit one :class:`Event` per job
transition (started, finished, cache hit, timeout, error) to an
:class:`EventBus`, which fans out to pluggable sinks (:class:`Sink`).
Three sinks ship with the engine:

* :class:`StderrProgressSink` — a single self-overwriting progress
  line (``[ 42/678] 30 cached ... 12.3s 6.1 jobs/s su2cor/loop_17``)
  suitable for interactive runs;
* :class:`JsonlSink` — one JSON object per event, append-only, for
  machine consumption and post-mortems;
* :class:`CollectingSink` — every event in memory, for tests and
  programmatic consumers.

Sinks must never break a run: the bus swallows (and counts) sink
exceptions.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import time
from collections.abc import Iterable


class EventKind(enum.Enum):
    """Job lifecycle transitions."""

    STARTED = "started"
    FINISHED = "finished"
    CACHE_HIT = "cache_hit"
    TIMEOUT = "timeout"
    ERROR = "error"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventKind.{self.name}"


@dataclasses.dataclass(frozen=True)
class Event:
    """One engine observation.

    Attributes:
        kind: which transition happened.
        key: the job's content hash.
        tag: the job's human label (benchmark/loop).
        duration: wall-clock seconds (terminal events only).
        ii: achieved II for successful compilations.
        mii: the loop's MII for successful compilations.
        error: CompileError text for ERROR events.
        error_kind: failure taxonomy value (see
            :class:`repro.engine.jobs.ErrorKind`) for non-OK events.
        timestamp: UNIX time the event was emitted.
        trace: trace id of the span tree that produced the event, so a
            streamed event can be joined against its trace (serve
            stamps these on the NDJSON event stream).
        span: id of the producing span within that trace.
    """

    kind: EventKind
    key: str
    tag: str = ""
    duration: float | None = None
    ii: int | None = None
    mii: int | None = None
    error: str = ""
    error_kind: str = ""
    timestamp: float = 0.0
    trace: str = ""
    span: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form (None fields dropped)."""
        data = {
            "kind": self.kind.value,
            "key": self.key,
            "tag": self.tag,
            "timestamp": self.timestamp,
        }
        if self.duration is not None:
            data["duration"] = round(self.duration, 6)
        if self.ii is not None:
            data["ii"] = self.ii
        if self.mii is not None:
            data["mii"] = self.mii
        if self.error:
            data["error"] = self.error
        if self.error_kind:
            data["error_kind"] = self.error_kind
        if self.trace:
            data["trace"] = self.trace
        if self.span:
            data["span"] = self.span
        return data


class Sink:
    """Event consumer interface (subclass and override :meth:`emit`)."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/teardown; called once at the end of a run."""


#: Kinds that terminate a job (used for progress accounting).
TERMINAL_KINDS = frozenset(
    {EventKind.FINISHED, EventKind.CACHE_HIT, EventKind.TIMEOUT, EventKind.ERROR}
)


class StderrProgressSink(Sink):
    """Single-line live progress on stderr.

    The line carries completion counts plus elapsed wall time and
    throughput (terminal events per second since the sink saw its first
    event), so a long sweep shows whether it is still making progress.

    Args:
        total: expected number of jobs (for the ``done/total`` figure).
        stream: output stream (default ``sys.stderr``); tests inject
            a ``StringIO``.
    """

    def __init__(self, total: int, stream=None) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.hits = 0
        self.failed = 0
        self.timeouts = 0
        self.started_at: float | None = None

    def emit(self, event: Event) -> None:
        if self.started_at is None:
            self.started_at = time.monotonic()
        if event.kind not in TERMINAL_KINDS:
            return
        self.done += 1
        if event.kind is EventKind.CACHE_HIT:
            self.hits += 1
        elif event.kind is EventKind.ERROR:
            self.failed += 1
        elif event.kind is EventKind.TIMEOUT:
            self.timeouts += 1
        elapsed = time.monotonic() - self.started_at
        rate = self.done / elapsed if elapsed > 0 else 0.0
        width = len(str(self.total))
        line = (
            f"\r[{self.done:{width}d}/{self.total}] "
            f"{self.hits} cached, {self.failed} failed, "
            f"{self.timeouts} timed out  "
            f"{elapsed:.1f}s {rate:.1f} jobs/s  {event.tag[:40]:<40}"
        )
        self.stream.write(line)
        self.stream.flush()

    def close(self) -> None:
        if self.done:
            self.stream.write("\n")
            self.stream.flush()


class JsonlSink(Sink):
    """Append events as JSON lines to a file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.flush()
        self._handle.close()


class CollectingSink(Sink):
    """Keep every event in memory (tests, programmatic consumers)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)


class EventBus:
    """Fan events out to sinks; a broken sink never breaks the run.

    ``emit`` stamps unset timestamps and delivers to every sink in
    attachment order; ``dropped`` counts the sink exceptions swallowed
    so far (emit and close).
    """

    def __init__(self, sinks: Iterable[Sink] = ()) -> None:
        self.sinks = list(sinks)
        self.dropped = 0

    def emit(self, event: Event) -> None:
        """Deliver to every sink, stamping the time if unset."""
        if event.timestamp == 0.0:
            event = dataclasses.replace(event, timestamp=time.time())
        for sink in self.sinks:
            try:
                sink.emit(event)
            except Exception:
                self.dropped += 1

    def close(self) -> None:
        """Close every sink (errors counted, not raised)."""
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:
                self.dropped += 1
