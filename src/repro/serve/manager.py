"""Async job lifecycle: submit -> (cache | queue) -> run -> observe.

:class:`JobManager` is the serving layer's core, sitting between the
HTTP front end and the existing engine machinery. Per submission it:

1. dedupes on the job's content hash — resubmitting a known key
   attaches to the in-flight (or finished) record instead of compiling
   twice;
2. consults the :class:`~repro.engine.cache.ResultCache` — a hit is
   terminal immediately and bypasses admission (it consumes no compile
   capacity);
3. otherwise asks the :class:`~repro.serve.admission.AdmissionController`
   for a slot (the HTTP layer turns a refusal into 429/503) and
   schedules the compile on a persistent executor — a
   ``ProcessPoolExecutor`` running the engine's own worker entry point
   (:func:`repro.engine.executor.execute_wire`), or a thread pool for
   hermetic in-process deployments;
4. emits the same structured :class:`repro.engine.events.Event` stream
   the batch engine produces (``started``/``finished``/``cache_hit``/
   ``timeout``/``error``) to an :class:`~repro.engine.events.EventBus`
   *and* to per-job histories that HTTP clients can stream as NDJSON.

The manager must only be touched from its event loop; cross-thread
callers go through :func:`asyncio.run_coroutine_threadsafe` (see
:class:`repro.serve.cluster.ServeCluster`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.cache import ResultCache
from repro.engine.events import Event, EventBus, EventKind
from repro.engine.executor import (
    event_for_result,
    execute_wire,
    execute_wire_inline,
)
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob, ErrorKind, JobResult, Outcome
from repro.obs import spans as obs
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import format_traceparent
from repro.obs.spans import SpanContext
from repro.serve.admission import AdmissionController, AdmissionDecision

_log = get_logger("serve")


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobStatus.{self.name}"


@dataclasses.dataclass
class JobRecord:
    """Everything the server knows about one submitted key."""

    key: str
    tag: str
    client: str
    wire: dict | None
    status: JobStatus
    submitted_at: float
    result: JobResult | None = None
    # The submitting request's span context (None when tracing is off
    # or the submission came from outside any span): the ``serve.job``
    # span parents under it, stitching the job into the caller's trace.
    ctx: SpanContext | None = None
    # Trace position stamped onto this record's events (the NDJSON
    # stream): the serve.job span once running, else the submit context.
    trace: str = ""
    span: int = 0
    events: list[Event] = dataclasses.field(default_factory=list)
    done: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)
    # Chained notification: every event replaces ``update`` with a fresh
    # asyncio.Event and sets the old one, so any number of streamers can
    # wait race-free on the instance they grabbed.
    update: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)

    def to_payload(self) -> dict:
        """JSON-ready status document (the ``GET /jobs/<key>`` body)."""
        payload: dict = {
            "key": self.key,
            "tag": self.tag,
            "status": self.status.value,
            "submitted_at": round(self.submitted_at, 6),
        }
        if self.trace:
            payload["trace"] = self.trace
        if self.result is not None:
            res = self.result
            payload["outcome"] = res.outcome.value
            payload["cached"] = res.cached
            payload["duration"] = round(res.duration, 6)
            if res.ok:
                payload["ii"] = res.result.ii
                payload["mii"] = res.result.mii
                payload["scheme"] = res.result.scheme_name
                payload["fingerprint"] = result_fingerprint(res.result)
            if res.error:
                payload["error"] = res.error
                payload["error_kind"] = res.error_kind.value
        return payload


class JobManager:
    """Owns job records, the executor pool, and event fan-out.

    Args:
        cache: the result store; hits are served from it and every
            successful compile is written back to it.
        admission: slot controller shared with the HTTP layer.
        executor: ``"thread"`` (hermetic, in-process) or ``"process"``
            (the engine's ProcessPoolExecutor worker path).
        workers: pool size.
        timeout: per-job wall-clock seconds (process mode; best-effort
            in thread mode).
        bus: optional event bus; per-job histories are kept either way.
        metrics: shared registry; one is created when omitted.
    """

    def __init__(
        self,
        cache: ResultCache,
        admission: AdmissionController | None = None,
        executor: str = "thread",
        workers: int = 2,
        timeout: float | None = None,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        self.cache = cache
        self.admission = admission if admission is not None else AdmissionController()
        self.executor_kind = executor
        self.timeout = timeout
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._scoped = self.metrics.scoped("serve")
        self.records: dict[str, JobRecord] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pool: Executor
        if executor == "process":
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._runner = execute_wire
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="serve-job"
            )
            self._runner = execute_wire_inline

    # -- submission ------------------------------------------------------

    def lookup(self, key: str) -> JobRecord | None:
        """The record for ``key``, materializing cache-only hits."""
        record = self.records.get(key)
        if record is not None:
            return record
        cached = self.cache.get(key)
        if cached is None:
            return None
        return self._record_cache_hit(key, tag="", client="", wire=None, result=cached)

    def submit(
        self, job: CompileJob, client: str = ""
    ) -> tuple[JobRecord | None, AdmissionDecision]:
        """Submit one job; returns (record, decision).

        ``record`` is None exactly when admission refused (the decision
        carries the reason and back-off hint). Duplicate submissions and
        cache hits are always accepted — they cost no compile slot.
        """
        key = job.content_hash()
        record = self.records.get(key)
        if record is not None:
            self._scoped.counter("deduped").inc()
            return record, AdmissionDecision(True)
        cached = self.cache.get(key, ddg=job.ddg)
        if cached is not None:
            record = self._record_cache_hit(
                key, tag=job.tag, client=client, wire=None, result=cached
            )
            return record, AdmissionDecision(True)
        decision = self.admission.admit(client)
        if not decision.admitted:
            return None, decision
        ctx = obs.current_context()
        record = JobRecord(
            key=key,
            tag=job.tag,
            client=client,
            wire=job.to_wire(),
            status=JobStatus.QUEUED,
            submitted_at=time.time(),
            ctx=ctx,
            trace=ctx.trace_id if ctx else "",
            span=ctx.span_id if ctx else 0,
        )
        self.records[key] = record
        self._scoped.counter("submitted").inc()
        task = asyncio.get_running_loop().create_task(self._run(record))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return record, decision

    def _record_cache_hit(
        self, key: str, tag: str, client: str, wire, result
    ) -> JobRecord:
        ctx = obs.current_context()
        record = JobRecord(
            key=key,
            tag=tag,
            client=client,
            wire=wire,
            status=JobStatus.DONE,
            submitted_at=time.time(),
            result=JobResult(
                key=key, tag=tag, outcome=Outcome.OK, result=result, cached=True
            ),
            ctx=ctx,
            trace=ctx.trace_id if ctx else "",
            span=ctx.span_id if ctx else 0,
        )
        self.records[key] = record
        self._scoped.counter("cache_hits").inc()
        self._emit(record, event_for_result(record.result))
        record.done.set()
        return record

    # -- execution -------------------------------------------------------

    async def _run(self, record: JobRecord) -> None:
        record.status = JobStatus.RUNNING
        # The serve.job span: child of the submitting serve.request
        # span (still open in this task's copied contextvars context —
        # create_task snapshots it — with record.ctx as the cross-call
        # fallback), parent of the worker's engine.job span.
        job_span = obs.span(
            "serve.job", remote=record.ctx, tag=record.tag, key=record.key[:12]
        )
        job_span.__enter__()
        if job_span.trace_id:
            record.trace = job_span.trace_id
            record.span = job_span.span_id
        traceparent = (
            format_traceparent(job_span.context) if job_span.trace_id else None
        )
        self._emit(
            record, Event(kind=EventKind.STARTED, key=record.key, tag=record.tag)
        )
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                self._pool,
                self._runner,
                record.wire,
                record.key,
                self.timeout,
                traceparent,
            )
        except BrokenProcessPool:
            _log.error("worker process died", key=record.key[:12], tag=record.tag)
            result = JobResult(
                key=record.key,
                tag=record.tag,
                outcome=Outcome.ERROR,
                error="worker process died",
                error_kind=ErrorKind.WORKER_DIED,
                duration=time.perf_counter() - started,
            )
        except Exception as exc:  # deterministic worker-raised failure
            result = JobResult(
                key=record.key,
                tag=record.tag,
                outcome=Outcome.ERROR,
                error=f"{type(exc).__name__}: {exc}",
                error_kind=ErrorKind.INTERNAL,
                duration=time.perf_counter() - started,
            )
        if result.spans:
            # Process-pool workers ship their span trees back; re-parent
            # them under the serve.job span so the whole request is one
            # stitched trace. (Workers given a traceparent already stamp
            # the right trace id; trace_id= covers those that weren't.)
            obs.tracer().adopt(
                result.spans,
                parent_id=job_span.span_id or None,
                trace_id=job_span.trace_id,
            )
            result.spans = []
        if result.ok:
            self.cache.put(record.key, result.result)
        record.result = result
        record.status = JobStatus.DONE
        self._scoped.counter("compiled").inc()
        self._scoped.histogram("job_seconds").observe(result.duration)
        job_span.set(outcome=result.outcome.value)
        job_span.finish(error=not result.ok)
        self._emit(record, event_for_result(result))
        self.admission.release(record.client)
        record.done.set()

    def _emit(self, record: JobRecord, event: Event) -> None:
        if event.timestamp == 0.0:
            event = dataclasses.replace(event, timestamp=time.time())
        if record.trace and not event.trace:
            # Stamp the record's trace position so NDJSON streams can
            # be joined against the trace that produced them.
            event = dataclasses.replace(
                event, trace=record.trace, span=record.span
            )
        record.events.append(event)
        self.bus.emit(event)
        previous = record.update
        record.update = asyncio.Event()
        previous.set()

    # -- consumption -----------------------------------------------------

    async def wait(self, key: str, timeout: float | None = None) -> JobRecord:
        """Block until ``key`` reaches a terminal state."""
        record = self.records[key]
        await asyncio.wait_for(record.done.wait(), timeout)
        return record

    async def stream_events(self, key: str):
        """Yield the job's events: history first, then live to terminal."""
        record = self.records[key]
        index = 0
        while True:
            while index < len(record.events):
                yield record.events[index]
                index += 1
            if record.status is JobStatus.DONE:
                return
            update = record.update
            if index < len(record.events):
                continue
            await update.wait()

    def counts(self) -> dict[str, int]:
        """Records by status (the ``/stats`` jobs block)."""
        counts = {status.value: 0 for status in JobStatus}
        for record in self.records.values():
            counts[record.status.value] += 1
        return counts

    # -- shutdown --------------------------------------------------------

    async def drain(self, timeout: float | None = None) -> None:
        """Refuse new work, let admitted jobs finish, stop the pool."""
        self.admission.start_drain()
        pending = [task for task in self._tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.bus.close()
