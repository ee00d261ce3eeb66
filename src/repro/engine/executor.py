"""Parallel job execution: cache check, fan-out, timeout, retry.

``run_jobs`` is the engine's front door. For every job it:

1. looks the content hash up in the persistent cache (hit → done; the
   hit binds the job's own DDG and rebuilds its kernel from the entry);
2. otherwise compiles, either in-process (``jobs == 1`` — bit-identical
   to calling :func:`repro.pipeline.driver.compile_loop` directly) or
   on a ``ProcessPoolExecutor`` fan-out, and verifies the kernel
   (:func:`repro.engine.jobs.run_job`);
3. enforces a per-job wall-clock timeout *inside* the worker (SIGALRM)
   so an exploding search records a ``TIMEOUT`` outcome instead of
   hanging the suite or poisoning the pool;
4. retries a job exactly once when its worker process died for reasons
   unrelated to the job's own code (``BrokenProcessPool``), then
   degrades to a structured ``ERROR``;
5. writes fresh successes back to the cache and emits a structured
   event per transition.

Results come back in submission order, one :class:`JobResult` per job,
and never as an exception: unschedulable loops, timeouts and worker
deaths are data, so one bad cell cannot abort a 678-loop sweep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.cache import ResultCache, default_cache
from repro.engine.events import Event, EventBus, EventKind
from repro.engine.jobs import CompileJob, ErrorKind, JobResult, Outcome, run_job
from repro.obs import spans as obs
from repro.obs.log import get_logger
from repro.obs.propagate import format_traceparent, parse_traceparent

_log = get_logger("engine")

#: Environment variable with the default worker count for library use.
JOBS_ENV = "REPRO_ENGINE_JOBS"

#: Environment variable with the default per-job timeout (seconds).
TIMEOUT_ENV = "REPRO_ENGINE_TIMEOUT"


def configured_jobs(default: int = 1) -> int:
    """Worker count from ``REPRO_ENGINE_JOBS`` (>= 1), or ``default``."""
    raw = os.environ.get(JOBS_ENV, "").strip().lower()
    if not raw:
        return default
    if raw in {"auto", "max"}:
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer or 'auto', got {raw!r}"
        ) from exc


def configured_timeout() -> float | None:
    """Per-job timeout from ``REPRO_ENGINE_TIMEOUT``, or None."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from exc
    return value if value > 0 else None


@dataclasses.dataclass
class EngineConfig:
    """Knobs for one :func:`run_jobs` batch.

    Attributes:
        jobs: worker processes; 1 runs in-process (deterministic, no
            pool overhead). None reads ``REPRO_ENGINE_JOBS`` (default 1).
        timeout: per-job wall-clock seconds; None reads
            ``REPRO_ENGINE_TIMEOUT`` (default: unlimited).
        cache: result store; None uses the process-wide default, which
            honours ``REPRO_CACHE``/``REPRO_CACHE_DIR``.
        retries: extra attempts after a *worker death* (not after a
            compile error or timeout, which are deterministic).
    """

    jobs: int | None = None
    timeout: float | None = None
    cache: ResultCache | None = None
    retries: int = 1

    def resolved_jobs(self) -> int:
        """Effective worker count."""
        if self.jobs is not None:
            return max(1, self.jobs)
        return configured_jobs(default=1)

    def resolved_timeout(self) -> float | None:
        """Effective per-job timeout."""
        if self.timeout is not None:
            return self.timeout if self.timeout > 0 else None
        return configured_timeout()

    def resolved_cache(self) -> ResultCache:
        """Effective result store."""
        return self.cache if self.cache is not None else default_cache()


class _JobTimeout(Exception):
    """Internal: the SIGALRM deadline fired."""


def _raise_timeout(signum, frame):  # pragma: no cover - signal plumbing
    raise _JobTimeout()


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Arm a wall-clock alarm for the enclosed block (POSIX only).

    A no-op when ``seconds`` is falsy, SIGALRM is unavailable, or we
    are not on the main thread (signal handlers require it); in those
    cases the job simply runs without a timeout.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timed_run(job: CompileJob, key: str, timeout: float | None) -> JobResult:
    """Run one job under the deadline; classify every ending."""
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            result = run_job(job, key=key)
    except _JobTimeout:
        result = JobResult(
            key=key,
            tag=job.tag,
            outcome=Outcome.TIMEOUT,
            error=f"exceeded {timeout:g}s wall-clock budget",
            error_kind=ErrorKind.TIMEOUT,
        )
    result.duration = time.perf_counter() - start
    return result


def _execute_wire(
    wire: dict,
    key: str,
    timeout: float | None,
    traceparent: str | None = None,
) -> JobResult:
    """Worker-process entry point: rebuild the job and run it.

    When tracing is on (the worker inherits ``REPRO_TRACE``), the job
    runs under a worker-side ``engine.job`` span; every span the job
    produced is drained from the worker tracer and shipped back on the
    result, where :func:`run_jobs` re-parents it under the batch span.
    ``traceparent`` (the caller's serialized span context — see
    :mod:`repro.obs.propagate`) makes the worker's spans part of the
    caller's trace instead of rooting a fresh one.
    """
    job = CompileJob.from_wire(wire)
    remote = parse_traceparent(traceparent)
    with obs.span(
        "engine.job", remote=remote, tag=job.tag, key=key[:12], worker=True
    ) as job_span:
        result = _timed_run(job, key, timeout)
        job_span.set(outcome=result.outcome.value)
    if obs.enabled():
        result.spans = obs.tracer().drain_wire()
    return result


def execute_wire(
    wire: dict,
    key: str,
    timeout: float | None,
    traceparent: str | None = None,
) -> JobResult:
    """Public worker entry point (see :func:`_execute_wire`).

    Used by the serving layer (:mod:`repro.serve.manager`) to run one
    submitted job on its persistent process pool with exactly the same
    span/timeout behaviour as a batch worker.
    """
    return _execute_wire(wire, key, timeout, traceparent)


def execute_wire_inline(
    wire: dict,
    key: str,
    timeout: float | None,
    traceparent: str | None = None,
) -> JobResult:
    """Run one wire-format job in the calling process, without shipping
    spans back (they are already in this process's tracer).

    The thread-pool variant of :func:`execute_wire`: per-job SIGALRM
    timeouts need the main thread, so ``timeout`` is best-effort here
    (a no-op off the main thread — see :func:`_deadline`). The
    ``traceparent`` still matters: thread-pool workers run outside the
    submitting task's :mod:`contextvars` context, so without it the
    job span would root its own trace.
    """
    job = CompileJob.from_wire(wire)
    remote = parse_traceparent(traceparent)
    with obs.span(
        "engine.job", remote=remote, tag=job.tag, key=key[:12]
    ) as job_span:
        result = _timed_run(job, key, timeout)
        job_span.set(outcome=result.outcome.value)
    return result


def _event_for(result: JobResult) -> Event:
    """Terminal event matching a job result."""
    kind = {
        Outcome.OK: EventKind.CACHE_HIT if result.cached else EventKind.FINISHED,
        Outcome.ERROR: EventKind.ERROR,
        Outcome.TIMEOUT: EventKind.TIMEOUT,
    }[result.outcome]
    return Event(
        kind=kind,
        key=result.key,
        tag=result.tag,
        duration=result.duration,
        ii=result.result.ii if result.ok else None,
        mii=result.result.mii if result.ok else None,
        error=result.error,
        error_kind=result.error_kind.value,
    )


def event_for_result(result: JobResult) -> Event:
    """Public form of :func:`_event_for` (terminal event for a result)."""
    return _event_for(result)


def run_jobs(
    jobs: list[CompileJob],
    config: EngineConfig | None = None,
    bus: EventBus | None = None,
) -> list[JobResult]:
    """Run a batch through cache + executor; results in input order."""
    config = config or EngineConfig()
    bus = bus or EventBus()
    cache = config.resolved_cache()
    timeout = config.resolved_timeout()
    workers = config.resolved_jobs()

    keys = [job.content_hash() for job in jobs]
    results: list[JobResult | None] = [None] * len(jobs)

    with obs.span("engine.run_jobs", jobs=len(jobs), workers=workers) as batch:
        pending: list[int] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            cached = cache.get(key, ddg=job.ddg)
            if cached is not None:
                results[index] = JobResult(
                    key=key,
                    tag=job.tag,
                    outcome=Outcome.OK,
                    result=cached,
                    cached=True,
                )
                bus.emit(_event_for(results[index]))
            else:
                pending.append(index)
        batch.set(cache_hits=len(jobs) - len(pending))

        if pending and workers <= 1:
            for index in pending:
                bus.emit(
                    Event(kind=EventKind.STARTED, key=keys[index], tag=jobs[index].tag)
                )
                with obs.span(
                    "engine.job", tag=jobs[index].tag, key=keys[index][:12]
                ) as job_span:
                    results[index] = _timed_run(jobs[index], keys[index], timeout)
                    job_span.set(outcome=results[index].outcome.value)
        elif pending:
            traceparent = (
                format_traceparent(batch.context) if batch.trace_id else None
            )
            _run_pool(
                jobs,
                keys,
                pending,
                results,
                workers,
                timeout,
                config.retries,
                bus,
                traceparent,
            )

        for index in pending:
            result = results[index]
            if result.spans:
                # Worker-side spans: re-parent this job's span tree (its
                # root is the worker's ``engine.job``) under the batch.
                obs.tracer().adopt(
                    result.spans,
                    parent_id=batch.span_id or None,
                    trace_id=batch.trace_id,
                )
                result.spans = []
            if result.ok and not result.cached:
                cache.put(result.key, result.result)
            bus.emit(_event_for(result))
    return results  # type: ignore[return-value] — every slot is filled


def _run_pool(
    jobs: list[CompileJob],
    keys: list[str],
    pending: list[int],
    results: list[JobResult | None],
    workers: int,
    timeout: float | None,
    retries: int,
    bus: EventBus,
    traceparent: str | None = None,
) -> None:
    """Fan pending jobs out over worker processes, retrying deaths.

    A worker process dying (OOM kill, segfault in an extension, …)
    breaks the whole pool: every outstanding future raises
    ``BrokenProcessPool``. Affected jobs are resubmitted to a fresh
    pool at most ``retries`` times each, then recorded as ERROR —
    the batch always completes.
    """
    attempts = {index: 0 for index in pending}
    queue = list(pending)
    while queue:
        workers_now = min(workers, len(queue))
        retry: list[int] = []
        with ProcessPoolExecutor(max_workers=workers_now) as pool:
            futures = {}
            for index in queue:
                bus.emit(
                    Event(kind=EventKind.STARTED, key=keys[index], tag=jobs[index].tag)
                )
                futures[index] = pool.submit(
                    _execute_wire,
                    jobs[index].to_wire(),
                    keys[index],
                    timeout,
                    traceparent,
                )
            for index in queue:
                try:
                    results[index] = futures[index].result()
                except BrokenProcessPool:
                    attempts[index] += 1
                    if attempts[index] <= retries:
                        _log.warning(
                            "worker died, retrying job",
                            tag=jobs[index].tag,
                            key=keys[index][:12],
                            attempt=attempts[index],
                        )
                        retry.append(index)
                    else:
                        _log.error(
                            "worker died, retries exhausted",
                            tag=jobs[index].tag,
                            key=keys[index][:12],
                            attempts=attempts[index],
                        )
                        results[index] = JobResult(
                            key=keys[index],
                            tag=jobs[index].tag,
                            outcome=Outcome.ERROR,
                            error="worker process died (retry exhausted)",
                            error_kind=ErrorKind.WORKER_DIED,
                        )
                except Exception as exc:  # worker-raised, deterministic
                    results[index] = JobResult(
                        key=keys[index],
                        tag=jobs[index].tag,
                        outcome=Outcome.ERROR,
                        error=f"{type(exc).__name__}: {exc}",
                        error_kind=ErrorKind.INTERNAL,
                    )
        queue = retry
