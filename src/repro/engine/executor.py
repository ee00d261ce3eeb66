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
4. turns a pool call that raised into a result with
   :func:`pool_failure`: a job whose worker process died
   (``BrokenProcessPool``) is retried once on a one-worker pool of its
   own, then degrades to a structured ``ERROR``;
5. writes fresh successes back to the cache and emits a structured
   event per transition.

Results come back in submission order, one :class:`JobResult` per job,
and never as an exception: unschedulable loops, timeouts and worker
deaths are data, so one bad cell cannot abort a 678-loop sweep.

The serving layer (:mod:`repro.serve.manager`) compiles on its own
long-lived process pool, through the same worker entry point
(:func:`execute_wire`) and the same failure rule (:func:`pool_failure`).
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

#: Extra attempts a job gets after its worker process died. A compile
#: error or a timeout is deterministic and is never retried.
WORKER_RETRIES = 1


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
    """

    jobs: int | None = None
    timeout: float | None = None
    cache: ResultCache | None = None

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
    cases the job simply runs without a timeout. Pool workers, batch
    and serve alike, run every job on their main thread.
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


def execute_wire(
    wire: dict,
    key: str,
    timeout: float | None,
    traceparent: str | None = None,
) -> JobResult:
    """Worker-process entry point: rebuild the job and run it.

    Batch workers (:func:`run_jobs`) and the serving layer's persistent
    process pool (:mod:`repro.serve.manager`) both run jobs through it.
    When tracing is on (the worker inherits ``REPRO_TRACE``), the job
    runs under a worker-side ``engine.job`` span; every span the job
    produced is drained from the worker tracer and shipped back on the
    result, where the caller re-parents it under its own span.
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


def pool_failure(
    exc: Exception, key: str, tag: str, attempt: int
) -> JobResult | None:
    """The result of a pool call that raised ``exc`` on try ``attempt``.

    A worker process dying (OOM kill, segfault in an extension, …)
    breaks the whole pool: every outstanding call raises
    ``BrokenProcessPool``. That says nothing about the job, so the
    answer is None, "retry", until the job has had
    :data:`WORKER_RETRIES` retries; then it is ``WORKER_DIED``. Callers
    run each retry on a one-worker pool of its own, so a job that kills
    its worker every time takes no other job down with it. Anything
    else the worker raised is deterministic and ``INTERNAL`` at once.
    """
    if not isinstance(exc, BrokenProcessPool):
        return JobResult(
            key=key,
            tag=tag,
            outcome=Outcome.ERROR,
            error=f"{type(exc).__name__}: {exc}",
            error_kind=ErrorKind.INTERNAL,
        )
    if attempt <= WORKER_RETRIES:
        _log.warning(
            "worker died, retrying job", tag=tag, key=key[:12], attempt=attempt
        )
        return None
    _log.error(
        "worker died, retries exhausted", tag=tag, key=key[:12], attempts=attempt
    )
    return JobResult(
        key=key,
        tag=tag,
        outcome=Outcome.ERROR,
        error="worker process died (retry exhausted)",
        error_kind=ErrorKind.WORKER_DIED,
    )


def event_for_result(result: JobResult) -> Event:
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
                bus.emit(event_for_result(results[index]))
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
            bus.emit(event_for_result(result))
    return results  # type: ignore[return-value] — every slot is filled


def _run_pool(
    jobs: list[CompileJob],
    keys: list[str],
    pending: list[int],
    results: list[JobResult | None],
    workers: int,
    timeout: float | None,
    bus: EventBus,
    traceparent: str | None = None,
) -> None:
    """Fan pending jobs out over worker processes.

    A worker that dies breaks the whole pool, so every job outstanding
    on it fails at once. Each such job is retried, as :func:`pool_failure`
    rules, on a one-worker pool of its own (``workers`` of them at a
    time), so only a job whose own compile kills its worker ends
    ``WORKER_DIED``, and the batch always completes. Retry pools start
    their workers the way the first pool did, so a retry runs the job
    as its first try did.
    """

    def run(group: list[int], pool_for, attempt: int) -> list[int]:
        """Run ``group``, each job on ``pool_for()``; the jobs to retry."""
        futures = []
        for index in group:
            bus.emit(
                Event(kind=EventKind.STARTED, key=keys[index], tag=jobs[index].tag)
            )
            futures.append(
                pool_for().submit(
                    execute_wire,
                    jobs[index].to_wire(),
                    keys[index],
                    timeout,
                    traceparent,
                )
            )
        retry = []
        for index, future in zip(group, futures):
            try:
                results[index] = future.result()
            except Exception as exc:
                results[index] = pool_failure(
                    exc, keys[index], jobs[index].tag, attempt
                )
                if results[index] is None:
                    retry.append(index)
        return retry

    with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
        retry = run(pending, lambda: pool, 1)
    attempt = 1
    while retry:
        attempt += 1
        wave, retry = retry, []
        for at in range(0, len(wave), workers):
            with contextlib.ExitStack() as alone:
                retry += run(
                    wave[at : at + workers],
                    lambda: alone.enter_context(ProcessPoolExecutor(max_workers=1)),
                    attempt,
                )
