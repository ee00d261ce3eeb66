"""Shared machinery for regenerating the paper's tables and figures.

The benchmark harness (``benchmarks/``) regenerates every figure; most
figures share compilations (Figure 7's kernels are Figure 10's), so
results are memoized per (benchmark, loop, machine, scheme, flags).

Compilations are submitted through :mod:`repro.engine`: each loop
becomes a content-addressed :class:`~repro.engine.jobs.CompileJob`, so
results persist in the on-disk cache (``~/.cache/repro-engine``; see
``REPRO_CACHE``/``REPRO_CACHE_DIR``) and are shared across *processes*
— a second pytest/benchmark invocation replays compilations instead of
redoing them. ``REPRO_ENGINE_JOBS=<n>`` additionally fans cold
compilations out over worker processes (default 1: in-process,
bit-identical to calling :func:`repro.pipeline.driver.compile_loop`).

Sizing: by default the *full* 678-loop suite is evaluated, like the
paper. Set ``REPRO_BENCH_LOOPS=<n>`` to subsample the first ``n`` loops
of each benchmark during development (the prefix is deterministic), or
``REPRO_BENCH_LOOPS=all`` for the full run explicitly.
"""

from __future__ import annotations

import dataclasses
import os

from repro.engine.executor import EngineConfig, run_jobs
from repro.engine.jobs import CompileJob, ErrorKind, JobResult
from repro.machine.config import MachineConfig
from repro.pipeline.driver import Scheme
from repro.pipeline.metrics import (
    BenchmarkMetrics,
    LoopMetrics,
    benchmark_metrics,
    harmonic_mean,
    loop_metrics,
)
from repro.schedule.scheduler import FailureCause
from repro.workloads.loop import Loop
from repro.workloads.specfp import BENCHMARK_ORDER, benchmark_loops

#: Environment variable controlling per-benchmark loop counts.
LIMIT_ENV = "REPRO_BENCH_LOOPS"


def configured_limit() -> int | None:
    """Per-benchmark loop limit from the environment (None = full).

    Raises:
        ValueError: naming the variable and the accepted forms when the
            value is not a non-negative integer or ``"all"``.
    """
    raw = os.environ.get(LIMIT_ENV, "").strip().lower()
    if not raw or raw == "all":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{LIMIT_ENV} must be a positive integer (loops per benchmark)"
            f" or 'all' for the full suite; got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(
            f"{LIMIT_ENV} must be a positive integer (loops per benchmark)"
            f" or 'all' for the full suite; got {raw!r}"
        )
    return max(1, value)


@dataclasses.dataclass(frozen=True)
class _Key:
    benchmark: str
    machine: str
    scheme: Scheme
    limit: int | None
    length_replication: bool
    copy_latency_override: int | None


@dataclasses.dataclass(frozen=True)
class LoopOutcome:
    """One loop's structured compilation outcome within a sweep.

    Unschedulable and timed-out cells are data, not exceptions: a sweep
    reports which loops dropped out instead of aborting on the first
    unschedulable one.
    """

    loop: Loop
    job: JobResult

    @property
    def ok(self) -> bool:
        """True when the loop compiled."""
        return self.job.ok

    @property
    def error(self) -> str:
        """Failure text (empty when compiled)."""
        return self.job.error

    @property
    def error_kind(self) -> ErrorKind:
        """Failure taxonomy: II-bound exhaustion vs bad input vs infra."""
        return self.job.error_kind


@dataclasses.dataclass
class _SuiteEntry:
    outcomes: list[LoopOutcome]
    metrics: list[LoopMetrics]


_CACHE: dict[_Key, _SuiteEntry] = {}

#: Failures of the sweep itself (a malformed cell, a compiler bug, a
#: lost worker), not of the loop: they fail the sweep, so no figure
#: averages over them. ``UNSCHEDULABLE`` and ``TIMEOUT`` cells drop out.
_SWEEP_FAILURES = frozenset({
    ErrorKind.INVALID_INPUT, ErrorKind.INTERNAL,
    ErrorKind.ILLEGAL_KERNEL, ErrorKind.WORKER_DIED,
})


def _compile_entry(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme,
    limit: int | None,
    length_replication: bool,
    copy_latency_override: int | None,
) -> _SuiteEntry:
    """Compile one benchmark's loops through the engine."""
    loops = benchmark_loops(benchmark, limit=limit)
    jobs = [
        CompileJob(
            ddg=loop.ddg,
            machine=machine.name,
            scheme=scheme,
            length_replication=length_replication,
            copy_latency_override=copy_latency_override,
            tag=f"{benchmark}/{loop.name}",
        )
        for loop in loops
    ]
    results = run_jobs(jobs, EngineConfig())
    for result in results:
        if result.error_kind in _SWEEP_FAILURES:
            raise RuntimeError(
                f"{result.tag} on {machine.name}: "
                f"{result.error_kind.value}: {result.error}"
            )
    outcomes = [
        LoopOutcome(loop=loop, job=result)
        for loop, result in zip(loops, results)
    ]
    metrics = [
        loop_metrics(o.loop, o.job.result) for o in outcomes if o.ok
    ]
    return _SuiteEntry(outcomes=outcomes, metrics=metrics)


def _entry_for(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme | str,
    limit: int | None = None,
    length_replication: bool = False,
    copy_latency_override: int | None = None,
) -> _SuiteEntry:
    """One memo entry per cell; a scheme named by member or by value
    is one cell."""
    if limit is None:
        limit = configured_limit()
    scheme = Scheme(scheme)
    key = _Key(
        benchmark=benchmark,
        machine=machine.name,
        scheme=scheme,
        limit=limit,
        length_replication=length_replication,
        copy_latency_override=copy_latency_override,
    )
    entry = _CACHE.get(key)
    if entry is None:
        entry = _compile_entry(
            benchmark,
            machine,
            scheme,
            limit,
            length_replication,
            copy_latency_override,
        )
        _CACHE[key] = entry
    return entry


def compile_suite(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme,
    limit: int | None = None,
    length_replication: bool = False,
    copy_latency_override: int | None = None,
) -> list[LoopMetrics]:
    """Compile one benchmark's loops; memoized across experiments.

    Loops that fail to compile within the II bound (possible in extreme
    ablations, e.g. tiny register files) or time out are skipped; each
    failure is kept as a :class:`LoopOutcome`, see :func:`suite_outcomes`.

    Raises:
        RuntimeError: naming the first cell that ended in one of
            :data:`_SWEEP_FAILURES`; nothing is memoized.
    """
    return _entry_for(
        benchmark,
        machine,
        scheme,
        limit=limit,
        length_replication=length_replication,
        copy_latency_override=copy_latency_override,
    ).metrics


def suite_outcomes(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme,
    **kwargs,
) -> list[LoopOutcome]:
    """Per-loop structured outcomes (including failures) of a sweep."""
    return _entry_for(benchmark, machine, scheme, **kwargs).outcomes


def failed_outcomes(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme,
    kind: ErrorKind | None = None,
    **kwargs,
) -> list[LoopOutcome]:
    """Only the loops that dropped out (unschedulable or timed out).

    Args:
        kind: restrict to one :class:`~repro.engine.jobs.ErrorKind` —
            e.g. ``ErrorKind.UNSCHEDULABLE`` for genuine II-bound
            exhaustion, as opposed to timeouts.
    """
    return [
        outcome
        for outcome in suite_outcomes(benchmark, machine, scheme, **kwargs)
        if not outcome.ok and (kind is None or outcome.error_kind is kind)
    ]


def suite_metrics(
    benchmark: str,
    machine: MachineConfig,
    scheme: Scheme,
    **kwargs,
) -> BenchmarkMetrics:
    """Benchmark-level aggregate of :func:`compile_suite`."""
    return benchmark_metrics(
        benchmark, compile_suite(benchmark, machine, scheme, **kwargs)
    )


def ipc_by_benchmark(
    machine: MachineConfig, scheme: Scheme, **kwargs
) -> dict[str, float]:
    """IPC of every benchmark plus the paper's ``hmean`` entry."""
    table = {
        bench: suite_metrics(bench, machine, scheme, **kwargs).ipc
        for bench in BENCHMARK_ORDER
    }
    table["hmean"] = harmonic_mean(list(table.values()))
    return table


def cause_histogram(
    machine: MachineConfig,
    scheme: Scheme = Scheme.BASELINE,
    **kwargs,
) -> dict[FailureCause, int]:
    """Figure 1: counts of II increases by cause across the suite."""
    histogram = {cause: 0 for cause in FailureCause}
    for bench in BENCHMARK_ORDER:
        for metric in compile_suite(bench, machine, scheme, **kwargs):
            for cause in metric.result.causes:
                histogram[cause] += 1
    return histogram


def mean_ii_reduction(
    benchmark: str, machine: MachineConfig, **kwargs
) -> float:
    """Figure 9: average relative II reduction from replication."""
    base = compile_suite(benchmark, machine, Scheme.BASELINE, **kwargs)
    repl = compile_suite(benchmark, machine, Scheme.REPLICATION, **kwargs)
    by_name_base = {m.loop.name: m.result.ii for m in base}
    reductions = []
    for metric in repl:
        base_ii = by_name_base.get(metric.loop.name)
        if base_ii is None:
            continue
        reductions.append((base_ii - metric.result.ii) / base_ii)
    if not reductions:
        return 0.0
    return sum(reductions) / len(reductions)


def clear_cache() -> None:
    """Drop all memoized compilations (tests use this).

    Only the in-process memo is dropped; the engine's persistent
    on-disk cache is deliberately left alone (clear it with
    ``repro.engine.default_cache().clear()`` or ``REPRO_CACHE=off``).
    """
    _CACHE.clear()
