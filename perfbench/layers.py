"""Per-layer metrics and the attribution report of a traced run."""

from __future__ import annotations

import collections
import statistics

from spans import OUTSIDE

#: Window span name -> the per-layer metric holding its self time per
#: job completed in the window. A timed window fits more jobs when the
#: code gets faster, so window totals would grow with speed; per-job
#: values move only when the work each job does changes. The
#: benchmark's own ``engine.run_jobs`` span is the job's root, so its
#: self time is the engine's overhead outside hashing, cache reads and
#: the compilation itself.
WINDOW_SPANS = {
    "engine.run_jobs": "engine.overhead_s",
    "engine.hash": "engine.hash_s",
    "engine.cache_get": "engine.cache_get_s",
    "pipeline.compile": "pipeline.compile_s",
    "ddg.mii": "ddg.mii_s",
    "partition.partition": "partition.partition_s",
    "partition.coarsen": "partition.coarsen_s",
    "partition.refine": "partition.refine_s",
    "partition.pseudo": "partition.pseudo_s",
    "core.replicate": "core.replicate_s",
    "schedule.place": "schedule.place_s",
    "schedule.schedule": "schedule.schedule_s",
}

#: Set-up span name -> metric holding its total self time. Set-up does
#: a fixed amount of work for a seed (one loop generation, one store
#: fill), so these stay totals.
SETUP_SPANS = {
    "workloads.generate": "workloads.generate_s",
    "engine.cache_put": "engine.cache_put_s",
}

#: Check span name -> metric holding its self time per kernel checked.
CHECK_SPANS = {
    "sim.verify": "sim.verify_s",
    "sim.simulate": "sim.simulate_s",
}

#: Dispatch counters of the kernel backends. A batched call is also
#: counted as a NumPy call, so ``kernels.batch_calls`` is left out.
KERNEL_CALLS = ("kernels.python_calls", "kernels.numpy_calls")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_values(compiled: list) -> tuple[dict[str, float], list[str]]:
    """Layer counters per job, over the results compiled in the window.

    Read from each result's always-on ``CompileDiagnostics``. A counter
    that the results should carry but none does (say, after a rename)
    is returned in the second list and its metrics are left out: missing
    is not the same as zero. With nothing compiled, every count is zero.
    """
    totals: collections.Counter = collections.Counter()
    for result in compiled:
        totals.update(result.diagnostics.counters)
    replicating = [r for r in compiled if r.scheme_name != "baseline"]
    values: dict[str, float] = {}
    missing: list[str] = []

    def present(keys, population) -> bool:
        absent = [key for key in keys if key not in totals] if population else []
        missing.extend(absent)
        return not absent

    def per_job(count: float) -> float:
        return ratio(count, len(compiled))

    attempts = sum(len(r.diagnostics.ii_trajectory) for r in compiled)
    values["pipeline.ii_attempts"] = per_job(attempts)
    values["pipeline.failed_attempt_ratio"] = ratio(attempts - len(compiled), attempts)
    if present(KERNEL_CALLS, compiled):
        values["ddg.kernel_calls"] = per_job(sum(totals[key] for key in KERNEL_CALLS))
    applied, accepted = "partition.moves_applied", "partition.moves_accepted"
    if present((applied, accepted), compiled):
        values["partition.moves_applied"] = per_job(totals[applied])
        values["partition.move_accept_ratio"] = ratio(totals[accepted], totals[applied])
    walks = ("replicate.subgraph_walks", "replicate.removable_walks")
    reused = ("replicate.subgraph_reused", "replicate.removable_reused")
    scored = ("replicate.rounds", "replicate.candidates_scored")
    if present((*scored, *walks, *reused), replicating):
        values["core.rounds"] = per_job(totals["replicate.rounds"])
        values["core.candidates_scored"] = per_job(totals["replicate.candidates_scored"])
        skipped = sum(totals[key] for key in reused)
        walked = sum(totals[key] for key in walks)
        values["core.rescore_skip_rate"] = ratio(skipped, skipped + walked)
    return values, missing


def serve_values(window) -> dict[str, float]:
    """Client-side serve metrics, split by the path each job took.

    Times are at reference host speed (the window's mean). Refusals and
    the server's job records are counted per submission.
    """
    samples = window.extra.get("samples", [])
    done = [s for s in samples if s.ok]
    misses = [s for s in done if s.kind == "miss" and not s.payload.get("cached")]

    def p50_ms(values) -> float:
        values = list(values)
        return 1000.0 * window.speed * statistics.median(values) if values else 0.0

    def round_trips(kind: str):
        return (s.finished - s.started for s in done if s.kind == kind)

    def dispatch(sample) -> float | None:
        stamps = {event["kind"]: event for event in sample.events}
        if "started" not in stamps or "finished" not in stamps:
            return None
        finished = stamps["finished"]
        return (
            finished["timestamp"] - stamps["started"]["timestamp"]
            - finished.get("duration", 0.0)
        )

    return {
        "serve.submit_ms_p50": p50_ms(s.submitted - s.started for s in done),
        "serve.hit_ms_p50": p50_ms(round_trips("hit")),
        "serve.dup_ms_p50": p50_ms(round_trips("dup")),
        "serve.miss_ms_p50": p50_ms(s.finished - s.started for s in misses),
        "serve.compile_ms_p50": p50_ms(s.payload.get("duration", 0.0) for s in misses),
        "serve.dispatch_ms_p50": p50_ms(
            d for d in map(dispatch, misses) if d is not None
        ),
        "serve.refused": ratio(sum(1 for s in samples if s.refused), len(samples)),
        "serve.records": ratio(window.extra.get("records", 0), len(samples)),
    }


def trace_overhead(plain, traced) -> float:
    """Traced wall time over untraced wall time for the same work, both
    at reference host speed.

    In-process windows run the same cells in the same order, so the
    common prefix of jobs is compared; the served window is compared by
    throughput, since two clients interleave its jobs.
    """
    if "samples" in traced.extra:
        plain_rate = ratio(plain.attempted, plain.reference_wall)
        return ratio(plain_rate, ratio(traced.attempted, traced.reference_wall))
    common = min(len(plain.latencies), len(traced.latencies))
    return ratio(
        sum(traced.reference_latencies()[:common]),
        sum(plain.reference_latencies()[:common]),
    )


def attribution(tracer, wall: float, label: str) -> tuple[list[str], float]:
    """Self time per span plus the unattributed rest; rows and the rest."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    rest = wall - sum(self_times.values())
    rows = [f"  {label}: {wall:.3f} s"]
    rows.append(f"    {'span':24} {'calls':>8} {'self s':>9} {'share':>7} {'gc s':>8}")
    for name, seconds in sorted(self_times.items(), key=lambda item: -item[1]):
        collector = tracer.gc_by_owner.get(name, 0.0)
        rows.append(
            f"    {name:24} {calls[name]:8d} {seconds:9.3f} "
            f"{100 * ratio(seconds, wall):6.1f}% {collector:8.3f}"
        )
    outside = tracer.gc_by_owner.get(OUTSIDE, 0.0)
    rows.append(
        f"    {'(unattributed)':24} {'':8} {rest:9.3f} {100 * ratio(rest, wall):6.1f}% "
        f"{outside:8.3f}"
    )
    rows.append(
        f"    collector: {tracer.gc_seconds:.3f} s in total, "
        f"{tracer.gc_gen2} generation-2 collections"
    )
    return rows, rest
