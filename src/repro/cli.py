"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile`` — compile one loop (a built-in pattern or a JSON DDG
  file) for a machine, print the schedule summary and kernel.
* ``simulate`` — compile and run a loop, print IPC and issue stats.
* ``suite`` — compile a synthetic benchmark's loops and print the
  profile-weighted IPC under baseline and replication.
* ``bench`` — run a benchmark x machine x scheme matrix through the
  parallel engine (persistent cache, ``--jobs N`` fan-out) and print a
  summary table plus the cache hit-rate; ``--check BASELINE.json``
  diffs the run against a committed baseline and exits nonzero on
  regression.
* ``dot`` — emit Graphviz DOT for a loop (optionally partitioned).
* ``trace`` — record a traced run of any other command, or analyse
  existing trace files: flame summaries, per-stage histograms, trace
  diffs, Chrome trace-event JSON for Perfetto / ``chrome://tracing``.
* ``serve`` — run the compilation service: an HTTP/JSON API over the
  persistent result cache (``--smoke`` boots an ephemeral server and
  verifies one job end-to-end).
* ``top`` — live text dashboard for a running server (jobs/s, queue
  depth, request-latency percentiles, cache hit rate).
* ``cache`` — inspect or clear the persistent result cache
  (``stats``, ``clear``, ``path``).

Examples::

    python -m repro compile --machine 4c1b2l64r --loop stencil5
    python -m repro simulate --machine 4c2b4l64r --loop daxpy -n 500
    python -m repro suite --machine 4c1b2l64r --benchmark su2cor --limit 8
    python -m repro bench --machine 4c1b2l64r --benchmark su2cor --jobs 4
    python -m repro dot --loop dot_product --machine 2c1b2l64r --partition
    python -m repro trace --summary --record -- bench --jobs 4
    python -m repro trace run.jsonl --chrome run.chrome.json
    python -m repro trace --diff before.jsonl after.jsonl
    python -m repro serve --port 8774 --data-dir /var/lib/repro
    python -m repro serve --smoke
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.ddg import io as ddg_io
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig, parse_config, unified_machine
from repro.pipeline.driver import Scheme, compile_loop
from repro.pipeline.metrics import benchmark_metrics, loop_metrics
from repro.pipeline.report import format_table
from repro.sim.vliw import simulate
from repro.workloads import patterns
from repro.workloads.dsp import DSP_KERNELS
from repro.workloads.specfp import BENCHMARK_ORDER, benchmark_loops

#: Built-in loop patterns addressable from the command line.
PATTERNS = {
    "daxpy": patterns.daxpy,
    "stencil5": patterns.stencil5,
    "dot_product": patterns.dot_product,
    "figure3": patterns.figure3_graph,
    **DSP_KERNELS,
}


def _machine(name: str) -> MachineConfig:
    if name == "unified":
        return unified_machine()
    return parse_config(name)


def _loop(args: argparse.Namespace) -> Ddg:
    if args.loop in PATTERNS:
        return PATTERNS[args.loop]()
    return ddg_io.load(args.loop)


_SCHEME_NAMES = {
    "baseline": Scheme.BASELINE,
    "replication": Scheme.REPLICATION,
    "macro": Scheme.MACRO_REPLICATION,
    "cloning": Scheme.VALUE_CLONING,
}


def _scheme(args: argparse.Namespace) -> Scheme:
    if getattr(args, "scheme", None):
        return _SCHEME_NAMES[args.scheme]
    return Scheme.BASELINE if args.no_replication else Scheme.REPLICATION


def _scheme_label(scheme: "Scheme | str") -> str:
    """Display / wire name of a built-in or registered scheme."""
    return scheme.value if isinstance(scheme, Scheme) else scheme


def _resolve_schemes(args: argparse.Namespace) -> "list[Scheme | str]":
    """Resolve the bench scheme filter to compile-job scheme tokens.

    ``--schemes`` accepts comma-separated names and is repeatable; it
    resolves CLI aliases (``macro``, ``cloning``) *and* any key in the
    scheme registry (``repl-part``, test-registered variants), so new
    schemes are benchable without touching this file. The legacy
    ``--scheme`` flag appends its aliases. Unknown names raise
    ``SystemExit(2)`` listing what is available.
    """
    from repro.pipeline import scheme_names

    names: list[str] = []
    for chunk in getattr(args, "schemes", None) or []:
        names.extend(name.strip() for name in chunk.split(",") if name.strip())
    names.extend(getattr(args, "scheme", None) or [])
    if not names:
        names = ["baseline", "replication"]
    registered = scheme_names()
    resolved: list[Scheme | str] = []
    for name in names:
        if name in _SCHEME_NAMES:
            resolved.append(_SCHEME_NAMES[name])
        elif name in registered:
            resolved.append(name)
        else:
            known = sorted(set(_SCHEME_NAMES) | set(registered))
            print(
                f"error: unknown scheme {name!r}; known: {', '.join(known)}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    return resolved


def cmd_compile(args: argparse.Namespace) -> int:
    machine = _machine(args.machine)
    ddg = _loop(args)
    result = compile_loop(ddg, machine, scheme=_scheme(args))
    kernel = result.kernel
    print(
        f"loop {ddg.name!r} on {machine.name} [{result.scheme.value}]: "
        f"MII {result.mii}, II {result.ii}, length {kernel.length}, "
        f"SC {kernel.stage_count}"
    )
    print(
        f"communications {kernel.n_copy_ops()}, replicas "
        f"{kernel.n_replica_ops()}, removed {len(result.plan.removed)}"
    )
    if args.kernel:
        for row in kernel.rows():
            print(" ", row)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    machine = _machine(args.machine)
    ddg = _loop(args)
    result = compile_loop(ddg, machine, scheme=_scheme(args))
    sim = simulate(result.kernel, args.iterations)
    print(
        f"{ddg.name} x {args.iterations} iterations on {machine.name} "
        f"[{result.scheme.value}]"
    )
    print(f"  cycles {sim.cycles}  IPC {sim.ipc:.3f}")
    print(
        f"  issued: {sim.issued_original} original, "
        f"{sim.issued_replica} replicas, {sim.issued_copies} copies "
        f"(raw issue rate {sim.ipc_issued:.3f})"
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    machine = _machine(args.machine)
    rows = []
    for bench in [args.benchmark] if args.benchmark else BENCHMARK_ORDER:
        loops = benchmark_loops(bench, limit=args.limit)
        base = benchmark_metrics(
            bench,
            [
                loop_metrics(
                    l, compile_loop(l.ddg, machine, scheme=Scheme.BASELINE)
                )
                for l in loops
            ],
        )
        repl = benchmark_metrics(
            bench,
            [
                loop_metrics(
                    l, compile_loop(l.ddg, machine, scheme=Scheme.REPLICATION)
                )
                for l in loops
            ],
        )
        gain = (repl.ipc / base.ipc - 1.0) * 100.0 if base.ipc else 0.0
        rows.append([bench, len(loops), base.ipc, repl.ipc, gain])
    print(
        format_table(
            ["benchmark", "loops", "baseline IPC", "replication IPC", "speedup %"],
            rows,
            title=f"suite on {machine.name}",
        )
    )
    return 0


def _stage_breakdown(results) -> dict[str, float]:
    """Aggregate per-stage compile seconds from result diagnostics.

    Sourced from :class:`~repro.pipeline.driver.CompileDiagnostics`,
    which travels with every (possibly cached) ``CompileResult`` — so a
    warm run reports where the *original* compile time went.
    """
    totals: dict[str, float] = {}
    for res in results:
        if res.ok and res.result.diagnostics is not None:
            for stage, seconds in res.result.diagnostics.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


def _percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def _stage_percentiles(results) -> dict[str, dict[str, float]]:
    """Per-stage p50/p95 wall time across loops (one sample per job).

    The totals in :func:`_stage_breakdown` show where the aggregate
    time went; the percentiles show the *distribution* per compiled
    loop, so a regression on the slow tail is visible without rerunning
    under a profiler.
    """
    samples: dict[str, list[float]] = {}
    for res in results:
        if res.ok and res.result.diagnostics is not None:
            for stage, seconds in res.result.diagnostics.stage_seconds.items():
                samples.setdefault(stage, []).append(seconds)
    return {
        stage: {
            "samples": len(values),
            "p50_seconds": _percentile(values, 50.0),
            "p95_seconds": _percentile(values, 95.0),
        }
        for stage, values in samples.items()
    }


#: Diagnostics counters that are rates, not additive totals — the bench
#: aggregation recomputes them from the summed raw counts instead.
#: (Names are ``<stage>.<counter>`` since the obs metrics registry
#: namespaces every counter by the pass that produced it.)
_RATE_COUNTERS = (
    "partition.lazy_skip_rate",
    "partition.analysis_memo_hit_rate",
    "partition.length_memo_hit_rate",
    "replicate.rescore_skip_rate",
)


def _counter_totals(results) -> dict[str, float]:
    """Sum diagnostics counters across jobs, recomputing the rates.

    Counters come from the incremental move evaluator and the analysis
    memo (see :mod:`repro.partition.incremental`); like the stage times
    they travel with cached results, so warm runs report the original
    compile effort.
    """
    totals: dict[str, float] = {}
    for res in results:
        if res.ok and res.result.diagnostics is not None:
            for name, value in res.result.diagnostics.counters.items():
                if name in _RATE_COUNTERS:
                    continue
                totals[name] = totals.get(name, 0.0) + value
    scored = totals.get("partition.lengths_computed", 0.0) + totals.get(
        "partition.lengths_skipped", 0.0
    )
    if scored:
        totals["partition.lazy_skip_rate"] = (
            totals.get("partition.lengths_skipped", 0.0) / scored
        )
    lookups = totals.get("partition.analysis_memo_hits", 0.0) + totals.get(
        "partition.analysis_memo_misses", 0.0
    )
    if lookups:
        totals["partition.analysis_memo_hit_rate"] = (
            totals.get("partition.analysis_memo_hits", 0.0) / lookups
        )
    length_asks = totals.get("partition.lengths_computed", 0.0) + totals.get(
        "partition.lengths_memoized", 0.0
    )
    if length_asks:
        totals["partition.length_memo_hit_rate"] = (
            totals.get("partition.lengths_memoized", 0.0) / length_asks
        )
    walks = totals.get("replicate.subgraph_walks", 0.0) + totals.get(
        "replicate.subgraph_reused", 0.0
    )
    if walks:
        totals["replicate.rescore_skip_rate"] = (
            totals.get("replicate.subgraph_reused", 0.0) / walks
        )
    return totals


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark x machine x scheme matrix through the batch engine."""
    import json

    from repro.engine.cache import ResultCache, default_cache
    from repro.engine.events import EventBus, JsonlSink, StderrProgressSink
    from repro.engine.executor import EngineConfig, run_jobs
    from repro.engine.jobs import CompileJob, Outcome
    from repro.pipeline.experiments import configured_limit
    from repro.workloads.specfp import benchmark_loops as suite_loops

    benchmarks = args.benchmark or list(BENCHMARK_ORDER)
    machines = args.machine or ["4c1b2l64r"]
    schemes = _resolve_schemes(args)
    limit = args.limit if args.limit is not None else configured_limit()

    cells = []  # (benchmark, machine name, scheme, loops, job slice start)
    jobs: list[CompileJob] = []
    for bench in benchmarks:
        loops = suite_loops(bench, limit=limit)
        for machine_name in machines:
            _machine(machine_name)  # validate the config string early
            for scheme in schemes:
                cells.append((bench, machine_name, scheme, loops, len(jobs)))
                jobs.extend(
                    CompileJob(
                        ddg=loop.ddg,
                        machine=machine_name,
                        scheme=scheme,
                        tag=f"{bench}/{loop.name}",
                    )
                    for loop in loops
                )

    cache = ResultCache(enabled=False) if args.no_cache else default_cache()
    sinks = []
    if not args.quiet:
        sinks.append(StderrProgressSink(total=len(jobs)))
    if args.events:
        sinks.append(JsonlSink(args.events))
    bus = EventBus(sinks)
    config = EngineConfig(jobs=args.jobs, timeout=args.timeout, cache=cache)

    started = time.perf_counter()
    results = run_jobs(jobs, config, bus)
    elapsed = time.perf_counter() - started
    bus.close()

    rows = []
    failures = []
    for bench, machine_name, scheme, loops, offset in cells:
        cell_results = results[offset : offset + len(loops)]
        ok = [
            loop_metrics(loop, res.result)
            for loop, res in zip(loops, cell_results)
            if res.ok
        ]
        failed = [r for r in cell_results if r.outcome is Outcome.ERROR]
        timed_out = [r for r in cell_results if r.outcome is Outcome.TIMEOUT]
        failures.extend(failed + timed_out)
        ipc = benchmark_metrics(bench, ok).ipc
        rows.append(
            [
                bench,
                machine_name,
                _scheme_label(scheme),
                len(loops),
                len(ok),
                len(failed),
                len(timed_out),
                ipc,
            ]
        )
    hits = sum(1 for r in results if r.cached)
    hit_rate = hits / len(results) if results else 0.0
    stage_totals = _stage_breakdown(results)
    stage_sum = sum(stage_totals.values()) or 1.0
    stage_pcts = _stage_percentiles(results)
    counter_totals = _counter_totals(results)

    stats = cache.stats() if cache.enabled else None
    payload = {
        "cells": [
            {
                "benchmark": row[0],
                "machine": row[1],
                "scheme": row[2],
                "loops": row[3],
                "ok": row[4],
                "failed": row[5],
                "timeout": row[6],
                "ipc": row[7],
            }
            for row in rows
        ],
        "jobs": len(results),
        "elapsed_seconds": round(elapsed, 6),
        "cache": {
            "enabled": cache.enabled,
            "hits": hits,
            "lookups": len(results),
            "hit_rate": round(hit_rate, 6),
            "entries": stats.entries if stats else 0,
            "total_bytes": stats.total_bytes if stats else 0,
        },
        "stages": {
            stage: {
                "seconds": round(seconds, 6),
                "share": round(seconds / stage_sum, 6),
                "samples": stage_pcts[stage]["samples"],
                "p50_seconds": round(stage_pcts[stage]["p50_seconds"], 6),
                "p95_seconds": round(stage_pcts[stage]["p95_seconds"], 6),
            }
            for stage, seconds in sorted(
                stage_totals.items(), key=lambda kv: -kv[1]
            )
        },
        "counters": {
            name: round(value, 6)
            for name, value in sorted(counter_totals.items())
        },
        "failures": [
            {
                "tag": res.tag,
                "outcome": res.outcome.value,
                "error_kind": res.error_kind.value,
                "error": res.error,
            }
            for res in failures
        ],
    }

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return _bench_check(args, payload)

    print(
        format_table(
            ["benchmark", "machine", "scheme", "loops", "ok", "failed",
             "timeout", "IPC"],
            rows,
            title="bench matrix",
        )
    )
    if stage_totals:
        print(
            format_table(
                ["stage", "seconds", "share %", "p50 ms", "p95 ms"],
                [
                    [
                        stage,
                        seconds,
                        100.0 * seconds / stage_sum,
                        1e3 * stage_pcts[stage]["p50_seconds"],
                        1e3 * stage_pcts[stage]["p95_seconds"],
                    ]
                    for stage, seconds in sorted(
                        stage_totals.items(), key=lambda kv: -kv[1]
                    )
                ],
                title="per-stage compile time",
            )
        )
    if counter_totals:
        print(
            format_table(
                ["counter", "value"],
                [
                    [name, round(value, 4)]
                    for name, value in sorted(counter_totals.items())
                ],
                title="evaluator counters",
            )
        )
    if cache.enabled:
        stats = cache.stats()
        cache_line = (
            f"{hits}/{len(results)} hits ({100.0 * hit_rate:.1f}%), "
            f"{stats.entries} entries on disk ({stats.total_bytes / 1024:.0f} KiB)"
        )
    else:
        cache_line = "disabled"
    print(f"{len(results)} jobs in {elapsed:.2f}s  cache: {cache_line}")
    if failures:
        print(f"{len(failures)} loops did not compile:")
        for res in failures[:10]:
            kind = f"/{res.error_kind.value}" if res.error_kind.value else ""
            print(f"  {res.tag}: [{res.outcome.value}{kind}] {res.error}")
        if len(failures) > 10:
            print(f"  ... and {len(failures) - 10} more")
    return _bench_check(args, payload)


def _bench_check(args: argparse.Namespace, payload: dict) -> int:
    """Gate the bench payload against ``--check BASELINE`` (if given).

    Prints the delta table and returns 1 on regression, 0 otherwise
    (including when no baseline was requested).
    """
    if not getattr(args, "check", None):
        return 0
    import json

    from repro.pipeline.regression import compare_bench

    with open(args.check, encoding="utf-8") as handle:
        baseline = json.load(handle)
    report = compare_bench(payload, baseline, tolerance=args.tolerance / 100.0)
    # Keep stdout pure JSON in --format json; the table goes to stderr.
    out = sys.stderr if args.format == "json" else sys.stdout
    print(report.table(), file=out)
    if report.ok:
        print(f"bench check vs {args.check}: OK", file=out)
        return 0
    print(
        f"bench check vs {args.check}: {len(report.regressions)} regression(s)",
        file=sys.stderr,
    )
    return 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a traced run, or analyse/convert existing trace files."""
    from repro.obs import spans as obs
    from repro.obs.export import read_trace, write_chrome_trace, write_spans
    from repro.obs.summary import diff_summary, flame_summary, stage_summary

    if args.record is not None:
        command = list(args.record)
        if command and command[0] == "--":
            command = command[1:]
        if not command:
            # "--record -- bench ...": the explicit "--" ends option
            # parsing, so argparse routed the command to the positional
            # inputs instead of the REMAINDER.
            command = list(args.inputs)
        if not command:
            print("trace --record needs a command, e.g. "
                  "trace --record -- bench --jobs 4", file=sys.stderr)
            return 2
        if command[0] == "trace":
            print("trace --record cannot record itself", file=sys.stderr)
            return 2
        # No default path: were one set, the inner ``main`` call's own
        # trace-at-exit hook would drain the spans before we could.
        with obs.force_enabled():
            code = main(command)
            spans = obs.tracer().drain_wire()
        count = write_spans(spans, args.out)
        print(f"wrote {count} spans to {args.out}")
        if args.chrome:
            events = write_chrome_trace(spans, args.chrome)
            print(f"wrote {events} Chrome trace events to {args.chrome}")
        if args.summary:
            print(flame_summary(spans, top=args.top))
            print(stage_summary(spans))
        return code

    if args.diff:
        if len(args.inputs) != 2:
            print("trace --diff needs exactly two trace files", file=sys.stderr)
            return 2
        before, after = (read_trace(path) for path in args.inputs)
        print(diff_summary(before, after, top=args.top))
        return 0

    if not args.inputs:
        print("trace needs trace files (or --record -- <command>)",
              file=sys.stderr)
        return 2
    spans = [record for path in args.inputs for record in read_trace(path)]
    if args.chrome:
        events = write_chrome_trace(spans, args.chrome)
        print(f"wrote {events} Chrome trace events to {args.chrome}")
    if args.summary or not args.chrome:
        print(flame_summary(spans, top=args.top))
        print(stage_summary(spans))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compilation service (or its self-verifying smoke mode)."""
    import asyncio

    from repro.serve.cluster import run_smoke
    from repro.serve.server import ServeConfig, ServeServer, build_service

    if args.smoke:
        return run_smoke(executor=args.executor, quiet=args.quiet)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        executor=args.executor,
        workers=args.workers,
        timeout=args.timeout,
        queue_limit=args.queue_limit,
        max_inflight=args.max_inflight,
    )

    async def _serve() -> None:
        from repro.engine.events import EventBus, JsonlSink
        from repro.obs.log import get_logger

        log = get_logger("serve")
        bus = EventBus([JsonlSink(args.events)]) if args.events else None
        cache, _admission, manager, _metrics = build_service(config, bus=bus)
        server = ServeServer(manager, cache, host=config.host, port=config.port)
        await server.start()
        log.info(
            "listening",
            url=server.url,
            executor=config.executor,
            workers=config.workers,
            data=str(config.resolved_data_dir()),
        )
        try:
            await asyncio.Event().wait()  # serve until SIGINT cancels us
        except asyncio.CancelledError:
            pass
        finally:
            log.info("draining")
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live text dashboard polling a server's /stats + /metrics."""
    from repro.serve.top import run_top

    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        once=args.once,
    )


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent result cache."""
    from repro.engine.cache import ResultCache, cache_enabled, cache_root

    root = args.dir if args.dir else cache_root()
    cache = ResultCache(root=root, enabled=True)
    if args.action == "path":
        print(cache.root)
        return 0
    if args.action == "stats":
        stats = cache.stats()
        state = "enabled" if cache_enabled() else "disabled (REPRO_CACHE)"
        print(f"cache at {cache.root} [{state}]")
        print(stats.summary())
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.pipeline.validation import self_check

    report = self_check()
    print("self-check OK:", report.summary())
    return 0


def cmd_asm(args: argparse.Namespace) -> int:
    from repro.codegen.emit import emit_assembly
    from repro.codegen.program import software_pipeline

    machine = _machine(args.machine)
    ddg = _loop(args)
    result = compile_loop(ddg, machine, scheme=_scheme(args))
    print(emit_assembly(software_pipeline(result.kernel), name=ddg.name))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.ddg.dot import ddg_to_dot, partition_to_dot
    from repro.partition.multilevel import initial_partition

    ddg = _loop(args)
    if args.partition:
        machine = _machine(args.machine)
        from repro.ddg.analysis import mii

        part = initial_partition(ddg, machine, mii(ddg, machine))
        print(partition_to_dot(part))
    else:
        print(ddg_to_dot(ddg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instruction replication for clustered VLIW (MICRO-36 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine",
            default="4c1b2l64r",
            help="wcxbylzr config or 'unified' (default: 4c1b2l64r)",
        )
        p.add_argument(
            "--loop",
            default="stencil5",
            help=f"pattern name ({', '.join(PATTERNS)}) or JSON DDG path",
        )
        p.add_argument(
            "--no-replication",
            action="store_true",
            help="use the baseline scheduler (no replication)",
        )
        p.add_argument(
            "--scheme",
            choices=sorted(_SCHEME_NAMES),
            default=None,
            help="compiler variant (overrides --no-replication)",
        )

    p = sub.add_parser("compile", help="compile one loop")
    add_common(p)
    p.add_argument("--kernel", action="store_true", help="dump the kernel")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="compile and simulate one loop")
    add_common(p)
    p.add_argument("-n", "--iterations", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("suite", help="evaluate synthetic benchmarks")
    p.add_argument("--machine", default="4c1b2l64r")
    p.add_argument(
        "--benchmark",
        choices=BENCHMARK_ORDER,
        default=None,
        help="one benchmark (default: all)",
    )
    p.add_argument("--limit", type=int, default=8, help="loops per benchmark")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "bench",
        help="benchmark x machine x scheme matrix via the parallel engine",
    )
    p.add_argument(
        "--machine",
        action="append",
        default=None,
        help="machine config; repeatable (default: 4c1b2l64r)",
    )
    p.add_argument(
        "--benchmark",
        action="append",
        choices=BENCHMARK_ORDER,
        default=None,
        help="benchmark; repeatable (default: all)",
    )
    p.add_argument(
        "--scheme",
        action="append",
        choices=sorted(_SCHEME_NAMES),
        default=None,
        help="compiler variant; repeatable (default: baseline + replication)",
    )
    p.add_argument(
        "--schemes",
        action="append",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated scheme filter; accepts CLI aliases and any "
            "registered scheme key (e.g. repl-part); repeatable"
        ),
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        help="loops per benchmark (default: REPRO_BENCH_LOOPS or full)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count(),
        help="worker processes (default: CPU count)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds (default: none)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache",
    )
    p.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="append structured JSONL events to FILE",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the stderr progress line",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human tables or one JSON document",
    )
    p.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="diff this run against a bench JSON baseline "
        "(e.g. BENCH_pr8.json); exit 1 on regression",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=20.0,
        metavar="PCT",
        help="allowed relative slowdown / IPC drop for --check "
        "(percent, default: 20)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="record or analyse compilation traces (flame, diff, Chrome)",
    )
    p.add_argument(
        "inputs",
        nargs="*",
        metavar="TRACE",
        help="JSONL trace files to analyse",
    )
    p.add_argument(
        "--record",
        nargs=argparse.REMAINDER,
        default=None,
        metavar="CMD",
        help="run another repro command with tracing on; consumes the "
        "rest of the line, so put it last: --summary --record -- bench",
    )
    p.add_argument(
        "--out",
        default="trace.jsonl",
        metavar="FILE",
        help="where --record writes the JSONL trace (default: trace.jsonl)",
    )
    p.add_argument(
        "--summary",
        action="store_true",
        help="print the flame + per-stage summaries",
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help="compare two trace files (self time, B - A)",
    )
    p.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="write Chrome trace-event JSON (load in Perfetto)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=15,
        help="rows in the flame/diff tables (default: 15)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="HTTP compilation service over the persistent result cache",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8774)
    p.add_argument(
        "--data-dir",
        default=None,
        help="result cache directory (default: the local cache root)",
    )
    p.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="compile pool kind (default: process)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=max(1, (os.cpu_count() or 2) - 1),
        help="compile pool size (default: CPUs - 1)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="admitted-but-unfinished job cap (429 beyond; default: 256)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="in-flight jobs allowed per client id (default: 16)",
    )
    p.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="append structured JSONL engine events to FILE",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="boot an ephemeral server, verify one job, exit",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress --smoke progress output"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live dashboard for a running serve deployment",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8774",
        help="server base URL (default: http://127.0.0.1:8774)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval (default: 2s)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one dashboard frame and exit (no screen clearing)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    p.add_argument(
        "action",
        choices=("stats", "clear", "path"),
        help="stats: counters + disk usage; clear: delete entries; "
        "path: print the resolved cache directory",
    )
    p.add_argument(
        "--dir",
        default=None,
        help="operate on this cache directory instead of the default",
    )
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("selfcheck", help="exercise every subsystem (seconds)")
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("asm", help="emit software-pipelined pseudo-assembly")
    add_common(p)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    add_common(p)
    p.add_argument(
        "--partition",
        action="store_true",
        help="partition first and draw cluster boxes",
    )
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    When ``REPRO_TRACE`` names a file (any value other than the on/off
    words), the spans collected during the command are appended to it on
    the way out — so ``REPRO_TRACE=run.jsonl python -m repro bench``
    records a trace without the ``trace`` wrapper. The flush runs in a
    ``finally`` so a crashing command still leaves a parseable trace of
    everything up to the failure — exactly when a trace is most wanted.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    finally:
        if args.command != "trace":
            from repro.obs import spans as obs
            from repro.obs.export import write_spans

            path = obs.trace_path()
            if obs.enabled() and path:
                count = write_spans(obs.tracer().drain_wire(), path)
                print(f"wrote {count} spans to {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
