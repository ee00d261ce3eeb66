#!/usr/bin/env python3
"""One-shot mini evaluation: the paper's headline numbers on a sample.

Runs a small deterministic sample of the 678-loop suite through every
experiment the paper reports — II causes, per-benchmark IPC, comm
removal, added instructions, the register sweep — and prints a compact
report. The benchmark harness (`pytest benchmarks/ --benchmark-only`)
does the same at full scale with assertions.

Run:  python examples/full_report.py [loops-per-benchmark]
"""

import sys

from repro.engine.jobs import resolve_machine
from repro.machine.resources import FuKind
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import cause_histogram, compile_suite, ipc_by_benchmark
from repro.pipeline.metrics import added_instruction_stats, comm_stats
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER


def main() -> None:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    config = "4c1b2l64r"
    machine = resolve_machine(config)

    print(f"=== mini evaluation on {config}, {limit} loops/benchmark ===\n")

    # Figure 1: why the II grows.
    histogram = cause_histogram(machine, limit=limit)
    total = sum(histogram.values()) or 1
    rows = [
        [cause.value, count, 100.0 * count / total]
        for cause, count in histogram.items()
        if count
    ]
    print(format_table(["cause", "events", "%"], rows,
                       title="II-increase causes (baseline)"))
    print()

    # Figure 7: IPC per benchmark.
    base = ipc_by_benchmark(machine, Scheme.BASELINE, limit=limit)
    repl = ipc_by_benchmark(machine, Scheme.REPLICATION, limit=limit)
    rows = [
        [bench, base[bench], repl[bench],
         (repl[bench] / base[bench] - 1.0) * 100.0 if base[bench] else 0.0]
        for bench in [*BENCHMARK_ORDER, "hmean"]
    ]
    print(format_table(
        ["benchmark", "baseline", "replication", "speedup %"], rows,
        title="IPC (Figure 7 sample)"))
    print()

    # Section 4 prose: comm removal and instruction overhead.
    metrics = []
    for bench in BENCHMARK_ORDER:
        metrics.extend(
            compile_suite(bench, machine, Scheme.REPLICATION, limit=limit)
        )
    comms = comm_stats([m.result for m in metrics])
    added = added_instruction_stats(metrics)
    print(f"communications removed: {comms.removed_fraction:.0%} "
          f"({comms.removed_coms}/{comms.initial_coms}), "
          f"{comms.replicas_per_removed_comm:.2f} replicas per removed comm")
    print(f"instructions added: {added.total_percent:.1f}% total "
          f"(int {added.percent(FuKind.INT):.1f}%, "
          f"fp {added.percent(FuKind.FP):.1f}%, "
          f"mem {added.percent(FuKind.MEM):.1f}%)")


if __name__ == "__main__":
    main()
