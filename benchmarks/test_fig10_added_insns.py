"""Figure 10: dynamic instructions added by replication, by FU kind.

The paper reports under 5% added instructions for most configurations,
with integer operations the most-replicated kind — shared address
arithmetic sits in the upper levels of the DDG, appears in many
replication subgraphs, and is cheap to copy.
"""

from repro.engine.jobs import resolve_machine
from repro.machine.resources import FuKind
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import compile_suite
from repro.pipeline.metrics import added_instruction_stats
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER

CONFIGS = ("2c1b2l", "4c1b2l", "4c2b2l", "2c2b4l", "4c2b4l", "4c4b4l")


def render_fig10() -> tuple[str, dict[str, object]]:
    stats = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        metrics = []
        for bench in BENCHMARK_ORDER:
            metrics.extend(compile_suite(bench, machine, Scheme.REPLICATION))
        stat = added_instruction_stats(metrics)
        stats[name] = stat
        rows.append(
            [
                machine.name,
                stat.percent(FuKind.MEM),
                stat.percent(FuKind.INT),
                stat.percent(FuKind.FP),
                stat.total_percent,
            ]
        )
    table = format_table(
        ["config", "mem %", "int %", "fp %", "total %"],
        rows,
        title="Figure 10: percentage of instructions added due to replication",
    )
    return table, stats


def test_fig10(record, once):
    table, stats = once(render_fig10)
    record("fig10_added_insns", table)

    for name, stat in stats.items():
        # Overhead is small (paper: < 5% for most configurations; we
        # allow headroom since the suites differ).
        assert stat.total_percent <= 12.0, (
            f"{name}: {stat.total_percent:.1f}% added"
        )
        assert stat.total_percent >= 0.0
        # Integer ops are the most-replicated kind wherever replication
        # did anything at all.
        if stat.total_percent > 0.5:
            assert stat.percent(FuKind.INT) >= stat.percent(FuKind.FP)
            assert stat.percent(FuKind.INT) >= stat.percent(FuKind.MEM)
