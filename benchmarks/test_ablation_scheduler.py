"""Ablation: the no-backtracking scheduler vs iterative modulo scheduling.

Section 2.3.2's scheduler never backtracks — on failure the II grows
and the partition is refined. The classic alternative (Rau's IMS) keeps
the II and evicts conflicting operations. This ablation finds, per
loop, the smallest schedulable II under each scheduler on identical
placed graphs: if the cheap one-pass scheduler were leaving IIs on the
table, IMS would win them back here.
"""

from repro.core.plan import EMPTY_PLAN
from repro.ddg.analysis import mii
from repro.machine.config import parse_config
from repro.partition.multilevel import MultilevelPartitioner
from repro.pipeline.driver import UnschedulableError
from repro.pipeline.passes import find_min_ii
from repro.pipeline.report import format_table
from repro.schedule.ims import ims_schedule
from repro.schedule.placed import build_placed_graph
from repro.schedule.scheduler import FailureCause, ScheduleFailure, schedule
from repro.workloads.specfp import BENCHMARK_ORDER, benchmark_loops

CONFIG = "4c1b2l64r"
LOOPS_PER_BENCH = 4
II_RANGE = 64


def min_ii(scheduler, ddg, machine) -> int | None:
    """Smallest feasible II under one scheduler, searching one II at a
    time with the driver's shared :func:`find_min_ii`."""
    partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
    lo = mii(ddg, machine)

    def attempt(ii):
        part = partitioner.partition(ii)
        if part.min_resource_ii(machine) > ii:
            raise ScheduleFailure(
                FailureCause.RESOURCES, f"partition infeasible at II={ii}"
            )
        graph = build_placed_graph(ddg, part, machine, EMPTY_PLAN)
        if graph.n_comms() > machine.bus.capacity(ii):
            raise ScheduleFailure(
                FailureCause.BUS, f"too many communications at II={ii}"
            )
        return scheduler(graph, machine, ii)

    try:
        ii, _ = find_min_ii(attempt, lo, lo + II_RANGE - 1)
        return ii
    except UnschedulableError:
        return None


def render_scheduler_ablation() -> tuple[str, dict[str, float]]:
    machine = parse_config(CONFIG)
    baseline_total = ims_total = 0
    wins = {"baseline": 0, "ims": 0, "tie": 0}
    loops = 0
    for bench in BENCHMARK_ORDER:
        for loop in benchmark_loops(bench, limit=LOOPS_PER_BENCH):
            b = min_ii(schedule, loop.ddg, machine)
            i = min_ii(ims_schedule, loop.ddg, machine)
            if b is None or i is None:
                continue
            loops += 1
            baseline_total += b
            ims_total += i
            if b < i:
                wins["baseline"] += 1
            elif i < b:
                wins["ims"] += 1
            else:
                wins["tie"] += 1
    rows = [
        ["one-pass (paper)", baseline_total, wins["baseline"]],
        ["IMS (Rau)", ims_total, wins["ims"]],
        ["ties", "-", wins["tie"]],
    ]
    table = format_table(
        ["scheduler", "sum of min IIs", "loops won"],
        rows,
        title=f"Ablation: scheduler backtracking [{CONFIG}, {loops} loops]",
    )
    summary = {
        "baseline": float(baseline_total),
        "ims": float(ims_total),
        "loops": float(loops),
    }
    return table, summary


def test_scheduler_ablation(record, once):
    table, summary = once(render_scheduler_ablation)
    record("ablation_scheduler", table)

    assert summary["loops"] >= 20
    # The cheap scheduler stays within a few percent of the
    # backtracking one in total achieved II — the partition, not the
    # placement order, carries the quality.
    assert summary["baseline"] <= summary["ims"] * 1.08
