"""Section 4 prose: communications removed and replication cost.

"The proposed replication technique removes around one third of the
communications, depending on the configuration. For instance, for the
4c1b2l64r, 36% of the communications are removed and every
communication requires the replication of 2.1 instructions on
average."
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import compile_suite
from repro.pipeline.metrics import comm_stats
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER

CONFIGS = ("2c1b2l64r", "4c1b2l64r", "4c2b2l64r", "4c2b4l64r")


def render_comm_stats() -> tuple[str, dict[str, object]]:
    stats = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        results = []
        for bench in BENCHMARK_ORDER:
            results.extend(
                m.result
                for m in compile_suite(bench, machine, Scheme.REPLICATION)
            )
        stat = comm_stats(results)
        stats[name] = stat
        rows.append(
            [
                name,
                stat.initial_coms,
                stat.removed_coms,
                100.0 * stat.removed_fraction,
                stat.replicas_per_removed_comm,
            ]
        )
    table = format_table(
        ["config", "comms", "removed", "removed %", "replicas/comm"],
        rows,
        title="Section 4: communication removal statistics",
    )
    return table, stats


def test_comm_stats(record, once):
    table, stats = once(render_comm_stats)
    record("text_comm_stats", table)

    flagship = stats["4c1b2l64r"]
    # Paper: ~36% removed at 2.1 replicas per removed communication.
    assert 0.10 <= flagship.removed_fraction <= 0.75
    assert 1.0 <= flagship.replicas_per_removed_comm <= 5.0
    for stat in stats.values():
        assert stat.removed_coms <= stat.initial_coms
