"""Figure 12: the upper bound on schedule-length replication gains.

Section 5.1 asks whether replicating to shorten the *schedule length*
(rather than the II) is worth pursuing, and bounds the answer by
scheduling with zero-latency buses: transfers still occupy bus slots
(the II effect is preserved) but add no dependence latency. The paper
finds the gap between real replication and this bound to be ~1% for
4-cluster configs and near zero for 2-cluster ones — i.e. not worth it.
"""

from repro.engine.jobs import resolve_machine
from repro.machine.config import PAPER_CONFIG_NAMES
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import ipc_by_benchmark
from repro.pipeline.report import format_table


def render_fig12() -> tuple[str, dict[str, tuple[float, float]]]:
    data = {}
    rows = []
    for name in PAPER_CONFIG_NAMES:
        machine = resolve_machine(name)
        repl = ipc_by_benchmark(machine, Scheme.REPLICATION)["hmean"]
        bound = ipc_by_benchmark(
            machine, Scheme.REPLICATION, copy_latency_override=0
        )["hmean"]
        data[name] = (repl, bound)
        gap = (bound / repl - 1.0) * 100.0 if repl else 0.0
        rows.append([name, repl, bound, gap])
    table = format_table(
        ["config", "replication IPC", "latency-0 IPC", "potential gain %"],
        rows,
        title="Figure 12: potential benefit of reducing the schedule length",
    )
    return table, data


def test_fig12(record, once):
    table, data = once(render_fig12)
    record("fig12_length_bound", table)

    for name, (repl, bound) in data.items():
        assert repl > 0 and bound > 0
        gain = bound / repl - 1.0
        # The bound can only help (tiny negative noise tolerated: the
        # zero-latency schedule may normalize differently).
        assert gain >= -0.02, f"{name}: bound below replication ({gain:.1%})"
        # The paper's conclusion: the potential is small.
        assert gain <= 0.10, f"{name}: implausibly large potential {gain:.1%}"
