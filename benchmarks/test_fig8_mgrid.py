"""Figure 8: mgrid IPC — unified machine vs clustered configurations.

The paper's point: even without replication, mgrid's clustered IPC sits
close to the unified upper bound, because the partitioner finds nearly
communication-free partitions — hence replication has nothing to win
on mgrid. Bars: unified, 2c1b2l, 4c1b2l, 4c2b2l (2-cycle bus latency).
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import suite_metrics
from repro.pipeline.report import format_table

CONFIGS = ("unified", "2c1b2l64r", "4c1b2l64r", "4c2b2l64r")


def render_fig8() -> tuple[str, dict[str, float]]:
    ipcs = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        base = suite_metrics("mgrid", machine, Scheme.BASELINE).ipc
        repl = (
            base
            if name == "unified"
            else suite_metrics("mgrid", machine, Scheme.REPLICATION).ipc
        )
        ipcs[name] = base
        rows.append([name, base, repl])
    table = format_table(
        ["config", "baseline IPC", "replication IPC"],
        rows,
        title="Figure 8: IPC for mgrid",
    )
    return table, ipcs


def test_fig8(record, once):
    table, ipcs = once(render_fig8)
    record("fig8_mgrid", table)

    unified = ipcs["unified"]
    assert unified > 0
    # Clustered mgrid IPC is close to the unified upper bound (the
    # paper's observation motivating why replication cannot help it).
    for name in ("2c1b2l64r", "4c1b2l64r", "4c2b2l64r"):
        assert ipcs[name] <= unified * 1.001
        assert ipcs[name] >= unified * 0.7, (
            f"{name}: mgrid IPC {ipcs[name]:.2f} far from unified {unified:.2f}"
        )
