"""Related work (section 6): value cloning vs full replication.

Kuras et al.'s value cloning targets only read-only values and
induction variables. Because it cannot chase a communicated value's
*producers*, communications fed by real computation survive — so it
recovers only part of the paper's win. The benchmark quantifies that
gap on the synthetic suite.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import ipc_by_benchmark
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER

CONFIG = "4c1b2l64r"


def render_cloning() -> tuple[str, dict[str, float]]:
    machine = resolve_machine(CONFIG)
    base = ipc_by_benchmark(machine, Scheme.BASELINE)
    clone = ipc_by_benchmark(machine, Scheme.VALUE_CLONING)
    repl = ipc_by_benchmark(machine, Scheme.REPLICATION)
    rows = []
    for bench in [*BENCHMARK_ORDER, "hmean"]:
        rows.append([bench, base[bench], clone[bench], repl[bench]])
    table = format_table(
        ["benchmark", "baseline IPC", "value-cloning IPC", "replication IPC"],
        rows,
        title=f"Section 6 comparison: value cloning vs replication [{CONFIG}]",
    )
    summary = {
        "base": base["hmean"],
        "clone": clone["hmean"],
        "repl": repl["hmean"],
    }
    return table, summary


def test_value_cloning_comparison(record, once):
    table, summary = once(render_cloning)
    record("related_value_cloning", table)

    # Cloning sits between the baseline and full replication: it helps
    # (induction variables and address bases are real traffic) ...
    assert summary["clone"] >= summary["base"] * 0.999
    # ... but leaves a real gap to the paper's technique.
    assert summary["repl"] >= summary["clone"] * 1.03
