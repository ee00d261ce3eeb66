"""Section 5.2 ablation: macro-node replication is not effective.

"The results were not good, mainly due to the fact that too many
unnecessary instructions were replicated when replicating macro-nodes."
We compare the minimal-subgraph replicator against the macro-node
variant on the same loops: the macro variant must not beat the minimal
one on aggregate IPC, and it replicates more instructions per removed
communication.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import compile_suite
from repro.pipeline.metrics import benchmark_metrics, comm_stats, harmonic_mean
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER

CONFIG = "4c1b2l64r"


def render_ablation() -> tuple[str, dict[str, object]]:
    machine = resolve_machine(CONFIG)
    rows = []
    minimal_ipcs, macro_ipcs = [], []
    minimal_results, macro_results = [], []
    for bench in BENCHMARK_ORDER:
        minimal = compile_suite(bench, machine, Scheme.REPLICATION)
        macro = compile_suite(bench, machine, Scheme.MACRO_REPLICATION)
        ipc_min = benchmark_metrics(bench, minimal).ipc
        ipc_mac = benchmark_metrics(bench, macro).ipc
        minimal_ipcs.append(ipc_min)
        macro_ipcs.append(ipc_mac)
        minimal_results.extend(m.result for m in minimal)
        macro_results.extend(m.result for m in macro)
        rows.append([bench, ipc_min, ipc_mac])
    rows.append(
        ["hmean", harmonic_mean(minimal_ipcs), harmonic_mean(macro_ipcs)]
    )
    table = format_table(
        ["benchmark", "minimal-subgraph IPC", "macro-node IPC"],
        rows,
        title=f"Section 5.2 ablation [{CONFIG}]",
    )
    summary = {
        "hmean_min": harmonic_mean(minimal_ipcs),
        "hmean_macro": harmonic_mean(macro_ipcs),
        "stats_min": comm_stats(minimal_results),
        "stats_macro": comm_stats(macro_results),
    }
    return table, summary


def test_macro_ablation(record, once):
    table, summary = once(render_ablation)
    record("sec52_macro_ablation", table)

    # Macro replication never beats the minimal-subgraph heuristic.
    assert summary["hmean_macro"] <= summary["hmean_min"] * 1.02

    # And it pays more instructions per removed communication.
    stats_min, stats_macro = summary["stats_min"], summary["stats_macro"]
    if stats_min.removed_coms and stats_macro.removed_coms:
        assert (
            stats_macro.replicas_per_removed_comm
            >= stats_min.replicas_per_removed_comm * 0.95
        )
