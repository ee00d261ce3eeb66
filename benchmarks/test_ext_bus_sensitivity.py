"""Extension: replication benefit vs bus latency.

The bus capacity per II window is ``II / bus_lat * nof_buses``, so
slower buses starve the baseline harder and give replication more
headroom. Sweeping bus latency at fixed cluster count and bus count
maps the sensitivity — an experiment the paper's configuration grid
(latency 2 vs 4) samples only twice.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import ipc_by_benchmark
from repro.pipeline.report import format_table

LATENCIES = (1, 2, 4, 8)


def render_sweep() -> tuple[str, dict[int, float]]:
    gains = {}
    rows = []
    for latency in LATENCIES:
        machine = resolve_machine(f"4c2b{latency}l64r")
        base = ipc_by_benchmark(machine, Scheme.BASELINE)["hmean"]
        repl = ipc_by_benchmark(machine, Scheme.REPLICATION)["hmean"]
        gain = repl / base - 1.0 if base else 0.0
        gains[latency] = gain
        rows.append([f"4c2b{latency}l64r", base, repl, gain * 100.0])
    table = format_table(
        ["config", "baseline IPC", "replication IPC", "speedup %"],
        rows,
        title="Extension: replication benefit vs bus latency (4 clusters, 2 buses)",
    )
    return table, gains


def test_bus_latency_sensitivity(record, once):
    table, gains = once(render_sweep)
    record("ext_bus_sensitivity", table)

    # Replication helps at every latency.
    assert all(g >= -0.01 for g in gains.values()), gains
    # Slow buses leave more on the table than fast ones.
    assert gains[8] >= gains[1], gains
    assert gains[4] >= gains[1] * 0.8, gains
