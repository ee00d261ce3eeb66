"""Section 4 prose: 32/64/128-register sweep gives "similar results".

Replication's benefit comes from relieving the bus, not the register
files, so its speedup should persist across register-file sizes.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import ipc_by_benchmark
from repro.pipeline.report import format_table

CONFIGS = ("4c1b2l32r", "4c1b2l64r", "4c1b2l128r")


def render_sweep() -> tuple[str, dict[str, float]]:
    speedups = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        base = ipc_by_benchmark(machine, Scheme.BASELINE)["hmean"]
        repl = ipc_by_benchmark(machine, Scheme.REPLICATION)["hmean"]
        speedup = repl / base if base else 0.0
        speedups[name] = speedup
        rows.append([name, base, repl, (speedup - 1.0) * 100.0])
    table = format_table(
        ["config", "baseline IPC", "replication IPC", "speedup %"],
        rows,
        title="Section 4: register-file sweep (32/64/128 registers)",
    )
    return table, speedups


def test_register_sweep(record, once):
    table, speedups = once(render_sweep)
    record("text_register_sweep", table)

    # Replication helps at every register budget...
    for name, speedup in speedups.items():
        assert speedup >= 1.0, f"{name}: replication lost ({speedup:.3f})"
    # ... and similarly so ("similar results have been obtained").
    values = sorted(speedups.values())
    assert values[-1] - values[0] <= 0.35, speedups
