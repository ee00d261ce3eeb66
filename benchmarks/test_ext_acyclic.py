"""Extension (section 6): replication applied to acyclic code.

The paper suggests its length heuristics also apply to acyclic
scheduling. We strip the loop-carried edges from the suite's bodies —
yielding the DAGs a trace scheduler would see — list-schedule them on a
clustered machine with and without critical-path replication, and
report the makespan reduction.
"""

from repro.acyclic.replicate import replicate_acyclic
from repro.engine.jobs import resolve_machine
from repro.partition.multilevel import initial_partition
from repro.pipeline.experiments import configured_limit
from repro.pipeline.report import format_table
from repro.workloads.acyclic import acyclic_blocks
from repro.workloads.specfp import BENCHMARK_ORDER

CONFIGS = ("2c1b2l64r", "4c1b2l64r", "4c2b4l64r")


def render_acyclic() -> tuple[str, dict[str, float]]:
    limit = configured_limit()
    gains = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        base_total = repl_total = improved = blocks = 0
        for bench in BENCHMARK_ORDER:
            for block in acyclic_blocks(bench, limit=limit or 8):
                part = initial_partition(block, machine, ii=4)
                result = replicate_acyclic(part, machine, max_rounds=4)
                base_total += result.baseline_length
                repl_total += result.length
                improved += 1 if result.improvement > 0 else 0
                blocks += 1
        gain = 1.0 - repl_total / base_total if base_total else 0.0
        gains[name] = gain
        rows.append(
            [name, blocks, base_total, repl_total, gain * 100.0, improved]
        )
    table = format_table(
        [
            "config",
            "blocks",
            "baseline cycles",
            "replicated cycles",
            "length saved %",
            "blocks improved",
        ],
        rows,
        title="Extension: critical-path replication on acyclic blocks",
    )
    return table, gains


def test_acyclic_extension(record, once):
    table, gains = once(render_acyclic)
    record("ext_acyclic", table)

    for name, gain in gains.items():
        # Replication never lengthens a block ...
        assert gain >= 0.0, name
    # ... and pays off somewhere (acyclic code pays full bus latency on
    # every critical communication, so there is real room).
    assert max(gains.values()) > 0.005, gains
