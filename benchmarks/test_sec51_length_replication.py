"""Section 5.1: the schedule-length replication extension, end to end.

Figure 12 bounds the *potential* of length-targeted replication; this
benchmark runs the actual extension (replicate critical-path
communications into the benefiting cluster only) on the benchmark the
paper singles out — applu, whose tiny trip counts make prolog/epilog
time dominant. The paper's conclusion: the realized benefit is small;
we assert it is small and never harmful.
"""

from repro.engine.jobs import resolve_machine
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import compile_suite
from repro.pipeline.metrics import benchmark_metrics
from repro.pipeline.report import format_table

CONFIGS = ("2c1b2l64r", "4c1b2l64r", "4c2b4l64r")


def render_sec51() -> tuple[str, dict[str, tuple[float, float]]]:
    data = {}
    rows = []
    for name in CONFIGS:
        machine = resolve_machine(name)
        plain = benchmark_metrics(
            "applu", compile_suite("applu", machine, Scheme.REPLICATION)
        )
        extended = benchmark_metrics(
            "applu",
            compile_suite(
                "applu", machine, Scheme.REPLICATION, length_replication=True
            ),
        )
        data[name] = (plain.ipc, extended.ipc)
        gain = (extended.ipc / plain.ipc - 1.0) * 100.0 if plain.ipc else 0.0
        rows.append([name, plain.ipc, extended.ipc, gain])
    table = format_table(
        ["config", "replication IPC", "+length pass IPC", "gain %"],
        rows,
        title="Section 5.1: length-targeted replication on applu",
    )
    return table, data


def test_sec51_length_pass(record, once):
    table, data = once(render_sec51)
    record("sec51_length_replication", table)

    for name, (plain, extended) in data.items():
        assert plain > 0
        gain = extended / plain - 1.0
        # Never harmful beyond noise, and small (the paper's finding).
        assert gain >= -0.03, (name, gain)
        assert gain <= 0.15, (name, gain)
