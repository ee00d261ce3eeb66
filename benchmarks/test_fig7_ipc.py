"""Figure 7: per-benchmark IPC, baseline vs replication, six configs.

The paper's headline: replication helps every benchmark on every
configuration; the average (harmonic-mean) speedup reaches ~25% for
4-cluster machines, with su2cor/tomcatv/swim gaining most (50-70%) and
mgrid/applu gaining least. We assert the *shape*: replication never
loses on aggregate, communication-bound benchmarks gain clearly, and
mgrid/applu sit at the bottom of the gain table.
"""

from repro.engine.jobs import resolve_machine
from repro.machine.config import PAPER_CONFIG_NAMES
from repro.pipeline.driver import Scheme
from repro.pipeline.experiments import ipc_by_benchmark
from repro.pipeline.report import format_table
from repro.workloads.specfp import BENCHMARK_ORDER


def render_fig7() -> tuple[str, dict[str, dict[str, dict[str, float]]]]:
    data: dict[str, dict[str, dict[str, float]]] = {}
    sections = []
    for name in PAPER_CONFIG_NAMES:
        machine = resolve_machine(name)
        base = ipc_by_benchmark(machine, Scheme.BASELINE)
        repl = ipc_by_benchmark(machine, Scheme.REPLICATION)
        data[name] = {"baseline": base, "replication": repl}
        rows = []
        for bench in [*BENCHMARK_ORDER, "hmean"]:
            b, r = base[bench], repl[bench]
            rows.append([bench, b, r, (r / b - 1.0) * 100.0 if b else 0.0])
        sections.append(
            format_table(
                ["benchmark", "baseline IPC", "replication IPC", "speedup %"],
                rows,
                title=f"Figure 7 [{name}]",
            )
        )
    return "\n\n".join(sections), data


def test_fig7(record, once):
    text, data = once(render_fig7)
    record("fig7_ipc", text)

    for name, series in data.items():
        base, repl = series["baseline"], series["replication"]
        # Replication never hurts on aggregate.
        assert repl["hmean"] >= base["hmean"] * 0.999, name
        # And never hurts any individual benchmark materially.
        for bench in BENCHMARK_ORDER:
            assert repl[bench] >= base[bench] * 0.97, (name, bench)

    # The paper's flagship: clear average gains on 4-cluster machines.
    for name in ("4c1b2l64r", "4c2b4l64r"):
        base = data[name]["baseline"]["hmean"]
        repl = data[name]["replication"]["hmean"]
        assert repl / base >= 1.08, f"{name}: hmean speedup {repl / base:.3f}"

    # Communication-bound benchmarks gain more than mgrid (Figure 8's
    # explanation: mgrid partitions nearly communication-free).
    for name in ("4c1b2l64r", "4c2b4l64r"):
        series = data[name]

        def gain(bench: str) -> float:
            return (
                series["replication"][bench] / series["baseline"][bench]
            )

        assert gain("su2cor") > gain("mgrid")
        assert gain("tomcatv") > gain("mgrid")
