"""The Figure 2 compilation loop."""

import pytest

from repro.machine.config import parse_config, unified_machine
from repro.pipeline.driver import (
    CompileError,
    Scheme,
    UnschedulableError,
    compile_loop,
)
from repro.schedule.scheduler import FailureCause
from repro.sim.verifier import verify_kernel
from repro.workloads.patterns import daxpy, dot_product, stencil5
from repro.workloads.specfp import benchmark_loops


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


@pytest.fixture
def m4():
    return parse_config("4c1b2l64r")


class TestCompileLoop:
    def test_baseline_and_replication_verify(self, m2, m4):
        for machine in (m2, m4):
            for ddg in (daxpy(), stencil5(), dot_product()):
                for scheme in (Scheme.BASELINE, Scheme.REPLICATION):
                    result = compile_loop(ddg, machine, scheme=scheme)
                    verify_kernel(result.kernel)
                    assert result.ii >= result.mii

    def test_replication_never_raises_ii(self, m2, m4):
        for machine in (m2, m4):
            for loop in benchmark_loops("hydro2d", limit=5):
                base = compile_loop(loop.ddg, machine, scheme=Scheme.BASELINE)
                repl = compile_loop(
                    loop.ddg, machine, scheme=Scheme.REPLICATION
                )
                assert repl.ii <= base.ii

    def test_ii_starts_at_mii(self, m2):
        result = compile_loop(stencil5(), m2, scheme=Scheme.REPLICATION)
        assert result.ii >= result.mii
        assert result.ii_increase == result.ii - result.mii

    def test_causes_recorded_per_bump(self, m2):
        result = compile_loop(daxpy(), m2, scheme=Scheme.BASELINE)
        assert len(result.causes) == result.ii_increase

    def test_bus_is_the_dominant_baseline_cause(self, m4):
        """The Figure 1 observation on a comm-heavy loop."""
        loops = benchmark_loops("su2cor", limit=5)
        causes = []
        for loop in loops:
            causes.extend(
                compile_loop(loop.ddg, m4, scheme=Scheme.BASELINE).causes
            )
        assert causes.count(FailureCause.BUS) >= len(causes) // 2

    def test_unified_machine_never_blames_the_bus(self):
        m = unified_machine()
        for loop in benchmark_loops("tomcatv", limit=3):
            result = compile_loop(loop.ddg, m, scheme=Scheme.BASELINE)
            assert FailureCause.BUS not in result.causes
            assert result.plan.is_empty

    def test_empty_loop_rejected(self, m2):
        from repro.ddg.graph import Ddg

        with pytest.raises(CompileError):
            compile_loop(Ddg("empty"), m2)

    def test_max_ii_bound_raises(self, m2):
        with pytest.raises(UnschedulableError):
            compile_loop(daxpy(), m2, scheme=Scheme.BASELINE, max_ii=1)

    def test_result_carries_diagnostics(self, m2):
        result = compile_loop(stencil5(), m2, scheme=Scheme.REPLICATION)
        assert result.diagnostics is not None
        assert result.diagnostics.ii_trajectory[-1] == result.ii

    def test_scheme_name_for_enum_results(self, m2):
        result = compile_loop(stencil5(), m2, scheme=Scheme.REPLICATION)
        assert result.scheme_name == "replication"

    def test_macro_scheme_compiles(self, m4):
        loop = benchmark_loops("swim", limit=1)[0]
        result = compile_loop(
            loop.ddg, m4, scheme=Scheme.MACRO_REPLICATION
        )
        verify_kernel(result.kernel)

    def test_length_replication_flag(self, m2):
        result = compile_loop(
            stencil5(), m2, scheme=Scheme.REPLICATION, length_replication=True
        )
        verify_kernel(result.kernel)

    def test_zero_latency_override_threads_through(self, m2):
        result = compile_loop(
            stencil5(),
            m2,
            scheme=Scheme.REPLICATION,
            copy_latency_override=0,
        )
        assert result.kernel.copy_latency_override == 0


class TestSchemesCompared:
    def test_replication_reduces_communications(self, m4):
        reduced = 0
        for loop in benchmark_loops("su2cor", limit=5):
            base = compile_loop(loop.ddg, m4, scheme=Scheme.BASELINE)
            repl = compile_loop(loop.ddg, m4, scheme=Scheme.REPLICATION)
            if repl.kernel.n_copy_ops() < base.kernel.n_copy_ops():
                reduced += 1
        assert reduced >= 3

    def test_plan_attached_to_result(self, m4):
        loop = benchmark_loops("su2cor", limit=1)[0]
        repl = compile_loop(loop.ddg, m4, scheme=Scheme.REPLICATION)
        assert repl.plan.initial_coms >= repl.plan.n_removed_comms
