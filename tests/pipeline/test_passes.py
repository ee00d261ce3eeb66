"""The pass pipeline: scheme table, II escalation, diagnostics."""

import pytest

from repro.machine.config import parse_config
from repro.pipeline.driver import (
    CompileError,
    Scheme,
    UnschedulableError,
    compile_loop,
)
from repro.pipeline.passes import (
    PLAN_PASSES,
    FeasibilityPass,
    PartitionPass,
    Pass,
    ReplicatePlanPass,
    SchemeConfig,
    StageFailure,
    find_min_ii,
    next_ii,
    pass_stack,
    run_pass_pipeline,
)
from repro.schedule.scheduler import FailureCause, ScheduleFailure
from repro.schedule.scheduler import schedule as real_schedule
from repro.workloads.patterns import daxpy, stencil5


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


class TestRegistry:
    """The closed scheme table: one row per :class:`Scheme` member."""

    def test_builtin_schemes_registered(self):
        assert set(PLAN_PASSES) == set(Scheme)

    def test_unknown_scheme_is_a_compile_error(self, m2):
        with pytest.raises(CompileError, match="unknown scheme"):
            run_pass_pipeline(daxpy(), m2, "no_such_scheme")

    def test_stack_shape_matches_config(self):
        plain = [p.name for p in pass_stack(Scheme.REPLICATION, SchemeConfig())]
        assert plain == ["partition", "feasibility", "replicate", "place",
                         "schedule"]
        with_length = [
            p.name
            for p in pass_stack(
                Scheme.REPLICATION, SchemeConfig(length_replication=True)
            )
        ]
        assert with_length == ["partition", "feasibility", "replicate",
                               "length", "place", "schedule"]

    def test_concrete_passes_satisfy_protocol(self):
        for scheme in Scheme:
            for stage in pass_stack(scheme, SchemeConfig()):
                assert isinstance(stage, Pass)

    @pytest.mark.parametrize(
        "scheme, plan",
        [
            (Scheme.BASELINE, "plan"),
            (Scheme.REPLICATION, "replicate"),
            (Scheme.MACRO_REPLICATION, "macro_replicate"),
            (Scheme.VALUE_CLONING, "clone_values"),
            (Scheme.REPL_PART, "replicate"),
        ],
    )
    @pytest.mark.parametrize("length", [False, True])
    def test_every_scheme_runs_one_stack_shape(self, scheme, plan, length):
        names = [
            p.name
            for p in pass_stack(scheme, SchemeConfig(length_replication=length))
        ]
        middle = [plan, "length"] if length else [plan]
        assert names == ["partition", "feasibility", *middle, "place",
                         "schedule"]

    def test_repl_part_is_replication_with_a_partition_budget(self):
        budgets = {}
        for scheme in (Scheme.REPLICATION, Scheme.REPL_PART):
            partition, feasibility, plan, *_ = pass_stack(scheme, SchemeConfig())
            assert isinstance(partition, PartitionPass)
            assert isinstance(feasibility, FeasibilityPass)
            assert isinstance(plan, ReplicatePlanPass)
            budgets[scheme] = partition.budget
        assert budgets == {Scheme.REPLICATION: 0, Scheme.REPL_PART: 8}
        assert PLAN_PASSES[Scheme.REPL_PART] == (ReplicatePlanPass, 8)
        assert all(
            budget == 0
            for scheme, (_, budget) in PLAN_PASSES.items()
            if scheme is not Scheme.REPL_PART
        )


class TestSchemeConfigParity:
    def test_kwargs_fold_into_config(self, m2):
        via_kwargs = compile_loop(
            stencil5(),
            m2,
            scheme=Scheme.REPLICATION,
            length_replication=True,
            copy_latency_override=0,
        )
        via_config = run_pass_pipeline(
            stencil5(),
            m2,
            Scheme.REPLICATION,
            config=SchemeConfig(length_replication=True, copy_latency_override=0),
        )
        assert via_kwargs.ii == via_config.ii
        assert via_kwargs.kernel.copy_latency_override == 0
        assert via_config.kernel.copy_latency_override == 0


class TestDiagnostics:
    def test_stage_times_and_counts_recorded(self, m2):
        result = compile_loop(stencil5(), m2, scheme=Scheme.REPLICATION)
        diag = result.diagnostics
        assert diag is not None
        assert set(diag.stage_seconds) <= {
            "partition", "feasibility", "replicate", "place", "schedule"
        }
        assert "partition" in diag.stage_seconds
        # One partition (and refinement) per II attempt; only attempts
        # that pass the earlier stages reach the scheduler.
        assert diag.counters["partition.refine_calls"] == len(diag.ii_trajectory)
        assert 1 <= diag.counters["schedule.attempts"] <= len(diag.ii_trajectory)
        assert all(s >= 0.0 for s in diag.stage_seconds.values())

    def test_trajectory_starts_at_mii_and_ends_at_ii(self, m2):
        result = compile_loop(stencil5(), m2, scheme=Scheme.BASELINE)
        trajectory = result.diagnostics.ii_trajectory
        assert trajectory[0] == result.mii
        assert trajectory[-1] == result.ii
        assert trajectory == sorted(set(trajectory))  # strictly increasing

    def test_to_dict_is_json_ready(self, m2):
        import dataclasses
        import json

        result = compile_loop(daxpy(), m2, scheme=Scheme.BASELINE)
        payload = dataclasses.asdict(result.diagnostics)
        json.dumps(payload)
        assert payload["ii_trajectory"] == result.diagnostics.ii_trajectory
        assert result.diagnostics.total_seconds >= 0.0


class TestEscalationPolicies:
    def test_jump_follows_suggestion(self):
        failure = ScheduleFailure(FailureCause.REGISTERS, "x", suggested_ii=9)
        assert next_ii(5, failure) == 9

    def test_jump_caps_at_factor_times_ii(self):
        failure = ScheduleFailure(FailureCause.REGISTERS, "x", suggested_ii=1000)
        assert next_ii(5, failure) == 20

    def test_jump_ignores_stale_suggestion(self):
        failure = ScheduleFailure(FailureCause.REGISTERS, "x", suggested_ii=4)
        assert next_ii(5, failure) == 6

    def test_jump_without_suggestion_steps_by_one(self):
        failure = StageFailure(FailureCause.BUS, "no estimate")
        assert next_ii(5, failure) == 6

    def test_find_min_ii_steps_by_one(self):
        """The ablation search tries every II, whatever a failure
        suggests."""
        tried = []

        def attempt(ii):
            tried.append(ii)
            if ii < 8:
                raise ScheduleFailure(FailureCause.REGISTERS, "x", suggested_ii=99)
            return "kernel"

        assert find_min_ii(attempt, 5, 20) == (8, "kernel")
        assert tried == [5, 6, 7, 8]
        with pytest.raises(UnschedulableError):
            find_min_ii(attempt, 2, 7)


class TestIIJumpInCompileLoop:
    """Satellite: the suggested-II jump behaviour of the Fig. 2 loop."""

    def _compile_with_forced_failures(self, monkeypatch, m2, failures):
        """Make the first len(failures) schedule calls raise, then defer
        to the real scheduler; returns the compile result."""
        remaining = list(failures)

        def flaky_schedule(graph, machine, ii, **kwargs):
            if remaining:
                raise remaining.pop(0)
            return real_schedule(graph, machine, ii, **kwargs)

        monkeypatch.setattr(
            "repro.pipeline.passes.schedule", flaky_schedule
        )
        return compile_loop(stencil5(), m2, scheme=Scheme.BASELINE)

    def test_jump_is_capped_at_4x(self, monkeypatch, m2):
        result = self._compile_with_forced_failures(
            monkeypatch,
            m2,
            [ScheduleFailure(FailureCause.REGISTERS, "f", suggested_ii=1000)],
        )
        trajectory = result.diagnostics.ii_trajectory
        # The attempt after the forced failure sits at exactly 4x the II
        # where the scheduler failed, not at the (huge) suggestion.
        jumps = [
            (a, b) for a, b in zip(trajectory, trajectory[1:]) if b > a + 1
        ]
        assert len(jumps) == 1
        failing_ii, landed_ii = jumps[0]
        assert landed_ii == 4 * failing_ii
        assert 1000 not in trajectory

    def test_exactly_one_cause_per_jump(self, monkeypatch, m2):
        result = self._compile_with_forced_failures(
            monkeypatch,
            m2,
            [
                ScheduleFailure(FailureCause.REGISTERS, "a", suggested_ii=1000),
                ScheduleFailure(FailureCause.RECURRENCES, "b", suggested_ii=1000),
            ],
        )
        # However far each jump travelled, each failure recorded exactly
        # one cause — so causes appear once, in failure order.
        assert result.causes.count(FailureCause.REGISTERS) == 1
        assert result.causes.count(FailureCause.RECURRENCES) == 1
        regs = result.causes.index(FailureCause.REGISTERS)
        recs = result.causes.index(FailureCause.RECURRENCES)
        assert regs < recs

    def test_trajectory_is_strictly_monotone_under_jumps(self, monkeypatch, m2):
        result = self._compile_with_forced_failures(
            monkeypatch,
            m2,
            [
                ScheduleFailure(FailureCause.REGISTERS, "a", suggested_ii=7),
                ScheduleFailure(FailureCause.REGISTERS, "b", suggested_ii=3),
                ScheduleFailure(FailureCause.REGISTERS, "c"),
            ],
        )
        trajectory = result.diagnostics.ii_trajectory
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))
        assert result.ii == trajectory[-1]

    def test_stale_suggestion_still_advances(self, monkeypatch, m2):
        result = self._compile_with_forced_failures(
            monkeypatch,
            m2,
            [ScheduleFailure(FailureCause.REGISTERS, "f", suggested_ii=1)],
        )
        trajectory = result.diagnostics.ii_trajectory
        assert all(b > a for a, b in zip(trajectory, trajectory[1:]))


class TestErrorTaxonomy:
    def test_exhaustion_raises_unschedulable(self, m2):
        with pytest.raises(UnschedulableError):
            compile_loop(daxpy(), m2, scheme=Scheme.BASELINE, max_ii=1)

    def test_empty_loop_is_not_unschedulable(self, m2):
        from repro.ddg.graph import Ddg

        with pytest.raises(CompileError) as excinfo:
            compile_loop(Ddg("empty"), m2)
        assert not isinstance(excinfo.value, UnschedulableError)

    def test_unschedulable_is_a_compile_error(self):
        assert issubclass(UnschedulableError, CompileError)
