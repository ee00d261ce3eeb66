"""The experiment memoization layer."""

import pytest

from repro.engine.jobs import ErrorKind, JobResult, Outcome, resolve_machine
from repro.machine.config import heterogeneous_machine
from repro.machine.resources import FuKind
from repro.pipeline.driver import Scheme
from repro.pipeline import experiments
from repro.schedule.scheduler import FailureCause


@pytest.fixture(autouse=True)
def fresh_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestConfiguredLimit:
    def test_default_is_full(self, monkeypatch):
        monkeypatch.delenv(experiments.LIMIT_ENV, raising=False)
        assert experiments.configured_limit() is None

    def test_all_keyword(self, monkeypatch):
        monkeypatch.setenv(experiments.LIMIT_ENV, "all")
        assert experiments.configured_limit() is None

    def test_numeric(self, monkeypatch):
        monkeypatch.setenv(experiments.LIMIT_ENV, "7")
        assert experiments.configured_limit() == 7

    def test_minimum_one(self, monkeypatch):
        monkeypatch.setenv(experiments.LIMIT_ENV, "0")
        assert experiments.configured_limit() == 1

    def test_non_numeric_names_variable_and_forms(self, monkeypatch):
        monkeypatch.setenv(experiments.LIMIT_ENV, "ten")
        with pytest.raises(ValueError) as err:
            experiments.configured_limit()
        message = str(err.value)
        assert experiments.LIMIT_ENV in message
        assert "all" in message and "'ten'" in message

    def test_negative_is_rejected(self, monkeypatch):
        monkeypatch.setenv(experiments.LIMIT_ENV, "-3")
        with pytest.raises(ValueError, match=experiments.LIMIT_ENV):
            experiments.configured_limit()


class TestMachineFor:
    def test_unified(self):
        assert not resolve_machine("unified").is_clustered

    def test_config_name(self):
        assert resolve_machine("4c2b4l64r").n_clusters == 4


class TestCompileSuite:
    def test_results_are_memoized(self):
        machine = resolve_machine("2c1b2l64r")
        first = experiments.compile_suite(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        second = experiments.compile_suite(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        assert first is second

    def test_cache_distinguishes_schemes(self):
        machine = resolve_machine("2c1b2l64r")
        base = experiments.compile_suite(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        repl = experiments.compile_suite(
            "mgrid", machine, Scheme.REPLICATION, limit=2
        )
        assert base is not repl

    def test_metrics_carry_profiles(self):
        machine = resolve_machine("2c1b2l64r")
        for metric in experiments.compile_suite(
            "swim", machine, Scheme.BASELINE, limit=2
        ):
            assert metric.cycles > 0
            assert metric.useful_ops > 0


class TestSuiteOutcomes:
    def test_outcomes_align_with_metrics(self):
        machine = resolve_machine("2c1b2l64r")
        outcomes = experiments.suite_outcomes(
            "mgrid", machine, Scheme.BASELINE, limit=3
        )
        metrics = experiments.compile_suite(
            "mgrid", machine, Scheme.BASELINE, limit=3
        )
        assert len(outcomes) == 3
        assert all(o.ok and o.error == "" for o in outcomes)
        assert len(metrics) == len([o for o in outcomes if o.ok])
        assert [o.loop.name for o in outcomes] == [
            m.loop.name for m in metrics
        ]

    def test_failed_outcomes_empty_on_healthy_suite(self):
        machine = resolve_machine("2c1b2l64r")
        assert (
            experiments.failed_outcomes(
                "mgrid", machine, Scheme.BASELINE, limit=2
            )
            == []
        )

    def test_outcomes_are_memoized_with_metrics(self):
        machine = resolve_machine("2c1b2l64r")
        first = experiments.suite_outcomes(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        second = experiments.suite_outcomes(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        assert first is second


class TestSweepFailures:
    def test_machine_built_in_code_raises_invalid_input(self):
        """The engine keys a machine by name, so a machine built in code
        ends every job ``invalid_input``; the sweep raises instead of
        returning no metrics."""
        machine = heterogeneous_machine(
            cluster_fus=[{FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 1}] * 2,
            bus_count=1,
            bus_latency=2,
        )
        with pytest.raises(RuntimeError, match="invalid_input") as err:
            experiments.compile_suite("mgrid", machine, Scheme.BASELINE, limit=1)
        assert "mgrid/" in str(err.value) and "heterogeneous" in str(err.value)

    @pytest.mark.parametrize(
        "kind, raises",
        [
            (ErrorKind.UNSCHEDULABLE, False),
            (ErrorKind.TIMEOUT, False),
            (ErrorKind.INVALID_INPUT, True),
            (ErrorKind.INTERNAL, True),
            (ErrorKind.ILLEGAL_KERNEL, True),
            (ErrorKind.WORKER_DIED, True),
        ],
    )
    def test_only_unschedulable_and_timeout_cells_drop_out(
        self, monkeypatch, kind, raises
    ):
        def run_jobs(jobs, config):
            return [
                JobResult(key="k", tag=job.tag, outcome=Outcome.ERROR,
                          error="boom", error_kind=kind)
                for job in jobs
            ]

        monkeypatch.setattr(experiments, "run_jobs", run_jobs)
        machine = resolve_machine("2c1b2l64r")
        if raises:
            with pytest.raises(RuntimeError, match=f"{kind.value}: boom"):
                experiments.compile_suite("mgrid", machine, Scheme.BASELINE, limit=2)
        else:
            assert experiments.compile_suite(
                "mgrid", machine, Scheme.BASELINE, limit=2
            ) == []
            assert len(experiments.failed_outcomes(
                "mgrid", machine, Scheme.BASELINE, kind=kind, limit=2
            )) == 2


class TestErrorKinds:
    @staticmethod
    def _outcome(error_kind):
        from repro.workloads.loop import Loop
        from repro.workloads.patterns import daxpy

        ok = error_kind is ErrorKind.NONE
        if ok:
            from repro.pipeline.driver import compile_loop

            result = compile_loop(
                daxpy(), resolve_machine("2c1b2l64r")
            )
        else:
            result = None
        job = JobResult(
            key="k",
            tag="t",
            outcome=Outcome.OK if ok else Outcome.ERROR,
            result=result,
            error="" if ok else "boom",
            error_kind=error_kind,
        )
        return experiments.LoopOutcome(
            loop=Loop(ddg=daxpy(), iterations=1, visits=1), job=job
        )

    def test_error_kind_surfaces_from_job(self):
        outcome = self._outcome(ErrorKind.UNSCHEDULABLE)
        assert outcome.error_kind is ErrorKind.UNSCHEDULABLE
        assert not outcome.ok

    def test_failed_outcomes_filters_by_kind(self, monkeypatch):
        machine = resolve_machine("2c1b2l64r")
        synthetic = [
            self._outcome(ErrorKind.NONE),
            self._outcome(ErrorKind.UNSCHEDULABLE),
            self._outcome(ErrorKind.INVALID_INPUT),
            self._outcome(ErrorKind.UNSCHEDULABLE),
        ]
        monkeypatch.setattr(
            experiments, "suite_outcomes", lambda *a, **k: synthetic
        )
        failed = experiments.failed_outcomes(
            "mgrid", machine, Scheme.BASELINE, limit=2
        )
        assert len(failed) == 3
        unschedulable = experiments.failed_outcomes(
            "mgrid",
            machine,
            Scheme.BASELINE,
            kind=ErrorKind.UNSCHEDULABLE,
            limit=2,
        )
        assert len(unschedulable) == 2
        assert all(
            o.error_kind is ErrorKind.UNSCHEDULABLE for o in unschedulable
        )


class TestAggregates:
    def test_ipc_table_has_hmean(self):
        machine = resolve_machine("2c1b2l64r")
        table = experiments.ipc_by_benchmark(
            machine, Scheme.BASELINE, limit=1
        )
        assert "hmean" in table
        assert len(table) == 11
        assert all(v > 0 for v in table.values())

    def test_cause_histogram_covers_all_causes(self):
        machine = resolve_machine("4c1b2l64r")
        histogram = experiments.cause_histogram(machine, limit=1)
        assert set(histogram) == set(FailureCause)
        assert all(count >= 0 for count in histogram.values())

    def test_mean_ii_reduction_bounds(self):
        machine = resolve_machine("4c1b2l64r")
        reduction = experiments.mean_ii_reduction("applu", machine, limit=3)
        assert 0.0 <= reduction < 1.0
