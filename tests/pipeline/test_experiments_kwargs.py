"""Experiment cache keys must distinguish every compile flag."""

import pytest

from repro.engine.jobs import resolve_machine
from repro.pipeline import experiments
from repro.pipeline.driver import Scheme


@pytest.fixture(autouse=True)
def fresh_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestCacheKeys:
    def test_copy_latency_override_is_keyed(self):
        machine = resolve_machine("2c1b2l64r")
        normal = experiments.compile_suite(
            "swim", machine, Scheme.REPLICATION, limit=2
        )
        bound = experiments.compile_suite(
            "swim", machine, Scheme.REPLICATION, limit=2,
            copy_latency_override=0,
        )
        assert normal is not bound
        # The zero-latency bound can only shorten schedules.
        for n, b in zip(normal, bound):
            assert b.result.kernel.length <= n.result.kernel.length

    def test_length_replication_is_keyed(self):
        machine = resolve_machine("2c1b2l64r")
        plain = experiments.compile_suite(
            "applu", machine, Scheme.REPLICATION, limit=2
        )
        extended = experiments.compile_suite(
            "applu", machine, Scheme.REPLICATION, limit=2,
            length_replication=True,
        )
        assert plain is not extended

    def test_limits_are_keyed(self):
        machine = resolve_machine("2c1b2l64r")
        two = experiments.compile_suite("mgrid", machine, Scheme.BASELINE, limit=2)
        three = experiments.compile_suite("mgrid", machine, Scheme.BASELINE, limit=3)
        assert len(two) == 2
        assert len(three) == 3

    def test_machines_keyed_by_name(self):
        a = experiments.compile_suite(
            "mgrid", resolve_machine("2c1b2l64r"), Scheme.BASELINE, limit=1
        )
        b = experiments.compile_suite(
            "mgrid", resolve_machine("2c1b2l32r"), Scheme.BASELINE, limit=1
        )
        assert a is not b
