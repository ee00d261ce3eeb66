"""Counters, gauges, histograms, and the registry."""

import pytest

from repro.obs.metrics import (
    LOG_SECONDS_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("rate")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("t")
        for value in (1e-5, 2e-5, 4e-3):
            h.observe(value)
        assert h.count == 3
        assert h.total == pytest.approx(1e-5 + 2e-5 + 4e-3)
        assert h.max == 4e-3
        assert h.mean == pytest.approx(h.total / 3)

    def test_default_bounds_are_log_scale(self):
        assert LOG_SECONDS_BOUNDS[0] == 1e-6
        ratios = {
            round(b / a)
            for a, b in zip(LOG_SECONDS_BOUNDS, LOG_SECONDS_BOUNDS[1:])
        }
        assert ratios == {4}

    def test_quantile_is_a_bucket_upper_bound(self):
        h = Histogram("t")
        for _ in range(100):
            h.observe(3e-6)  # lands in the (1e-6, 4e-6] bucket
        assert h.quantile(0.5) == 4e-6
        assert h.quantile(1.0) == 4e-6

    def test_quantile_edge_cases(self):
        h = Histogram("t")
        assert h.quantile(0.5) == 0.0
        h.observe(1e9)  # overflow bucket reports the exact max
        assert h.quantile(0.99) == 1e9
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_merge_requires_equal_bounds(self):
        a = Histogram("t")
        b = Histogram("t", bounds=(0.1, 1.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_folds_counts(self):
        a, b = Histogram("t"), Histogram("t")
        a.observe(1e-5)
        b.observe(2e-2)
        b.observe(3e-2)
        a.merge(b)
        assert a.count == 3
        assert a.max == 3e-2
        assert sum(a.counts) == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(1.0, 0.1))


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_flattens_to_plain_floats(self):
        reg = MetricsRegistry()
        reg.counter("evals").inc(7)
        reg.gauge("hit_rate").set(0.5)
        h = reg.histogram("secs")
        h.observe(0.25)
        snap = reg.snapshot()
        assert snap["evals"] == 7.0
        assert snap["hit_rate"] == 0.5
        assert snap["secs.count"] == 1.0
        assert snap["secs.sum"] == 0.25
        assert snap["secs.max"] == 0.25
        assert all(isinstance(v, float) for v in snap.values())

    def test_scoped_namespaces_every_instrument(self):
        reg = MetricsRegistry()
        scoped = reg.scoped("partition")
        scoped.counter("moves").inc(3)
        scoped.gauge("rate").set(0.1)
        assert reg.snapshot() == {"partition.moves": 3.0, "partition.rate": 0.1}

    def test_scoped_views_share_storage(self):
        reg = MetricsRegistry()
        reg.scoped("p").counter("n").inc()
        reg.scoped("p").counter("n").inc()
        assert reg.snapshot()["p.n"] == 2.0

    def test_nested_scopes_compose(self):
        reg = MetricsRegistry()
        reg.scoped("a").scoped("b").counter("n").inc()
        assert "a.b.n" in reg.snapshot()


class TestCurrentRegistry:
    def test_use_registry_scopes_the_current_registry(self):
        outside = current_registry()
        inner = MetricsRegistry()
        with use_registry(inner):
            assert current_registry() is inner
            current_registry().counter("n").inc()
        assert current_registry() is outside
        assert inner.snapshot() == {"n": 1.0}

    def test_previous_registry_returns_after_an_exception(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with pytest.raises(RuntimeError):
                with use_registry(inner):
                    raise RuntimeError("boom")
            assert current_registry() is outer
