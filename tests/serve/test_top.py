"""``repro top``: bucket-delta percentiles and the pure renderer."""

import io

from repro.obs.metrics import LOG_SECONDS_BOUNDS
from repro.serve.top import (
    Sample,
    percentile_from_buckets,
    render_dashboard,
    run_top,
)


def _stats(done=10, queued=1, running=2, counts=None, hits=4, misses=6):
    bounds = list(LOG_SECONDS_BOUNDS)
    counts = counts if counts is not None else [0] * (len(bounds) + 1)
    return {
        "jobs": {"queued": queued, "running": running, "done": done},
        "admission": {"queue_depth": queued + running, "queue_limit": 256,
                      "draining": False},
        "cache": {"hits": hits, "misses": misses, "entries": 12},
        "metrics": {
            "serve.http.request_seconds": {
                "type": "histogram",
                "bounds": bounds,
                "counts": counts,
                "count": sum(counts),
                "sum": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            },
            "serve.deduped": {"type": "counter", "value": 3.0},
            "admission.rejected.queue_full": {"type": "counter", "value": 2.0},
        },
    }


def _sample(at, done=10, counts=None, requests=0.0):
    return Sample(
        at=at,
        stats=_stats(done=done, counts=counts),
        exposition={"repro_serve_http_requests_total": requests},
    )


class TestPercentiles:
    def test_empty_is_zero(self):
        assert percentile_from_buckets([0.1, 1.0], [0, 0, 0], 0.5) == 0.0

    def test_single_bucket(self):
        assert percentile_from_buckets([0.1, 1.0], [0, 5, 0], 0.5) == 1.0

    def test_spread(self):
        bounds = [0.001, 0.01, 0.1]
        counts = [50, 40, 10, 0]  # overflow slot empty
        assert percentile_from_buckets(bounds, counts, 0.50) == 0.001
        assert percentile_from_buckets(bounds, counts, 0.95) == 0.1

    def test_overflow_reports_last_finite_bound(self):
        assert percentile_from_buckets([0.1], [0, 9], 0.5) == 0.1


class TestRender:
    def test_first_frame_needs_two_samples_for_rates(self):
        frame = render_dashboard(_sample(at=100.0), None, "http://x:1")
        assert "repro top — http://x:1" in frame
        assert "(need two samples)" in frame
        assert "lifetime" in frame  # latency falls back to totals

    def test_rates_come_from_deltas(self):
        counts_before = [10, 0] + [0] * (len(LOG_SECONDS_BOUNDS) - 1)
        counts_after = [10, 20] + [0] * (len(LOG_SECONDS_BOUNDS) - 1)
        before = _sample(at=100.0, done=10, counts=counts_before, requests=50)
        after = _sample(at=102.0, done=16, counts=counts_after, requests=70)
        frame = render_dashboard(after, before, "http://x:1")
        assert "3.0 jobs/s" in frame
        assert "10.0 req/s" in frame
        # Window percentiles over the delta (20 obs in bucket 2 only).
        assert "window" in frame
        assert "20 requests" in frame

    def test_restart_resets_fall_back_to_totals(self):
        counts_before = [30] + [0] * len(LOG_SECONDS_BOUNDS)
        counts_after = [5] + [0] * len(LOG_SECONDS_BOUNDS)  # < before
        before = _sample(at=100.0, counts=counts_before)
        after = _sample(at=102.0, counts=counts_after)
        frame = render_dashboard(after, before, "http://x:1")
        assert "5 requests" in frame

    def test_cache_and_admission_lines(self):
        frame = render_dashboard(_sample(at=1.0), None, "u")
        assert " 40.0% hits" in frame
        assert "12 entries" in frame
        assert "deduped 3" in frame
        assert "rejected 2" in frame


class TestLiveLoop:
    def test_once_against_a_real_server(self, tmp_path):
        from repro.serve.cluster import ServeCluster

        with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
            out = io.StringIO()
            code = run_top(cluster.url, once=True, out=out)
            assert code == 0
            frame = out.getvalue()
            assert f"repro top — {cluster.url}" in frame
            assert "queue" in frame

    def test_unreachable_server_exits_nonzero(self):
        assert run_top("http://127.0.0.1:9", once=True, out=io.StringIO()) == 1
