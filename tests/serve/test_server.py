"""The HTTP API, end to end over a real socket."""

import http.client
import json
import pickle
import socket
import threading
import time

import pytest

from repro.engine.cache import ResultCache, seal, unseal
from repro.engine.fingerprint import result_fingerprint
from repro.engine.jobs import CompileJob
from repro.machine.config import parse_config
from repro.pipeline.driver import Scheme, compile_loop
from repro.serve import server as server_mod
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ServeCluster
from repro.workloads.patterns import daxpy, dot_product, stencil5

MACHINE = "2c1b2l64r"


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-http")
    with ServeCluster(
        root=root, workers=2,
        max_inflight=4,  # well below queue_limit so client_capped is reachable
        http=True,
    ) as up:
        yield up


@pytest.fixture()
def client(cluster):
    return ServeClient(cluster.url, client_id="pytest")


def _job(scheme=Scheme.REPLICATION, ddg=None, tag="http/test"):
    return CompileJob(
        ddg=ddg if ddg is not None else daxpy(),
        machine=MACHINE,
        scheme=scheme,
        tag=tag,
    )


def _exchange(cluster, raw: bytes) -> int:
    """Send raw request bytes, half-close, and return the status code."""
    port = int(cluster.url.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while b"\r\n" not in response:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    return int(response.split(b" ", 2)[1])


class TestSubmitAndPoll:
    def test_submit_wait_matches_local_compile(self, client):
        job = _job()
        submitted = client.submit(job)
        assert submitted["key"] == job.content_hash()
        done = client.wait(submitted["key"], timeout=120.0)
        assert done["status"] == "done"
        assert done["outcome"] == "ok"
        local = compile_loop(
            daxpy(), parse_config(MACHINE), scheme=Scheme.REPLICATION
        )
        assert done["fingerprint"] == result_fingerprint(local)

    def test_unresolvable_machine_or_scheme_is_400(self, client):
        for machine, scheme in (("bogus", "replication"), (MACHINE, "nonsense")):
            job = CompileJob(ddg=daxpy(), machine=machine, scheme=scheme)
            status, payload = client.try_submit(job)
            assert status == 400
            assert payload["error"].startswith("bad job payload")
            # Refused before admission: no job record exists.
            assert client.submit_key(job.content_hash())[0] == 404

    def test_resubmit_is_idempotent(self, client):
        job = _job(scheme=Scheme.BASELINE, tag="http/idempotent")
        first = client.submit(job)
        client.wait(first["key"], timeout=120.0)
        again = client.submit(job)
        assert again["key"] == first["key"]
        assert again["status"] == "done"

    def test_submit_by_key_completes_from_cache(self, client):
        job = _job(ddg=dot_product(), tag="http/bykey")
        client.submit(job)
        client.wait(job.content_hash(), timeout=120.0)
        status, payload = client.submit_key(job.content_hash())
        assert status == 200
        assert payload["status"] == "done"

    def test_submit_by_unknown_key_is_404(self, client):
        status, payload = client.submit_key("0" * 64)
        assert status == 404
        assert "error" in payload

    def test_status_of_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.status("f" * 64)
        assert err.value.status == 404


class TestEvents:
    def test_stream_replays_history_and_terminates(self, client):
        job = _job(ddg=dot_product(), scheme=Scheme.BASELINE, tag="http/events")
        client.submit(job)
        client.wait(job.content_hash(), timeout=120.0)
        events = client.events(job.content_hash())
        assert events, "stream must carry at least the terminal event"
        kinds = [event["kind"] for event in events]
        assert kinds[-1] in ("finished", "cache_hit")
        assert all(event["key"] == job.content_hash() for event in events)

    def test_events_of_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.events("a" * 64)
        assert err.value.status == 404


class TestProtocolErrors:
    def _raw(self, cluster, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def test_bad_json_body_is_400(self, cluster):
        status, _, body = self._raw(
            cluster, "POST", "/jobs", body=b"{not json",
            headers={"Content-Length": "9"},
        )
        assert status == 400
        assert b"bad JSON" in body

    def test_bad_job_payload_is_400(self, cluster):
        raw = json.dumps({"job": {"nonsense": True}}).encode()
        status, _, body = self._raw(
            cluster, "POST", "/jobs", body=raw,
            headers={"Content-Length": str(len(raw))},
        )
        assert status == 400
        assert b"bad job payload" in body

    def test_wrong_method_is_405(self, cluster):
        assert self._raw(cluster, "DELETE", "/jobs")[0] == 405
        assert self._raw(cluster, "POST", "/jobs/" + "0" * 64)[0] == 405

    def test_unknown_route_is_404(self, cluster):
        assert self._raw(cluster, "GET", "/nope")[0] == 404

    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert stats["admission"]["queue_limit"] >= 1

    def test_stats_scans_the_store_off_the_event_loop(
        self, cluster, client, monkeypatch
    ):
        """A slow store scan holds up no other request."""
        real = cluster.cache.stats

        def slow():
            time.sleep(0.5)
            return real()

        monkeypatch.setattr(cluster.cache, "stats", slow)
        stats = threading.Thread(target=client.stats)
        stats.start()
        try:
            time.sleep(0.1)  # the /stats request is in flight
            started = time.perf_counter()
            assert client.health()["status"] == "ok"
            assert time.perf_counter() - started < 0.25
        finally:
            stats.join(timeout=30.0)
        assert not stats.is_alive()

    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}",
            # over the asyncio stream reader's 64 KiB line limit
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * (70 * 1024) + b"\r\n\r\n",
        ],
        ids=[
            "content-length-abc",
            "content-length-negative",
            "long-request-line",
            "long-header-line",
        ],
    )
    def test_malformed_framing_is_400(self, cluster, raw):
        assert _exchange(cluster, raw) == 400

    def test_deeply_nested_json_body_is_400(self, cluster):
        body = b"[" * 5000
        status, _, payload = self._raw(
            cluster, "POST", "/jobs", body=body,
            headers={"Content-Length": str(len(body))},
        )
        assert status == 400
        assert b"bad JSON" in payload

    def test_response_survives_unread_trailing_input(self, cluster):
        # Closing with unread input would make the kernel reset the
        # connection and drop the response; the server drains it first.
        raw = b"GET /healthz HTTP/1.1\r\n\r\n" + b"x" * (256 * 1024)
        assert _exchange(cluster, raw) == 200


class TestRequestHeadLimits:
    def test_stalled_head_is_answered_408(self, cluster, monkeypatch):
        monkeypatch.setattr(server_mod, "HEAD_TIMEOUT_SECONDS", 0.5)
        port = int(cluster.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # no blank line: stall
            started = time.monotonic()
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
            waited = time.monotonic() - started
        assert response.startswith(b"HTTP/1.1 408 ")
        assert waited < 5.0
        assert _exchange(cluster, b"GET /healthz HTTP/1.1\r\n\r\n") == 200

    @pytest.mark.parametrize("extra, status", [(0, 200), (1, 431)])
    def test_header_lines_are_capped(self, cluster, extra, status):
        count = server_mod.MAX_HEADER_LINES + extra
        head = b"".join(b"X-Pad-%d: 1\r\n" % i for i in range(count))
        raw = b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n"
        assert _exchange(cluster, raw) == status
        assert _exchange(cluster, b"GET /healthz HTTP/1.1\r\n\r\n") == 200


class TestKeyValidation:
    """A job key names a cache file, so only content hashes get through."""

    @pytest.fixture()
    def planted(self, tmp_path):
        """A server whose store is three levels below a planted entry."""
        victim = tmp_path / "victim.pkl"
        victim.write_bytes(b"not a cache entry")
        # The store must exist: ".." only resolves through real directories.
        store = tmp_path / "a" / "b" / "c"
        store.mkdir(parents=True)
        with ServeCluster(root=store, workers=1, http=True) as cluster:
            yield cluster, victim

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("GET", "/jobs/../../victim", b""),
            ("GET", "/jobs/../../victim/events", b""),
            ("POST", "/jobs", json.dumps({"key": "../../victim"}).encode()),
        ],
        ids=["status", "events", "submit-by-key"],
    )
    def test_path_traversal_key_is_400_and_touches_nothing(
        self, planted, method, path, body
    ):
        cluster, victim = planted
        head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        assert _exchange(cluster, head.encode() + body) == 400
        assert victim.read_bytes() == b"not a cache entry"

    @pytest.mark.parametrize(
        "key", ["A" * 64, "0" * 63, "0" * 65, "g" * 64, 7, None]
    )
    def test_malformed_key_is_400(self, client, key):
        status, payload = client.submit_key(key)
        assert status == 400
        assert "64 lowercase hex" in payload["error"]


class TestObservabilityEndpoints:
    def test_stats_metrics_are_typed(self, client):
        client.health()  # at least one observed request before reading
        metrics = client.stats()["metrics"]
        assert metrics, "serve.http instruments register on first request"
        assert all("type" in entry for entry in metrics.values())
        histogram = metrics["serve.http.request_seconds"]
        assert histogram["type"] == "histogram"
        assert len(histogram["counts"]) == len(histogram["bounds"]) + 1
        assert histogram["count"] == sum(histogram["counts"])
        assert histogram["count"] >= 1
        for quantile in ("p50", "p95", "p99"):
            assert histogram[quantile] >= 0.0
        requests = metrics["serve.http.requests"]
        assert requests == {"type": "counter", "value": requests["value"]}

    def test_metrics_endpoint_is_valid_prometheus_text(self, client):
        from repro.obs.prometheus import parse_exposition, validate_exposition

        client.health()
        text = client.metrics()
        assert validate_exposition(text) == []
        samples = parse_exposition(text)
        assert samples["repro_serve_http_requests_total"] >= 1
        assert any(
            key.startswith("repro_serve_http_request_seconds_bucket")
            for key in samples
        )

    def test_metrics_rejects_post(self, cluster):
        connection = http.client.HTTPConnection(
            "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
        )
        try:
            connection.request("POST", "/metrics")
            assert connection.getresponse().status == 404
        finally:
            connection.close()


class TestBackpressure:
    def test_capped_client_gets_429_with_retry_after(self, cluster):
        admission = cluster.manager.admission
        # occupy every slot this client id is allowed
        for _ in range(admission.max_inflight_per_client):
            assert admission.admit("hog").admitted
        try:
            # a job no other test submits: tags don't enter the content
            # hash, so reusing a ddg+scheme pair would dedupe against an
            # existing record and bypass admission entirely
            hog = ServeClient(cluster.url, client_id="hog")
            status, payload = hog.try_submit(
                _job(ddg=stencil5(), scheme=Scheme.BASELINE, tag="http/hog")
            )
            assert status == 429
            assert payload["error"] == "client_capped"
            assert payload["retry_after"] > 0
            # header form, for well-behaved generic clients
            connection = http.client.HTTPConnection(
                "127.0.0.1", int(cluster.url.rsplit(":", 1)[1]), timeout=30
            )
            try:
                raw = json.dumps(
                    {
                        "job": _job(
                            ddg=stencil5(), scheme=Scheme.BASELINE, tag="http/hog"
                        ).to_wire()
                    }
                ).encode()
                connection.request(
                    "POST", "/jobs", body=raw,
                    headers={"x-repro-client": "hog"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                assert response.getheader("Retry-After") is not None
            finally:
                connection.close()
        finally:
            for _ in range(admission.max_inflight_per_client):
                admission.release("hog")

    def test_draining_server_answers_503(self, cluster, client):
        admission = cluster.manager.admission
        admission.start_drain()
        try:
            assert client.health()["status"] == "draining"
            status, payload = client.try_submit(
                _job(ddg=stencil5(), tag="http/drain")
            )
            assert status == 503
            assert payload["error"] == "draining"
        finally:
            admission.stop_drain()
        assert client.health()["status"] == "ok"


class TestCorruptEntry:
    def test_corrupt_entry_is_a_clean_miss_over_the_wire(self, tmp_path):
        job = _job(ddg=stencil5(), tag="http/corrupt")
        key = job.content_hash()
        with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
            client = ServeClient(cluster.url, client_id="pytest")
            client.submit(job)
            assert client.wait(key, timeout=120.0)["cached"] is False
            entry = cluster.cache.path_for(key)
            entry.write_bytes(b"\x80garbage, not a pickle")
            cluster.forget_records()
            client.submit(job)
            redone = client.wait(key, timeout=120.0)
        assert redone["outcome"] == "ok"
        assert redone["cached"] is False
        local = compile_loop(
            stencil5(), parse_config(MACHINE), scheme=Scheme.REPLICATION
        )
        assert redone["fingerprint"] == result_fingerprint(local)
        reloaded = ResultCache(root=tmp_path, enabled=True).get(key)
        assert reloaded is not None
        assert result_fingerprint(reloaded) == redone["fingerprint"]

    def test_entry_whose_kernel_does_not_build_is_recompiled(self, tmp_path):
        """Rows that pass decode's own checks but miss a placed instance
        are a miss on every path: a key-only GET answers 404, not 500,
        and a resubmission recompiles the job."""
        job = _job(ddg=stencil5(), tag="http/short-rows")
        key = job.content_hash()
        with ServeCluster(root=tmp_path, workers=1, http=True) as cluster:
            client = ServeClient(cluster.url, client_id="pytest")
            client.submit(job)
            first = client.wait(key, timeout=120.0)
            entry = cluster.cache.path_for(key)
            stored = pickle.loads(unseal(entry.read_bytes()))
            last = len(stored["rows"]) - 1
            stored["rows"] = tuple(row for row in stored["rows"] if row[0] != last)
            entry.write_bytes(seal(pickle.dumps(stored)))
            cluster.forget_records()
            with pytest.raises(ServeError) as missing:
                client.status(key)
            assert missing.value.status == 404
            assert not entry.exists()
            client.submit(job)
            redone = client.wait(key, timeout=120.0)
        assert redone["outcome"] == "ok"
        assert redone["cached"] is False
        assert redone["fingerprint"] == first["fingerprint"]
        reloaded = ResultCache(root=tmp_path, enabled=True).get(key)
        assert result_fingerprint(reloaded) == redone["fingerprint"]
