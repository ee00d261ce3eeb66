"""Generated requests against the hand-rolled HTTP/1.1 front end.

Each example opens a raw socket to a live server, sends generated
bytes (request lines, header blocks, bodies whose ``Content-Length``
may lie), half-closes, and reads until the server closes. The server
must answer with one well-formed response whose status is below 500,
or close the connection without answering; either way it must still
answer ``/healthz`` with ``ok`` afterwards.
"""

import json
import re
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cluster import ServeCluster
from repro.serve.server import MAX_HEADER_LINES

KEY = "0" * 64

_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]+")

methods = st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "get", ""])

paths = st.one_of(
    st.sampled_from(
        [
            "/healthz",
            "/stats",
            "/metrics",
            "/jobs",
            "/jobs/",
            f"/jobs/{KEY}",
            f"/jobs/{KEY}/events",
            f"/jobs/{KEY}//events",
            "/jobs/../../x",
            "/nope",
            "*",
        ]
    ),
    st.text(max_size=40).map(lambda text: "/" + text),
)

#: Line lengths around the stream reader's 64 KiB limit.
long_runs = st.sampled_from([1, 65_000, 70_000])

request_lines = st.one_of(
    st.builds(
        lambda method, path, version: f"{method} {path} {version}".encode(
            "utf-8", "surrogatepass"
        ),
        methods,
        paths,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9", ""]),
    ),
    st.binary(max_size=120),
    long_runs.map(lambda n: b"GET /" + b"a" * n + b" HTTP/1.1"),
)

header_names = st.sampled_from(
    ["X-Repro-Client", "traceparent", "Host", "Transfer-Encoding"]
) | st.text(max_size=20)

header_values = st.one_of(
    st.sampled_from(["", "chunked", "00-zz-yy-01", f"00-{KEY[:32]}-{KEY[:16]}-01"]),
    st.text(max_size=40),
)

#: Header blocks just under, at and just over the header-line cap.
header_floods = st.integers(MAX_HEADER_LINES - 1, MAX_HEADER_LINES + 1).map(
    lambda count: [b"X-Pad: %d" % i for i in range(count)]
)

headers = st.lists(
    st.one_of(
        st.builds(
            lambda name, value: f"{name}: {value}".encode("utf-8", "surrogatepass"),
            header_names,
            header_values,
        ),
        st.binary(max_size=60),
        long_runs.map(lambda n: b"X-Big: " + b"b" * n),
    ),
    max_size=6,
) | header_floods

bodies = st.one_of(
    st.binary(max_size=200),
    st.sampled_from(
        [
            b"{}",
            b"[]",
            b"null",
            b"[" * 5000,
            json.dumps({"key": KEY}).encode(),
            json.dumps({"key": "../../x"}).encode(),
            json.dumps({"key": 7}).encode(),
            json.dumps({"job": {}}).encode(),
            json.dumps({"job": None, "key": KEY}).encode(),
        ]
    ),
)

#: The ``Content-Length`` header: absent, the body's length off by a few
#: bytes either way (a truncated or an overlong body), or no length at all.
content_lengths = st.one_of(
    st.none(),
    st.integers(-8, 8),
    st.sampled_from(["abc", "-1", "", "+3", "0x10", "1e3", "9" * 30]),
    st.text(max_size=8),
)


def _request(line: bytes, head: list[bytes], body: bytes, length) -> bytes:
    head = list(head)
    if isinstance(length, int):
        length = str(max(0, len(body) + length))
    if length is not None:
        head.append(f"Content-Length: {length}".encode("utf-8", "surrogatepass"))
    return b"\r\n".join([line, *head, b"", body])


def _exchange(cluster, raw: bytes) -> bytes:
    port = int(cluster.url.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return response
            response += chunk


def _check_response(response: bytes) -> None:
    if not response:
        return  # closed without answering
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, f"unterminated response head: {response[:200]!r}"
    status_line, *fields = head.split(b"\r\n")
    match = _STATUS_LINE.fullmatch(status_line)
    assert match, f"malformed status line: {status_line!r}"
    assert int(match.group(1)) < 500, response[:300]
    declared = {
        name.strip().lower(): value.strip()
        for name, _, value in (field.partition(b":") for field in fields)
    }
    if b"content-length" in declared:
        assert int(declared[b"content-length"]) == len(body)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    with ServeCluster(
        root=tmp_path_factory.mktemp("serve-fuzz"),
        executor="thread",
        workers=1,
        http=True,
    ) as up:
        yield up


@settings(max_examples=50, deadline=None)
@given(line=request_lines, head=headers, body=bodies, length=content_lengths)
def test_generated_requests_never_get_a_server_error(cluster, line, head, body, length):
    _check_response(_exchange(cluster, _request(line, head, body, length)))
    health = _exchange(cluster, b"GET /healthz HTTP/1.1\r\n\r\n")
    assert health.startswith(b"HTTP/1.1 200 OK\r\n")
    assert json.loads(health.partition(b"\r\n\r\n")[2]) == {"status": "ok"}
