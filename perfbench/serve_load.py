"""``python -m repro serve`` in its own process, driven as a closed loop.

The server runs with its CLI defaults (one shard, process pool, CPUs - 1
workers); only ``--port 0`` and ``--data-dir`` are passed. Its URL is
read from the ``listening`` record of the JSON log on stderr, and a
thread keeps draining stderr for the server's whole life so the server
can never block on a full pipe.

Each client thread submits its next job only after the previous one
has completed. A job that is not done on submission is waited for on
the blocking ``GET /jobs/<key>/events`` stream (a poll loop would round
latencies up to its interval), then its status is fetched for the
result fingerprint.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import pathlib
import queue
import random
import signal
import subprocess
import sys
import threading
import time

from repro.serve.client import ServeClient, ServeError

#: Paths of every block of six submissions, dealt in a seeded order: a
#: third pre-stored (disk read), half new (compile plus cache write), a
#: sixth repeats of earlier submissions (in-memory dedupe).
BLOCK = ("hit", "hit", "miss", "miss", "miss", "dup")


def _proc_table() -> dict[int, tuple[int, int, str]]:
    """``{pid: (ppid, process group, state)}`` for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = (int(fields[1]), int(fields[2]), fields[0])
    return table


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One server process and its pool workers (one process group)."""

    def __init__(self, src: pathlib.Path, data_dir: pathlib.Path, env: dict) -> None:
        self._cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--data-dir", str(data_dir),
        ]
        self._env = dict(env, REPRO_LOG="json", PYTHONPATH=str(src))
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.log_tail: collections.deque[str] = collections.deque(maxlen=40)
        self._drain: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> str:
        """Boot the server; returns its URL once it is listening."""
        self.proc = subprocess.Popen(
            self._cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=self._env,
            start_new_session=True,
        )
        urls: queue.Queue[str] = queue.Queue()

        def drain(stream) -> None:
            for raw in stream:
                line = raw.decode("utf-8", "replace").rstrip()
                self.log_tail.append(line)
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and record.get("event") == "listening":
                    urls.put(record["url"])

        self._drain = threading.Thread(
            target=drain, args=(self.proc.stderr,), daemon=True
        )
        self._drain.start()
        try:
            self.url = urls.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(
                "server never logged 'listening': " + " | ".join(self.log_tail)
            ) from None
        return self.url

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the server and all its descendants, in MB."""
        table = _proc_table()
        tree, frontier = set(), [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            tree.add(pid)
            frontier.extend(
                child for child, (ppid, _, _) in table.items()
                if ppid == pid and child not in tree
            )
        return sum(vm_hwm_kb(pid) for pid in tree) / 1024.0

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT (graceful drain), then SIGKILL whatever is left of the
        process group; returns once no process of the group is alive."""
        if self.proc is None:
            return
        group = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(
            pgrp == group and state != "Z"
            for _, pgrp, state in _proc_table().values()
        ):
            time.sleep(0.05)
        if self._drain is not None:
            self._drain.join(timeout)
        self.proc.stderr.close()
        self.proc = None


@dataclasses.dataclass
class Sample:
    """One completed (or failed) submission, timed by the client."""

    kind: str
    cell: tuple
    started: float
    submitted: float
    finished: float
    ok: bool
    refused: bool = False
    error: str = ""
    payload: dict = dataclasses.field(default_factory=dict)
    events: list = dataclasses.field(default_factory=list)


class Stream:
    """The seeded submission sequence, shared by the client threads.

    Slot kinds are dealt from shuffled :data:`BLOCK` decks. A ``hit``
    takes the next pre-stored cell, a ``miss`` the next never-seen cell
    (either becomes a ``dup`` once its cells run out), a ``dup`` any
    cell submitted earlier. The sequence depends on the seed only,
    whichever thread takes each slot.
    """

    def __init__(self, seed: int, stored: list, fresh, make_job) -> None:
        self._rng = random.Random(f"serve-stream-{seed}")
        self._stored = list(stored)
        self._rng.shuffle(self._stored)
        self._fresh = fresh
        self._make_job = make_job
        self._seen: list = []
        self._deck: list[str] = []
        self._lock = threading.Lock()
        self.kinds: collections.Counter = collections.Counter()

    def next(self) -> tuple[str, tuple, object]:
        with self._lock:
            if not self._deck:
                self._deck = list(BLOCK)
                self._rng.shuffle(self._deck)
            kind = self._deck.pop()
            if kind == "hit" and not self._stored:
                kind = "dup"
            if kind == "dup" and not self._seen:
                kind = "miss"
            if kind == "hit":
                cell = self._stored.pop()
            elif kind == "miss":
                cell = next(self._fresh, None)
                if cell is None:
                    kind = "dup"
            if kind == "dup":
                cell = self._rng.choice(self._seen)
            self._seen.append(cell)
            self.kinds[kind] += 1
        return kind, cell, self._make_job(cell)


def _one_job(calls, kind: str, cell: tuple, job) -> Sample:
    submit, events, status = calls
    started = time.perf_counter()
    code, payload = submit(job)
    submitted = time.perf_counter()
    sample = Sample(kind, cell, started, submitted, submitted, ok=False)
    if code in (429, 503):
        sample.refused = True
        sample.error = f"HTTP {code}"
        return sample
    if code not in (200, 202):
        sample.error = f"HTTP {code}: {payload}"
        return sample
    if payload.get("status") != "done":
        sample.events = events(payload["key"])
        payload = status(payload["key"])
    sample.finished = time.perf_counter()
    sample.payload = payload
    sample.ok = payload.get("outcome") == "ok"
    if not sample.ok:
        sample.error = payload.get("error", f"outcome {payload.get('outcome')}")
    return sample


def drive(url: str, stream: Stream, seconds: float, milestone, tracer=None, clients=2):
    """Closed loop of ``clients`` threads for ``seconds``.

    ``milestone`` is ``(jobs, probe)``: the thread that completes job
    number ``jobs`` calls ``probe()`` and its value is returned. Returns
    ``(samples, wall seconds, busy seconds summed over threads, probe
    value or None)``. A client thread's unexpected error is re-raised
    here once every thread has stopped.
    """
    span = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
    samples: list[Sample] = []
    errors: list[BaseException] = []
    busy = [0.0] * clients
    lock = threading.Lock()
    completed = [0, None]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(slot: int) -> None:
        client = ServeClient(url, client_id=f"perfbench-{slot}", timeout=120.0)
        calls = (
            span("serve.submit", client.try_submit),
            span("serve.events", client.events),
            span("serve.status", client.status),
        )
        mine = []
        try:
            while time.perf_counter() < deadline:
                kind, cell, job = stream.next()
                begun = time.perf_counter()
                if tracer is not None:
                    tracer.begin_job()
                try:
                    sample = _one_job(calls, kind, cell, job)
                except (ServeError, OSError, ValueError, KeyError) as exc:
                    now = time.perf_counter()
                    sample = Sample(kind, cell, begun, now, now, ok=False,
                                    error=f"{type(exc).__name__}: {exc}")
                mine.append(sample)
                with lock:
                    completed[0] += 1
                    reached = completed[0] == milestone[0]
                if reached:
                    completed[1] = milestone[1]()
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            busy[slot] = time.perf_counter() - start
            with lock:
                samples.extend(mine)

    threads = [threading.Thread(target=loop, args=(slot,)) for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    wall = max(sample.finished for sample in samples) - start if samples else 0.0
    return samples, wall, sum(busy), completed[1]
