"""Admission control: bounded queueing and per-client fairness.

The serving layer accepts work it can finish, and *says no* to the
rest — a full submission queue answers HTTP 429 with a ``Retry-After``
hint instead of growing without bound, and one greedy client cannot
starve the others because in-flight compilations are capped per client
id. Draining (graceful shutdown) closes the front door entirely while
already-admitted jobs run to completion.

The controller is deliberately engine-agnostic: it counts *slots*, not
jobs. The :class:`~repro.serve.manager.JobManager` admits before
queueing and releases on every terminal transition; cache hits bypass
admission entirely (they consume no compile capacity).
"""

from __future__ import annotations

import dataclasses
import threading

from repro.obs.metrics import MetricsRegistry

#: Back-off hint, in seconds, handed to every refused submission (the
#: HTTP ``Retry-After`` header).
RETRY_AFTER_SECONDS = 1.0


@dataclasses.dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer to one submission attempt.

    Attributes:
        admitted: whether the job may enter the queue.
        reason: ``""`` when admitted; otherwise ``queue_full``,
            ``client_capped`` or ``draining``.
        retry_after: suggested client back-off in seconds (maps to the
            HTTP ``Retry-After`` header; 0.0 when admitted).
    """

    admitted: bool
    reason: str = ""
    retry_after: float = 0.0

    @property
    def http_status(self) -> int:
        """HTTP status expressing this decision (201 create path)."""
        if self.admitted:
            return 201
        return 503 if self.reason == "draining" else 429


class AdmissionController:
    """Thread-safe bounded admission with per-client in-flight caps.

    Args:
        max_queue: total admitted-but-unfinished jobs allowed (>=1).
        max_inflight_per_client: admitted jobs one client id may hold.
        metrics: shared registry; one is created when omitted.
    """

    def __init__(
        self,
        max_queue: int = 256,
        max_inflight_per_client: int = 16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        self.max_queue = max_queue
        self.max_inflight_per_client = max_inflight_per_client
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._scoped = self.metrics.scoped("admission")
        self._lock = threading.Lock()
        self._depth = 0
        self._per_client: dict[str, int] = {}
        self._draining = False

    @property
    def depth(self) -> int:
        """Admitted-but-unfinished job count right now."""
        with self._lock:
            return self._depth

    @property
    def draining(self) -> bool:
        """Whether the controller is refusing all new work."""
        with self._lock:
            return self._draining

    def admit(self, client: str = "") -> AdmissionDecision:
        """Try to claim one slot for ``client``."""
        with self._lock:
            if self._draining:
                decision = AdmissionDecision(
                    False, reason="draining", retry_after=RETRY_AFTER_SECONDS
                )
            elif self._depth >= self.max_queue:
                decision = AdmissionDecision(
                    False, reason="queue_full", retry_after=RETRY_AFTER_SECONDS
                )
            elif (
                self._per_client.get(client, 0) >= self.max_inflight_per_client
            ):
                decision = AdmissionDecision(
                    False, reason="client_capped", retry_after=RETRY_AFTER_SECONDS
                )
            else:
                self._depth += 1
                self._per_client[client] = self._per_client.get(client, 0) + 1
                decision = AdmissionDecision(True)
            depth = self._depth
        if decision.admitted:
            self._scoped.counter("admitted").inc()
        else:
            self._scoped.counter(f"rejected.{decision.reason}").inc()
        self._scoped.gauge("queue_depth").set(depth)
        return decision

    def release(self, client: str = "") -> None:
        """Return a slot claimed by :meth:`admit` (terminal job states)."""
        with self._lock:
            self._depth = max(0, self._depth - 1)
            remaining = self._per_client.get(client, 1) - 1
            if remaining <= 0:
                self._per_client.pop(client, None)
            else:
                self._per_client[client] = remaining
            depth = self._depth
        self._scoped.gauge("queue_depth").set(depth)

    def start_drain(self) -> None:
        """Refuse all new submissions from now on."""
        with self._lock:
            self._draining = True

    def stop_drain(self) -> None:
        """Accept submissions again (tests / rolling restarts)."""
        with self._lock:
            self._draining = False
