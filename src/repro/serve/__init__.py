"""Compilation-as-a-service: an HTTP API over the engine's result cache.

The repo's first network-facing subsystem (``python -m repro serve``),
in three layers over one :class:`~repro.engine.cache.ResultCache`:

* :mod:`repro.serve.server` — an asyncio HTTP/JSON API (stdlib only):
  submit jobs, poll status, stream engine events as NDJSON;
* :mod:`repro.serve.admission` — bounded queueing with 429 +
  ``Retry-After`` backpressure, per-client in-flight caps, and
  graceful drain;
* :mod:`repro.serve.manager` — the async job lifecycle bridging the
  HTTP layer onto the existing engine executor/event machinery.

The store is the engine's plain on-disk cache layout, so a server
pointed at a directory serves whatever ``repro bench`` or any other
``ResultCache`` wrote there, and the reverse.
:mod:`repro.serve.cluster` packs the stack into the in-process
:class:`ServeCluster` harness.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import ServeCluster, run_smoke
from repro.serve.manager import JobManager, JobRecord, JobStatus
from repro.serve.server import ServeConfig, ServeServer, build_service

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "JobManager",
    "JobRecord",
    "JobStatus",
    "ServeClient",
    "ServeCluster",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "build_service",
    "run_smoke",
]
