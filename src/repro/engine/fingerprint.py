"""Semantic fingerprints for compilation results.

Two :class:`~repro.pipeline.driver.CompileResult` objects for the same
job must describe the *same schedule* whether they came from a local
``compile_loop`` call, a warm cache entry, or a remote serving layer —
but their pickled bytes are not comparable (diagnostics carry wall-clock
stage times that differ run to run). :func:`result_fingerprint` hashes
the decision-relevant content only: the scheme, the II/MII, the full
scheduled kernel, the cluster assignment and the replication plan. The
serving layer exposes it on job-status responses so a client can assert
end-to-end equivalence with a local compile without shipping the result
object back.
"""

from __future__ import annotations

import hashlib
import json

from repro.pipeline.driver import CompileResult


def result_canonical(result: CompileResult) -> dict:
    """JSON-ready dict of everything decision-relevant about a result.

    Deliberately excludes ``diagnostics`` (timings vary run to run) and
    anything derivable from the included fields. Clusters and the
    plan's node sets are listed by node position in the DDG's node
    order, as the result store keeps them: uids are not part of a job's
    identity (its key hashes node names), and a worker's rebuilt DDG
    numbers its nodes from 0 whatever the caller's uids were.
    """
    plan = result.plan
    uids = list(result.partition.ddg.node_ids())
    position = {uid: index for index, uid in enumerate(uids)}
    return {
        "scheme": result.scheme_name,
        "mii": result.mii,
        "ii": result.ii,
        "kernel": result.kernel.rows(),
        "kernel_length": result.kernel.length,
        "stage_count": result.kernel.stage_count,
        "partition": [result.partition.cluster_of(uid) for uid in uids],
        "causes": [cause.value for cause in result.causes],
        "plan": {
            "replicas": sorted(
                (position[uid], sorted(clusters))
                for uid, clusters in plan.replicas.items()
            ),
            "removed": sorted(position[uid] for uid in plan.removed),
            "removed_comms": sorted(position[uid] for uid in plan.removed_comms),
            "initial_coms": plan.initial_coms,
            "feasible": plan.feasible,
        },
    }


def result_fingerprint(result: CompileResult) -> str:
    """Deterministic sha256 hex digest of :func:`result_canonical`."""
    canon = json.dumps(
        result_canonical(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
