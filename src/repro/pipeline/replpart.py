"""The ``repl-part`` scheme: replication-aware partitioning.

The paper replicates only *after* partitioning has frozen cluster
assignments. This scheme instead lets the partitioner treat "replicate
this producer into a consumer cluster" as a first-class refinement move
(:func:`repro.partition.refine.refine_replicating`), bounded by
``SchemeConfig.partition_replication_budget``; the replicas it grants
ride the :class:`~repro.pipeline.passes.CompilationContext` to the
standard section 3 planning pass, which folds them in as already
granted and only tops up whatever communications remain.

The stack mirrors the ``replication`` scheme's shape — partition,
feasibility, plan, place, schedule — with two substitutions:

* :class:`ReplicatingPartitionPass` runs the replicating refinement and
  publishes its grants as ``ctx.pre_replicas``;
* :class:`ReplicaAwareFeasibilityPass` judges resource/bus feasibility
  against the replica-aware instance counts
  (:class:`repro.ddg.csr.ReplicaView`), since the granted replicas
  occupy issue slots the plain :class:`Partition` tables cannot see.

Registered at import; importing :mod:`repro.pipeline` is enough to make
the scheme available, including inside engine worker processes.
"""

from __future__ import annotations

from repro.core.plan import ReplicationPlan
from repro.ddg.csr import FU_KINDS, ReplicaView, csr_view
from repro.pipeline.passes import (
    CompilationContext,
    LengthReplicationPass,
    Pass,
    PlacePass,
    ReplicatePlanPass,
    SchedulePass,
    SchemeConfig,
    StageFailure,
    declare_partition_counters,
    register_scheme,
)
from repro.schedule.scheduler import FailureCause

#: Registry key of the replication-aware partitioning scheme.
REPL_PART = "repl-part"


class ReplicatingPartitionPass:
    """Partition with replicate moves enabled; publish the grants."""

    name = "partition"

    def run(self, ctx: CompilationContext) -> None:
        declare_partition_counters(ctx)
        partition, grants = ctx.partitioner.partition_replicating(
            ctx.ii,
            replication_budget=ctx.config.partition_replication_budget,
        )
        ctx.partition = partition
        if grants:
            ctx.pre_replicas = ReplicationPlan(
                replicas=dict(grants),
                initial_coms=0,
                feasible=True,
            )


class ReplicaAwareFeasibilityPass:
    """Reject IIs the replica-carrying partition cannot meet.

    The granted replicas occupy issue slots and can satisfy consumers
    locally, so both sides of the plain
    :class:`~repro.pipeline.passes.BusFeasibilityPass` test — the
    resource floor and the bus-versus-FU attribution — are recomputed
    over the :class:`~repro.ddg.csr.ReplicaView` instance counts.
    """

    name = "feasibility"

    def run(self, ctx: CompilationContext) -> None:
        partition, machine = ctx.partition, ctx.machine
        replicas = (
            dict(ctx.pre_replicas.replicas)
            if ctx.pre_replicas is not None
            else {}
        )
        csr = csr_view(partition.ddg)
        view = ReplicaView.from_replicas(csr, replicas)
        cluster = [partition.cluster_of(uid) for uid in csr.uids]
        units = [
            [machine.fu_count(c, kind) for kind in FU_KINDS]
            for c in machine.cluster_ids()
        ]
        resource_ii = view.min_resource_ii(cluster, units)
        if resource_ii <= ctx.ii:
            return
        coms = view.nof_coms(cluster)
        bus = machine.bus
        ii_part = (
            bus.latency * -(-coms // bus.count) if coms and bus.count else 0
        )
        bus_bound = machine.is_clustered and ii_part >= resource_ii
        raise StageFailure(
            FailureCause.BUS if bus_bound else FailureCause.RESOURCES,
            f"replica-carrying partition needs II >= {resource_ii}"
            f" at II={ctx.ii}",
        )


def build_repl_part_stack(config: SchemeConfig) -> list[Pass]:
    """The ``repl-part`` pass stack (shape mirrors ``standard_stack``)."""
    stack: list[Pass] = [
        ReplicatingPartitionPass(),
        ReplicaAwareFeasibilityPass(),
        ReplicatePlanPass(),
    ]
    if config.length_replication:
        stack.append(LengthReplicationPass())
    stack.extend([PlacePass(), SchedulePass()])
    return stack


register_scheme(REPL_PART, build_repl_part_stack, replace=True)
