"""The Figure 2 driver as one pass pipeline.

One compilation is a *pass stack* run repeatedly by
:func:`run_pass_pipeline`: starting at II = MII, the stack's passes each
mutate a shared :class:`CompilationContext` (partition, replication
plan, placed graph, kernel); any pass may abort the attempt with a
typed :class:`StageFailure` (or let a
:class:`~repro.schedule.scheduler.ScheduleFailure` propagate), upon
which the driver records the cause, asks :func:`next_ii` for the next
II and retries. Per-pass wall time and the II trajectory accumulate in
:class:`~repro.pipeline.driver.CompileDiagnostics` on the result.

Each compile counts its effort into its own
:class:`~repro.obs.metrics.MetricsRegistry`, ``ctx.metrics``, which
:func:`run_pass_pipeline` makes current for the whole call (``mii()``
included), so code no compile argument reaches counts into it too.

Every scheme runs one stack shape, built by :func:`pass_stack`:
partition, feasibility, the scheme's planning pass, optional section
5.1 length replication, placement, scheduling. The closed table
:data:`PLAN_PASSES` gives each :class:`~repro.pipeline.driver.Scheme`
member its planning pass and the replicas its partitioner may grant
during refinement; a new scheme is a new member plus a new row.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from typing import Protocol, runtime_checkable

from repro.core.cloning import clone_values
from repro.core.length import replicate_for_length
from repro.core.macro import macro_replicate
from repro.core.plan import EMPTY_PLAN, ReplicationPlan
from repro.core.replicator import replicate
from repro.ddg.analysis import mii
from repro.ddg.csr import FU_KINDS, ReplicaView, csr_view
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import span as obs_span
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.partition import Partition
from repro.pipeline.driver import (
    CompileDiagnostics,
    CompileError,
    CompileResult,
    Scheme,
    UnschedulableError,
)
from repro.schedule.kernel import Kernel
from repro.schedule.placed import PlacedGraph, build_placed_graph
from repro.schedule.scheduler import FailureCause, ScheduleFailure, schedule


@dataclasses.dataclass
class StageFailure(Exception):
    """A pass aborted this II attempt; the driver must escalate the II.

    Mirrors :class:`~repro.schedule.scheduler.ScheduleFailure` (which
    passes may also raise/propagate): ``cause`` feeds the Figure 1
    statistics, ``suggested_ii`` (when set) lets :func:`next_ii` skip
    ahead.
    """

    cause: FailureCause
    detail: str
    suggested_ii: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.cause.value}: {self.detail}"


#: Exceptions the pipeline driver treats as "this II attempt failed".
ATTEMPT_FAILURES = (StageFailure, ScheduleFailure)


@dataclasses.dataclass(frozen=True)
class SchemeConfig:
    """Variant knobs, expressed as scheme configuration (not kwargs).

    Attributes:
        length_replication: append the section 5.1 length pass.
        copy_latency_override: section 5.1's zero-latency upper bound
            (COPY dependence latency replacement; buses still reserved).
        spare_comms: replication only — keep removing communications
            this far beyond the paper's stop rule (0 = paper).
    """

    length_replication: bool = False
    copy_latency_override: int | None = None
    spare_comms: int = 0


@dataclasses.dataclass
class CompilationContext:
    """Mutable state one pass stack threads through an II attempt.

    Per-compilation fields (``ddg``, ``machine``, ``config``,
    ``partitioner``, ``mii``, ``causes``, ``diagnostics``, ``metrics``)
    persist across II attempts — notably the partitioner, whose
    refinement history the multilevel algorithm reuses as the II grows.
    Per-attempt products (``partition``, ``plan``, ``graph``,
    ``kernel``, ``pre_replicas``) are cleared by :meth:`begin_attempt`.

    ``pre_replicas`` carries replicas the partition pass granted during
    refinement (the ``repl-part`` scheme) forward to the feasibility and
    planning passes; the planning pass folds them into its starting
    state as already granted.

    ``metrics`` is the compilation's typed effort registry (see
    :mod:`repro.obs.metrics`), current for the whole compile: passes
    write ``<stage>.<name>`` keys into it directly, and code below the
    passes through :func:`~repro.obs.metrics.current_registry`. The
    driver flattens the registry into ``diagnostics.counters`` when the
    compilation finishes.
    """

    ddg: Ddg
    machine: MachineConfig
    config: SchemeConfig
    partitioner: MultilevelPartitioner
    mii: int
    ii: int
    partition: Partition | None = None
    plan: ReplicationPlan | None = None
    pre_replicas: ReplicationPlan | None = None
    graph: PlacedGraph | None = None
    kernel: Kernel | None = None
    causes: list[FailureCause] = dataclasses.field(default_factory=list)
    diagnostics: CompileDiagnostics = dataclasses.field(
        default_factory=CompileDiagnostics
    )
    metrics: MetricsRegistry = dataclasses.field(default_factory=MetricsRegistry)

    def begin_attempt(self, ii: int) -> None:
        """Reset per-attempt products and record the II being tried."""
        self.ii = ii
        self.partition = None
        self.plan = None
        self.pre_replicas = None
        self.graph = None
        self.kernel = None
        self.diagnostics.ii_trajectory.append(ii)


@runtime_checkable
class Pass(Protocol):
    """One stage of a scheme's pass stack.

    A pass reads and mutates the :class:`CompilationContext`; it
    signals an infeasible II by raising :class:`StageFailure` (or
    letting a :class:`~repro.schedule.scheduler.ScheduleFailure`
    propagate). ``name`` labels the per-stage timing bucket.
    """

    name: str

    def run(self, ctx: CompilationContext) -> None: ...


#: The ``partition.*`` counters the partition pass reports, zeros
#: included. A snapshot lists only instruments that exist, and a compile
#: on an unclustered machine never refines, while one over a warm
#: analysis memo may never prefill.
PARTITION_COUNTERS = (
    "partition.pseudo_evaluations",
    "partition.lengths_computed",
    "partition.lengths_skipped",
    "partition.lengths_memoized",
    "partition.moves_applied",
    "partition.moves_reverted",
    "partition.moves_accepted",
    "partition.moves.plain",
    "partition.moves.replicate",
    "partition.moves.plain_accepted",
    "partition.moves.plain_rejected",
    "partition.moves.replicate_accepted",
    "partition.moves.replicate_rejected",
    "partition.refine_calls",
    "partition.analysis_memo_hits",
    "partition.analysis_memo_misses",
    "partition.analysis_memo_prefills",
)

#: The ``replicate.*`` counters the section 3 planning pass reports,
#: zeros included (a partition with no communication never scores).
REPLICATE_COUNTERS = (
    "replicate.rounds",
    "replicate.candidates_scored",
    "replicate.subgraph_walks",
    "replicate.subgraph_reused",
    "replicate.removable_walks",
    "replicate.removable_reused",
)


class PartitionPass:
    """Multilevel-partition the DDG at the current II.

    Refinement may also grant up to ``budget`` replicas
    (:func:`~repro.partition.refine.refine_replicating`); the grants
    ride ``ctx.pre_replicas`` to the later passes. At budget 0 this is
    the call :meth:`MultilevelPartitioner.partition` makes.
    """

    name = "partition"

    def __init__(self, budget: int) -> None:
        self.budget = budget

    def run(self, ctx: CompilationContext) -> None:
        for name in PARTITION_COUNTERS:
            ctx.metrics.counter(name)
        ctx.metrics.gauge("partition.moves.replicas_surviving")
        ctx.partition, grants = ctx.partitioner.partition_replicating(
            ctx.ii, replication_budget=self.budget
        )
        if grants:
            ctx.pre_replicas = ReplicationPlan(
                replicas=dict(grants), initial_coms=0, feasible=True
            )


class FeasibilityPass:
    """Reject IIs the partition's resource/bus usage cannot meet.

    Loads and communications count the partitioner's granted replicas
    (:class:`~repro.ddg.csr.ReplicaView`): a replica takes an issue
    slot and feeds its cluster's consumers locally. When communications
    also overload the machine at this II, the bus is the binding
    constraint (Figure 1's taxonomy); otherwise the raw FU counts are.
    """

    name = "feasibility"

    def run(self, ctx: CompilationContext) -> None:
        partition, machine = ctx.partition, ctx.machine
        grants = ctx.pre_replicas.replicas if ctx.pre_replicas is not None else {}
        csr = csr_view(partition.ddg)
        view = ReplicaView.from_replicas(csr, grants)
        cluster = [partition.cluster_of(uid) for uid in csr.uids]
        units = [
            [machine.fu_count(c, kind) for kind in FU_KINDS]
            for c in machine.cluster_ids()
        ]
        resource_ii = view.min_resource_ii(cluster, units)
        if resource_ii <= ctx.ii:
            return
        coms = view.nof_coms(cluster) if machine.is_clustered else 0
        bus = machine.bus
        ii_part = bus.latency * -(-coms // bus.count) if coms else 0
        raise StageFailure(
            FailureCause.BUS if ii_part >= resource_ii else FailureCause.RESOURCES,
            f"partition needs II >= {resource_ii} at II={ctx.ii}",
        )


class BaselinePlanPass:
    """No replication: require the bus to carry every communication."""

    name = "plan"

    def run(self, ctx: CompilationContext) -> None:
        machine = ctx.machine
        if machine.is_clustered and ctx.partition.ii_part(machine) > ctx.ii:
            raise StageFailure(
                FailureCause.BUS,
                f"II_part exceeds II={ctx.ii} without replication",
            )
        ctx.plan = EMPTY_PLAN


class ReplicatePlanPass:
    """Section 3: replicate until the bus fits (or fail as bus-bound)."""

    name = "replicate"

    def run(self, ctx: CompilationContext) -> None:
        for name in REPLICATE_COUNTERS:
            ctx.metrics.counter(name)
        plan = replicate(
            ctx.partition,
            ctx.machine,
            ctx.ii,
            spare_comms=ctx.config.spare_comms,
            initial=ctx.pre_replicas,
        )
        if not plan.feasible:
            raise StageFailure(
                FailureCause.BUS,
                f"replication cannot fit the bus at II={ctx.ii}",
            )
        ctx.plan = plan


class ValueCloningPlanPass:
    """Kuras et al.: clone only root values and induction variables."""

    name = "clone_values"

    def run(self, ctx: CompilationContext) -> None:
        plan = clone_values(ctx.partition, ctx.machine, ctx.ii)
        if not plan.feasible:
            raise StageFailure(
                FailureCause.BUS,
                f"value cloning cannot fit the bus at II={ctx.ii}",
            )
        ctx.plan = plan


class MacroReplicatePlanPass:
    """Section 5.2: replicate coarsened macro nodes."""

    name = "macro_replicate"

    def run(self, ctx: CompilationContext) -> None:
        plan = macro_replicate(
            ctx.partition, ctx.machine, ctx.ii, ctx.partitioner.levels
        )
        if not plan.feasible:
            raise StageFailure(
                FailureCause.BUS,
                f"macro replication cannot fit the bus at II={ctx.ii}",
            )
        ctx.plan = plan


class LengthReplicationPass:
    """Section 5.1: additionally replicate to shorten the schedule."""

    name = "length"

    def run(self, ctx: CompilationContext) -> None:
        ctx.plan = replicate_for_length(ctx.partition, ctx.machine, ctx.ii, ctx.plan)


class PlacePass:
    """Expand the DDG + plan into the placed (per-cluster) graph."""

    name = "place"

    def run(self, ctx: CompilationContext) -> None:
        ctx.graph = build_placed_graph(ctx.ddg, ctx.partition, ctx.machine, ctx.plan)


class SchedulePass:
    """Modulo-schedule the placed graph at the current II."""

    name = "schedule"

    def run(self, ctx: CompilationContext) -> None:
        ctx.metrics.counter("schedule.attempts").inc()
        ctx.kernel = schedule(
            ctx.graph,
            ctx.machine,
            ctx.ii,
            copy_latency_override=ctx.config.copy_latency_override,
        )


#: Each scheme's planning pass and the replicas its partitioner may
#: grant during refinement. Only ``repl-part`` grants any; its planning
#: pass then tops up without limit.
PLAN_PASSES: dict[Scheme, tuple[type[Pass], int]] = {
    Scheme.BASELINE: (BaselinePlanPass, 0),
    Scheme.REPLICATION: (ReplicatePlanPass, 0),
    Scheme.MACRO_REPLICATION: (MacroReplicatePlanPass, 0),
    Scheme.VALUE_CLONING: (ValueCloningPlanPass, 0),
    Scheme.REPL_PART: (ReplicatePlanPass, 8),
}


def pass_stack(scheme: Scheme, config: SchemeConfig) -> list[Pass]:
    """The pass stack that compiles ``scheme`` under ``config``."""
    plan_pass, budget = PLAN_PASSES[scheme]
    stack: list[Pass] = [PartitionPass(budget), FeasibilityPass(), plan_pass()]
    if config.length_replication:
        stack.append(LengthReplicationPass())
    stack.extend([PlacePass(), SchedulePass()])
    return stack


#: How far one failure may raise the II: at most this factor times the
#: failing II, since a suggested II (e.g. from the register-pressure
#: model) is a heuristic.
JUMP_CAP = 4


def next_ii(ii: int, failure: Exception) -> int:
    """The II to try after ``failure`` at ``ii``.

    Jumps toward the failure's ``suggested_ii`` when it lies above
    ``ii``, capped at :data:`JUMP_CAP` times ``ii``; otherwise steps by
    one. One failure records one cause, however far the jump goes.
    """
    suggested = getattr(failure, "suggested_ii", None)
    if suggested is not None and suggested > ii:
        return max(ii + 1, min(suggested, JUMP_CAP * ii))
    return ii + 1


# ----------------------------------------------------------------------
# The driver loop
# ----------------------------------------------------------------------


def run_pass_pipeline(
    ddg: Ddg,
    machine: MachineConfig,
    scheme: Scheme | str = Scheme.REPLICATION,
    config: SchemeConfig | None = None,
    max_ii: int | None = None,
) -> CompileResult:
    """Run a scheme's pass stack under the Figure 2 retry loop.

    Starting at II = MII, the stack runs pass by pass (each timed into
    the result's diagnostics); a failing pass records its cause and
    :func:`next_ii` picks the next II, up to the safety bound.

    The compile counts into a fresh registry, current for the whole
    call (``mii()`` included); its snapshot is ``diagnostics.counters``.

    Raises:
        UnschedulableError: no II within the bound yielded a schedule.
        CompileError: empty loop or unknown scheme.
    """
    if len(ddg) == 0:
        raise CompileError(f"loop {ddg.name!r} is empty")
    try:
        scheme = Scheme(scheme)
    except ValueError:
        known = ", ".join(member.value for member in Scheme)
        raise CompileError(f"unknown scheme {scheme!r}; known: {known}") from None
    config = config if config is not None else SchemeConfig()
    stack = pass_stack(scheme, config)

    metrics = MetricsRegistry()
    with use_registry(metrics):
        loop_mii = mii(ddg, machine)
        ctx = CompilationContext(
            ddg=ddg,
            machine=machine,
            config=config,
            partitioner=MultilevelPartitioner(ddg=ddg, machine=machine),
            mii=loop_mii,
            ii=loop_mii,
            metrics=metrics,
        )
        metrics.counter("kernels.python_calls")
        # Always 0: perfbench/layers.py sums this key with python_calls
        # into ddg.kernel_calls and fails a traced run that lacks it.
        metrics.gauge("kernels.numpy_calls")
        bound = max_ii if max_ii is not None else 16 * loop_mii + 4 * len(ddg) + 64
        return _attempt_loop(ctx, stack, scheme, bound)


def _attempt_loop(
    ctx: CompilationContext,
    stack: list[Pass],
    scheme: Scheme,
    bound: int,
) -> CompileResult:
    """Figure 2's retry loop: run the stack from II = MII up to ``bound``."""
    ii = ctx.mii
    with obs_span(
        "pipeline.compile", loop=ctx.ddg.name, scheme=scheme.value, mii=ctx.mii
    ) as compile_span:
        while ii <= bound:
            ctx.begin_attempt(ii)
            failure: Exception | None = None
            with obs_span("pipeline.attempt", ii=ii) as attempt_span:
                try:
                    for stage in stack:
                        started = time.perf_counter()
                        with obs_span(f"pass.{stage.name}", ii=ii):
                            try:
                                stage.run(ctx)
                            finally:
                                ctx.diagnostics.add_stage_time(
                                    stage.name, time.perf_counter() - started
                                )
                except ATTEMPT_FAILURES as caught:
                    # A failed attempt is normal control flow, not a span
                    # error: record the cause and let the span close clean.
                    failure = caught
                    attempt_span.set(failed=caught.cause.value)
            if failure is not None:
                ctx.causes.append(failure.cause)
                ii = next_ii(ii, failure)
                continue
            compile_span.set(ii=ii, attempts=len(ctx.diagnostics.ii_trajectory))
            ctx.diagnostics.counters = ctx.metrics.snapshot()
            return CompileResult(
                kernel=ctx.kernel,
                partition=ctx.partition,
                plan=ctx.plan,
                mii=ctx.mii,
                ii=ii,
                causes=ctx.causes,
                scheme=scheme,
                diagnostics=ctx.diagnostics,
            )
        raise UnschedulableError(
            f"loop {ctx.ddg.name!r} unschedulable on {ctx.machine.name}"
            f" within II <= {bound}"
        )


def find_min_ii(
    attempt: Callable[[int], object], lo: int, bound: int
) -> tuple[int, object]:
    """Search upward, one II at a time, for the smallest II accepted.

    ``attempt(ii)`` returns any result or raises a
    :class:`StageFailure`/:class:`~repro.schedule.scheduler.
    ScheduleFailure`. Shared by the scheduler-ablation harnesses
    (one-pass vs :mod:`repro.schedule.ims`) so both schedulers search
    identically.

    Raises:
        UnschedulableError: nothing in ``[lo, bound]`` was accepted.
    """
    for ii in range(lo, bound + 1):
        try:
            return ii, attempt(ii)
        except ATTEMPT_FAILURES:
            continue
    raise UnschedulableError(f"no feasible II in [{lo}, {bound}]")
