"""The Figure 2 driver decomposed into a composable pass pipeline.

One compilation is a *pass stack* run repeatedly by
:func:`run_pass_pipeline`: starting at II = MII, the stack's passes each
mutate a shared :class:`CompilationContext` (partition, replication
plan, placed graph, kernel); any pass may abort the attempt with a
typed :class:`StageFailure` (or let a
:class:`~repro.schedule.scheduler.ScheduleFailure` propagate), upon
which the driver records the cause, asks its
:class:`IIEscalationPolicy` for the next II and retries. Per-pass wall
time, attempt counts and the II trajectory accumulate in
:class:`~repro.pipeline.driver.CompileDiagnostics` on the result.

Compiler variants are *registered*, not hard-coded: the string-keyed
scheme registry maps a name to a builder that assembles a pass stack
from a :class:`SchemeConfig`. The four paper schemes (``baseline``,
``replication``, ``macro_replication``, ``value_cloning``) ship
pre-registered; new variants — an SMT pipeliner, a generalized
replication-partitioning scheme — drop in via :func:`register_scheme`
without touching the driver:

    def build_my_scheme(config: SchemeConfig) -> list[Pass]:
        return [PartitionPass(), BusFeasibilityPass(), MyPlanPass(),
                PlacePass(), SchedulePass()]

    register_scheme("my_scheme", build_my_scheme)
    result = run_pass_pipeline(ddg, machine, "my_scheme")
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from typing import Protocol, runtime_checkable

from repro.core.cloning import clone_values
from repro.core.incremental import ReplicatorStats
from repro.core.length import replicate_for_length
from repro.core.macro import macro_replicate
from repro.core.plan import EMPTY_PLAN, ReplicationPlan
from repro.core.replicator import replicate
from repro.ddg.analysis import analysis_memo_stats, mii
from repro.ddg.csr import kernel_calls
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig
from repro.obs.metrics import MetricsRegistry
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
    statistics, ``suggested_ii`` (when set) lets a jump escalation
    policy skip ahead.
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
        partition_replication_budget: ``repl-part`` only — maximum
            replicas the partitioner may grant *during* refinement
            (the post-pass replicator then tops up without limit).
    """

    length_replication: bool = False
    copy_latency_override: int | None = None
    spare_comms: int = 0
    partition_replication_budget: int = 8


@dataclasses.dataclass
class CompilationContext:
    """Mutable state one pass stack threads through an II attempt.

    Per-compilation fields (``ddg``, ``machine``, ``config``,
    ``partitioner``, ``mii``, ``causes``, ``diagnostics``, ``metrics``)
    persist across II attempts — notably the partitioner, whose
    refinement history the multilevel algorithm reuses as the II grows.
    Per-attempt products (``partition``, ``plan``, ``graph``,
    ``kernel``, ``pre_replicas``) are cleared by :meth:`begin_attempt`.

    ``pre_replicas`` carries replicas a partitioning pass granted during
    refinement (the ``repl-part`` scheme) forward to the planning pass,
    which folds them into its starting state as already granted.

    ``metrics`` is the compilation's typed effort registry (see
    :mod:`repro.obs.metrics`): each pass records through a view scoped
    to its own name (``ctx.pass_metrics(self)``), so counters from
    different passes land under distinct ``<stage>.<name>`` keys; the
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

    def pass_metrics(self, stage: "Pass"):
        """Metrics view namespaced under the pass's stage name."""
        return self.metrics.scoped(stage.name)

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


def record_partition_metrics(ctx: CompilationContext, stage: "Pass") -> None:
    """Publish the partitioner's cumulative counters as stage gauges.

    The stats objects are cumulative across II attempts, so the gauges
    after the last attempt carry the compilation's totals. Shared by
    every partitioning pass (plain and replicating).
    """
    metrics = ctx.pass_metrics(stage)
    for name, value in ctx.partitioner.stats.as_counters().items():
        metrics.gauge(name).set(value)
    metrics.gauge("lazy_skip_rate").set(ctx.partitioner.stats.lazy_skip_rate)
    metrics.gauge("length_memo_hit_rate").set(
        ctx.partitioner.stats.length_memo_hit_rate
    )
    memo = analysis_memo_stats(ctx.ddg)
    metrics.gauge("analysis_memo_hits").set(memo.hits)
    metrics.gauge("analysis_memo_misses").set(memo.misses)
    metrics.gauge("analysis_memo_prefills").set(memo.prefills)
    metrics.gauge("analysis_memo_hit_rate").set(memo.hit_rate)


class PartitionPass:
    """Multilevel-partition the DDG at the current II."""

    name = "partition"

    def run(self, ctx: CompilationContext) -> None:
        ctx.diagnostics.partition_attempts += 1
        ctx.partition = ctx.partitioner.partition(ctx.ii)
        record_partition_metrics(ctx, self)


class BusFeasibilityPass:
    """Reject IIs the partition's resource/bus usage cannot meet.

    When communications also overload the machine at this II, the bus
    is the binding constraint (Figure 1's taxonomy); otherwise the raw
    FU counts are.
    """

    name = "feasibility"

    def run(self, ctx: CompilationContext) -> None:
        partition, machine = ctx.partition, ctx.machine
        resource_ii = partition.min_resource_ii(machine)
        if resource_ii <= ctx.ii:
            return
        bus_bound = (
            machine.is_clustered and partition.ii_part(machine) >= resource_ii
        )
        raise StageFailure(
            FailureCause.BUS if bus_bound else FailureCause.RESOURCES,
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

    def __init__(self) -> None:
        # Cumulative across II attempts, like the partitioner's stats.
        self._stats = ReplicatorStats()

    def run(self, ctx: CompilationContext) -> None:
        plan = replicate(
            ctx.partition,
            ctx.machine,
            ctx.ii,
            spare_comms=ctx.config.spare_comms,
            stats=self._stats,
            initial=ctx.pre_replicas,
        )
        metrics = ctx.pass_metrics(self)
        for name, value in self._stats.as_counters().items():
            metrics.gauge(name).set(value)
        metrics.gauge("rescore_skip_rate").set(self._stats.rescore_skip_rate)
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
        ctx.plan = replicate_for_length(
            ctx.partition, ctx.machine, ctx.ii, ctx.plan
        )


class PlacePass:
    """Expand the DDG + plan into the placed (per-cluster) graph."""

    name = "place"

    def run(self, ctx: CompilationContext) -> None:
        ctx.graph = build_placed_graph(
            ctx.ddg, ctx.partition, ctx.machine, ctx.plan
        )


class SchedulePass:
    """Modulo-schedule the placed graph at the current II."""

    name = "schedule"

    def run(self, ctx: CompilationContext) -> None:
        ctx.diagnostics.schedule_attempts += 1
        ctx.pass_metrics(self).counter("attempts").inc()
        ctx.kernel = schedule(
            ctx.graph,
            ctx.machine,
            ctx.ii,
            copy_latency_override=ctx.config.copy_latency_override,
        )


# ----------------------------------------------------------------------
# II escalation policies
# ----------------------------------------------------------------------


class IIEscalationPolicy:
    """How the driver picks the next II after a failed attempt."""

    def next_ii(self, ii: int, failure: Exception) -> int:
        """Next II to try (must return > ``ii``)."""
        raise NotImplementedError


class LinearEscalation(IIEscalationPolicy):
    """Always step by one — the paper's literal Figure 2 loop, and the
    search rule of the :mod:`repro.schedule.ims` scheduler ablation."""

    def next_ii(self, ii: int, failure: Exception) -> int:
        return ii + 1


@dataclasses.dataclass(frozen=True)
class JumpEscalation(IIEscalationPolicy):
    """Jump toward a failure's estimated feasible II, capped.

    The estimate (``suggested_ii``, e.g. from the register-pressure
    model) is a heuristic, so jumps are capped at ``cap_factor * ii``.
    One failure event = one recorded cause, however far the jump goes.
    """

    cap_factor: int = 4

    def next_ii(self, ii: int, failure: Exception) -> int:
        suggested = getattr(failure, "suggested_ii", None)
        if suggested is not None and suggested > ii:
            return max(ii + 1, min(suggested, self.cap_factor * ii))
        return ii + 1


#: The driver default: jump when the scheduler can estimate, else +1.
DEFAULT_ESCALATION = JumpEscalation()


# ----------------------------------------------------------------------
# Scheme registry
# ----------------------------------------------------------------------

#: A scheme is a function assembling a pass stack from its config.
PassStackBuilder = Callable[[SchemeConfig], "list[Pass]"]

_SCHEMES: dict[str, PassStackBuilder] = {}


def register_scheme(
    name: str, builder: PassStackBuilder, replace: bool = False
) -> None:
    """Register a compiler variant under a string key.

    Args:
        name: registry key (also usable as ``compile_loop``'s scheme).
        builder: assembles the pass stack for one compilation.
        replace: allow overriding an existing registration.

    Raises:
        ValueError: the name is taken and ``replace`` is False.
    """
    if not replace and name in _SCHEMES:
        raise ValueError(f"scheme {name!r} is already registered")
    _SCHEMES[name] = builder


def unregister_scheme(name: str) -> None:
    """Remove a registered variant (tests clean up after themselves)."""
    _SCHEMES.pop(name, None)


def scheme_names() -> list[str]:
    """Registered scheme keys, in registration order."""
    return list(_SCHEMES)


def build_pass_stack(name: str, config: SchemeConfig) -> list[Pass]:
    """Assemble the registered pass stack for ``name``.

    Raises:
        CompileError: unknown scheme (names the registered ones).
    """
    builder = _SCHEMES.get(name)
    if builder is None:
        raise CompileError(
            f"unknown scheme {name!r}; registered: {', '.join(_SCHEMES)}"
        )
    return builder(config)


def standard_stack(plan_pass: Pass, config: SchemeConfig) -> list[Pass]:
    """The shared stack shape around a scheme's planning pass."""
    stack: list[Pass] = [PartitionPass(), BusFeasibilityPass(), plan_pass]
    if config.length_replication:
        stack.append(LengthReplicationPass())
    stack.extend([PlacePass(), SchedulePass()])
    return stack


register_scheme(
    Scheme.BASELINE.value, lambda config: standard_stack(BaselinePlanPass(), config)
)
register_scheme(
    Scheme.REPLICATION.value,
    lambda config: standard_stack(ReplicatePlanPass(), config),
)
register_scheme(
    Scheme.MACRO_REPLICATION.value,
    lambda config: standard_stack(MacroReplicatePlanPass(), config),
)
register_scheme(
    Scheme.VALUE_CLONING.value,
    lambda config: standard_stack(ValueCloningPlanPass(), config),
)


# ----------------------------------------------------------------------
# The driver loop
# ----------------------------------------------------------------------


def scheme_token(name: str) -> Scheme | str:
    """Stamp built-in schemes as enum members, custom ones as strings."""
    try:
        return Scheme(name)
    except ValueError:
        return name


def run_pass_pipeline(
    ddg: Ddg,
    machine: MachineConfig,
    scheme: Scheme | str = Scheme.REPLICATION,
    config: SchemeConfig | None = None,
    max_ii: int | None = None,
    escalation: IIEscalationPolicy | None = None,
) -> CompileResult:
    """Run a scheme's pass stack under the Figure 2 retry loop.

    Starting at II = MII, the stack runs pass by pass (each timed into
    the result's diagnostics); a failing pass records its cause and the
    escalation policy picks the next II, up to the safety bound.

    Raises:
        UnschedulableError: no II within the bound yielded a schedule.
        CompileError: empty loop or unknown scheme.
    """
    name = scheme.value if isinstance(scheme, Scheme) else str(scheme)
    if len(ddg) == 0:
        raise CompileError(f"loop {ddg.name!r} is empty")
    config = config if config is not None else SchemeConfig()
    escalation = escalation if escalation is not None else DEFAULT_ESCALATION
    stack = build_pass_stack(name, config)

    loop_mii = mii(ddg, machine)
    bound = max_ii if max_ii is not None else 16 * loop_mii + 4 * len(ddg) + 64
    ctx = CompilationContext(
        ddg=ddg,
        machine=machine,
        config=config,
        partitioner=MultilevelPartitioner(ddg=ddg, machine=machine),
        mii=loop_mii,
        ii=loop_mii,
    )

    ii = loop_mii
    calls_base = kernel_calls()
    with obs_span(
        "pipeline.compile", loop=ddg.name, scheme=name, mii=loop_mii
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
                ii = escalation.next_ii(ii, failure)
                continue
            compile_span.set(ii=ii, attempts=len(ctx.diagnostics.ii_trajectory))
            kernels = ctx.metrics.scoped("kernels")
            kernels.gauge("python_calls").set(kernel_calls() - calls_base)
            # Always 0: perfbench/layers.py sums this key with
            # python_calls into ddg.kernel_calls and fails a traced run
            # that lacks it.
            kernels.gauge("numpy_calls").set(0)
            ctx.diagnostics.merge_counters(ctx.metrics.snapshot())
            return CompileResult(
                kernel=ctx.kernel,
                partition=ctx.partition,
                plan=ctx.plan,
                mii=loop_mii,
                ii=ii,
                causes=ctx.causes,
                scheme=scheme_token(name),
                diagnostics=ctx.diagnostics,
            )
        raise UnschedulableError(
            f"loop {ddg.name!r} unschedulable on {machine.name} within II <= {bound}"
        )


def find_min_ii(
    attempt: Callable[[int], object],
    lo: int,
    bound: int,
    escalation: IIEscalationPolicy | None = None,
) -> tuple[int, object]:
    """Search upward for the smallest II an attempt function accepts.

    ``attempt(ii)`` returns any result or raises a
    :class:`StageFailure`/:class:`~repro.schedule.scheduler.
    ScheduleFailure`; the escalation policy (default
    :class:`LinearEscalation`) picks each next II. Shared by the
    scheduler-ablation harnesses (one-pass vs :mod:`repro.schedule.ims`)
    so both schedulers search identically.

    Raises:
        UnschedulableError: nothing in ``[lo, bound]`` was accepted.
    """
    escalation = escalation if escalation is not None else LinearEscalation()
    ii = lo
    while ii <= bound:
        try:
            return ii, attempt(ii)
        except ATTEMPT_FAILURES as failure:
            ii = escalation.next_ii(ii, failure)
    raise UnschedulableError(f"no feasible II in [{lo}, {bound}]")
