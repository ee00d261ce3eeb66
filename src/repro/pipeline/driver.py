"""Figure 2's compilation loop as a thin facade over the pass pipeline.

The actual work lives in :mod:`repro.pipeline.passes`: every compiler
variant ("scheme") runs one *pass stack* — partition, feasibility, the
scheme's replication-planning pass, optional section 5.1 length
replication, placement, modulo scheduling — under a driver loop that
starts at II = MII, picks the next II with
:func:`~repro.pipeline.passes.next_ii` whenever a pass raises a typed
failure, and records one :class:`FailureCause` per escalation (Figure
1's breakdown of why the II grows beyond the MII).

This module keeps the stable public surface: the closed :class:`Scheme`
enum naming the five schemes, :func:`compile_loop` (the historical
entry point, now a wrapper that folds its keyword flags into a
:class:`~repro.pipeline.passes.SchemeConfig`), the
:class:`CompileResult` value object, and the error taxonomy
(:class:`CompileError` for bad inputs, :class:`UnschedulableError` for
II-bound exhaustion). A new scheme is a new :class:`Scheme` member plus
its row in :data:`repro.pipeline.passes.PLAN_PASSES`.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.core.plan import ReplicationPlan
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig
from repro.partition.partition import Partition
from repro.schedule.kernel import Kernel
from repro.schedule.scheduler import FailureCause


class CompileError(RuntimeError):
    """The compilation could not produce a kernel (bad input or bound)."""


class UnschedulableError(CompileError):
    """No II within the safety bound yielded a schedule.

    Distinct from the base :class:`CompileError` (which also covers bad
    inputs such as empty loops) so sweeps can tell genuine II-bound
    exhaustion apart from malformed cells.
    """


class Scheme(enum.Enum):
    """Which compiler variant to run.

    BASELINE and REPLICATION are the paper's two bars; MACRO_REPLICATION
    is the section 5.2 alternative; VALUE_CLONING is the Kuras et al.
    related-work baseline (clone only root values and induction
    variables); REPL_PART lets the partitioner grant replicas during
    refinement, which the section 3 replicator then tops up. Each value
    is the scheme's name on the command line, in job keys and in store
    entries; :data:`repro.pipeline.passes.PLAN_PASSES` gives each member
    its planning pass.
    """

    BASELINE = "baseline"
    REPLICATION = "replication"
    MACRO_REPLICATION = "macro_replication"
    VALUE_CLONING = "value_cloning"
    REPL_PART = "repl-part"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scheme.{self.name}"


@dataclasses.dataclass
class CompileDiagnostics:
    """Where one compilation spent its effort.

    Attributes:
        stage_seconds: wall time per pass name, accumulated across every
            II attempt.
        ii_trajectory: every II attempted, in order (strictly
            increasing; the last entry is the achieved II). Its length
            is the number of partition attempts.
        counters: named effort counters of this one compile
            (incremental-evaluator work, analysis memo lookups,
            replicator walks, relaxation-kernel calls, scheduler
            attempts as ``schedule.attempts``), namespaced
            ``<stage>.<name>`` so two passes can never clobber each
            other: the flattened snapshot of the compilation's
            :class:`repro.obs.metrics.MetricsRegistry`. Only counts are
            stored; rates are derived from summed counts by ``repro
            bench``.
    """

    stage_seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    ii_trajectory: list[int] = dataclasses.field(default_factory=list)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Wall time summed over all stages."""
        return sum(self.stage_seconds.values())

    def add_stage_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall time against a pass name."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds


@dataclasses.dataclass
class CompileResult:
    """Everything the evaluation needs about one compiled loop.

    Attributes:
        kernel: the final modulo schedule.
        partition: the final cluster assignment.
        plan: the replication decisions (empty for the baseline).
        mii: the loop's minimum initiation interval.
        ii: the achieved initiation interval.
        causes: one :class:`FailureCause` per II increase along the way.
        scheme: which compiler variant produced this result.
        diagnostics: per-stage wall time, the full II trajectory and the
            compile's effort counters (None only for results built by
            hand).
    """

    kernel: Kernel
    partition: Partition
    plan: ReplicationPlan
    mii: int
    ii: int
    causes: list[FailureCause]
    scheme: Scheme
    diagnostics: CompileDiagnostics | None = None

    @property
    def ii_increase(self) -> int:
        """How far the final II sits above the MII."""
        return self.ii - self.mii

    @property
    def scheme_name(self) -> str:
        """Name (the :class:`Scheme` value) of the producing scheme."""
        return self.scheme.value


def compile_loop(
    ddg: Ddg,
    machine: MachineConfig,
    scheme: Scheme | str = Scheme.REPLICATION,
    length_replication: bool = False,
    copy_latency_override: int | None = None,
    max_ii: int | None = None,
    spare_comms: int = 0,
) -> CompileResult:
    """Compile one loop for one machine; see the module docstring.

    Back-compat wrapper: the keyword flags are folded into a
    :class:`~repro.pipeline.passes.SchemeConfig` and the scheme's pass
    stack is run by :func:`repro.pipeline.passes.run_pass_pipeline`.

    Args:
        ddg: the loop body.
        machine: the target machine.
        scheme: a :class:`Scheme` member or its value.
        length_replication: additionally run the section 5.1 pass.
        copy_latency_override: section 5.1's zero-latency upper bound.
        max_ii: II safety bound (defaults to a generous multiple of the
            MII plus the loop size).
        spare_comms: REPLICATION only — keep removing communications
            this far beyond the paper's stop rule (over-replication
            ablation; 0 reproduces the paper).

    Raises:
        UnschedulableError: when no II within the bound yields a
            schedule.
        CompileError: when the input cannot be compiled at all (e.g. an
            empty loop or an unknown scheme name).
    """
    from repro.pipeline.passes import SchemeConfig, run_pass_pipeline

    config = SchemeConfig(
        length_replication=length_replication,
        copy_latency_override=copy_latency_override,
        spare_comms=spare_comms,
    )
    return run_pass_pipeline(
        ddg,
        machine,
        scheme,
        config=config,
        max_ii=max_ii,
    )
