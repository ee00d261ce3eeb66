"""The scheduled kernel: the final product of modulo scheduling.

A kernel binds every instance of the placed graph to an absolute start
cycle within a flat (one-iteration) schedule of ``length`` cycles,
executed with a new iteration starting every ``II`` cycles. The stage
count ``SC = ceil(length / II)`` and the execution-time model
``Texec = (N - 1 + SC) * II`` come straight from section 2.2.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

from repro.machine.config import MachineConfig
from repro.schedule.placed import Instance, PlacedGraph


class ScheduledOp(NamedTuple):
    """One instance bound to a cycle (and to a bus, for COPY ops)."""

    instance: Instance
    start: int
    bus: int | None = None


@dataclasses.dataclass
class Kernel:
    """A complete modulo schedule for one loop on one machine.

    Attributes:
        graph: the placed graph that was scheduled.
        machine: target machine.
        ii: achieved initiation interval.
        ops: scheduled instances keyed by instance id.
        copy_latency_override: section 5.1's upper-bound mode; when set,
            COPY latency is replaced by this value in length accounting
            (the schedule was built under the same assumption).
    """

    graph: PlacedGraph
    machine: MachineConfig
    ii: int
    ops: dict[int, ScheduledOp]
    copy_latency_override: int | None = None

    def effective_latency(self, op: ScheduledOp) -> int:
        """Latency of an op under the kernel's latency assumptions."""
        if op.instance.is_copy and self.copy_latency_override is not None:
            return self.copy_latency_override
        return self.machine.latency_of(op.instance.op_class)

    @property
    def length(self) -> int:
        """Cycles to complete one iteration (schedule length)."""
        if not self.ops:
            return 0
        return max(
            op.start + self.effective_latency(op) for op in self.ops.values()
        )

    @property
    def stage_count(self) -> int:
        """SC = ceil(length / II)."""
        if not self.ops:
            return 1
        return max(1, math.ceil(self.length / self.ii))

    def start_of(self, iid: int) -> int:
        """Start cycle of an instance in the flat schedule."""
        return self.ops[iid].start

    def modulo_slot(self, iid: int) -> int:
        """Kernel row (start modulo II) of an instance."""
        return self.ops[iid].start % self.ii

    def execution_cycles(self, iterations: int) -> int:
        """Texec = (N - 1 + SC) * II for N loop iterations (N >= 1)."""
        if iterations <= 0:
            return 0
        return (iterations - 1 + self.stage_count) * self.ii

    # ------------------------------------------------------------------
    # Instruction accounting (Figure 10 statistics)
    # ------------------------------------------------------------------

    def n_original_ops(self) -> int:
        """Original program operations per iteration."""
        return sum(
            1
            for op in self.ops.values()
            if op.instance.role.value == "original"
        )

    def n_replica_ops(self) -> int:
        """Replicated operations per iteration."""
        return sum(
            1
            for op in self.ops.values()
            if op.instance.role.value == "replica"
        )

    def n_copy_ops(self) -> int:
        """Bus communications per iteration."""
        return sum(1 for op in self.ops.values() if op.instance.is_copy)

    def rows(self) -> list[str]:
        """Readable kernel dump, one line per scheduled op."""
        lines = []
        for op in sorted(self.ops.values(), key=lambda o: (o.start, o.instance.iid)):
            inst = op.instance
            bus = f" bus{op.bus}" if op.bus is not None else ""
            lines.append(
                f"t={op.start:3d} slot={op.start % self.ii:2d} "
                f"c{inst.cluster} {inst.op_class.value:>9} {inst.name}{bus}"
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Kernel(ii={self.ii}, length={self.length}, "
            f"sc={self.stage_count}, ops={len(self.ops)})"
        )
