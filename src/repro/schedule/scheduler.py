"""The cluster-aware modulo scheduler (section 2.3.2).

Given a placed graph and a candidate II, instances are visited in swing
order and each is bound to the earliest feasible cycle in its own
cluster, as close as possible to its already-placed neighbours (keeping
register pressure low). COPY instances reserve an inter-cluster bus for
``bus_latency`` consecutive modulo slots instead of a functional unit.

No backtracking is used: the first instance that cannot be placed
aborts the attempt with a typed :class:`ScheduleFailure`, whose cause
feeds both the Figure 2 retry loop (raise II, refine, retry) and the
Figure 1 cause statistics.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.machine.config import MachineConfig
from repro.obs.spans import span as obs_span
from repro.schedule.kernel import Kernel, ScheduledOp
from repro.schedule.mrt import ModuloReservationTable
from repro.schedule.order import OrderError, compute_order, placed_analysis
from repro.schedule.placed import Instance, PlacedGraph
from repro.schedule.registers import fits_registers


class FailureCause(enum.Enum):
    """Why a scheduling attempt at some II failed (Figure 1 categories)."""

    BUS = "bus"
    RECURRENCES = "recurrences"
    REGISTERS = "registers"
    RESOURCES = "resources"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FailureCause.{self.name}"


@dataclasses.dataclass
class ScheduleFailure(Exception):
    """A scheduling attempt failed; the driver must raise the II.

    ``suggested_ii`` (when set) is the smallest II the failing
    constraint could plausibly admit; the driver may jump straight to
    it instead of stepping by one (each skipped step still counts as an
    II increase with this cause in the Figure 1 statistics).
    """

    cause: FailureCause
    detail: str
    suggested_ii: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.cause.value}: {self.detail}"


def _dependence_window(
    in_list: list[tuple[int, int]],
    out_list: list[tuple[int, int]],
    latency: dict[int, int],
    inst: Instance,
    times: dict[int, int],
    ii: int,
    default_start: int,
) -> tuple[list[int], bool]:
    """Candidate cycles for ``inst`` plus a both-sided-window flag.

    With placed predecessors only, scan upward from the earliest legal
    cycle; with placed successors only, scan downward from the latest;
    with both — which the scheduling order guarantees happens only
    inside a recurrence — the window is bounded on both sides and
    infeasibility means the recurrence does not fit this II. At most II
    cycles are scanned: beyond that the modulo slots repeat.

    ``in_list``/``out_list`` are the instance's (neighbour, distance)
    pairs from the attempt's :class:`~repro.schedule.order.PlacedAnalysis`.
    """
    earliest: int | None = None
    latest: int | None = None
    for src, distance in in_list:
        if src in times:
            bound = times[src] + latency[src] - ii * distance
            earliest = bound if earliest is None else max(earliest, bound)
    for dst, distance in out_list:
        if dst in times:
            bound = times[dst] - latency[inst.iid] + ii * distance
            latest = bound if latest is None else min(latest, bound)

    if earliest is not None and latest is not None:
        if earliest > latest:
            raise ScheduleFailure(
                FailureCause.RECURRENCES,
                f"{inst.name}: empty window [{earliest}, {latest}] at II={ii}",
            )
        top = min(latest, earliest + ii - 1)
        return list(range(earliest, top + 1)), True
    if earliest is not None:
        return list(range(earliest, earliest + ii)), False
    if latest is not None:
        return list(range(latest, latest - ii, -1)), False
    return list(range(default_start, default_start + ii)), False


def schedule(
    graph: PlacedGraph,
    machine: MachineConfig,
    ii: int,
    check_registers: bool = True,
    copy_latency_override: int | None = None,
) -> Kernel:
    """Modulo-schedule a placed graph at a fixed II.

    Returns the kernel on success; raises :class:`ScheduleFailure` with
    the blocking cause otherwise. ``copy_latency_override`` implements
    the section 5.1 upper-bound mode: COPY instances still occupy bus
    slots but their dependence latency is replaced (usually by 0).
    """
    with obs_span("schedule.order", ii=ii, instances=len(graph)):
        try:
            analysis = placed_analysis(graph, machine, ii, copy_latency_override)
        except OrderError as exc:
            raise ScheduleFailure(FailureCause.RECURRENCES, str(exc)) from exc

        order = compute_order(graph, machine, ii, analysis)
    latency = analysis.latency
    in_lists = analysis.in_lists
    out_lists = analysis.out_lists
    mrt = ModuloReservationTable(machine, ii)
    times: dict[int, int] = {}
    buses: dict[int, int] = {}

    # One span for the whole placement loop (never per-instance: that
    # would dominate the trace and distort the timings it measures).
    with obs_span("schedule.place", ii=ii, instances=len(order)):
        for inst in order:
            window, both_sided = _dependence_window(
                in_lists[inst.iid],
                out_lists[inst.iid],
                latency,
                inst,
                times,
                ii,
                analysis.asap[inst.iid],
            )
            placed = False
            for cycle in window:
                if inst.is_copy:
                    if mrt.bus_free(cycle):
                        buses[inst.iid] = mrt.reserve_bus(cycle)
                        times[inst.iid] = cycle
                        placed = True
                        break
                elif mrt.fu_free(inst.cluster, inst.fu_kind, cycle):
                    mrt.reserve_fu(inst.cluster, inst.fu_kind, cycle)
                    times[inst.iid] = cycle
                    placed = True
                    break
            if not placed:
                if inst.is_copy:
                    cause = FailureCause.BUS
                elif both_sided:
                    # A recurrence-constrained window with no free slot:
                    # the cycle, not the raw FU count, does not fit.
                    cause = FailureCause.RECURRENCES
                else:
                    cause = FailureCause.RESOURCES
                raise ScheduleFailure(
                    cause, f"no free slot for {inst.name} at II={ii}"
                )

    # Normalize so the flat schedule starts at cycle 0.
    if times:
        base = min(times.values())
        times = {iid: t - base for iid, t in times.items()}

    kernel = Kernel(
        graph=graph,
        machine=machine,
        ii=ii,
        ops={
            iid: ScheduledOp(
                instance=graph.instance(iid), start=t, bus=buses.get(iid)
            )
            for iid, t in times.items()
        },
        copy_latency_override=copy_latency_override,
    )

    if check_registers and not fits_registers(kernel):
        raise ScheduleFailure(
            FailureCause.REGISTERS,
            f"MaxLive exceeds register files at II={ii}",
            suggested_ii=_register_feasible_ii(kernel),
        )
    return kernel


def _register_feasible_ii(kernel: Kernel) -> int | None:
    """Estimate the smallest II at which MaxLive could fit.

    A value alive for ``span`` cycles costs ``ceil(span / II)``
    registers, so cluster pressure decays roughly as
    ``producers + (pressure - producers) * II / II'`` — inverting per
    violating cluster gives the jump target. Returns None when some
    cluster hosts more producers than registers (no II can fix that).
    """
    from repro.schedule.registers import max_live

    machine = kernel.machine
    producers = [0] * machine.n_clusters
    for inst in kernel.graph.instances():
        if not inst.is_copy and inst.op_class.value != "store":
            producers[inst.cluster] += 1
    suggestion = kernel.ii + 1
    for cluster, pressure in enumerate(max_live(kernel)):
        registers = machine.registers(cluster)
        if pressure <= registers:
            continue
        if producers[cluster] >= registers:
            return None
        overlap = pressure - producers[cluster]
        headroom = registers - producers[cluster]
        needed = -(-kernel.ii * overlap // headroom)  # ceil division
        suggestion = max(suggestion, needed)
    return suggestion
