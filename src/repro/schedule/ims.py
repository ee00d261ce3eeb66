"""Iterative modulo scheduling (Rau 1994/95) — the backtracking ablation.

The paper's scheduler never backtracks: a placement failure bumps the II
(section 2.3.2). Rau's classic alternative keeps the II and *evicts*
conflicting operations instead, paying compile time for schedule
density. This implementation follows the standard IMS recipe:

1. operations are prioritized by height (longest latency path to any
   sink at the candidate II);
2. the highest-priority unscheduled op computes its earliest start from
   its *scheduled* predecessors and scans ``II`` slots for a free
   resource;
3. when every slot is taken, the op is **force-placed**: at
   ``max(earliest, previous + 1)`` if it was displaced before, evicting
   (a) any op holding the needed resource in that modulo slot and
   (b) any scheduled successor whose dependence the placement violates;
4. a budget proportional to the op count bounds the churn — on
   exhaustion the attempt fails and the caller raises the II exactly
   like the baseline.

Used by the scheduler-ablation tests to show the paper's cheap
no-backtracking scheduler achieves IIs on par with IMS on this suite.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.schedule.kernel import Kernel, ScheduledOp
from repro.schedule.mrt import ModuloReservationTable
from repro.schedule.order import OrderError, placed_analysis
from repro.schedule.placed import PlacedGraph
from repro.schedule.registers import fits_registers
from repro.schedule.scheduler import FailureCause, ScheduleFailure


def ims_schedule(
    graph: PlacedGraph,
    machine: MachineConfig,
    ii: int,
    budget_factor: int = 12,
    check_registers: bool = True,
) -> Kernel:
    """Iterative modulo scheduling at a fixed II; see module docstring.

    Raises :class:`~repro.schedule.scheduler.ScheduleFailure` when the
    eviction budget runs out (cause RESOURCES) or a recurrence cannot
    fit (cause RECURRENCES, detected via the divergent ASAP analysis).
    """
    try:
        analysis = placed_analysis(graph, machine, ii)
    except OrderError as exc:
        raise ScheduleFailure(FailureCause.RECURRENCES, str(exc)) from exc

    instances = {inst.iid: inst for inst in graph.instances()}
    if not instances:
        return Kernel(graph=graph, machine=machine, ii=ii, ops={})

    latency = analysis.latency
    in_lists = analysis.in_lists
    out_lists = analysis.out_lists

    # Height priority: latency-weighted distance to a sink.
    height = {
        iid: analysis.length - analysis.alap[iid] for iid in instances
    }

    mrt = ModuloReservationTable(machine, ii)
    times: dict[int, int] = {}
    buses: dict[int, int] = {}
    ever_placed_at: dict[int, int] = {}
    unscheduled = set(instances)
    budget = max(1, budget_factor * len(instances))

    def release(iid: int) -> None:
        inst = instances[iid]
        if inst.is_copy:
            mrt.release_bus(buses.pop(iid), times[iid])
        else:
            mrt.release_fu(inst.cluster, inst.fu_kind, times[iid])
        del times[iid]
        unscheduled.add(iid)

    def earliest_start(iid: int) -> int:
        bound = analysis.asap[iid]
        for src, distance in in_lists[iid]:
            if src in times:
                bound = max(bound, times[src] + latency[src] - ii * distance)
        return bound

    def try_place(iid: int, cycle: int) -> bool:
        inst = instances[iid]
        if inst.is_copy:
            if mrt.bus_free(cycle):
                buses[iid] = mrt.reserve_bus(cycle)
                times[iid] = cycle
                return True
            return False
        if mrt.fu_free(inst.cluster, inst.fu_kind, cycle):
            mrt.reserve_fu(inst.cluster, inst.fu_kind, cycle)
            times[iid] = cycle
            return True
        return False

    def displace_violated_successors(iid: int, cycle: int) -> None:
        """Evict scheduled successors the new placement breaks.

        IMS places each op against its *predecessors* only and relies
        on displacement for everything downstream — on every placement,
        not just forced ones (recurrences put successors in the
        schedule before their producers).
        """
        for dst, distance in out_lists[iid]:
            if dst in times:
                ready = cycle + latency[iid] - ii * distance
                if times[dst] < ready:
                    release(dst)

    def evict_conflicts(iid: int, cycle: int) -> None:
        inst = instances[iid]
        slot = cycle % ii
        # (a) free the resource by evicting one current holder.
        if inst.is_copy:
            victims = [
                other
                for other, t in times.items()
                if instances[other].is_copy
            ]
            # Evict every transfer overlapping any needed slot of some bus;
            # simplest sound choice: clear the lowest-index bus.
            for other in victims:
                if buses[other] == 0:
                    release(other)
                    break
        else:
            for other, t in list(times.items()):
                other_inst = instances[other]
                if (
                    not other_inst.is_copy
                    and other_inst.cluster == inst.cluster
                    and other_inst.fu_kind is inst.fu_kind
                    and t % ii == slot
                ):
                    release(other)
                    break
        # (b) displace scheduled successors whose dependence now breaks.
        placed = try_place(iid, cycle)
        if not placed:
            # Could not free the resource (e.g. all buses busy on other
            # slots): give up on this attempt; the caller's budget will
            # eventually fail the II.
            unscheduled.add(iid)
            return
        displace_violated_successors(iid, cycle)

    while unscheduled:
        budget -= 1
        if budget <= 0:
            raise ScheduleFailure(
                FailureCause.RESOURCES,
                f"IMS budget exhausted at II={ii}",
            )
        iid = max(unscheduled, key=lambda i: (height[i], -i))
        unscheduled.discard(iid)
        earliest = earliest_start(iid)
        placed = False
        for cycle in range(earliest, earliest + ii):
            if try_place(iid, cycle):
                placed = True
                break
        if placed:
            ever_placed_at[iid] = times[iid]
            displace_violated_successors(iid, times[iid])
            continue
        force_at = max(earliest, ever_placed_at.get(iid, earliest - 1) + 1)
        evict_conflicts(iid, force_at)
        if iid in times:
            ever_placed_at[iid] = times[iid]

    base = min(times.values())
    kernel = Kernel(
        graph=graph,
        machine=machine,
        ii=ii,
        ops={
            iid: ScheduledOp(
                instance=instances[iid], start=t - base, bus=buses.get(iid)
            )
            for iid, t in times.items()
        },
    )
    if check_registers and not fits_registers(kernel):
        raise ScheduleFailure(
            FailureCause.REGISTERS, f"MaxLive exceeds register files at II={ii}"
        )
    return kernel
