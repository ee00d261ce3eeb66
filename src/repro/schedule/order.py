"""Scheduling order for the placed graph (swing modulo scheduling).

The scheduler of section 2.3.2 sorts nodes "according to [Llosa et al.,
Swing Modulo Scheduling]" before placing them one by one. The properties
that matter are:

1. operations on recurrences are placed before the rest (their
   scheduling windows are the tightest);
2. each operation is placed while being adjacent to already-placed
   neighbours (so the close-to-predecessors/successors placement rule
   keeps lifetimes short);
3. less slack = earlier in the order.

We implement a deterministic variant: strongly connected components are
ordered by decreasing criticality (recurrences first, tightest first),
then nodes are emitted greedily, always choosing the candidate with the
most already-ordered neighbours, breaking ties by ascending slack, then
ascending ASAP time, then instance id.

Each scheduling attempt builds its own placed graph, so nothing here is
kept between attempts: :func:`placed_analysis` flattens the graph's
adjacency and computes the instance latencies once, and returns both on
the :class:`PlacedAnalysis` that :func:`compute_order` and the
scheduler's placement loop then read. The flat edge list keeps the
node-major order of ``for iid in ids: for edge in graph.out_edges(iid)``,
so the relaxations visit edges in the order the nested loops would.
"""

from __future__ import annotations

import dataclasses

from repro.ddg.analysis import tarjan_scc
from repro.machine.config import MachineConfig
from repro.schedule.placed import Instance, PlacedGraph


class OrderError(ValueError):
    """Raised when schedule-time bounds cannot be computed."""


@dataclasses.dataclass
class PlacedAnalysis:
    """ASAP/ALAP bounds of placed instances at a candidate II.

    The analysis also carries what it was computed from, for the
    attempt that asked for it: ``latency`` maps each instance to its
    latency (COPY latency overridden when requested), and
    ``in_lists``/``out_lists`` map each instance, in graph order, to
    its ``(neighbour, distance)`` dependence pairs.
    """

    ii: int
    asap: dict[int, int]
    alap: dict[int, int]
    length: int
    latency: dict[int, int]
    in_lists: dict[int, list[tuple[int, int]]]
    out_lists: dict[int, list[tuple[int, int]]]

    def slack(self, iid: int) -> int:
        """Scheduling freedom of an instance."""
        return self.alap[iid] - self.asap[iid]


def instance_latencies(
    graph: PlacedGraph, machine: MachineConfig, copy_latency_override: int | None = None
) -> dict[int, int]:
    """Latency of every instance; COPY latency optionally overridden.

    The override implements section 5.1's upper-bound experiment: bus
    transfers still occupy bus slots (the II effect is kept) but are
    treated as instantaneous for dependence/length purposes.
    """
    latency = {}
    for inst in graph.instances():
        if inst.is_copy and copy_latency_override is not None:
            latency[inst.iid] = copy_latency_override
        else:
            latency[inst.iid] = graph.latency_of(inst, machine)
    return latency


def placed_analysis(
    graph: PlacedGraph,
    machine: MachineConfig,
    ii: int,
    copy_latency_override: int | None = None,
) -> PlacedAnalysis:
    """Longest-path ASAP/ALAP over instances (bus latency included).

    Raises :class:`OrderError` when ``ii`` is below a recurrence bound
    of the placed graph, where the relaxation diverges.
    """
    ids = [inst.iid for inst in graph.instances()]
    latency = instance_latencies(graph, machine, copy_latency_override)
    # ``in_lists`` comes from the same pass as the node-major edge list
    # instead of a walk over ``graph.in_edges``; its entries come out
    # src-major rather than insertion-ordered, which is safe because
    # every consumer (dependence windows, earliest starts) reduces over
    # the list with max/min and is order-independent.
    edges: list[tuple[int, int, int]] = []
    in_lists: dict[int, list[tuple[int, int]]] = {iid: [] for iid in ids}
    out_lists: dict[int, list[tuple[int, int]]] = {}
    for iid in ids:
        outs = [(e.dst, e.distance) for e in graph.out_edges(iid)]
        out_lists[iid] = outs
        for dst, distance in outs:
            edges.append((iid, dst, distance))
            in_lists[dst].append((iid, distance))
    if not ids:
        return PlacedAnalysis(ii, {}, {}, 0, latency, in_lists, out_lists)
    rounds = len(ids) + 1

    asap = {iid: 0 for iid in ids}
    for _ in range(rounds):
        changed = False
        for src, dst, distance in edges:
            bound = asap[src] + latency[src] - ii * distance
            if bound > asap[dst]:
                asap[dst] = bound
                changed = True
        if not changed:
            break
    else:
        raise OrderError(f"ASAP diverged at II={ii}: below the recurrence bound")

    length = max(asap[iid] + latency[iid] for iid in ids)
    alap = {iid: length - latency[iid] for iid in ids}
    for _ in range(rounds):
        changed = False
        for src, dst, distance in edges:
            bound = alap[dst] - latency[src] + ii * distance
            if bound < alap[src]:
                alap[src] = bound
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - symmetric to ASAP divergence
        raise OrderError(f"ALAP diverged at II={ii}")

    return PlacedAnalysis(ii, asap, alap, length, latency, in_lists, out_lists)


def compute_order(
    graph: PlacedGraph, machine: MachineConfig, ii: int,
    analysis: PlacedAnalysis | None = None,
) -> list[Instance]:
    """Scheduling order with the one-sided-window guarantee.

    Components of the SCC condensation are emitted in topological order
    (among simultaneously-ready components, the most critical — lowest
    slack, then earliest ASAP — goes first); inside a recurrence, nodes
    are emitted by ascending ASAP. Consequently, when the scheduler
    places a node, every already-placed neighbour is a *predecessor*
    unless both sit on the same recurrence — and recurrence windows are
    exactly the ones that widen as the II grows, so a failed attempt is
    always repaired by Figure 2's II bump (or is a genuine recurrence
    limit). A greedier both-sided order would wedge non-recurrence
    nodes into windows no II can open.
    """
    if analysis is None:
        analysis = placed_analysis(graph, machine, ii)
    out_lists = analysis.out_lists
    components = tarjan_scc(out_lists, lambda u: [dst for dst, _ in out_lists[u]])
    component_of: dict[int, int] = {}
    for index, component in enumerate(components):
        for iid in component:
            component_of[iid] = index

    # Condensation in-degrees for Kahn's algorithm.
    in_degree = [0] * len(components)
    successors: list[set[int]] = [set() for _ in components]
    for src, outs in out_lists.items():
        src_c = component_of[src]
        for dst, _ in outs:
            dst_c = component_of[dst]
            if src_c != dst_c and dst_c not in successors[src_c]:
                successors[src_c].add(dst_c)
                in_degree[dst_c] += 1

    # Priorities are pure per (analysis, component); compute each once
    # instead of re-deriving the mins on every ``ready`` re-sort.
    priorities: dict[int, tuple[int, int, int]] = {}

    def priority(index: int) -> tuple[int, int, int]:
        cached = priorities.get(index)
        if cached is None:
            component = components[index]
            cached = (
                min(analysis.slack(iid) for iid in component),
                min(analysis.asap[iid] for iid in component),
                index,
            )
            priorities[index] = cached
        return cached

    ready = [i for i, degree in enumerate(in_degree) if degree == 0]
    ordered: list[int] = []
    while ready:
        ready.sort(key=priority)
        index = ready.pop(0)
        ordered.extend(
            sorted(
                components[index],
                key=lambda iid: (analysis.asap[iid], analysis.alap[iid], iid),
            )
        )
        for succ in successors[index]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)

    return [graph.instance(iid) for iid in ordered]
