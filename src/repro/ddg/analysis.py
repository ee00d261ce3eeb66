"""Loop analysis: MII bounds, recurrences, ASAP/ALAP times and slack.

Modulo scheduling theory (section 2.2) needs three quantities:

* **ResMII** — resource-limited lower bound on the II: the most loaded
  functional-unit kind dictates how often an iteration can start.
* **RecMII** — recurrence-limited lower bound: every dependence cycle
  ``c`` forces ``II >= ceil(latency(c) / distance(c))``.
* **ASAP/ALAP** times at a candidate II — earliest/latest start cycles
  consistent with dependences where an edge ``(u, v, d)`` contributes the
  constraint ``t(v) >= t(u) + latency(u) - II * d``. Slack is the gap
  between the two and drives both the partitioner's edge weights and the
  swing-modulo-scheduling priority order.

All computations here are pure python (Tarjan SCCs, Bellman-Ford style
relaxation) — no external graph library. The relaxations are the
kernels of :mod:`repro.ddg.csr`, run over the graph's flattened view,
and :func:`analyze`/:func:`rec_mii` results are memoized per (graph
version, II): the partitioner's edge weighting, the driver's MII
computation and repeated II escalations all ask the same questions
about the same graph, so the second ask is a dict hit. RecMII is a
bisection over positive-cycle probes, and each probe's verdict is kept
in the same memo, so :func:`analyze` at an II the search found
infeasible fails without walking the graph. Mutating the graph bumps its
:attr:`~repro.ddg.graph.Ddg.version` and invalidates the memo
wholesale; :func:`analysis_memo_stats` exposes hit/miss counters for
the engine diagnostics.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

from repro.ddg import csr as csr_mod
from repro.ddg.graph import Ddg, DdgError, Edge
from repro.machine.config import MachineConfig
from repro.machine.resources import FuKind


def res_mii(ddg: Ddg, machine: MachineConfig) -> int:
    """Resource-constrained minimum initiation interval.

    Uses the machine-wide FU totals: a perfect partition could spread
    each kind's operations across all clusters, so the lower bound is
    ``ceil(ops_of_kind / total_units_of_kind)`` maximized over kinds.
    """
    counts = ddg.op_counts()
    bound = 1
    for kind in FuKind:
        total_units = machine.total_fu_count(kind)
        if counts[kind] and total_units == 0:
            raise DdgError(f"machine has no {kind.value} units for {counts[kind]} ops")
        if total_units:
            bound = max(bound, math.ceil(counts[kind] / total_units))
    return bound


def _edge_weight(edge: Edge, src_latency: int, ii: int) -> int:
    """Longest-path weight of a dependence at a candidate II."""
    return src_latency - ii * edge.distance


# ----------------------------------------------------------------------
# The per-graph analysis memo
# ----------------------------------------------------------------------


@dataclasses.dataclass
class AnalysisMemoStats:
    """Hit/miss counters of one graph's analysis memo.

    The counters survive memo invalidation (a graph mutation clears
    the cached results, not the bookkeeping), so they describe the
    graph's whole lifetime in this process.

    ``prefills`` counts per-(version, II) positive-cycle entries written
    as a side effect of the RecMII search and divergent analyses, so a
    later :func:`analyze` at an II known to be infeasible fails without
    walking the graph.
    """

    hits: int = 0
    misses: int = 0
    prefills: int = 0

    @property
    def lookups(self) -> int:
        """Total memoized calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclasses.dataclass
class _AnalysisMemo:
    version: int
    entries: dict = dataclasses.field(default_factory=dict)
    stats: AnalysisMemoStats = dataclasses.field(default_factory=AnalysisMemoStats)


_MEMOS: "weakref.WeakKeyDictionary[Ddg, _AnalysisMemo]" = (
    weakref.WeakKeyDictionary()
)


def _memo_for(ddg: Ddg) -> _AnalysisMemo:
    memo = _MEMOS.get(ddg)
    if memo is None:
        memo = _AnalysisMemo(version=ddg.version)
        _MEMOS[ddg] = memo
    elif memo.version != ddg.version:
        memo.version = ddg.version
        memo.entries.clear()
    return memo


def analysis_memo_stats(ddg: Ddg) -> AnalysisMemoStats:
    """Hit/miss counters of ``ddg``'s analysis memo (live object)."""
    return _memo_for(ddg).stats


def _memoized(ddg: Ddg, key, compute):
    memo = _memo_for(ddg)
    try:
        result = memo.entries[key]
    except KeyError:
        memo.stats.misses += 1
        result = compute()
        memo.entries[key] = result
        return result
    memo.stats.hits += 1
    return result


def rec_mii(ddg: Ddg) -> int:
    """Recurrence-constrained minimum initiation interval.

    Binary search for the smallest II with no positive-weight cycle.
    The upper bracket is the sum of all latencies, which trivially
    satisfies every recurrence. Memoized per graph version.
    """
    if len(ddg) == 0:
        return 1
    return _memoized(ddg, ("rec_mii",), lambda: _rec_mii_uncached(ddg))


def _probe_positive(memo: _AnalysisMemo, csr, ii: int) -> bool:
    key = ("poscycle", ii)
    cached = memo.entries.get(key)
    if cached is None:
        cached = csr_mod.has_positive_cycle(csr, ii)
        memo.entries[key] = cached
        memo.stats.prefills += 1
    return cached


def _rec_mii_uncached(ddg: Ddg) -> int:
    csr = csr_mod.csr_view(ddg)
    high = max(1, sum(node.latency for node in ddg.nodes()))
    if csr_mod.has_positive_cycle(csr, high):  # pragma: no cover - defensive
        raise DdgError("graph has a zero-distance cycle; not a valid loop DDG")
    low = 1
    memo = _memo_for(ddg)
    while low < high:
        mid = (low + high) // 2
        if _probe_positive(memo, csr, mid):
            low = mid + 1
        else:
            high = mid
    return low


def mii(ddg: Ddg, machine: MachineConfig) -> int:
    """The paper's MII = max(ResMII, RecMII)."""
    return max(res_mii(ddg, machine), rec_mii(ddg))


def tarjan_scc(nodes, successors) -> list[set[int]]:
    """Generic iterative Tarjan SCC.

    Args:
        nodes: iterable of hashable node ids.
        successors: callable mapping a node id to its successor ids.

    Returns components as sets; singletons without self loops are
    trivial components (no recurrence).
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[set[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def strongly_connected_components(ddg: Ddg) -> list[set[int]]:
    """Tarjan SCCs of a DDG; see :func:`tarjan_scc`."""
    return tarjan_scc(
        list(ddg.node_ids()), lambda u: [e.dst for e in ddg.out_edges(u)]
    )


def recurrence_components(ddg: Ddg) -> list[set[int]]:
    """SCCs that actually contain a cycle (size > 1 or a self loop)."""
    result = []
    for component in strongly_connected_components(ddg):
        if len(component) > 1:
            result.append(component)
            continue
        (only,) = component
        if any(e.dst == only for e in ddg.out_edges(only)):
            result.append(component)
    return result


@dataclasses.dataclass
class LoopAnalysis:
    """ASAP/ALAP schedule-time bounds of a DDG at a candidate II.

    Attributes:
        ii: the candidate initiation interval the times were computed at.
        asap: earliest feasible start cycle of each node.
        alap: latest start cycle keeping the critical-path length.
        length: critical-path length (one-iteration schedule estimate).
    """

    ii: int
    asap: dict[int, int]
    alap: dict[int, int]
    length: int

    def slack(self, uid: int) -> int:
        """Scheduling freedom of a node (0 on the critical path)."""
        return self.alap[uid] - self.asap[uid]

    def edge_slack(self, edge: Edge, src_latency: int) -> int:
        """Cycles the edge can stretch without growing the schedule.

        At distance ``d`` the consumer of iteration ``i`` reads a value
        produced ``d`` iterations earlier, gaining ``d * II`` cycles.
        """
        return (
            self.alap[edge.dst]
            - self.asap[edge.src]
            - src_latency
            + edge.distance * self.ii
        )


def analyze(ddg: Ddg, ii: int, max_rounds: int | None = None) -> LoopAnalysis:
    """Compute ASAP/ALAP times at a candidate II.

    Uses iterative longest-path relaxation over the CSR view; converges
    whenever ``ii >= rec_mii(ddg)`` (no positive cycles). Raises
    :class:`~repro.ddg.graph.DdgError` when asked to analyze an II below
    the recurrence bound (the relaxation would diverge).

    Results are memoized per (graph version, II, round budget): callers
    share the returned :class:`LoopAnalysis` and must not mutate it.
    """
    if len(ddg) == 0:
        return LoopAnalysis(ii=ii, asap={}, alap={}, length=0)
    return _memoized(
        ddg, ("analyze", ii, max_rounds), lambda: _analyze_uncached(ddg, ii, max_rounds)
    )


def _analyze_uncached(ddg: Ddg, ii: int, max_rounds: int | None) -> LoopAnalysis:
    csr = csr_mod.csr_view(ddg)
    memo = _memo_for(ddg)
    if memo.entries.get(("poscycle", ii)):
        # A known positive cycle at this II: the relaxation cannot
        # converge under any round budget, so fail without walking.
        raise DdgError(f"ASAP relaxation diverged: II={ii} below RecMII?")
    rounds = max_rounds if max_rounds is not None else len(ddg) + 1
    weights = csr_mod.edge_weights_at(csr, ii)
    asap = csr_mod.relax_asap(csr, weights, rounds)
    if asap is None:
        if max_rounds is None:
            # Full-budget divergence is exactly the positive-cycle
            # verdict; remember it for future escalation probes.
            memo.entries[("poscycle", ii)] = True
            memo.stats.prefills += 1
        raise DdgError(f"ASAP relaxation diverged: II={ii} below RecMII?")

    length = max(begin + lat for begin, lat in zip(asap, csr.latency))

    alap_start = [length - lat for lat in csr.latency]
    alap = csr_mod.relax_alap(csr, weights, alap_start, rounds)
    if alap is None:  # pragma: no cover - symmetric to the ASAP divergence
        raise DdgError(f"ALAP relaxation diverged: II={ii} below RecMII?")

    return LoopAnalysis(
        ii=ii,
        asap=dict(zip(csr.uids, asap)),
        alap=dict(zip(csr.uids, alap)),
        length=length,
    )
