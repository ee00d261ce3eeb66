"""Flattened CSR view of a DDG and the longest-path relaxation kernels.

The compiler's inner loops — ASAP/ALAP analysis, the RecMII positive
cycle test, the pseudo-schedule's penalized critical path — are all
Bellman-Ford style relaxations over the same edge set. Running them off
the :class:`~repro.ddg.graph.Ddg` adjacency dicts pays a dict lookup
and an attribute access per edge per round; this module flattens the
graph once into parallel arrays (sources, destinations, latencies,
distances, kinds, plus adjacency offsets) so every kernel is a tight
loop over preextracted ints.

Invariants the rest of the compiler relies on:

* **Edge order is preserved**: the flat arrays list edges in exactly
  ``ddg.edges()`` order, so a relaxation that does *not* converge
  within its round budget produces bit-identical partial results to
  the dict-based implementation it replaced (the pseudo-schedule
  depends on this for determinism below the recurrence bound).
* **Views are cached per graph** keyed on :attr:`Ddg.version`, so
  mutating a graph invalidates its view; the cache is weak, so views
  die with their graphs.

Every relaxation kernel call adds one to the ``kernels.python_calls``
counter of the current registry
(:func:`~repro.obs.metrics.current_registry`), so a compile's count
covers exactly the kernels it ran, ``mii()``'s RecMII bisection
included.
"""

from __future__ import annotations

import dataclasses
import operator
import weakref

from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.resources import FuKind
from repro.obs.metrics import current_registry

#: FuKind members in a stable order; ``CsrView.fu_ord`` indexes this.
FU_KINDS: tuple[FuKind, ...] = tuple(FuKind)

_FU_ORD = {kind: index for index, kind in enumerate(FU_KINDS)}


@dataclasses.dataclass(frozen=True)
class CsrView:
    """Immutable flattened form of one :class:`Ddg`.

    Node arrays are indexed by *position* (0..n-1, ascending uid);
    ``uids``/``index`` translate to and from graph uids. Edge arrays
    are parallel and keep ``ddg.edges()`` order; ``reg_out``/``reg_in``
    are CSR adjacency lists of REGISTER-edge neighbours only (the ones
    partitioning cares about), as node positions.
    """

    uids: tuple[int, ...]
    index: dict[int, int]
    latency: tuple[int, ...]
    is_store: tuple[bool, ...]
    fu_ord: tuple[int, ...]
    edge_src: tuple[int, ...]
    edge_dst: tuple[int, ...]
    edge_latency: tuple[int, ...]
    edge_distance: tuple[int, ...]
    edge_is_register: tuple[bool, ...]
    reg_out_offsets: tuple[int, ...]
    reg_out: tuple[int, ...]
    reg_in_offsets: tuple[int, ...]
    reg_in: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the view."""
        return len(self.uids)

    @property
    def n_edges(self) -> int:
        """Number of edges in the view."""
        return len(self.edge_src)

    def reg_out_neighbours(self, position: int) -> tuple[int, ...]:
        """Positions of register consumers of the node at ``position``."""
        lo, hi = self.reg_out_offsets[position], self.reg_out_offsets[position + 1]
        return self.reg_out[lo:hi]

    def reg_in_neighbours(self, position: int) -> tuple[int, ...]:
        """Positions of register producers feeding ``position``."""
        lo, hi = self.reg_in_offsets[position], self.reg_in_offsets[position + 1]
        return self.reg_in[lo:hi]


def _build(ddg: Ddg) -> CsrView:
    uids = tuple(ddg.node_ids())
    index = {uid: position for position, uid in enumerate(uids)}
    latency = tuple(ddg.node(uid).latency for uid in uids)
    is_store = tuple(ddg.node(uid).is_store for uid in uids)
    fu_ord = tuple(_FU_ORD[ddg.node(uid).fu_kind] for uid in uids)

    edge_src: list[int] = []
    edge_dst: list[int] = []
    edge_latency: list[int] = []
    edge_distance: list[int] = []
    edge_is_register: list[bool] = []
    reg_out_lists: list[list[int]] = [[] for _ in uids]
    reg_in_lists: list[list[int]] = [[] for _ in uids]
    for edge in ddg.edges():
        src, dst = index[edge.src], index[edge.dst]
        edge_src.append(src)
        edge_dst.append(dst)
        edge_latency.append(latency[src])
        edge_distance.append(edge.distance)
        register = edge.kind is EdgeKind.REGISTER
        edge_is_register.append(register)
        if register:
            reg_out_lists[src].append(dst)
            reg_in_lists[dst].append(src)

    def pack(lists: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        offsets = [0]
        flat: list[int] = []
        for entries in lists:
            flat.extend(entries)
            offsets.append(len(flat))
        return tuple(offsets), tuple(flat)

    reg_out_offsets, reg_out = pack(reg_out_lists)
    reg_in_offsets, reg_in = pack(reg_in_lists)
    return CsrView(
        uids=uids,
        index=index,
        latency=latency,
        is_store=is_store,
        fu_ord=fu_ord,
        edge_src=tuple(edge_src),
        edge_dst=tuple(edge_dst),
        edge_latency=tuple(edge_latency),
        edge_distance=tuple(edge_distance),
        edge_is_register=tuple(edge_is_register),
        reg_out_offsets=reg_out_offsets,
        reg_out=reg_out,
        reg_in_offsets=reg_in_offsets,
        reg_in=reg_in,
    )


_CACHE: "weakref.WeakKeyDictionary[Ddg, tuple[int, CsrView]]" = (
    weakref.WeakKeyDictionary()
)


def csr_view(ddg: Ddg) -> CsrView:
    """The (cached) CSR view of a graph, rebuilt after any mutation."""
    cached = _CACHE.get(ddg)
    if cached is not None and cached[0] == ddg.version:
        return cached[1]
    view = _build(ddg)
    _CACHE[ddg] = (ddg.version, view)
    return view


def _count_call() -> None:
    """Count one relaxation-kernel call against the running compile."""
    current_registry().counter("kernels.python_calls").inc()


def _view_cache(csr: CsrView) -> dict:
    """Per-view scratch cache (weights per II; dies with the view)."""
    cache = getattr(csr, "_kernel_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(csr, "_kernel_cache", cache)
    return cache


# ----------------------------------------------------------------------
# Relaxation kernels
# ----------------------------------------------------------------------


def edge_weights_at(csr: CsrView, ii: int) -> list[int]:
    """Per-edge longest-path weight ``latency(src) - II * distance``.

    The list is cached on the view per II and shared between callers —
    treat it as immutable.
    """
    cache = _view_cache(csr)
    weights = cache.get(ii)
    if weights is None:
        weights = [
            latency - ii * distance
            for latency, distance in zip(csr.edge_latency, csr.edge_distance)
        ]
        cache[ii] = weights
    return weights


def has_positive_cycle(csr: CsrView, ii: int) -> bool:
    """Bellman-Ford positive-cycle test at a candidate II.

    If longest-path distances keep improving after ``n`` rounds, some
    dependence cycle has positive weight and the II violates a
    recurrence.
    """
    _count_call()
    n = csr.n_nodes
    if n == 0:
        return False
    dist = [0] * n
    weights = edge_weights_at(csr, ii)
    srcs, dsts = csr.edge_src, csr.edge_dst
    for _ in range(n):
        changed = False
        for src, dst, weight in zip(srcs, dsts, weights):
            bound = dist[src] + weight
            if bound > dist[dst]:
                dist[dst] = bound
                changed = True
        if not changed:
            return False
    return True


def relax_asap(
    csr: CsrView, weights: list[int], rounds: int
) -> list[int] | None:
    """Forward longest-path fixpoint, or None on divergence."""
    _count_call()
    dist = [0] * csr.n_nodes
    srcs, dsts = csr.edge_src, csr.edge_dst
    for _ in range(rounds):
        changed = False
        for src, dst, weight in zip(srcs, dsts, weights):
            bound = dist[src] + weight
            if bound > dist[dst]:
                dist[dst] = bound
                changed = True
        if not changed:
            return dist
    return None


def relax_alap(
    csr: CsrView, weights: list[int], start: list[int], rounds: int
) -> list[int] | None:
    """Backward longest-path fixpoint from ``start``, or None."""
    _count_call()
    dist = list(start)
    srcs, dsts = csr.edge_src, csr.edge_dst
    for _ in range(rounds):
        changed = False
        for src, dst, weight in zip(srcs, dsts, weights):
            bound = dist[dst] - weight
            if bound < dist[src]:
                dist[src] = bound
                changed = True
        if not changed:
            return dist
    return None


def penalized_length(
    csr: CsrView,
    cluster: list[int],
    bus_latency: int,
    ii: int,
    rounds: int,
) -> int:
    """Critical path where cross-cluster register edges pay bus latency.

    ``cluster`` maps node positions to clusters. On non-convergence (II
    below the bus-augmented RecMII) the partial relaxation yields the
    same pessimistic-but-deterministic estimate as the historical
    dict-based implementation, because edges relax in identical order.
    """
    _count_call()
    n = csr.n_nodes
    if n == 0:
        return 0
    base = edge_weights_at(csr, ii)
    if bus_latency:
        weights = base.copy()
        for edge, src, dst in _register_edge_triples(csr):
            if cluster[src] != cluster[dst]:
                weights[edge] += bus_latency
    else:
        weights = base  # shared cache entry; the relax loop never mutates it
    return _relax_length(csr, weights, rounds)


def _register_edge_triples(csr: CsrView) -> list[tuple[int, int, int]]:
    """(edge index, src, dst) for register edges, cached per view.

    Only register edges can take the bus penalty, so the penalized
    kernel's prologue loops over these instead of testing every edge.
    """
    cache = _view_cache(csr)
    triples = cache.get("reg_edges")
    if triples is None:
        triples = [
            (edge, csr.edge_src[edge], csr.edge_dst[edge])
            for edge in range(csr.n_edges)
            if csr.edge_is_register[edge]
        ]
        cache["reg_edges"] = triples
    return triples


def _relax_length(csr: CsrView, weights: list[int], rounds: int) -> int:
    """Sequential longest path over caller-built weights, as a length."""
    start = [0] * csr.n_nodes
    srcs, dsts = csr.edge_src, csr.edge_dst
    for _ in range(rounds):
        changed = False
        for src, dst, weight in zip(srcs, dsts, weights):
            bound = start[src] + weight
            if bound > start[dst]:
                start[dst] = bound
                changed = True
        if not changed:
            break
    return max(map(operator.add, start, csr.latency))


def replicated_edge_weights(
    csr: CsrView,
    cluster: list[int],
    extra: "tuple[frozenset[int], ...] | list[set[int]]",
    bus_latency: int,
    ii: int,
) -> list[int]:
    """Per-edge weights where a replicated producer forgives the bus.

    A register edge (u, v) pays the bus penalty only when the consumer's
    home cluster holds no instance of the producer — neither u's home
    nor any cluster in ``extra[u]``. With every ``extra`` set empty this
    is exactly the :func:`penalized_length` weight rule.
    """
    base = edge_weights_at(csr, ii)
    if not bus_latency:
        return base  # shared cache entry; callers must not mutate it
    weights = base.copy()
    for edge, src, dst in _register_edge_triples(csr):
        dst_cluster = cluster[dst]
        if dst_cluster != cluster[src] and dst_cluster not in extra[src]:
            weights[edge] += bus_latency
    return weights


def penalized_length_replicated(
    csr: CsrView,
    cluster: list[int],
    extra: "tuple[frozenset[int], ...] | list[set[int]]",
    bus_latency: int,
    ii: int,
    rounds: int,
) -> int:
    """Replica-aware bus-penalized critical path.

    Like :func:`penalized_length`, but a cross-cluster register edge is
    free when the producer has an instance (original or replica) in the
    consumer's home cluster. Determinism mirrors the plain kernel: the
    relaxation visits edges in ``ddg.edges()`` order.
    """
    if csr.n_nodes == 0:
        return 0
    _count_call()
    weights = replicated_edge_weights(csr, cluster, extra, bus_latency, ii)
    return _relax_length(csr, weights, rounds)


# ----------------------------------------------------------------------
# Replica-aware views
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReplicaView:
    """Replica-aware overlay on a :class:`CsrView`.

    A replica of a node *aliases its original's edges until placement
    materializes it*: the overlay never clones nodes into the
    :class:`~repro.ddg.graph.Ddg` (so ``Ddg.version`` stays put and
    every per-version kernel memo survives), and instead answers the
    partition-level questions — per-cluster loads, communications, the
    penalized critical path — as if an extra instance of each node
    existed in every cluster of its ``extra`` set.

    ``extra`` is indexed by node *position* and never contains a node's
    home cluster (homes live in the assignment the caller passes per
    query, because refinement mutates it constantly).
    """

    base: CsrView
    extra: tuple[frozenset[int], ...]

    @classmethod
    def from_replicas(
        cls, csr: CsrView, replicas: "dict[int, frozenset[int]]"
    ) -> "ReplicaView":
        """Build a view from a uid-keyed replica-cluster mapping."""
        extra = [frozenset()] * csr.n_nodes
        for uid, clusters in replicas.items():
            extra[csr.index[uid]] = frozenset(clusters)
        return cls(base=csr, extra=tuple(extra))

    def load_table(self, cluster: list[int], n_clusters: int) -> list[list[int]]:
        """Per-cluster instance counts by FU ordinal, replicas included."""
        csr = self.base
        table = [[0] * len(FU_KINDS) for _ in range(n_clusters)]
        for position in range(csr.n_nodes):
            kind = csr.fu_ord[position]
            table[cluster[position]][kind] += 1
            for extra_cluster in self.extra[position]:
                table[extra_cluster][kind] += 1
        return table

    def min_resource_ii(self, cluster: list[int], units: list[list[int]]) -> int:
        """Smallest II at which every cluster's instance load fits."""
        ii = 1
        for cluster_loads, cluster_units in zip(
            self.load_table(cluster, len(units)), units
        ):
            for count, unit_count in zip(cluster_loads, cluster_units):
                if count:
                    bound = -(-count // unit_count)
                    if bound > ii:
                        ii = bound
        return ii

    def nof_coms(self, cluster: list[int]) -> int:
        """Values still crossing clusters, replicas considered.

        A producer communicates when some *consumer instance* sits in a
        cluster holding no instance of the producer — exactly the rule
        :func:`repro.schedule.placed.build_placed_graph` uses to decide
        which values need a bus COPY.
        """
        csr = self.base
        extra = self.extra
        count = 0
        for position in range(csr.n_nodes):
            present = extra[position]
            home = cluster[position]
            for consumer in csr.reg_out_neighbours(position):
                consumer_cluster = cluster[consumer]
                if (
                    consumer_cluster != home
                    and consumer_cluster not in present
                ) or any(
                    c != home and c not in present for c in extra[consumer]
                ):
                    count += 1
                    break
        return count

    def penalized_length(
        self, cluster: list[int], bus_latency: int, ii: int, rounds: int
    ) -> int:
        """Replica-aware critical path at a candidate II."""
        return penalized_length_replicated(
            self.base, cluster, self.extra, bus_latency, ii, rounds
        )
