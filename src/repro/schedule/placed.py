"""The placed graph: operation instances bound to clusters.

After partitioning and (optionally) replication, the loop body is a set
of *instances*: original operations sitting in their partition cluster,
replicas of operations in other clusters, and one COPY instance per
surviving communication. The modulo scheduler consumes this graph and is
thereby completely ignorant of how replication decisions were made.

Operand resolution rule (section 3.1): an instance consuming a value
prefers a producer instance in its own cluster; otherwise it reads the
broadcast of that value from the producer's COPY instance, which must
exist. Memory-order dependences are wired between every pair of
instances of their endpoints — the cache is shared, so ordering applies
whatever the clusters.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from typing import NamedTuple

from repro.core.plan import ReplicationPlan
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.config import MachineConfig
from repro.machine.resources import FU_KINDS, FuKind, OpClass
from repro.partition.partition import Partition


class PlacementError(ValueError):
    """Raised when a plan leaves a consumer without a reachable producer."""


class Role(enum.Enum):
    """What kind of instance an operation slot is."""

    ORIGINAL = "original"
    REPLICA = "replica"
    COPY = "copy"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Role.{self.name}"


class Instance(NamedTuple):
    """One operation slot in the placed loop body.

    A tuple record: immutable, equal and hashed by value, and cheap to
    build, since every schedule attempt and every store read builds one
    per operation slot.

    Attributes:
        iid: unique instance id.
        origin: uid of the DDG node this instance computes (COPY
            instances carry the uid of the value they transport).
        cluster: cluster executing the instance (for COPY, the cluster
            of the value's producer — the bus is driven from there).
        op_class: operation class; fixes FU kind and latency.
        role: ORIGINAL / REPLICA / COPY.
        name: readable label for traces and tests.
    """

    iid: int
    origin: int
    cluster: int
    op_class: OpClass
    role: Role
    name: str

    @property
    def is_copy(self) -> bool:
        """True for bus communication instances."""
        return self.role is Role.COPY

    @property
    def fu_kind(self) -> FuKind:
        """Functional-unit kind (raises KeyError for COPY instances)."""
        return FU_KINDS[self.op_class]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance({self.name}@c{self.cluster})"


class PlacedEdge(NamedTuple):
    """A dependence between instances, with iteration distance."""

    src: int
    dst: int
    distance: int
    kind: EdgeKind = EdgeKind.REGISTER


class PlacedGraph:
    """Instances plus dependences; the modulo scheduler's input."""

    def __init__(self, name: str, n_clusters: int) -> None:
        self.name = name
        self.n_clusters = n_clusters
        self._instances: dict[int, Instance] = {}
        self._succ: dict[int, list[PlacedEdge]] = {}
        self._pred: dict[int, list[PlacedEdge]] = {}
        self._next_iid = 0

    def add_instance(
        self, origin: int, cluster: int, op_class: OpClass, role: Role, name: str
    ) -> Instance:
        """Create an instance; returns it."""
        iid = self._next_iid
        inst = Instance(iid, origin, cluster, op_class, role, name)
        self._instances[iid] = inst
        self._succ[iid] = []
        self._pred[iid] = []
        self._next_iid = iid + 1
        return inst

    def add_edge(
        self,
        src: Instance,
        dst: Instance,
        distance: int,
        kind: EdgeKind = EdgeKind.REGISTER,
    ) -> None:
        """Wire a dependence between two instances."""
        edge = PlacedEdge(src.iid, dst.iid, distance, kind)
        self._succ[edge.src].append(edge)
        self._pred[edge.dst].append(edge)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instances)

    def instances(self) -> Iterator[Instance]:
        """All instances in creation order."""
        return iter(self._instances.values())

    def instance(self, iid: int) -> Instance:
        """Instance by id."""
        return self._instances[iid]

    def out_edges(self, iid: int) -> list[PlacedEdge]:
        """Dependences leaving an instance."""
        return self._succ[iid]

    def in_edges(self, iid: int) -> list[PlacedEdge]:
        """Dependences entering an instance."""
        return self._pred[iid]

    def copies(self) -> list[Instance]:
        """All COPY instances (bus communications)."""
        return [inst for inst in self._instances.values() if inst.is_copy]

    def n_comms(self) -> int:
        """Number of bus communications in the placed loop."""
        return len(self.copies())

    def latency_of(self, inst: Instance, machine: MachineConfig) -> int:
        """Latency of an instance on ``machine``."""
        return machine.latency_of(inst.op_class)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlacedGraph({self.name!r}, instances={len(self)}, "
            f"copies={self.n_comms()})"
        )


def build_placed_graph(
    ddg: Ddg,
    partition: Partition,
    machine: MachineConfig,
    plan: ReplicationPlan | None = None,
) -> PlacedGraph:
    """Materialize a partition plus a replication plan into instances.

    Pure function of its inputs; raises :class:`PlacementError` when the
    plan is inconsistent (a consumer instance can neither find a local
    producer nor a broadcast copy).
    """
    plan = plan if plan is not None else ReplicationPlan()
    graph = PlacedGraph(name=ddg.name, n_clusters=machine.n_clusters)
    add_instance, add_edge = graph.add_instance, graph.add_edge
    cluster_of = partition.cluster_of

    # Instance tables: per original uid, the instance in each cluster.
    local: dict[int, dict[int, Instance]] = {}
    for node in ddg.nodes():
        uid = node.uid
        home = cluster_of(uid)
        here = local[uid] = {}
        if uid not in plan.removed:
            here[home] = add_instance(
                uid, home, node.op_class, Role.ORIGINAL, node.name
            )
        replicas = plan.replicas.get(uid)
        if not replicas:
            continue
        for cluster in sorted(replicas):
            if cluster in here:
                raise PlacementError(
                    f"replica of {node.name} duplicates an instance in "
                    f"cluster {cluster}"
                )
            here[cluster] = add_instance(
                uid, cluster, node.op_class, Role.REPLICA, f"{node.name}'"
            )

    # Surviving communications: a value still crosses clusters when some
    # consumer instance has no local instance of the producer.
    copies: dict[int, Instance] = {}
    for uid, producers in local.items():
        if not producers or uid in plan.removed_comms:
            continue
        for edge in ddg.out_edges(uid):
            if (
                edge.kind is EdgeKind.REGISTER
                and not local[edge.dst].keys() <= producers.keys()
            ):
                break
        else:
            continue  # every consumer instance has a local producer
        home = cluster_of(uid)
        if home not in producers:
            raise PlacementError(
                f"value {ddg.node(uid).name} must be broadcast but its "
                "home instance was removed"
            )
        copy = add_instance(
            uid, home, OpClass.COPY, Role.COPY, f"copy({ddg.node(uid).name})"
        )
        add_edge(producers[home], copy, 0)
        copies[uid] = copy

    # Wire register dependences via the operand resolution rule, then
    # memory-order dependences, which bind every instance pair of their
    # endpoints (one walk of the DDG's edges; the wiring order is the
    # register edges', then the memory edges').
    memory = []
    for edge in ddg.edges():
        if edge.kind is not EdgeKind.REGISTER:
            memory.append(edge)
            continue
        producers = local[edge.src]
        for cluster, consumer_inst in local[edge.dst].items():
            producer_inst = producers.get(cluster)
            if producer_inst is not None:
                add_edge(producer_inst, consumer_inst, edge.distance)
            elif edge.src in copies:
                add_edge(copies[edge.src], consumer_inst, edge.distance)
            else:
                raise PlacementError(
                    f"instance {consumer_inst.name} in cluster {cluster} "
                    f"cannot reach value {ddg.node(edge.src).name}"
                )
    for edge in memory:
        for src_inst in local[edge.src].values():
            for dst_inst in local[edge.dst].values():
                add_edge(src_inst, dst_inst, edge.distance, EdgeKind.MEMORY)

    return graph
