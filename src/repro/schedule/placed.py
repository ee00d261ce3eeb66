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

import dataclasses
import enum
import functools
from collections.abc import Iterator

from repro.core.plan import ReplicationPlan
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.config import MachineConfig
from repro.machine.resources import FuKind, OpClass, fu_kind_of
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


@dataclasses.dataclass(frozen=True)
class Instance:
    """One operation slot in the placed loop body.

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

    @functools.cached_property
    def fu_kind(self) -> FuKind:
        """Functional-unit kind (raises KeyError for COPY instances)."""
        return fu_kind_of(self.op_class)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instance({self.name}@c{self.cluster})"


@dataclasses.dataclass(frozen=True)
class PlacedEdge:
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
        inst = Instance(
            iid=self._next_iid,
            origin=origin,
            cluster=cluster,
            op_class=op_class,
            role=role,
            name=name,
        )
        self._instances[inst.iid] = inst
        self._succ[inst.iid] = []
        self._pred[inst.iid] = []
        self._next_iid += 1
        return inst

    def add_edge(
        self,
        src: Instance,
        dst: Instance,
        distance: int,
        kind: EdgeKind = EdgeKind.REGISTER,
    ) -> None:
        """Wire a dependence between two instances."""
        edge = PlacedEdge(src=src.iid, dst=dst.iid, distance=distance, kind=kind)
        self._succ[src.iid].append(edge)
        self._pred[dst.iid].append(edge)

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

    # Instance tables: per original uid, the instance in each cluster.
    local: dict[int, dict[int, Instance]] = {uid: {} for uid in ddg.node_ids()}

    for node in ddg.nodes():
        home = partition.cluster_of(node.uid)
        if node.uid not in plan.removed:
            inst = graph.add_instance(
                node.uid, home, node.op_class, Role.ORIGINAL, node.name
            )
            local[node.uid][home] = inst
        for cluster in sorted(plan.replicas.get(node.uid, ())):
            if cluster in local[node.uid]:
                raise PlacementError(
                    f"replica of {node.name} duplicates an instance in "
                    f"cluster {cluster}"
                )
            inst = graph.add_instance(
                node.uid, cluster, node.op_class, Role.REPLICA, f"{node.name}'"
            )
            local[node.uid][cluster] = inst

    # Surviving communications: a value still crosses clusters when some
    # consumer instance has no local instance of the producer.
    copies: dict[int, Instance] = {}
    for uid in ddg.node_ids():
        if uid in plan.removed_comms:
            continue
        producers = local[uid]
        if not producers:
            continue
        needs_bus = False
        for edge in ddg.out_edges(uid):
            if edge.kind is not EdgeKind.REGISTER:
                continue
            for consumer_inst in local[edge.dst].values():
                if consumer_inst.cluster not in producers:
                    needs_bus = True
        if needs_bus:
            home = partition.cluster_of(uid)
            if home not in producers:
                raise PlacementError(
                    f"value {ddg.node(uid).name} must be broadcast but its "
                    "home instance was removed"
                )
            copy = graph.add_instance(
                uid, home, OpClass.COPY, Role.COPY, f"copy({ddg.node(uid).name})"
            )
            graph.add_edge(producers[home], copy, distance=0)
            copies[uid] = copy

    # Wire register dependences via the operand resolution rule.
    for edge in ddg.edges():
        if edge.kind is not EdgeKind.REGISTER:
            continue
        for consumer_inst in local[edge.dst].values():
            cluster = consumer_inst.cluster
            producer_inst = local[edge.src].get(cluster)
            if producer_inst is not None:
                graph.add_edge(producer_inst, consumer_inst, edge.distance)
            elif edge.src in copies:
                graph.add_edge(copies[edge.src], consumer_inst, edge.distance)
            else:
                raise PlacementError(
                    f"instance {consumer_inst.name} in cluster {cluster} "
                    f"cannot reach value {ddg.node(edge.src).name}"
                )

    # Memory-order dependences bind every instance pair of the endpoints.
    for edge in ddg.edges():
        if edge.kind is not EdgeKind.MEMORY:
            continue
        for src_inst in local[edge.src].values():
            for dst_inst in local[edge.dst].values():
                graph.add_edge(src_inst, dst_inst, edge.distance, EdgeKind.MEMORY)

    return graph
