"""The data dependence graph and its nodes and edges.

Design notes
------------

* Nodes carry an abstract :class:`~repro.machine.resources.OpClass`; the
  latency and the functional-unit kind follow from it.
* Edges are typed: ``REGISTER`` edges move a value through a register
  and therefore require either co-location, a bus communication, or
  instruction replication when producer and consumer land in different
  clusters. ``MEMORY`` edges order memory operations through the shared
  cache and never cost a communication.
* The graph is a multigraph in principle, but a (src, dst, kind)
  triple is kept unique with the minimum distance — the tightest
  constraint subsumes looser ones for scheduling purposes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Iterator

from repro.machine.resources import FuKind, LATENCIES, OpClass, fu_kind_of


class DdgError(ValueError):
    """Raised on malformed graphs or invalid graph operations."""


class EdgeKind(enum.Enum):
    """Dependence kinds (see module docstring)."""

    REGISTER = "register"
    MEMORY = "memory"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeKind.{self.name}"


@dataclasses.dataclass(frozen=True)
class Node:
    """An operation in the loop body.

    Attributes:
        uid: unique integer id within its graph.
        name: human-readable label (e.g. ``"A"`` in the paper's figures).
        op_class: abstract operation class fixing latency and FU kind.
    """

    uid: int
    name: str
    op_class: OpClass

    # cached_property writes through the instance __dict__, which is
    # legal on a frozen dataclass and turns the per-access enum-table
    # lookups into attribute reads on the replication/partition hot
    # paths (hundreds of thousands of fu_kind asks per compilation).
    @functools.cached_property
    def latency(self) -> int:
        """Latency in cycles (Table 1)."""
        return LATENCIES[self.op_class]

    @functools.cached_property
    def fu_kind(self) -> FuKind:
        """Functional-unit kind executing this operation."""
        return fu_kind_of(self.op_class)

    @property
    def is_store(self) -> bool:
        """Stores are never replicated (section 3.1)."""
        return self.op_class is OpClass.STORE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name}:{self.op_class.value})"


@dataclasses.dataclass(frozen=True)
class Edge:
    """A dependence from ``src`` to ``dst``.

    ``distance`` is the iteration distance: the value produced by ``src``
    in iteration ``i`` is consumed by ``dst`` in iteration
    ``i + distance``.
    """

    src: int
    dst: int
    distance: int = 0
    kind: EdgeKind = EdgeKind.REGISTER

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise DdgError(f"edge distance must be >= 0, got {self.distance}")

    @property
    def is_loop_carried(self) -> bool:
        """True for dependences that cross iterations."""
        return self.distance > 0


class Ddg:
    """A mutable data dependence graph for one loop body.

    The class offers the traversals the partitioning, scheduling and
    replication algorithms need: parents/children split by edge kind,
    and convenience counters per functional-unit kind.
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._succ: dict[int, dict[tuple[int, EdgeKind], Edge]] = {}
        self._pred: dict[int, dict[tuple[int, EdgeKind], Edge]] = {}
        self._next_uid = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural change.

        Derived views (:func:`repro.ddg.csr.csr_view`, the analysis
        memo) key their caches on this so a mutated graph can never
        serve stale results.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, op_class: OpClass) -> Node:
        """Create and insert a new operation; returns the node."""
        if op_class is OpClass.COPY:
            raise DdgError("COPY nodes are scheduler-internal, not DDG nodes")
        node = Node(uid=self._next_uid, name=name, op_class=op_class)
        self._nodes[node.uid] = node
        self._succ[node.uid] = {}
        self._pred[node.uid] = {}
        self._next_uid += 1
        self._version += 1
        return node

    def add_edge(
        self,
        src: Node | int,
        dst: Node | int,
        distance: int = 0,
        kind: EdgeKind = EdgeKind.REGISTER,
    ) -> Edge:
        """Insert a dependence; keeps the tightest (minimum) distance.

        Self edges are allowed only when loop-carried (a value feeding
        its own next iteration, e.g. an induction variable).
        """
        src_id = src.uid if isinstance(src, Node) else src
        dst_id = dst.uid if isinstance(dst, Node) else dst
        if src_id not in self._nodes or dst_id not in self._nodes:
            raise DdgError(f"edge endpoints must be graph nodes: {src_id}->{dst_id}")
        if src_id == dst_id and distance == 0:
            raise DdgError("intra-iteration self dependence is a contradiction")
        if kind is EdgeKind.REGISTER and self._nodes[src_id].op_class is OpClass.STORE:
            raise DdgError("stores produce no register value; use a MEMORY edge")
        key = (dst_id, kind)
        existing = self._succ[src_id].get(key)
        if existing is not None and existing.distance <= distance:
            return existing
        edge = Edge(src=src_id, dst=dst_id, distance=distance, kind=kind)
        self._succ[src_id][key] = edge
        self._pred[dst_id][(src_id, kind)] = edge
        self._version += 1
        return edge

    def remove_node(self, node: Node | int) -> None:
        """Remove a node and every incident edge."""
        uid = node.uid if isinstance(node, Node) else node
        if uid not in self._nodes:
            raise DdgError(f"no node with uid {uid}")
        for edge in list(self._succ[uid].values()):
            del self._pred[edge.dst][(uid, edge.kind)]
        for edge in list(self._pred[uid].values()):
            del self._succ[edge.src][(uid, edge.kind)]
        del self._succ[uid]
        del self._pred[uid]
        del self._nodes[uid]
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node | int) -> bool:
        uid = node.uid if isinstance(node, Node) else node
        return uid in self._nodes

    def node(self, uid: int) -> Node:
        """Node with the given uid."""
        return self._nodes[uid]

    def node_by_name(self, name: str) -> Node:
        """First node with the given label (labels need not be unique)."""
        for node in self._nodes.values():
            if node.name == name:
                return node
        raise DdgError(f"no node named {name!r}")

    def nodes(self) -> Iterator[Node]:
        """All nodes, in insertion order."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        """All node uids, in insertion order."""
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[Edge]:
        """All edges."""
        for adjacency in self._succ.values():
            yield from adjacency.values()

    def out_edges(self, node: Node | int) -> Iterator[Edge]:
        """Edges leaving ``node``."""
        uid = node.uid if isinstance(node, Node) else node
        return iter(self._succ[uid].values())

    def in_edges(self, node: Node | int) -> Iterator[Edge]:
        """Edges entering ``node``."""
        uid = node.uid if isinstance(node, Node) else node
        return iter(self._pred[uid].values())

    def children(self, node: Node | int, kind: EdgeKind | None = None) -> list[Node]:
        """Successor nodes, optionally filtered by edge kind."""
        return [
            self._nodes[e.dst]
            for e in self.out_edges(node)
            if kind is None or e.kind is kind
        ]

    def parents(self, node: Node | int, kind: EdgeKind | None = None) -> list[Node]:
        """Predecessor nodes, optionally filtered by edge kind."""
        return [
            self._nodes[e.src]
            for e in self.in_edges(node)
            if kind is None or e.kind is kind
        ]

    def n_edges(self) -> int:
        """Total number of edges."""
        return sum(len(adj) for adj in self._succ.values())

    def op_counts(self) -> dict[FuKind, int]:
        """Number of operations per functional-unit kind."""
        counts = {kind: 0 for kind in FuKind}
        for node in self._nodes.values():
            counts[node.fu_kind] += 1
        return counts

    def copy(self) -> "Ddg":
        """Deep-enough copy (nodes are immutable and shared)."""
        clone = Ddg(name=self.name)
        clone._nodes = dict(self._nodes)
        clone._succ = {uid: dict(adj) for uid, adj in self._succ.items()}
        clone._pred = {uid: dict(adj) for uid, adj in self._pred.items()}
        clone._next_uid = self._next_uid
        clone._version = self._version
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ddg({self.name!r}, nodes={len(self)}, edges={self.n_edges()})"
