"""Machine configurations and the ``wcxbylzr`` naming scheme.

The paper labels cluster configurations as ``wcxbylzr`` where

* ``w`` — number of clusters,
* ``x`` — number of inter-cluster buses,
* ``y`` — latency of those buses (cycles),
* ``z`` — number of registers per cluster's register file.

For example ``4c2b4l64r`` is a 4-cluster machine with 2 buses of latency
4 and 64 registers per cluster.

The baseline unclustered ("unified") machine of Figure 8 has the same
total resources in a single cluster and no buses.
"""

from __future__ import annotations

import dataclasses
import re

from repro.machine.resources import FuKind, LATENCIES, OpClass

#: Total functional units of each kind in the 12-issue machine (section 4).
TOTAL_FUS: dict[FuKind, int] = {FuKind.INT: 4, FuKind.FP: 4, FuKind.MEM: 4}

#: Total register budget split among clusters in Figure 8's unified bar.
_DEFAULT_TOTAL_REGISTERS = 256

#: The six clustered configurations evaluated in Figure 7.
PAPER_CONFIG_NAMES: tuple[str, ...] = (
    "2c1b2l64r",
    "2c2b4l64r",
    "4c1b2l64r",
    "4c2b4l64r",
    "4c2b2l64r",
    "4c4b4l64r",
)

_CONFIG_RE = re.compile(r"^(\d+)c(\d+)b(\d+)l(?:(\d+)r)?$")


class ConfigError(ValueError):
    """Raised for malformed or infeasible machine configurations."""


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Resources of a single cluster.

    Attributes:
        fu_counts: number of functional units of each kind.
        registers: register-file size of this cluster.
    """

    fu_counts: dict[FuKind, int]
    registers: int

    def __post_init__(self) -> None:
        if self.registers <= 0:
            raise ConfigError(f"cluster needs registers > 0, got {self.registers}")
        for kind, count in self.fu_counts.items():
            if count <= 0:
                raise ConfigError(f"cluster needs at least one {kind.value} unit")

    @property
    def issue_width(self) -> int:
        """Operations this cluster can issue per cycle."""
        return sum(self.fu_counts.values())


@dataclasses.dataclass(frozen=True)
class BusConfig:
    """The inter-cluster register-bus fabric.

    ``count`` buses, each taking ``latency`` cycles per transfer and
    being busy for the whole transfer, so a machine can start at most
    ``count`` communications per cycle and sustain
    ``count * II // latency`` per II window (section 3's ``bus_coms``).
    """

    count: int
    latency: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigError(f"bus count must be >= 0, got {self.count}")
        if self.count > 0 and self.latency <= 0:
            raise ConfigError(f"bus latency must be > 0, got {self.latency}")

    def capacity(self, ii: int) -> int:
        """Maximum communications schedulable in one II window.

        This is the paper's ``bus_coms = II / bus_lat * nof_buses``
        (integer division: a transfer occupies its bus for ``latency``
        of the II's modulo slots).
        """
        if self.count == 0:
            return 0
        return (ii // self.latency) * self.count


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """A complete clustered VLIW machine.

    Attributes:
        name: canonical ``wcxbylzr`` name (or ``"unified"``).
        clusters: per-cluster resources; all clusters are homogeneous in
            this work, so the list holds identical configs.
        bus: the inter-cluster bus fabric.
    """

    name: str
    clusters: tuple[ClusterConfig, ...]
    bus: BusConfig

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ConfigError("a machine needs at least one cluster")
        if self.n_clusters > 1 and self.bus.count == 0:
            raise ConfigError("a clustered machine needs at least one bus")

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def is_clustered(self) -> bool:
        """True when there is more than one cluster."""
        return self.n_clusters > 1

    @property
    def issue_width(self) -> int:
        """Total operations the machine can issue per cycle."""
        return sum(c.issue_width for c in self.clusters)

    def fu_count(self, cluster: int, kind: FuKind) -> int:
        """Units of ``kind`` in cluster ``cluster``."""
        return self.clusters[cluster].fu_counts[kind]

    def total_fu_count(self, kind: FuKind) -> int:
        """Units of ``kind`` across all clusters."""
        return sum(c.fu_counts[kind] for c in self.clusters)

    def registers(self, cluster: int) -> int:
        """Register-file size of cluster ``cluster``."""
        return self.clusters[cluster].registers

    def latency_of(self, op_class: OpClass) -> int:
        """Latency of ``op_class`` on this machine (COPY = bus latency)."""
        if op_class is OpClass.COPY:
            return self.bus.latency
        return LATENCIES[op_class]

    def cluster_ids(self) -> range:
        """Iterable of cluster indices."""
        return range(self.n_clusters)


def parse_config(name: str, fus_per_kind_total: dict[FuKind, int] | None = None) -> MachineConfig:
    """Build a :class:`MachineConfig` from a ``wcxbylzr`` name.

    The total FU budget (4 INT + 4 FP + 4 MEM by default, section 4) is
    split evenly among the ``w`` clusters; the name is rejected when the
    split is not exact. The register field ``zr`` is optional because the
    paper sometimes omits it (e.g. Figure 10 uses ``4c1b2l``); it
    defaults to 64 registers per cluster.

    >>> m = parse_config("4c2b4l64r")
    >>> m.n_clusters, m.bus.count, m.bus.latency, m.registers(0)
    (4, 2, 4, 64)
    """
    match = _CONFIG_RE.match(name.strip().lower())
    if match is None:
        raise ConfigError(
            f"bad machine name {name!r}; expected wcxbylzr, e.g. '4c2b4l64r'"
        )
    n_clusters = int(match.group(1))
    n_buses = int(match.group(2))
    bus_latency = int(match.group(3))
    registers = int(match.group(4)) if match.group(4) else 64

    totals = dict(TOTAL_FUS if fus_per_kind_total is None else fus_per_kind_total)
    if n_clusters <= 0:
        raise ConfigError("need at least one cluster")
    fu_counts: dict[FuKind, int] = {}
    for kind, total in totals.items():
        per_cluster, remainder = divmod(total, n_clusters)
        if remainder or per_cluster == 0:
            raise ConfigError(
                f"cannot split {total} {kind.value} units evenly over "
                f"{n_clusters} clusters"
            )
        fu_counts[kind] = per_cluster

    cluster = ClusterConfig(fu_counts=fu_counts, registers=registers)
    canonical = f"{n_clusters}c{n_buses}b{bus_latency}l{registers}r"
    return MachineConfig(
        name=canonical,
        clusters=tuple([cluster] * n_clusters),
        bus=BusConfig(count=n_buses, latency=bus_latency),
    )


def heterogeneous_machine(
    cluster_fus: list[dict[FuKind, int]],
    bus_count: int,
    bus_latency: int,
    registers: int | list[int] = 64,
    name: str = "heterogeneous",
) -> MachineConfig:
    """A clustered machine with per-cluster resource mixes.

    The paper assumes homogeneous clusters but notes the algorithms
    "can be easily extended to deal with heterogeneous clusters"; this
    reproduction supports them throughout (the partitioner, scheduler
    and replicator all consult per-cluster capacities).

    Args:
        cluster_fus: one FU-count dict per cluster; kinds missing from
            a dict get one unit (every cluster must be able to execute
            every kind in this ISA model).
        bus_count / bus_latency: the shared bus fabric.
        registers: register-file size, scalar or per cluster.
    """
    if not cluster_fus:
        raise ConfigError("need at least one cluster spec")
    if isinstance(registers, int):
        registers = [registers] * len(cluster_fus)
    if len(registers) != len(cluster_fus):
        raise ConfigError("registers list must match cluster count")
    clusters = []
    for fus, regs in zip(cluster_fus, registers):
        counts = {kind: fus.get(kind, 1) for kind in FuKind}
        clusters.append(ClusterConfig(fu_counts=counts, registers=regs))
    return MachineConfig(
        name=name,
        clusters=tuple(clusters),
        bus=BusConfig(count=bus_count, latency=bus_latency),
    )


def unified_machine(
    registers: int = _DEFAULT_TOTAL_REGISTERS,
    fus_per_kind_total: dict[FuKind, int] | None = None,
) -> MachineConfig:
    """The unclustered baseline of Figure 8.

    All functional units live in one cluster with the full register
    budget; there are no buses and therefore never any communications.
    """
    totals = dict(TOTAL_FUS if fus_per_kind_total is None else fus_per_kind_total)
    cluster = ClusterConfig(fu_counts=totals, registers=registers)
    return MachineConfig(
        name="unified",
        clusters=(cluster,),
        bus=BusConfig(count=0, latency=1),
    )
