"""The output of the replication algorithm.

A :class:`ReplicationPlan` records, relative to a (DDG, partition) pair:

* which original nodes gained replicas and in which clusters,
* which original instructions became useless and were removed
  (section 3.2),
* which communications were eliminated,

plus bookkeeping counters used by the Figure 10 / section 4 statistics.
The plan is a frozen value object; the mutable working state lives in
:mod:`repro.core.state`.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ReplicationPlan:
    """Replication decisions for one loop at one II.

    Attributes:
        replicas: original uid -> clusters where a replica was created;
            never the node's home cluster (a removed original needed
            there again is revived, dropping it from ``removed``).
        removed: original uids whose home-cluster instance was removed.
        removed_comms: producer uids whose communication was eliminated.
        initial_coms: communications implied by the partition before
            replication.
        feasible: False when the required number of communications could
            not be removed within resource limits (the caller must then
            raise the II, per Figure 2).
    """

    replicas: dict[int, frozenset[int]] = dataclasses.field(default_factory=dict)
    removed: frozenset[int] = frozenset()
    removed_comms: frozenset[int] = frozenset()
    initial_coms: int = 0
    feasible: bool = True

    @property
    def n_replicated_instructions(self) -> int:
        """Total replica instances created."""
        return sum(len(clusters) for clusters in self.replicas.values())

    @property
    def n_removed_comms(self) -> int:
        """Communications eliminated by the plan."""
        return len(self.removed_comms)

    @property
    def net_added_instructions(self) -> int:
        """Replica instances minus removed originals."""
        return self.n_replicated_instructions - len(self.removed)

    @property
    def is_empty(self) -> bool:
        """True when the plan changes nothing."""
        return not self.replicas and not self.removed and not self.removed_comms


#: A plan that leaves the partition untouched (the baseline scheduler).
EMPTY_PLAN = ReplicationPlan()
