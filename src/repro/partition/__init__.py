"""Multilevel DDG partitioning (section 2.3.1).

The partitioner assigns every DDG node to a cluster, trying to balance
the per-cluster functional-unit load while minimizing the number of
inter-cluster communications, with partition quality judged through a
fast *pseudo-schedule*.

Pipeline:

1. :mod:`repro.partition.weights` — weight each edge by the execution
   time impact of paying a bus latency on it.
2. :mod:`repro.partition.coarsen` — repeated maximum-weight matching
   collapses the graph to as many macro-nodes as clusters, inducing a
   preliminary partition (and a hierarchy reused by section 5.2).
3. :mod:`repro.partition.refine` — greedy node moves scored by the
   pseudo-schedule metric improve the preliminary partition, and are
   re-run each time the II is bumped (Figure 2's "Refine Partition").
"""

from repro.partition.partition import CommInfo, Partition, PartitionError
from repro.partition.weights import edge_weights
from repro.partition.coarsen import CoarseLevel, MacroNode, coarsen
from repro.partition.pseudo import PseudoSchedule, pseudo_schedule
from repro.partition.incremental import Move, MoveEvaluator
from repro.partition.refine import refine
from repro.partition.multilevel import MultilevelPartitioner, initial_partition

__all__ = [
    "CommInfo",
    "Partition",
    "PartitionError",
    "edge_weights",
    "CoarseLevel",
    "MacroNode",
    "coarsen",
    "PseudoSchedule",
    "pseudo_schedule",
    "Move",
    "MoveEvaluator",
    "refine",
    "MultilevelPartitioner",
    "initial_partition",
]
