"""Data dependence graph (DDG) substrate.

A DDG represents the body of an innermost loop. Nodes are operations
(:class:`~repro.ddg.graph.Node`); edges are data dependences with an
*iteration distance* (0 for intra-iteration dependences, >= 1 for
loop-carried ones). Memory dependences through the centralized cache are
tracked separately because they never force inter-cluster communication
(section 3.1: a load dependent on a store sees the stored value whatever
cluster the store ran on).

The analysis module computes the quantities modulo scheduling needs:
ResMII, RecMII, strongly connected components (recurrences), ASAP/ALAP
times and slack.
"""

from repro.ddg.graph import Ddg, DdgError, Edge, EdgeKind, Node
from repro.ddg.analysis import (
    LoopAnalysis,
    analyze,
    mii,
    rec_mii,
    res_mii,
)
from repro.ddg.builder import DdgBuilder
from repro.ddg.csr import CsrView, csr_view
from repro.ddg.io import dumps as ddg_dumps, loads as ddg_loads

# repro.ddg.dot is NOT imported here: it depends on the partition and
# schedule packages, which themselves import repro.ddg — import
# repro.ddg.dot directly where needed.

__all__ = [
    "ddg_dumps",
    "ddg_loads",
    "Ddg",
    "DdgError",
    "Edge",
    "EdgeKind",
    "Node",
    "DdgBuilder",
    "CsrView",
    "LoopAnalysis",
    "analyze",
    "csr_view",
    "mii",
    "rec_mii",
    "res_mii",
]
