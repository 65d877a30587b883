"""Max-flow / min-cut substrate (paper Section 2).

The passive solver (Theorem 4) needs a max-flow algorithm and a minimum
cut-edge set (Lemmas 7 and 8).  Everything is implemented from scratch:

* :class:`.graph.FlowNetwork` — mutable residual-graph representation,
  plus the shared epsilon-boundary contract (``RESIDUAL_EPS`` /
  ``has_residual``) every backend routes admissibility through;
* :mod:`.dinic` — Dinic's algorithm (``O(V^2 E)``, fast in practice);
* :mod:`.push_relabel` — Goldberg–Tarjan FIFO push-relabel with the gap
  heuristic, the ``O(V^3)`` algorithm the paper cites [14];
* :mod:`.array` — array-native siblings of both loop engines over a
  frozen CSR snapshot (vectorized frontier BFS for Dinic; global
  relabeling for push-relabel).  ``dinic_array`` is the default backend
  everywhere; the loop engines run only when named explicitly;
* :mod:`.mincut` — source-side cut extraction and cut-edge sets (Lemma 8).

A ``networkx`` backend is available for cross-checking in tests.
"""

from .array import (
    CSRFlowSnapshot,
    dinic_array_max_flow,
    push_relabel_array_max_flow,
)
from .dinic import dinic_max_flow
from .edmonds_karp import edmonds_karp_max_flow
from .graph import RESIDUAL_EPS, FlowNetwork, has_residual
from .mincut import MinCut, min_cut_from_residual, solve_min_cut
from .push_relabel import push_relabel_max_flow
from .scaling import capacity_scaling_max_flow

__all__ = [
    "FlowNetwork",
    "RESIDUAL_EPS",
    "has_residual",
    "dinic_max_flow",
    "push_relabel_max_flow",
    "edmonds_karp_max_flow",
    "capacity_scaling_max_flow",
    "CSRFlowSnapshot",
    "dinic_array_max_flow",
    "push_relabel_array_max_flow",
    "MinCut",
    "min_cut_from_residual",
    "solve_min_cut",
    "solve_max_flow",
    "FLOW_BACKENDS",
]


def solve_max_flow(network: FlowNetwork, source: int, sink: int,
                   backend: str = "dinic_array") -> float:
    """Run the selected max-flow backend on ``network`` in place.

    Returns the maximum flow value; the network's internal flow state is
    updated so a minimum cut can be read off the residual graph.
    """
    try:
        solver = FLOW_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {sorted(FLOW_BACKENDS)}"
        ) from None
    return solver(network, source, sink)


FLOW_BACKENDS = {
    "dinic": dinic_max_flow,
    "push_relabel": push_relabel_max_flow,
    "edmonds_karp": edmonds_karp_max_flow,
    "capacity_scaling": capacity_scaling_max_flow,
    "dinic_array": dinic_array_max_flow,
    "push_relabel_array": push_relabel_array_max_flow,
}
