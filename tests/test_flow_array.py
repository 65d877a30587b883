"""Tests for the array-native flow engines (repro.flow.array).

Covers the CSR snapshot contract, bit-identity of ``dinic_array`` with
the loop engine, the six-backend solver-equivalence suite (random and
epsilon-boundary instances plus the replayable corpus), the CSR cut
extraction against a scalar reference BFS, and explicit backend
selection in ``solve_passive``.
"""

from __future__ import annotations

from collections import deque
from typing import Set

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.passive import solve_passive
from repro.datasets.synthetic import planted_monotone
from repro.experiments.flow_backends import random_flow_network
from repro.flow import (
    FLOW_BACKENDS,
    RESIDUAL_EPS,
    CSRFlowSnapshot,
    FlowNetwork,
    MinCut,
    dinic_array_max_flow,
    dinic_max_flow,
    has_residual,
    min_cut_from_residual,
    push_relabel_array_max_flow,
    solve_max_flow,
    solve_min_cut,
)
from repro.fuzz.corpus import iter_corpus, load_reproducer
from repro.obs import metrics_session
from tests.strategies import boundary_flow_networks, flow_networks

CORPUS_DIR = "tests/corpus"


def _scalar_min_cut(network: FlowNetwork, source: int, sink: int,
                    flow_value: float) -> MinCut:
    """Reference cut extraction: breadth-first search over adjacency lists.

    Walks the mutable network arc by arc with the shared
    :func:`~repro.flow.has_residual` admissibility test, sharing no code
    with the CSR sweeps of :func:`~repro.flow.min_cut_from_residual`.
    """
    reachable: Set[int] = {source}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        for arc in network.adjacency[u]:
            v = network.heads[arc]
            if v not in reachable and has_residual(network.residual(arc)):
                reachable.add(v)
                queue.append(v)
    if sink in reachable:
        raise AssertionError("sink reachable in residual graph: flow is not maximum")
    cut_arcs = [
        arc_id
        for arc_id, arc in network.forward_arcs()
        if arc.tail in reachable and arc.head not in reachable
        and arc.capacity > 0.0
        and not has_residual(arc.capacity - arc.flow)
    ]
    return MinCut(flow_value, reachable, cut_arcs)


def _clone(network: FlowNetwork) -> FlowNetwork:
    """Fresh zero-flow network with identical topology and capacities."""
    other = FlowNetwork(network.num_nodes)
    for _arc_id, arc in network.forward_arcs():
        other.add_edge(arc.tail, arc.head, arc.capacity)
    return other


class TestCSRFlowSnapshot:
    def test_indptr_matches_adjacency(self):
        net = random_flow_network(12, 0.3, seed=0)
        snap = CSRFlowSnapshot(net)
        assert snap.indptr[0] == 0
        assert snap.indptr[-1] == snap.num_arcs == len(net.heads)
        for u in range(net.num_nodes):
            sl = snap.csr_arcs[snap.indptr[u]:snap.indptr[u + 1]]
            assert sl.tolist() == net.adjacency[u]

    def test_position_mirrors_consistent(self):
        net = random_flow_network(10, 0.4, seed=1)
        snap = CSRFlowSnapshot(net)
        assert snap.csr_heads.tolist() == [net.heads[a] for a in snap.csr_arcs]
        assert snap.csr_tails.tolist() == [net.tail(a) for a in snap.csr_arcs]

    def test_reverse_arc_pairing_preserved(self):
        net = random_flow_network(10, 0.4, seed=2)
        snap = CSRFlowSnapshot(net)
        arcs = np.arange(snap.num_arcs, dtype=np.int64)
        # arc ^ 1 still addresses the paired reverse arc on the arrays:
        # each pair's heads are swapped tails and capacities of reverse
        # arcs are zero.
        assert (snap.caps[arcs[1::2]] == 0.0).all()
        for a in range(0, snap.num_arcs, 2):
            assert snap.arc_heads[a ^ 1] == net.tail(a)

    def test_writeback_round_trip(self):
        net = FlowNetwork(2)
        arc = net.add_edge(0, 1, 4.0)
        snap = CSRFlowSnapshot(net)
        snap.flows[arc] += 2.5
        snap.flows[arc ^ 1] -= 2.5
        snap.writeback(net)
        assert net.flows[arc] == 2.5
        assert net.residual(arc) == 1.5
        assert net.residual(arc ^ 1) == 2.5

    def test_empty_network(self):
        net = FlowNetwork(3)
        snap = CSRFlowSnapshot(net)
        assert snap.num_arcs == 0
        assert snap.indptr.tolist() == [0, 0, 0, 0]
        assert dinic_array_max_flow(net, 0, 2) == 0.0


class TestDinicArrayBitIdentity:
    """dinic_array replays the loop engine's float operations exactly."""

    @settings(max_examples=60, deadline=None)
    @given(flow_networks())
    def test_value_and_flows_bit_identical(self, case):
        network, source, sink = case
        loop_net, array_net = _clone(network), _clone(network)
        loop_value = dinic_max_flow(loop_net, source, sink)
        array_value = dinic_array_max_flow(array_net, source, sink)
        assert array_value == loop_value  # exact, no tolerance
        assert array_net.flows == loop_net.flows

    @settings(max_examples=25, deadline=None)
    @given(boundary_flow_networks())
    def test_bit_identical_at_epsilon_boundary(self, case):
        network, source, sink = case
        loop_net, array_net = _clone(network), _clone(network)
        assert dinic_array_max_flow(array_net, source, sink) == \
            dinic_max_flow(loop_net, source, sink)
        assert array_net.flows == loop_net.flows

    def test_bit_identical_on_larger_random_networks(self):
        for seed in range(20):
            net = random_flow_network(60, 0.15, seed=seed)
            loop_net, array_net = _clone(net), _clone(net)
            assert dinic_array_max_flow(array_net, 0, 59) == \
                dinic_max_flow(loop_net, 0, 59)
            assert array_net.flows == loop_net.flows


class TestPushRelabelArray:
    def test_agrees_and_is_feasible(self):
        for seed in range(15):
            net = random_flow_network(40, 0.2, seed=seed)
            expected = dinic_max_flow(_clone(net), 0, 39)
            value = push_relabel_array_max_flow(net, 0, 39)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert net.check_flow_conservation(0, 39)

    def test_global_relabel_counter_recorded(self):
        net = random_flow_network(30, 0.2, seed=7)
        with metrics_session() as reg:
            push_relabel_array_max_flow(net, 0, 29)
        counters = reg.counters
        assert counters["flow.push_relabel_array.calls"].value == 1
        # The initial sweep after source saturation always runs.
        assert counters["flow.push_relabel_array.global_relabels"].value >= 1
        assert counters["flow.array.snapshots"].value == 1

    def test_warm_start_sub_epsilon_residual_skipped(self):
        """Same regression as the loop engine (shared push guard)."""
        tiny = RESIDUAL_EPS / 2
        net = FlowNetwork(3)
        a = net.add_edge(0, 1, 1.0)
        b = net.add_edge(1, 2, 1.0)
        net.push(a, 1.0 - tiny)
        net.push(b, 1.0 - tiny)
        with metrics_session() as reg:
            value = push_relabel_array_max_flow(net, 0, 2)
        assert value == 1.0 - tiny
        assert reg.counters["flow.push_relabel_array.pushes"].value == 0
        assert net.check_flow_conservation(0, 2, tol=0.0)


class TestSolverEquivalence:
    """All six registered backends agree on value, feasibility and cuts."""

    @settings(max_examples=40, deadline=None)
    @given(flow_networks())
    def test_all_backends_equivalent(self, case):
        network, source, sink = case
        values = {}
        for backend in sorted(FLOW_BACKENDS):
            net = _clone(network)
            values[backend] = solve_max_flow(net, source, sink,
                                             backend=backend)
            assert net.check_flow_conservation(source, sink)
        reference = values["dinic"]
        for backend, value in values.items():
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9), \
                backend

    # Augmenting-path backends move per-path bottlenecks, so their values
    # are sums of identical > RESIDUAL_EPS augmentations and must agree
    # below the tolerance itself.  The preflow backends aggregate excess
    # per node and may legitimately deliver up to ~RESIDUAL_EPS more per
    # saturating arc than a bottleneck-at-a-time search admits, so their
    # slack scales with the instance.
    PATH_BACKENDS = ("capacity_scaling", "dinic", "dinic_array",
                     "edmonds_karp")

    @settings(max_examples=40, deadline=None)
    @given(boundary_flow_networks())
    def test_boundary_capacities_differential(self, case):
        """Epsilon-boundary differential (satellite of the scaling fix).

        The path-backend tolerance is *below* ``RESIDUAL_EPS``: the
        historical bug was a disagreement of exactly 1e-12, invisible to
        the usual 1e-9 slack.
        """
        network, source, sink = case
        values = {}
        for backend in sorted(FLOW_BACKENDS):
            net = _clone(network)
            values[backend] = solve_max_flow(net, source, sink,
                                             backend=backend)
            assert net.check_flow_conservation(source, sink)
        reference = values["dinic"]
        for backend in self.PATH_BACKENDS:
            assert values[backend] == pytest.approx(
                reference, rel=1e-9, abs=RESIDUAL_EPS / 2), backend
        loose = (network.num_edges + 2) * RESIDUAL_EPS
        for backend, value in values.items():
            assert value == pytest.approx(reference, rel=1e-9,
                                          abs=loose), backend

    @settings(max_examples=25, deadline=None)
    @given(flow_networks())
    def test_cut_certificates_equivalent(self, case):
        network, source, sink = case
        weights = {}
        for backend in sorted(FLOW_BACKENDS):
            net = _clone(network)
            cut = solve_min_cut(net, source, sink, backend=backend,
                                check=False)
            weights[backend] = cut.weight(net)
            assert cut.weight(net) == pytest.approx(cut.value,
                                                    rel=1e-9, abs=1e-9)
            for arc_id in cut.cut_arcs:
                assert net.caps[arc_id] > 0.0
        reference = weights["dinic"]
        for backend, weight in weights.items():
            assert weight == pytest.approx(reference, rel=1e-9,
                                           abs=1e-9), backend

    def test_corpus_replay_machine_precision(self):
        """Every corpus entry solves identically across all six backends.

        The array engines must match to machine precision: ``dinic_array``
        exactly, ``push_relabel_array`` within float tolerance.
        """
        paths = list(iter_corpus(CORPUS_DIR))
        assert paths, "replay corpus is empty"
        solved_one = False
        for path in paths:
            points, _meta = load_reproducer(path)
            results = {}
            rejected = {}
            for backend in sorted(FLOW_BACKENDS):
                try:
                    results[backend] = solve_passive(points, backend=backend)
                except ValueError as exc:
                    rejected[backend] = str(exc)
            if rejected:
                # Input validation happens before any backend runs, so a
                # rejected instance must be rejected for every backend.
                assert not results, (path.name, sorted(results))
                continue
            solved_one = True
            reference = results["dinic"]
            assert results["dinic_array"].optimal_error == \
                reference.optimal_error, path.name
            for backend, result in results.items():
                assert result.optimal_error == pytest.approx(
                    reference.optimal_error, rel=1e-9, abs=1e-12), \
                    (path.name, backend)
        assert solved_one, "every corpus entry was rejected"


class TestArrayMinCutExtraction:
    """min_cut_from_residual matches the scalar reference BFS."""

    @staticmethod
    def _assert_identical(net, source, sink, value):
        reference = _scalar_min_cut(net, source, sink, value)
        fast = min_cut_from_residual(net, source, sink, value)
        assert fast.source_side == reference.source_side
        assert fast.cut_arcs == reference.cut_arcs
        assert fast.value == reference.value

    def test_identical_to_scalar_path(self):
        for seed in range(10):
            net = random_flow_network(25, 0.25, seed=seed)
            value = dinic_max_flow(net, 0, 24)
            self._assert_identical(net, 0, 24, value)

    @settings(max_examples=40, deadline=None)
    @given(flow_networks())
    def test_identical_on_generated_networks(self, case):
        network, source, sink = case
        value = dinic_array_max_flow(network, source, sink)
        self._assert_identical(network, source, sink, value)

    @settings(max_examples=25, deadline=None)
    @given(boundary_flow_networks())
    def test_identical_at_epsilon_boundary(self, case):
        network, source, sink = case
        value = dinic_array_max_flow(network, source, sink)
        self._assert_identical(network, source, sink, value)

    def test_rejects_non_max_flow(self):
        net = random_flow_network(10, 0.5, seed=3)  # zero flow
        with pytest.raises(AssertionError):
            min_cut_from_residual(net, 0, 9, 0.0)
        with pytest.raises(AssertionError):
            _scalar_min_cut(net, 0, 9, 0.0)


class TestExplicitBackend:
    """``solve_passive`` runs the named backend at every network size."""

    @staticmethod
    def _points():
        # 331 contending points: a 333-vertex network.
        return planted_monotone(400, 3, noise=0.3, rng=5, weights="random")

    def test_loop_dinic_runs_loop_engine(self):
        points = self._points()
        with metrics_session() as reg:
            loop = solve_passive(points, backend="dinic")
        assert reg.gauge_value("flow.network.nodes") >= 256
        assert loop.backend == "dinic"
        assert reg.counter_value("flow.dinic.calls") == 1
        assert reg.counter_value("flow.dinic_array.calls") == 0
        array = solve_passive(points, backend="dinic_array")
        # Bit-identical engines: identical flow, error, labels and anchors.
        assert array.flow_value == loop.flow_value
        assert array.optimal_error == loop.optimal_error
        assert np.array_equal(array.assignment, loop.assignment)
        assert np.array_equal(array.classifier.anchors,
                              loop.classifier.anchors)

    def test_every_backend_reported_as_named(self):
        points = self._points()
        for backend in sorted(FLOW_BACKENDS):
            with metrics_session() as reg:
                result = solve_passive(points, backend=backend)
            assert result.backend == backend
            assert reg.counter_value(f"flow.{backend}.calls") == 1

    def test_default_is_dinic_array_at_every_size(self):
        from repro import PointSet

        tiny = PointSet([(0.0, 0.0), (1.0, 1.0)], [1, 0])  # 4 vertices
        for points in (tiny, self._points()):
            with metrics_session() as reg:
                result = solve_passive(points)
            assert result.backend == "dinic_array"
            assert reg.counter_value("flow.dinic_array.calls") == 1

    def test_explicit_array_backend_accepted(self):
        points = self._points()
        direct = solve_passive(points, backend="push_relabel_array")
        assert direct.backend == "push_relabel_array"
        reference = solve_passive(points, backend="dinic")
        assert direct.optimal_error == pytest.approx(
            reference.optimal_error, rel=1e-9, abs=1e-12)
