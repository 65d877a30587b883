"""Tests for monotone classifiers (repro.core.classifier)."""

from __future__ import annotations

import hashlib
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConstantClassifier,
    PointSet,
    ThresholdClassifier,
    UpsetClassifier,
    is_monotone_assignment,
    monotone_extension,
)
from repro.core import anchor_index
from repro.datasets.synthetic import planted_monotone


def broadcast_labels(anchors: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Oracle: the dense (q, a, d) comparison the anchor index replaced."""
    if anchors.shape[0] == 0:
        return np.zeros(coords.shape[0], dtype=np.int8)
    dominated = np.all(coords[:, None, :] >= anchors[None, :, :], axis=2)
    return np.any(dominated, axis=1).astype(np.int8)


def broadcast_prune(matrix: np.ndarray) -> np.ndarray:
    """Oracle: minimal distinct rows via the dense (m, m, d) comparison."""
    if matrix.shape[0] <= 1:
        return matrix.copy()
    unique = np.unique(matrix, axis=0)
    weak = np.all(unique[:, None, :] >= unique[None, :, :], axis=2)
    np.fill_diagonal(weak, False)
    return unique[~np.any(weak, axis=1)].copy()


def antichain(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """Points on the plane ``sum(x) == dim / 2``: pairwise incomparable."""
    free = rng.random((size, dim - 1))
    return np.column_stack([free, dim / 2 - free.sum(axis=1)])


#: Query coordinates: grid values the anchors also use (ties on some
#: dimensions), signed zeros, the infinities and NaN.
QUERY_VALUES = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0,
                float("inf"), float("-inf"), float("nan")]
ANCHOR_VALUES = [-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]


@st.composite
def anchors_and_queries(draw):
    dim = draw(st.integers(1, 6))
    grid = st.one_of(st.sampled_from(ANCHOR_VALUES),
                     st.floats(-1, 4, allow_nan=False))
    anchors = draw(st.lists(st.tuples(*[grid] * dim), max_size=40))
    query_grid = st.one_of(st.sampled_from(QUERY_VALUES),
                           st.floats(-1, 4, allow_nan=False))
    queries = draw(st.lists(st.tuples(*[query_grid] * dim),
                            min_size=1, max_size=30))
    matrix = np.array(anchors, dtype=float).reshape(len(anchors), dim)
    return matrix, np.array(queries, dtype=float)


class TestConstantClassifier:
    def test_values(self):
        coords = np.array([[0.0], [5.0]])
        assert list(ConstantClassifier(0).classify_matrix(coords)) == [0, 0]
        assert list(ConstantClassifier(1).classify_matrix(coords)) == [1, 1]

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            ConstantClassifier(2)

    def test_equality_and_hash(self):
        assert ConstantClassifier(1) == ConstantClassifier(1)
        assert ConstantClassifier(1) != ConstantClassifier(0)
        assert hash(ConstantClassifier(0)) == hash(ConstantClassifier(0))


class TestThresholdClassifier:
    def test_strict_inequality_semantics(self):
        """Paper eq. (6): h(p) = 1 iff p > tau (strictly)."""
        h = ThresholdClassifier(1.0)
        assert h.classify((1.0,)) == 0
        assert h.classify((1.0000001,)) == 1
        assert h.classify((0.5,)) == 0

    def test_infinite_thresholds(self):
        coords = np.array([[0.0], [1.0]])
        all_one = ThresholdClassifier(float("-inf"))
        all_zero = ThresholdClassifier(float("inf"))
        assert list(all_one.classify_matrix(coords)) == [1, 1]
        assert list(all_zero.classify_matrix(coords)) == [0, 0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ThresholdClassifier(float("nan"))

    def test_dim_selection(self):
        h = ThresholdClassifier(0.5, dim=1)
        assert h.classify((0.0, 1.0)) == 1
        assert h.classify((1.0, 0.0)) == 0

    def test_dim_out_of_range(self):
        h = ThresholdClassifier(0.5, dim=3)
        with pytest.raises(ValueError):
            h.classify((0.0, 1.0))

    def test_callable_protocol(self):
        assert ThresholdClassifier(0.0)((1.0,)) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_monotone_property(self, tau, x, y):
        """Property: x >= y implies h(x) >= h(y) for every threshold."""
        h = ThresholdClassifier(tau)
        lo, hi = min(x, y), max(x, y)
        assert h.classify((hi,)) >= h.classify((lo,))


class TestUpsetClassifier:
    def test_empty_upset_is_all_zero(self):
        h = UpsetClassifier([], dim=2)
        assert h.classify((100.0, 100.0)) == 0
        assert h.num_anchors == 0

    def test_requires_dim_without_anchors(self):
        with pytest.raises(ValueError):
            UpsetClassifier([])

    def test_single_anchor(self):
        h = UpsetClassifier([(1.0, 1.0)])
        assert h.classify((1.0, 1.0)) == 1  # weak dominance includes equality
        assert h.classify((2.0, 1.0)) == 1
        assert h.classify((0.9, 5.0)) == 0

    def test_redundant_anchor_pruned(self):
        h = UpsetClassifier([(1.0, 1.0), (2.0, 2.0)])
        assert h.num_anchors == 1  # (2,2) dominates (1,1) => redundant

    def test_duplicate_anchors_collapsed(self):
        h = UpsetClassifier([(1.0, 1.0), (1.0, 1.0)])
        assert h.num_anchors == 1

    def test_antichain_anchors_kept(self):
        h = UpsetClassifier([(2.0, 0.0), (0.0, 2.0)])
        assert h.num_anchors == 2
        assert h.classify((2.0, 0.0)) == 1
        assert h.classify((0.0, 2.0)) == 1
        assert h.classify((1.0, 1.0)) == 0

    def test_dimension_mismatch_raises(self):
        h = UpsetClassifier([(1.0, 1.0)])
        with pytest.raises(ValueError):
            h.classify((1.0, 1.0, 1.0))

    def test_from_positive_points(self, tiny_2d):
        h = UpsetClassifier.from_positive_points(tiny_2d, [0, 0, 0, 1])
        assert h.classify((2.0, 2.0)) == 1
        assert h.classify((0.0, 0.0)) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8),
           st.tuples(st.floats(0, 1), st.floats(0, 1)),
           st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)))
    def test_monotone_property(self, anchors, base, delta):
        """Property: adding a non-negative delta never decreases h."""
        h = UpsetClassifier(anchors)
        above = (base[0] + delta[0], base[1] + delta[1])
        assert h.classify(above) >= h.classify(base)


class TestAnchorIndexParity:
    """The packed anchor index against the dense broadcasts it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(anchors_and_queries())
    def test_labels_and_anchors_match_broadcast(self, case):
        anchors, queries = case
        h = UpsetClassifier(anchors, dim=anchors.shape[1])
        expected = broadcast_prune(anchors)
        assert h.anchors.dtype == expected.dtype
        assert np.array_equal(h.anchors, expected)
        labels = h.classify_matrix(queries)
        assert labels.dtype == np.int8
        assert np.array_equal(labels, broadcast_labels(h.anchors, queries))
        # Pruning never changes the upset: the raw anchors agree too.
        assert np.array_equal(labels, broadcast_labels(anchors, queries))

    @settings(max_examples=100, deadline=None)
    @given(anchors_and_queries(), st.integers(1, 9))
    def test_labels_match_broadcast_across_blocks(self, case, block):
        anchors, queries = case
        with mock.patch.object(anchor_index, "DEFAULT_BLOCK_SIZE", block):
            h = UpsetClassifier(anchors, dim=anchors.shape[1])
            labels = h.classify_matrix(queries)
            assert np.array_equal(h.anchors, broadcast_prune(anchors))
        assert np.array_equal(labels, broadcast_labels(h.anchors, queries))

    @settings(max_examples=100, deadline=None)
    @given(anchors_and_queries())
    def test_single_row_path_matches_batch(self, case):
        anchors, queries = case
        h = UpsetClassifier(anchors, dim=anchors.shape[1])
        batch = h.classify_matrix(queries)
        singles = [h.classify_matrix(queries[i:i + 1]) for i in range(len(queries))]
        assert all(one.dtype == np.int8 and one.shape == (1,) for one in singles)
        assert np.array_equal(np.concatenate(singles), batch)

    @pytest.mark.parametrize("block", [2048, 64, 70, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_random_and_antichain_inputs(self, block, dim):
        rng = np.random.default_rng([block, dim])
        inputs = [rng.random((300, dim)),
                  rng.integers(0, 4, (300, dim)).astype(float)]
        if dim > 1:
            inputs.append(antichain(rng, 300, dim))
        queries = np.concatenate([rng.random((200, dim)) * 1.5,
                                  inputs[0][:50], inputs[-1][:50]])
        with mock.patch.object(anchor_index, "DEFAULT_BLOCK_SIZE", block):
            for matrix in inputs:
                h = UpsetClassifier(matrix)
                assert np.array_equal(h.anchors, broadcast_prune(matrix))
                expected = broadcast_labels(matrix, queries)
                assert np.array_equal(h.classify_matrix(queries), expected)
                walked = [h.classify_matrix(q[None, :])[0] for q in queries[::7]]
                assert walked == list(expected[::7])

    def test_special_values(self):
        h = UpsetClassifier([(0.0, 1.0), (1.0, 0.0)])
        inf, nan = float("inf"), float("nan")
        queries = np.array([[nan, 5.0], [5.0, nan], [inf, inf], [-inf, inf],
                            [inf, -inf], [-0.0, 1.0], [1.0, -0.0],
                            [-0.0, -0.0], [inf, 0.0]])
        expected = [0, 0, 1, 0, 0, 1, 1, 0, 1]
        assert list(h.classify_matrix(queries)) == expected
        assert [h.classify_matrix(q[None, :])[0] for q in queries] == expected
        assert list(broadcast_labels(h.anchors, queries)) == expected

    def test_zero_dimensional_points(self):
        h = UpsetClassifier([(), ()])
        assert h.num_anchors == 1
        assert list(h.classify_matrix(np.empty((3, 0)))) == [1, 1, 1]
        assert list(h.classify_matrix(np.empty((1, 0)))) == [1]

    def test_empty_batch(self):
        h = UpsetClassifier([(1.0, 2.0)])
        assert h.classify_matrix(np.empty((0, 2))).shape == (0,)

    def test_concurrent_queries_share_one_index(self):
        """One classifier answers many threads at once; answers never mix."""
        rng = np.random.default_rng(9)
        h = UpsetClassifier(antichain(rng, 300, 3))
        queries = rng.uniform(0.0, 1.5, size=(64, 3))
        expected = broadcast_labels(h.anchors, queries)
        failures = []

        def worker():
            for _ in range(40):
                if not np.array_equal(h.classify_matrix(queries), expected):
                    failures.append("batch")
                for q, want in zip(queries[:8], expected[:8]):
                    if h.classify_matrix(q[None, :])[0] != want:
                        failures.append("single")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestAnchorIndexAtScale:
    def test_serve_mixed_artifact_bytes_pinned(self, tmp_path):
        """The serving model serializes to the bytes the dense pruning gave."""
        from repro.serve import fit_artifact, save_artifact

        data = planted_monotone(8192, 5, noise=0.02, weights="random", rng=0)
        artifact = fit_artifact(data, include_chains=False)
        path = tmp_path / "model.json"
        digest = save_artifact(artifact, path)
        assert artifact.classifier.num_anchors == 250
        assert digest == ("765340577e82916c0f5902ef217702db"
                          "81b28b24c1b4a16054aa895ea05850e0")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2836f4e8c69960031fffc9f5d28f59b6"
            "bf3434a00e13bd8c7b5920943d68209b")

    def test_pruning_memory_at_n_65536(self):
        """Pruning stays far below the (m, m, d) tensor's footprint.

        At n = 16384 the dense pruning peaked at about 275 MB under
        tracemalloc; at n = 65536 it would need about 1.6 GB.
        """
        data = planted_monotone(65536, 3, noise=0.1, rng=0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            h = UpsetClassifier.from_positive_points(data, data.labels)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.num_anchors > 0
        assert peak < 64 * 2 ** 20
        assert elapsed < 10.0
        probe = data.coords[:500]
        assert np.array_equal(h.classify_matrix(probe),
                              broadcast_labels(h.anchors, probe))


class TestMonotoneAssignment:
    def test_valid_assignment(self, tiny_2d):
        assert is_monotone_assignment(tiny_2d, [0, 0, 0, 1])
        assert is_monotone_assignment(tiny_2d, [0, 0, 0, 0])
        assert is_monotone_assignment(tiny_2d, [1, 1, 1, 1])

    def test_invalid_assignment(self, tiny_2d):
        # (1,1) assigned 0 while it dominates (0,0) assigned 1.
        assert not is_monotone_assignment(tiny_2d, [1, 0, 0, 1])

    def test_duplicates_must_agree(self):
        ps = PointSet([(1.0, 1.0), (1.0, 1.0)], [0, 1])
        assert not is_monotone_assignment(ps, [0, 1])
        assert not is_monotone_assignment(ps, [1, 0])
        assert is_monotone_assignment(ps, [1, 1])

    def test_wrong_length_raises(self, tiny_2d):
        with pytest.raises(ValueError):
            is_monotone_assignment(tiny_2d, [0, 1])

    def test_extension_agrees_on_input(self, tiny_2d):
        assignment = [0, 0, 0, 1]
        h = monotone_extension(tiny_2d, assignment)
        assert list(h.classify_set(tiny_2d)) == assignment

    def test_extension_rejects_non_monotone(self, tiny_2d):
        with pytest.raises(ValueError):
            monotone_extension(tiny_2d, [1, 0, 0, 1])

    def test_does_not_cache_dense_matrix(self):
        data = planted_monotone(500, 3, noise=0.0, rng=5)
        ps = PointSet(data.coords.copy(), data.labels.copy())
        assert is_monotone_assignment(ps, ps.labels)
        assert ps._weak_dom is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_definition(self, data):
        dim = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim),
                                  min_size=1, max_size=20))
        pred = data.draw(st.lists(st.integers(0, 1), min_size=len(rows),
                                  max_size=len(rows)))
        coords = np.array(rows, dtype=float)
        pred = np.array(pred, dtype=np.int8)
        weak = np.all(coords[:, None, :] >= coords[None, :, :], axis=2)
        expected = not np.any(weak[np.ix_(pred == 0, pred == 1)])
        assert is_monotone_assignment(PointSet(coords, pred), pred) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extension_always_agrees_with_monotone_assignment(data):
    """Property: the upset extension reproduces any monotone assignment."""
    rows = data.draw(st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
        min_size=1, max_size=12))
    ps = PointSet(rows, [0] * len(rows))
    # Build a monotone assignment from a random upset threshold on the sum.
    cut = data.draw(st.floats(0, 2))
    assignment = [1 if sum(row) >= cut else 0 for row in rows]
    # A sum-threshold is NOT always monotone w.r.t. dominance ties... it is:
    # dominance implies sum >=, so this assignment is monotone.
    assert is_monotone_assignment(ps, assignment)
    h = monotone_extension(ps, assignment)
    assert list(h.classify_set(ps)) == assignment
