"""Tests for the blockwise pairwise kernels ``solve_passive`` runs.

The streaming kernels (:mod:`repro.core.pairwise` and the packed
contending mask of :mod:`repro.poset.bitset`) are checked against the
dense references: :func:`repro.core.passive.contending_mask`, the cached
dominance matrix, :func:`repro.is_monotone_assignment`, and, for whole
solves, the Hasse-reduced network.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PointSet, is_monotone_assignment, solve_passive
from repro.core.pairwise import (
    blocked_dominance_pair_arrays,
    blocked_is_monotone_assignment,
)
from repro.core.passive import contending_mask
from repro.datasets.synthetic import planted_monotone
from repro.poset.bitset import contending_mask_bitset


def _random_labeled(seed: int, n: int, dim: int, grid: int = 5) -> PointSet:
    gen = np.random.default_rng(seed)
    coords = gen.integers(0, grid, size=(n, dim)).astype(float)
    labels = gen.integers(0, 2, size=n)
    return PointSet(coords, labels)


class TestBlockedContendingMask:
    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_matches_matrix_version(self, block_size):
        for seed in range(10):
            ps = _random_labeled(seed, 40, 2)
            assert (contending_mask_bitset(ps, block_size)
                    == contending_mask(ps)).all()

    def test_empty_and_single_class(self):
        empty = PointSet.from_points([])
        assert contending_mask_bitset(empty).shape == (0,)
        ones = PointSet([(0.0,), (1.0,)], [1, 1])
        assert not contending_mask_bitset(ones).any()

    def test_requires_labels(self, tiny_2d):
        with pytest.raises(ValueError):
            contending_mask_bitset(tiny_2d.with_hidden_labels())


class TestBlockedDominancePairs:
    def test_stream_matches_matrix(self):
        ps = _random_labeled(3, 30, 2)
        weak = ps.weak_dominance_matrix()
        zeros = np.flatnonzero(ps.labels == 0)
        ones = np.flatnonzero(ps.labels == 1)
        got = [(int(s), int(t))
               for srcs, tgts in blocked_dominance_pair_arrays(ps, zeros,
                                                               ones, 4)
               for s, t in zip(srcs, tgts)]
        # Row-major over (label-0, label-1): the dense nonzero order.
        expected = [(int(p), int(q)) for p in zeros for q in ones
                    if weak[p, q]]
        assert got == expected

    def test_empty_sides(self, tiny_2d):
        assert list(blocked_dominance_pair_arrays(
            tiny_2d, np.array([]), np.array([0]))) == []
        assert list(blocked_dominance_pair_arrays(
            tiny_2d, np.array([0]), np.array([]))) == []


class TestBlockedMonotoneCheck:
    @pytest.mark.parametrize("block_size", [1, 2, 128])
    def test_matches_matrix_version(self, block_size):
        gen = np.random.default_rng(0)
        for seed in range(10):
            ps = _random_labeled(seed + 100, 25, 2)
            pred = gen.integers(0, 2, size=25).astype(np.int8)
            assert blocked_is_monotone_assignment(ps, pred, block_size) == \
                is_monotone_assignment(ps, pred)

    def test_all_same_prediction_is_monotone(self, tiny_2d):
        assert blocked_is_monotone_assignment(tiny_2d, np.zeros(4, dtype=np.int8))
        assert blocked_is_monotone_assignment(tiny_2d, np.ones(4, dtype=np.int8))

    def test_shape_validation(self, tiny_2d):
        with pytest.raises(ValueError):
            blocked_is_monotone_assignment(tiny_2d, np.zeros(3, dtype=np.int8))


class TestSolvePassiveBlockwise:
    """Multi-block solves, forced by shrinking the row-block size."""

    def test_forced_blockwise_matches_default(self, monkeypatch):
        ps = planted_monotone(400, 3, noise=0.15, rng=7, weights="random")
        single_block = solve_passive(ps)
        hasse = solve_passive(ps, use_hasse_reduction=True)
        monkeypatch.setattr("repro.core.passive.DEFAULT_BLOCK_SIZE", 37)
        blocked = solve_passive(ps)
        # Block size never changes the network: bit-identical output.
        assert blocked.optimal_error == single_block.optimal_error
        assert blocked.flow_value == single_block.flow_value
        assert (blocked.assignment == single_block.assignment).all()
        assert blocked.num_contending == int(contending_mask(ps).sum())
        assert blocked.optimal_error == pytest.approx(hasse.optimal_error)

    def test_blockwise_with_push_relabel(self, monkeypatch):
        ps = planted_monotone(200, 2, noise=0.2, rng=8)
        hasse = solve_passive(ps, use_hasse_reduction=True)
        monkeypatch.setattr("repro.core.passive.DEFAULT_BLOCK_SIZE", 16)
        a = solve_passive(ps, backend="push_relabel")
        assert a.optimal_error == pytest.approx(hasse.optimal_error)

    def test_blockwise_without_reduction(self, monkeypatch):
        ps = planted_monotone(150, 2, noise=0.2, rng=9)
        hasse = solve_passive(ps, use_hasse_reduction=True)
        monkeypatch.setattr("repro.core.passive.DEFAULT_BLOCK_SIZE", 10)
        a = solve_passive(ps, use_contending_reduction=False)
        assert a.optimal_error == pytest.approx(hasse.optimal_error)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(1, 3), st.integers(1, 7),
       st.integers(0, 10_000))
def test_blocked_mask_equals_matrix_mask(n, dim, block_size, seed):
    """Property: packed blockwise and dense contending masks always agree."""
    ps = _random_labeled(seed, n, dim)
    assert (contending_mask_bitset(ps, block_size)
            == contending_mask(ps)).all()
