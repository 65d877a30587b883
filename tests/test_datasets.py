"""Tests for workload generators (repro.datasets)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dominance_width, solve_passive
from repro.datasets import (
    EntityMatchingWorkload,
    generate_entity_matching,
    planted_monotone,
    planted_threshold_1d,
    width_controlled,
)
from repro.datasets.synthetic import adversarial_points


class TestPlantedThreshold1D:
    def test_shape_and_labels(self):
        ps = planted_threshold_1d(100, threshold=0.5, noise=0.0, rng=0)
        assert ps.n == 100 and ps.dim == 1
        assert ((ps.coords[:, 0] > 0.5) == (ps.labels == 1)).all()

    def test_zero_noise_is_monotone(self):
        ps = planted_threshold_1d(300, noise=0.0, rng=1)
        assert ps.is_monotone_labeling()

    def test_noise_rate_approximate(self):
        ps_clean = planted_threshold_1d(5_000, noise=0.0, rng=2)
        ps_noisy = planted_threshold_1d(5_000, noise=0.2, rng=2)
        flipped = int((ps_clean.labels != ps_noisy.labels).sum())
        assert 0.15 * 5_000 < flipped < 0.25 * 5_000

    def test_random_weights(self):
        ps = planted_threshold_1d(50, rng=3, weights="random")
        assert (ps.weights > 0).all()
        assert len(set(np.round(ps.weights, 6))) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            planted_threshold_1d(10, noise=0.6)
        with pytest.raises(ValueError):
            planted_threshold_1d(-1)
        with pytest.raises(ValueError):
            planted_threshold_1d(10, weights="gaussian")

    def test_deterministic_with_seed(self):
        a = planted_threshold_1d(50, noise=0.1, rng=4)
        b = planted_threshold_1d(50, noise=0.1, rng=4)
        assert (a.coords == b.coords).all()
        assert (a.labels == b.labels).all()


class TestPlantedMonotone:
    def test_zero_noise_is_monotone(self):
        for dim in (1, 2, 4):
            ps = planted_monotone(200, dim, noise=0.0, rng=5)
            assert ps.is_monotone_labeling()
            assert solve_passive(ps).optimal_error == 0.0

    def test_noise_bounds_optimum(self):
        ps = planted_monotone(400, 2, noise=0.1, rng=6)
        clean = planted_monotone(400, 2, noise=0.0, rng=6)
        flipped = int((ps.labels != clean.labels).sum())
        # k* is at most the number of flips (reverting them is monotone).
        assert solve_passive(ps).optimal_error <= flipped

    def test_validation(self):
        with pytest.raises(ValueError):
            planted_monotone(10, 0)
        with pytest.raises(ValueError):
            planted_monotone(10, 2, noise=0.7)


class TestWidthControlled:
    @pytest.mark.parametrize("w", [1, 2, 5, 10])
    def test_exact_width(self, w):
        ps = width_controlled(100, w, noise=0.1, rng=7)
        assert dominance_width(ps) == w

    def test_cross_chain_incomparability(self):
        ps = width_controlled(60, 3, rng=8)
        # Recover chains by construction geometry: all pairs from different
        # "bands" (by x offset) must be incomparable.
        weak = ps.weak_dominance_matrix()
        offsets = np.round(ps.coords[:, 0] - ps.coords[:, 1]) / 2
        for i in range(ps.n):
            for j in range(ps.n):
                if offsets[i] != offsets[j] and i != j:
                    assert not weak[i, j]

    def test_zero_noise_monotone(self):
        ps = width_controlled(100, 4, noise=0.0, rng=9)
        assert ps.is_monotone_labeling()

    def test_validation(self):
        with pytest.raises(ValueError):
            width_controlled(3, 5)
        with pytest.raises(ValueError):
            width_controlled(10, 0)
        with pytest.raises(ValueError):
            width_controlled(10, 2, noise=0.9)

    def test_uneven_chain_sizes(self):
        ps = width_controlled(10, 3, rng=10)
        assert ps.n == 10
        assert dominance_width(ps) == 3


class TestStaircase:
    def test_labels_are_upset_of_anchors(self):
        """Labels come from the anchor index; pinned to the dense broadcast's."""
        import hashlib

        from repro.datasets import staircase

        ps = staircase(2_000, steps=9, noise=0.0, rng=11)
        ks = np.arange(9) / 8
        anchors = np.column_stack([0.1 + 0.8 * ks, 0.9 - 0.8 * ks])
        dense = np.any(np.all(ps.coords[:, None, :] >= anchors[None], axis=2),
                       axis=1).astype(np.int8)
        assert np.array_equal(ps.labels, dense)
        noisy = staircase(500, steps=4, noise=0.1, rng=7)
        assert hashlib.sha256(noisy.labels.tobytes()).hexdigest() == (
            "8ce3a6d0210594cfafcb1393b89cc1d22a8d1b83498620989077c4a905402976")

    def test_zero_noise_is_monotone(self):
        from repro.datasets import staircase

        ps = staircase(300, steps=4, noise=0.0, rng=20)
        assert ps.is_monotone_labeling()

    def test_beats_single_threshold(self):
        """No axis threshold matches the monotone optimum on a staircase."""
        from repro import ThresholdClassifier, error_count
        from repro.datasets import staircase

        ps = staircase(2_000, steps=5, noise=0.0, rng=21)
        assert solve_passive(ps).optimal_error == 0.0
        best_axis = min(
            error_count(ps, ThresholdClassifier(tau, dim=d))
            for d in (0, 1)
            for tau in np.linspace(0, 1, 21)
        )
        assert best_axis > 0.05 * ps.n

    def test_validation(self):
        from repro.datasets import staircase

        with pytest.raises(ValueError):
            staircase(10, steps=0)
        with pytest.raises(ValueError):
            staircase(10, steps=2, noise=0.7)

    def test_single_step(self):
        from repro.datasets import staircase

        ps = staircase(100, steps=1, rng=22)
        assert ps.is_monotone_labeling()


class TestCorrelatedMonotone:
    def test_width_falls_with_correlation(self):
        from repro.datasets import correlated_monotone

        widths = {}
        for corr in (0.0, 0.95):
            ps = correlated_monotone(400, 2, correlation=corr, rng=23)
            widths[corr] = dominance_width(ps)
        assert widths[0.95] < widths[0.0] / 2

    def test_validation(self):
        from repro.datasets import correlated_monotone

        with pytest.raises(ValueError):
            correlated_monotone(10, 0)
        with pytest.raises(ValueError):
            correlated_monotone(10, 2, correlation=1.5)
        with pytest.raises(ValueError):
            correlated_monotone(10, 2, noise=0.6)

    def test_noise_bounds_optimum(self):
        from repro.datasets import correlated_monotone

        ps = correlated_monotone(500, 3, correlation=0.9, noise=0.05, rng=24)
        assert solve_passive(ps).optimal_error <= 0.1 * ps.n


class TestAdversarialPoints:
    def test_reexport(self):
        ps = adversarial_points(8, "11", 2)
        assert ps.n == 8
        assert ps.labels[3] == 1  # point 4 flipped to 1


class TestEntityMatching:
    def test_workload_structure(self):
        workload = generate_entity_matching(500, dim=3, rng=11)
        assert isinstance(workload, EntityMatchingWorkload)
        assert workload.n == 500
        assert workload.dim == 3
        assert (workload.points.coords >= 0).all()
        assert (workload.points.coords <= 1).all()

    def test_matches_score_higher(self):
        workload = generate_entity_matching(3_000, dim=2, label_noise=0.0, rng=12)
        points = workload.points
        match_mean = points.coords[points.labels == 1].mean()
        nonmatch_mean = points.coords[points.labels == 0].mean()
        assert match_mean > nonmatch_mean + 0.2

    def test_label_noise_creates_conflicts(self):
        noisy = generate_entity_matching(2_000, label_noise=0.1, rng=13)
        assert solve_passive(noisy.points).optimal_error > 0

    def test_oracle_and_hidden_views(self):
        workload = generate_entity_matching(50, rng=14)
        oracle = workload.oracle(budget=10)
        assert oracle.budget == 10
        assert workload.hidden().has_hidden_labels

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_entity_matching(10, match_rate=0.0)
        with pytest.raises(ValueError):
            generate_entity_matching(10, label_noise=0.8)
        with pytest.raises(ValueError):
            generate_entity_matching(10, match_similarity=0.3,
                                     nonmatch_similarity=0.5)
        with pytest.raises(ValueError):
            generate_entity_matching(10, dim=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 60), st.integers(1, 6), st.integers(0, 10_000))
def test_width_controlled_always_exact(n, w, seed):
    """Property: the generator's width always equals the requested w."""
    w = min(w, n)
    ps = width_controlled(n, w, noise=0.2, rng=seed)
    assert dominance_width(ps) == w
