"""The benchmark's output oracles against the program's exact solvers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import oracles
from perfbench.labeler import Labeler
from repro.core.classifier import UpsetClassifier
from repro.core.passive import brute_force_passive, solve_passive
from repro.core.points import PointSet
from repro.datasets.synthetic import planted_monotone, width_controlled
from repro.serve import fit_artifact, save_artifact


def _small_instances(count: int, n: int):
    rng = np.random.default_rng(2024)
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        coords = rng.integers(0, 4, size=(n, dim)).astype(float)
        labels = rng.integers(0, 2, size=n)
        weights = rng.exponential(1.0, size=n) + 0.01
        yield PointSet(coords, labels, weights)


@pytest.mark.parametrize("n", [1, 5, 9, 12])
def test_solve_passive_passes_the_oracles_and_matches_brute_force(n):
    for points in _small_instances(15, n):
        result = solve_passive(points)
        assert not oracles.monotone_violation(points.coords, result.assignment)
        error = oracles.weighted_error(points.labels, result.assignment,
                                       points.weights)
        assert oracles.close(error, brute_force_passive(points, max_n=12))
        assert oracles.close(error, result.flow_value)


def test_monotone_violation_finds_the_forbidden_pair():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    assert oracles.monotone_violation(coords, np.array([0, 1, 1])) is False
    # [1, 1] dominates [0, 0]: predicting 0 above a 1 is not monotone.
    assert oracles.monotone_violation(coords, np.array([1, 0, 1])) is True
    # Equal coordinates dominate each other weakly.
    twins = np.array([[3.0, 3.0], [3.0, 3.0]])
    assert oracles.monotone_violation(twins, np.array([0, 1])) is True
    assert oracles.monotone_violation(twins, np.array([1, 1])) is False


def test_monotone_violation_is_blockwise_exact():
    points = planted_monotone(700, 3, noise=0.1, rng=5)
    result = solve_passive(points)
    assert not oracles.monotone_violation(points.coords, result.assignment, block=64)
    broken = np.array(result.assignment)
    top = int(np.argmax(points.coords.sum(axis=1)))
    bottom = int(np.argmin(points.coords.sum(axis=1)))
    if np.all(points.coords[top] >= points.coords[bottom]):
        broken[top], broken[bottom] = 0, 1
        assert oracles.monotone_violation(points.coords, broken, block=64)


@pytest.mark.parametrize("n,width", [(6, 2), (10, 3), (12, 4)])
def test_chain_optimum_matches_brute_force(n, width):
    for seed in range(10):
        points = width_controlled(n, width, noise=0.3, rng=seed)
        optimum = oracles.incomparable_chain_optimum(points.coords, points.labels,
                                                     points.weights)
        assert oracles.close(optimum, brute_force_passive(points, max_n=12))


@pytest.mark.parametrize("seed", range(4))
def test_chain_optimum_matches_solve_passive(seed):
    points = width_controlled(900, 6, noise=0.2, rng=seed)
    optimum = oracles.incomparable_chain_optimum(points.coords, points.labels,
                                                 points.weights)
    assert oracles.close(optimum, solve_passive(points).optimal_error)


def test_chain_optimum_rejects_comparable_groups():
    points = planted_monotone(50, 2, noise=0.1, rng=1)
    with pytest.raises(ValueError):
        oracles.incomparable_chain_optimum(points.coords, points.labels,
                                           points.weights)


def test_upset_labels_match_the_classifier():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5):
        anchors = rng.random((17, dim))
        queries = rng.random((300, dim))
        queries[:5] = anchors[:5]  # points on an anchor are labelled 1
        expected = UpsetClassifier(anchors).classify_matrix(queries)
        assert np.array_equal(oracles.upset_labels(anchors, queries), expected)


def test_artifact_anchors_round_trip(tmp_path):
    points = planted_monotone(300, 3, noise=0.05, weights="random", rng=4)
    artifact = fit_artifact(points, include_chains=False)
    save_artifact(artifact, tmp_path / "model.json")
    anchors = oracles.artifact_anchors(tmp_path / "model.json")
    assert np.array_equal(anchors, artifact.classifier.anchors)


def test_labeler_returns_the_true_label():
    points = width_controlled(200, 4, noise=0.1, rng=2)
    labeler = Labeler(points.coords[:, 0], points.labels)
    for i in range(0, 200, 17):
        assert labeler(tuple(points.coords[i])) == points.labels[i]
    with pytest.raises(KeyError):
        labeler((-1.0, 0.0))
