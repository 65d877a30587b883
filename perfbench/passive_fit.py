"""``passive_fit``: Theorem 4's exact min-cut fit at the north-star size.

A closed loop with one caller: each fit gets a freshly generated
``planted_monotone(8192, 3, noise=0.1, weights="random")`` instance in a
freshly built ``PointSet``, because users fit new data; n = 8192 is the
dense side of ``LARGE_INPUT_THRESHOLD``.  poset, flow and the classifier
do almost all the work; serve, oracle and parallel do none.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from . import common, fitloop, oracles
from .common import Outcome, Spans

N = 8192
DIM = 3
NOISE = 0.1


class PassiveFit(fitloop.FitWorkload):
    name = "passive_fit"

    def setup(self, seed: int, k: int) -> Any:
        from repro.core.points import PointSet
        from repro.datasets.synthetic import planted_monotone

        data = planted_monotone(N, DIM, noise=NOISE, weights="random",
                                rng=np.random.default_rng([seed, k]))
        coords = np.array(data.coords)
        labels = np.array(data.labels)
        weights = np.array(data.weights)
        # The fit gets its own PointSet over copied arrays, so no cache
        # built by the generator or an earlier fit can serve it.
        return coords, labels, weights, PointSet(coords.copy(), labels.copy(),
                                                 weights.copy())

    def fit(self, instance: Any) -> Any:
        from repro.core.passive import solve_passive

        return solve_passive(instance[3])

    def check(self, instance: Any, result: Any, outcome: Outcome) -> Dict[str, float]:
        coords, labels, weights, _ = instance
        assignment = np.asarray(result.assignment)
        if oracles.monotone_violation(coords, assignment):
            outcome.problem("passive assignment is not monotone")
        error = oracles.weighted_error(labels, assignment, weights)
        if not (oracles.close(error, result.optimal_error)
                and oracles.close(error, result.flow_value)):
            outcome.problem(f"error {error!r} != optimal_error "
                            f"{result.optimal_error!r} / flow {result.flow_value!r}")
        fitted = oracles.upset_labels(result.classifier.anchors, coords)
        if not np.array_equal(fitted, assignment):
            outcome.problem("classifier disagrees with the assignment on P")
        # A passive fit reads every label; the min-cut value certifies the
        # optimum, so the ratio is 1 whenever the checks above pass.
        return {"probes": float(len(labels)),
                "anchors": float(result.classifier.num_anchors),
                "err_ratio": error / result.flow_value if result.flow_value else 1.0}

    def classifier(self, result: Any) -> Any:
        return result.classifier

    def coords(self, instance: Any) -> np.ndarray:
        return instance[0]

    def layers(self, instance: Any, result: Any, snapshot: dict,
               spans: Spans) -> Dict[str, float]:
        from repro.core.classifier import UpsetClassifier
        from repro.core.points import PointSet

        coords, labels, weights, _ = instance
        row = common.passive_layers(snapshot)
        fresh = PointSet(coords.copy(), labels.copy(), weights.copy())
        with spans.span("classifier.prune"):
            UpsetClassifier.from_positive_points(fresh, result.assignment)
        row["classifier.prune_s"] = spans.last("classifier.prune")
        row["classifier.anchors"] = float(result.classifier.num_anchors)
        row["classifier.us_per_point"] = common.classify_us_per_point(
            result.classifier, fitloop.replay_batches(coords))
        return row


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    return fitloop.run(PassiveFit(), seed, seconds, trace)
