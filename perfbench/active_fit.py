"""``active_fit``: Theorem 2's probe-efficient fit with a remote labeler.

A closed loop with one caller, calling ``active_classify`` with
epsilon = 1.0 and ``workers=2`` on a fresh
``width_controlled(32000, 8, noise=0.05)`` instance per fit.  The oracle
is a ``CallbackOracle`` over :class:`perfbench.labeler.Labeler`, which
waits 100 us per label like a remote labeling service.  The oracle wait,
the parallel chain fan-out, chain decomposition and 1-D sampling do the
work; the passive finish runs on a 2-D sample of about 6k points.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from . import common, fitloop, oracles
from .common import Outcome, Spans, span_total, timer_stat
from .labeler import Labeler

N = 32000
WIDTH = 8
NOISE = 0.05
EPSILON = 1.0
WORKERS = 2


class ActiveFit(fitloop.FitWorkload):
    name = "active_fit"

    def setup(self, seed: int, k: int) -> Any:
        from repro.core.callback_oracle import CallbackOracle
        from repro.core.points import PointSet
        from repro.datasets.synthetic import width_controlled

        data = width_controlled(N, WIDTH, noise=NOISE,
                                rng=np.random.default_rng([seed, k]))
        coords = np.array(data.coords)
        labels = np.array(data.labels)
        hidden = PointSet(coords.copy())
        oracle = CallbackOracle(hidden, Labeler(coords[:, 0], labels))
        return coords, labels, hidden, oracle, np.random.default_rng([seed, k, 1])

    def fit(self, instance: Any) -> Any:
        from repro.core.active import active_classify

        _, _, hidden, oracle, rng = instance
        return active_classify(hidden, oracle, epsilon=EPSILON, rng=rng,
                               workers=WORKERS)

    def check(self, instance: Any, result: Any, outcome: Outcome) -> Dict[str, float]:
        coords, labels, _, oracle, _ = instance
        probes = int(result.probing_cost)
        if probes != oracle.cost or not 0 < probes <= N:
            outcome.problem(f"probing cost {probes} vs oracle cost {oracle.cost}")
        predicted = oracles.upset_labels(result.classifier.anchors, coords)
        if not np.array_equal(predicted, result.classifier.classify_matrix(coords)):
            outcome.problem("classifier disagrees with the reference evaluation")
        errors = float(np.count_nonzero(predicted != labels))
        optimum = oracles.incomparable_chain_optimum(coords, labels,
                                                     np.ones(len(labels)))
        ratio = errors / optimum if optimum else (1.0 if errors == 0 else np.inf)
        if ratio > 1.0 + EPSILON:
            outcome.problem(f"err_ratio {ratio:.4f} exceeds 1 + epsilon")
        return {"probes": float(probes), "err_ratio": ratio,
                "anchors": float(result.classifier.num_anchors)}

    def classifier(self, result: Any) -> Any:
        return result.classifier

    def coords(self, instance: Any) -> np.ndarray:
        return instance[0]

    def layers(self, instance: Any, result: Any, snapshot: dict,
               spans: Spans) -> Dict[str, float]:
        from repro.core.classifier import UpsetClassifier

        counters = snapshot["counters"]
        row = common.passive_layers(snapshot)
        sample_s = span_total(snapshot, "active/sample_chains")
        chain_total = timer_stat(snapshot, "active.chain_seconds", "total")
        chain_max = timer_stat(snapshot, "active.chain_seconds", "max")
        requests = float(counters.get("oracle.requests", 0))
        dedup_hits = float(counters.get("oracle.dedup_hits", 0))
        sigma_size = snapshot["gauges"].get("active.sigma_size") or 0
        row.update({
            "poset.chain_decompose_s": span_total(snapshot, "active/chain_decompose"),
            "active.sample_chains_s": sample_s,
            "active.passive_finish_s": span_total(snapshot, "active/passive_solve"),
            "active.sigma_size": float(sigma_size),
            "oracle.probes": float(counters.get("oracle.probes", 0)),
            "oracle.requests": requests,
            "oracle.dedup_ratio": dedup_hits / requests if requests else 0.0,
            "oracle.wait_s": timer_stat(snapshot, "oracle.probe_seconds", "total"),
            "parallel.overlap": chain_total / sample_s if sample_s else 0.0,
            "parallel.chain_s_max": chain_max,
            "parallel.dispatch_s": sample_s - chain_max,
        })
        sigma = result.sigma_points
        assignment = result.classifier.classify_matrix(sigma.coords)
        with spans.span("classifier.prune"):
            UpsetClassifier.from_positive_points(sigma, assignment)
        row["classifier.prune_s"] = spans.last("classifier.prune")
        row["classifier.anchors"] = float(result.classifier.num_anchors)
        row["classifier.us_per_point"] = common.classify_us_per_point(
            result.classifier, fitloop.replay_batches(instance[0]))
        return row


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    return fitloop.run(ActiveFit(), seed, seconds, trace)
