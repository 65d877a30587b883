"""The closed loop shared by the two fit workloads.

One caller fits, checks and queries one fresh instance at a time until the
run's time is up.  A workload supplies a :class:`FitWorkload`; this module
times the stages, queries each fitted model with the serving mix, and
turns the per-fit records into metrics.

Untraced runs time every fit with ``repro.obs`` off.  Traced runs
alternate an untraced fit with a fit under ``metrics_session(trace=True)``
so that both medians come from the same stretch of time; the per-layer
numbers are medians over the traced fits, and ``obs.overhead_frac``
compares the two medians.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import common, oracles
from .common import BATCH_POINTS, BATCH_SHARE, Outcome, Spans, median, quantile

#: Per fit, the fitted model answers this many lookups and batches in a
#: closed loop.  Percentiles are taken per fitted model and the run
#: reports their mean over models, so a slow spell of the host during
#: one fit does not become the run's tail.
PROBE_LOOKUPS = 1000
PROBE_BATCHES = 100
REPEATS = 3


class FitWorkload:
    """What a fit workload plugs into :func:`run`."""

    name = ""

    def setup(self, seed: int, k: int) -> Any:
        """Generate instance ``k`` of this seed (timed as set-up)."""
        raise NotImplementedError

    def fit(self, instance: Any) -> Any:
        """Fit the instance (timed as the fit)."""
        raise NotImplementedError

    def check(self, instance: Any, result: Any, outcome: Outcome) -> Dict[str, float]:
        """Check the fit's output; returns ``probes``, ``err_ratio``, ``anchors``."""
        raise NotImplementedError

    def classifier(self, result: Any) -> Any:
        raise NotImplementedError

    def coords(self, instance: Any) -> np.ndarray:
        raise NotImplementedError

    def layers(self, instance: Any, result: Any, snapshot: dict,
               spans: Spans) -> Dict[str, float]:
        """Per-layer numbers of one traced fit (may replay layer calls)."""
        raise NotImplementedError


def replay_batches(coords: np.ndarray, count: int = 20) -> np.ndarray:
    """Scoring batches for replaying ``classify_matrix`` in traced runs."""
    queries = common.mixed_queries(np.random.default_rng(0), coords,
                                   count * BATCH_POINTS)
    return queries.reshape(count, BATCH_POINTS, coords.shape[1])


def _time_serving_mix(classifier: Any, coords: np.ndarray,
                      rng: np.random.Generator, outcome: Outcome
                      ) -> Tuple[List[float], List[float]]:
    """Time the fitted model on the serving mix; check every answer.

    Each query's time is the best of :data:`REPEATS` calls, so that host
    interrupts, which last longer than a whole lookup, do not set the
    tail; the percentiles are over queries.
    """
    dim = coords.shape[1]
    lookups = common.mixed_queries(rng, coords, PROBE_LOOKUPS)
    lookups = lookups.reshape(PROBE_LOOKUPS, 1, dim)
    batches = common.mixed_queries(rng, coords, PROBE_BATCHES * BATCH_POINTS)
    batches = batches.reshape(PROBE_BATCHES, BATCH_POINTS, dim)
    clock = time.perf_counter
    times: Dict[bool, List[float]] = {False: [], True: []}
    for batch, queries in ((False, lookups), (True, batches)):
        answers = []
        for query in queries:
            best = np.inf
            for _ in range(REPEATS):
                start = clock()
                labels = classifier.classify_matrix(query)
                best = min(best, clock() - start)
            times[batch].append(best)
            answers.append(labels)
        reference = oracles.upset_labels(classifier.anchors,
                                         queries.reshape(-1, coords.shape[1]))
        if not np.array_equal(np.concatenate(answers), reference):
            outcome.problem("fitted model answers differ from the reference")
    return times[False], times[True]


def run(workload: FitWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import obs

    outcome = Outcome()
    spans = Spans()
    setup_s: List[float] = []
    fit_untraced: List[float] = []
    fit_traced: List[float] = []
    serving: List[Dict[str, float]] = []
    quality: List[Dict[str, float]] = []
    layer_rows: List[Dict[str, float]] = []
    snapshots: List[dict] = []
    rss_mb: List[float] = []
    probe_rng = np.random.default_rng([seed, 7])

    deadline = math.inf
    k = 0
    while time.perf_counter() < deadline:
        # Fit 0 warms the process up (first-touch page faults, lazy
        # imports): it is checked like every fit but not timed or traced.
        warm = k == 0
        traced = trace and k % 2 == 1
        start = time.perf_counter()
        instance = workload.setup(seed, k)
        if not warm:
            setup_s.append(time.perf_counter() - start)
        gc.collect()
        outcome.attempted += 1
        problems_before = outcome.problem_count
        registry: Optional[Any] = None
        try:
            common.reset_peak_rss()
            if traced:
                with obs.metrics_session(trace=True) as registry:
                    with spans.span(f"{workload.name}.fit"):
                        result = workload.fit(instance)
            else:
                with spans.span(f"{workload.name}.fit"):
                    result = workload.fit(instance)
            if not warm:
                fit_s = spans.last(f"{workload.name}.fit")
                (fit_traced if traced else fit_untraced).append(fit_s)
                rss_mb.append(common.peak_rss_mb())
            checked = workload.check(instance, result, outcome)
            lookups, batches = _time_serving_mix(
                workload.classifier(result), workload.coords(instance),
                probe_rng, outcome)
            if not warm:
                quality.append(checked)
                serving.append({
                    "lookup_p99": quantile(lookups, 0.99),
                    "batch_p50": median(batches),
                    "batch_p99": quantile(batches, 0.99),
                    "rate": 1.0 / ((1 - BATCH_SHARE) * float(np.mean(lookups))
                                   + BATCH_SHARE * float(np.mean(batches))),
                })
            if registry is not None:
                snapshot = registry.snapshot()
                snapshot.pop("trace", None)
                snapshots.append(snapshot)
                layer_rows.append(workload.layers(instance, result, snapshot, spans))
        except Exception as exc:  # noqa: BLE001 - a failed fit is counted
            outcome.problem(f"fit {k} raised {type(exc).__name__}: {exc}")
        if outcome.problem_count != problems_before:
            outcome.failed += 1
        k += 1
        if warm:
            deadline = time.perf_counter() + seconds

    if trace:
        _traced_metrics(outcome, layer_rows, fit_traced, fit_untraced)
        outcome.dump = {"spans": spans.dump(), "obs": snapshots}
    else:
        _e2e_metrics(outcome, setup_s, fit_untraced, quality, serving, rss_mb)
    return outcome


def _e2e_metrics(outcome: Outcome, setup_s: List[float], fit_s: List[float],
                 quality: List[Dict[str, float]], serving: List[Dict[str, float]],
                 rss_mb: List[float]) -> None:
    if not fit_s or not quality or not serving:
        outcome.problem("no fit completed")
        return

    def typical(name: str) -> float:
        # The mean, not the median, over models: the host switches between
        # a fast and a slow state for tiny calls, and a median over models
        # would snap to whichever state held most fits.
        return float(np.mean([s[name] for s in serving]))

    outcome.put("setup_s", median(setup_s), "s")
    outcome.put("fit_s_p50", median(fit_s), "s")
    outcome.put("probes", median([q["probes"] for q in quality]), "count")
    outcome.put("err_ratio", median([q["err_ratio"] for q in quality]), "ratio")
    outcome.put("lookup_p99_ms", 1e3 * typical("lookup_p99"), "ms")
    outcome.put("batch_p50_ms", 1e3 * typical("batch_p50"), "ms")
    outcome.put("batch_p99_ms", 1e3 * typical("batch_p99"), "ms")
    outcome.put("max_rate_rps", typical("rate"), "1/s")
    outcome.put("ok_frac", 1.0 - outcome.failed / max(1, outcome.attempted), "frac")
    outcome.put("peak_rss_mb", median(rss_mb), "MB")
    outcome.notes["fits_timed"] = len(fit_s)
    outcome.notes["anchors_p50"] = median([q["anchors"] for q in quality])


def _traced_metrics(outcome: Outcome, rows: List[Dict[str, float]],
                    fit_traced: List[float], fit_untraced: List[float]) -> None:
    if not rows or not fit_untraced:
        outcome.problem("no traced fit completed")
        return
    for name, unit in common.PER_LAYER.items():
        values = [row[name] for row in rows if name in row]
        outcome.put(name, median(values) if values else 0.0, unit)
    # A dense cache hit would mean a fit reused work from another object.
    hits = max(row.get("poset.order_cache_hits", 0.0) for row in rows)
    if hits:
        outcome.problem(f"poset.order_cache_hits = {hits:g}, expected 0")
    outcome.notes["fits_traced"] = len(fit_traced)
    outcome.notes["fits_untraced"] = len(fit_untraced)
    outcome.put("obs.overhead_frac",
                median(fit_traced) / median(fit_untraced) - 1.0, "frac")
