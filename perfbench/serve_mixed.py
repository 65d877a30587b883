"""``serve_mixed``: open-loop traffic against a ``ServeEngine``.

Set-up fits ``planted_monotone(8192, 5, noise=0.02, weights="random")``
with ``fit_artifact``, saves the artifact, and loads it into a
``ServeEngine`` with the default bounded queue; the engine serves from the
digest-verified primary.  The model's training data come from a fixed
seed: serving cost grows with the anchor count (250 here), and a fixed
model keeps runs comparable.  The traffic is Poisson arrivals, 95%
single-point lookups and 5% 256-point scoring batches.  Which points the
requests carry comes from ``--seed``; when each request arrives and
whether it is a batch come from the fixed :data:`SCHEDULE_SEED`.  Lookup
p99 is set by the few spells in which batches arrive close together:
with a schedule drawn anew per seed it spread by 13% over five seeds
while batch service time spread by 2%, i.e. it measured the schedule
more than the program.  A fixed schedule, like the fixed model, keeps
runs comparable.

One thread plays both sides.  It admits every request whose due time has
passed through ``ServeEngine.submit``, then answers the head of the queue
with ``drain(1)``, and spins when the queue is empty: sleeping would
let the host halt the idle vCPU, and its wake-up delay, which is not
the program's, would land on the next request.  With one
server answering in FIFO order this gives the same latencies as a
separate arrival thread.  Latency counts from each request's due time.
``serve.gen_late_ms`` is how late the generator admitted requests that
found the server idle, i.e. its own scheduling error.

The latency metrics come from a replay of that queue (:meth:`Phase.replay`)
in which every request takes the thread CPU time its ``submit`` and
``drain`` took.  The host is a VM whose hypervisor now and then takes the
CPU away for milliseconds, in spells that can last minutes; CPU time does
not advance while it is away, wall time does.  Measured on the wall clock,
lookup p99 doubled on three runs in a row during such a spell, with batch
service time up by 3%.  The replay keeps everything the program spends,
including its garbage collection, and leaves out what the host took; the
traced run still reports the wall-clock lookup p99.

The run is :data:`ROUNDS` rounds.  Each round runs a chunk at the
nominal :data:`RATE` and a short chunk at every rate of the ladder
(:data:`LADDER`); every :data:`SETUP_EVERY`-th round ends with one more
set-up.  So every rate's samples and the set-up times spread over the
whole run, and a slow spell of the host does not land on one of them
alone.  Statistics are per chunk, then averaged over rounds, without the
highest and the lowest chunk (:func:`_trimmed_mean`).  A chunk's slack
is the larger of lookup p99 / 10 ms and batch p99 / 25 ms; each rate's
slack is the geometric mean over its chunks, and ``max_rate_rps`` is
where a least-squares line of log slack against rate, over the nominal
rate and the ladder, reaches 1.  The estimate thus moves smoothly with
latency, and no single noisy chunk or rate decides it.  Every answer is
checked after the timed loops against a reference evaluation of the
anchors read from the artifact file.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from . import common, oracles
from .common import BATCH_POINTS, BATCH_SHARE, Outcome, Spans, median, quantile

N = 8192
DIM = 5
NOISE = 0.02
MODEL_SEED = 0
#: Seed of the arrival times and request kinds (see the module docstring).
SCHEDULE_SEED = 0
RATE = 2000.0
#: Limits a ladder rate must meet (also stated in BENCHMARK.json's why).
LOOKUP_P99_LIMIT_S = 0.010
BATCH_P99_LIMIT_S = 0.025
#: Ladder rates as multiples of RATE, in increasing order.
LADDER = (1.375, 1.75, 2.125, 2.5)
#: A chunk's slack counts at most this much (and this much when it failed
#: otherwise), so that overload informs the max-rate fit without
#: dominating it.
SLACK_CAP = 2.0
#: A chunk stops admitting once a request has queued this long.
ABORT_WAIT_S = 0.1
#: Share of the run spent at the nominal rate; the ladder gets the rest.
NOMINAL_SHARE = 0.5
ROUNDS = 12
#: Every this many rounds end with one more set-up; one starts the run.
SETUP_EVERY = 3
LOOKUP_POOL = 4096
BATCH_POOL = 64
WARMUP_REQUESTS = 400


@dataclass
class Phase:
    """Per-request records of one open-loop phase at one rate.

    ``wall_end`` is when the loop got each answer; ``work`` is the thread
    CPU time each request cost (its ``submit`` plus its ``drain``), and
    ``start``/``end`` replay the queue with those times (:meth:`replay`).
    """

    rate: float
    kinds: np.ndarray  # True = batch
    pool_index: np.ndarray
    due: np.ndarray
    wall_end: np.ndarray
    work: np.ndarray
    # Labels and statuses only: keeping the QueryResult objects would let
    # the cyclic GC pause the loop for longer and longer as they pile up.
    labels: List[Any]
    statuses: List[str]
    sent: int = 0
    shed: int = 0
    aborted: bool = False
    late: List[float] = field(default_factory=list)
    start: np.ndarray = field(default_factory=lambda: np.empty(0))
    end: np.ndarray = field(default_factory=lambda: np.empty(0))

    def replay(self) -> None:
        """Serve the sent requests again, on paper, on a host that never stalls.

        One server answers them in their FIFO order, each taking its
        measured CPU time; a shed request costs the server its ``submit``.
        """
        due = self.due[:self.sent].tolist()
        work = self.work[:self.sent].tolist()
        start = np.empty(self.sent)
        end = np.empty(self.sent)
        free = -np.inf
        for k in range(self.sent):
            start[k] = max(due[k], free)
            free = end[k] = start[k] + work[k]
        self.start, self.end = start, end

    def answered(self, batch: Optional[bool] = None) -> np.ndarray:
        done = np.flatnonzero(~np.isnan(self.wall_end[:self.sent]))
        return done if batch is None else done[self.kinds[done] == batch]

    def latency(self, batch: bool) -> np.ndarray:
        done = self.answered(batch)
        return self.end[done] - self.due[done]

    def wall_latency(self, batch: bool) -> np.ndarray:
        done = self.answered(batch)
        return self.wall_end[done] - self.due[done]

    def queue_wait(self, batch: bool) -> np.ndarray:
        done = self.answered(batch)
        return self.start[done] - self.due[done]

    def service(self, batch: bool) -> np.ndarray:
        return self.work[self.answered(batch)]

    def backlog_growing(self) -> bool:
        """Queue wait grew by more than the lookup limit across the phase."""
        done = self.answered()
        if len(done) < 8:
            return False
        waits = self.start[done] - self.due[done]
        quarter = len(waits) // 4
        return median(waits[-quarter:]) - median(waits[:quarter]) > LOOKUP_P99_LIMIT_S


def _pooled(phases: List[Phase], what: str, batch: bool) -> np.ndarray:
    return np.concatenate([getattr(p, what)(batch) for p in phases])


def _chunk_stat(phases: List[Phase], batch: bool, q: float,
                what: str = "latency") -> List[float]:
    """The ``q`` quantile of each chunk's (replayed, by default) latencies."""
    samples = [getattr(p, what)(batch) for p in phases]
    return [quantile(x, q) for x in samples if len(x)]


def _trimmed_mean(values: List[float]) -> float:
    """Mean without the largest and the smallest value.

    A chunk the host slowed down for can have a p99 well above the others;
    dropping the extremes keeps one such chunk from moving the run's figure.
    """
    ordered = sorted(values)
    return float(np.mean(ordered[1:-1] if len(ordered) > 4 else ordered))


def _chunk_slack(phase: Phase) -> float:
    """Larger of lookup p99 / its limit and batch p99 / its limit.

    Capped at :data:`SLACK_CAP`; a chunk that shed, stopped admitting or
    built a growing backlog counts at the cap.
    """
    if phase.aborted or phase.shed or phase.backlog_growing():
        return SLACK_CAP
    lookups, batches = phase.latency(False), phase.latency(True)
    if not len(lookups):
        return SLACK_CAP
    slack = quantile(lookups, 0.99) / LOOKUP_P99_LIMIT_S
    if len(batches):
        slack = max(slack, quantile(batches, 0.99) / BATCH_P99_LIMIT_S)
    return min(slack, SLACK_CAP)


def max_rate(rates: List[float], slacks: List[float]) -> float:
    """Highest rate meeting the limits, from a fit over the whole ladder.

    ``slacks`` holds each rate's geometric mean chunk slack.  The estimate is
    where a least-squares line of log slack against rate crosses 0,
    clamped to what the ladder can tell: from the nominal rate over the
    cap up to the top rate.
    """
    logs = np.log(slacks)
    slope, intercept = np.polyfit(rates, logs, 1)
    low, high = rates[0] / SLACK_CAP, rates[-1]
    if slope <= 0:
        return float(high if np.mean(logs) < 0 else low)
    return float(np.clip(-intercept / slope, low, high))


def _schedule(arrivals: np.random.Generator, picks: np.random.Generator,
              rate: float, seconds: float) -> Phase:
    """Arrival times and kinds from ``arrivals``, queried points from ``picks``."""
    count = int(rate * seconds * 1.3) + 64
    offsets = np.cumsum(arrivals.exponential(1.0 / rate, size=count))
    offsets = offsets[offsets < seconds]
    n = len(offsets)
    kinds = arrivals.random(n) < BATCH_SHARE
    pool_index = np.where(kinds, picks.integers(0, BATCH_POOL, n),
                          picks.integers(0, LOOKUP_POOL, n))
    return Phase(rate, kinds, pool_index, offsets, np.full(n, np.nan),
                 np.zeros(n), [None] * n, ["unanswered"] * n)


def _run_phase(engine: Any, phase: Phase, lookups: np.ndarray,
               batches: np.ndarray) -> Phase:
    """Drive one phase in real time (see the module docstring)."""
    clock = time.perf_counter
    cpu = time.thread_time
    submit = engine.submit
    drain = engine.drain
    due = phase.due + clock() + 0.005
    phase.due = due
    kinds, pool_index = phase.kinds, phase.pool_index
    wall_end, work = phase.wall_end, phase.work
    labels, statuses = phase.labels, phase.statuses
    n = len(due)
    admitted: deque = deque()
    i = 0
    served = False  # whether the previous pass answered a request
    while i < n or admitted:
        now = clock()
        if i < n and due[i] <= now:
            idle = not admitted and not served
            while i < n and due[i] <= now:
                j = pool_index[i]
                spent = cpu()
                shed = submit(batches[j] if kinds[i] else lookups[j])
                work[i] = cpu() - spent
                if shed is not None:
                    phase.shed += 1
                    statuses[i] = shed.status
                else:
                    admitted.append(i)
                    if idle:
                        phase.late.append(now - due[i])
                i += 1
        served = bool(admitted)
        if admitted:
            k = admitted.popleft()
            began = clock()
            spent = cpu()
            (answer,) = drain(1)
            work[k] += cpu() - spent
            wall_end[k] = clock()
            labels[k] = answer.labels
            statuses[k] = "degraded" if answer.degraded else answer.status
            if began - due[k] > ABORT_WAIT_S and not phase.aborted:
                phase.aborted = True
                n = i  # stop admitting; drain what is queued
    phase.sent = n
    phase.replay()
    return phase


def _setup(seed: int, rep: int, workdir: Any, spans: Spans) -> Dict[str, Any]:
    from repro.core.points import PointSet
    from repro.datasets.synthetic import planted_monotone
    from repro.serve import ServeEngine, fit_artifact, save_artifact

    started = time.perf_counter()
    data = planted_monotone(N, DIM, noise=NOISE, weights="random",
                            rng=np.random.default_rng(MODEL_SEED))
    coords = np.array(data.coords)
    labels = np.array(data.labels)
    weights = np.array(data.weights)
    points = PointSet(coords.copy(), labels.copy(), weights.copy())
    with spans.span("serve.fit_artifact"):
        artifact = fit_artifact(points, include_chains=False)
    path = workdir / f"model-{rep}.json"
    with spans.span("serve.save_artifact"):
        save_artifact(artifact, path)
    engine = ServeEngine(path)
    with spans.span("serve.load"):
        engine.reload()
    setup_s = time.perf_counter() - started
    return {"engine": engine, "path": path, "coords": coords, "labels": labels,
            "weights": weights, "setup_s": setup_s,
            "fit_s": spans.last("serve.fit_artifact")}


def _check_artifact(model: Dict[str, Any], outcome: Outcome) -> Dict[str, float]:
    engine = model["engine"]
    if not engine.serving_verified or engine.source != "primary":
        outcome.problem(f"engine serves from {engine.source}, not the verified primary")
    anchors = oracles.artifact_anchors(model["path"])
    certificate = json.loads(model["path"].read_text())["body"]["certificate"]
    fitted = oracles.upset_labels(anchors, model["coords"])
    error = oracles.weighted_error(model["labels"], fitted, model["weights"])
    if not (oracles.close(error, certificate["optimal_error"])
            and oracles.close(error, certificate["flow_value"])):
        outcome.problem(f"artifact error {error!r} != certificate {certificate!r}")
    flow = certificate["flow_value"]
    return {"probes": float(N), "err_ratio": error / flow if flow else 1.0}


def _check_answers(phases: List[Phase], reference_lookups: np.ndarray,
                   reference_batches: np.ndarray, outcome: Outcome) -> None:
    for phase in phases:
        for i in range(phase.sent):
            outcome.attempted += 1
            status = phase.statuses[i]
            if status != "ok":
                outcome.failed += 1
                outcome.problem(f"request at {phase.rate:.0f}/s answered {status}")
                continue
            j = phase.pool_index[i]
            expected = reference_batches[j] if phase.kinds[i] else reference_lookups[j]
            if not np.array_equal(phase.labels[i], expected):
                outcome.failed += 1
                outcome.problem(f"request at {phase.rate:.0f}/s has wrong labels")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import obs
    from repro.core.classifier import UpsetClassifier
    from repro.core.points import PointSet

    outcome = Outcome()
    spans = Spans()
    workdir = common.OUT_DIR / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    models: List[Dict[str, Any]] = []
    traced_rows: List[Dict[str, float]] = []
    snapshots: List[dict] = []
    fit_traced: List[float] = []
    fit_untraced: List[float] = []

    def setup() -> Dict[str, Any]:
        gc.collect()
        if trace and len(models) % 2 == 1:
            with obs.metrics_session(trace=True) as registry:
                model = _setup(seed, len(models), workdir, spans)
            snapshot = registry.snapshot()
            snapshot.pop("trace", None)
            snapshots.append(snapshot)
            traced_rows.append(common.passive_layers(snapshot))
            fit_traced.append(model["fit_s"])
        else:
            model = _setup(seed, len(models), workdir, spans)
            fit_untraced.append(model["fit_s"])
        models.append(model)
        return model

    try:
        model = setup()
        engine = model["engine"]
        quality = _check_artifact(model, outcome)
        anchors = oracles.artifact_anchors(model["path"])

        rng = np.random.default_rng([seed, 11])
        lookups = common.mixed_queries(rng, model["coords"], LOOKUP_POOL)
        lookups = lookups.reshape(LOOKUP_POOL, 1, DIM)
        batches = common.mixed_queries(rng, model["coords"], BATCH_POOL * BATCH_POINTS)
        batches = batches.reshape(BATCH_POOL, BATCH_POINTS, DIM)
        for w in range(WARMUP_REQUESTS):
            engine.submit(batches[w % BATCH_POOL] if w % 20 == 0
                          else lookups[w % LOOKUP_POOL])
        engine.drain()

        chunk_s = NOMINAL_SHARE * seconds / ROUNDS
        rung_s = (1.0 - NOMINAL_SHARE) * seconds / (ROUNDS * len(LADDER))
        nominal_registry = obs.MetricsRegistry("nominal")
        ladder_registry = obs.MetricsRegistry("ladder")
        nominal: List[Phase] = []
        ladder: Dict[float, List[Phase]] = {factor: [] for factor in LADDER}
        arrivals = np.random.default_rng(SCHEDULE_SEED)
        gc.collect()
        gc.freeze()
        for round_ in range(ROUNDS):
            gc.collect()
            with obs.metrics_session(nominal_registry):
                nominal.append(_run_phase(
                    engine, _schedule(arrivals, rng, RATE, chunk_s),
                    lookups, batches))
            for factor in LADDER:
                gc.collect()
                with obs.metrics_session(ladder_registry):
                    ladder[factor].append(_run_phase(
                        engine, _schedule(arrivals, rng, RATE * factor, rung_s),
                        lookups, batches))
            if round_ % SETUP_EVERY == SETUP_EVERY - 1:
                setup()["engine"].close()
        gc.unfreeze()

        reference_lookups = oracles.upset_labels(
            anchors, lookups.reshape(-1, DIM)).reshape(LOOKUP_POOL, 1)
        reference_batches = oracles.upset_labels(
            anchors, batches.reshape(-1, DIM)).reshape(BATCH_POOL, BATCH_POINTS)
        chunks = nominal + [p for phases in ladder.values() for p in phases]
        _check_answers(chunks, reference_lookups, reference_batches, outcome)
        rates = [RATE] + [RATE * factor for factor in LADDER]
        slacks = [float(np.exp(np.mean(np.log([_chunk_slack(p) for p in phases]))))
                  for phases in [nominal] + list(ladder.values())]
        wall_p99 = 1e3 * _trimmed_mean(
            _chunk_stat(nominal, False, 0.99, "wall_latency"))
        outcome.notes.update({
            "anchors": int(len(anchors)),
            "lookup_wall_p99_ms": round(wall_p99, 3),
            "nominal_lookups": int(len(_pooled(nominal, "latency", False))),
            "nominal_batches": int(len(_pooled(nominal, "latency", True))),
            "rate_slack": [(round(r), round(sl, 3)) for r, sl in zip(rates, slacks)],
            "setup_reps": len(models),
        })
        if trace:
            classifier = engine.artifact.classifier
            fresh = PointSet(model["coords"].copy(), model["labels"].copy(),
                             model["weights"].copy())
            predicted = classifier.classify_matrix(fresh.coords)
            with spans.span("classifier.prune"):
                UpsetClassifier.from_positive_points(fresh, predicted)
            row: Dict[str, float] = {
                name: median([r[name] for r in traced_rows])
                for name in traced_rows[0]
            }
            for kind, batch in (("lookup", False), ("batch", True)):
                service = _pooled(nominal, "service", batch)
                wait = _pooled(nominal, "queue_wait", batch)
                row[f"serve.{kind}_service_ms"] = 1e3 * median(service)
                row[f"serve.{kind}_service_p99_ms"] = 1e3 * quantile(service, 0.99)
                row[f"serve.{kind}_queue_wait_ms"] = 1e3 * median(wait)
                row[f"serve.{kind}_queue_wait_p99_ms"] = 1e3 * quantile(wait, 0.99)
            late = [x for p in nominal for x in p.late]
            row.update({
                "classifier.prune_s": spans.last("classifier.prune"),
                "classifier.anchors": float(classifier.num_anchors),
                "classifier.us_per_point": common.classify_us_per_point(
                    classifier, batches[:20]),
                "serve.load_s": median(spans.durations("serve.load")),
                "serve.queue_depth_max": float(
                    nominal_registry.gauge_value("serve.queue_depth") or 0),
                "serve.shed": float(nominal_registry.counter_value("serve.shed")
                                    + ladder_registry.counter_value("serve.shed")),
                "serve.gen_late_ms": 1e3 * quantile(late, 0.99),
                "serve.lookup_p50_ms": 1e3 * np.mean(_chunk_stat(nominal, False, 0.5)),
                "serve.lookup_wall_p99_ms": wall_p99,
                "obs.overhead_frac": median(fit_traced) / median(fit_untraced) - 1.0,
            })
            if row["poset.order_cache_hits"]:
                outcome.problem("poset.order_cache_hits is not 0")
            for name, unit in common.PER_LAYER.items():
                outcome.put(name, row.get(name, 0.0), unit)
            outcome.dump = {"spans": spans.dump(), "obs": snapshots}
        else:
            outcome.put("setup_s", median([m["setup_s"] for m in models]), "s")
            outcome.put("fit_s_p50", median([m["fit_s"] for m in models]), "s")
            outcome.put("probes", quality["probes"], "count")
            outcome.put("err_ratio", quality["err_ratio"], "ratio")
            # Per-chunk statistics averaged over the rounds: a mean moves
            # smoothly with the host's fast and slow spells, where a pooled
            # quantile or a median of chunks snaps between them.
            outcome.put("lookup_p99_ms",
                        1e3 * _trimmed_mean(_chunk_stat(nominal, False, 0.99)), "ms")
            outcome.put("batch_p50_ms",
                        1e3 * _trimmed_mean(_chunk_stat(nominal, True, 0.5)), "ms")
            outcome.put("batch_p99_ms",
                        1e3 * _trimmed_mean(_chunk_stat(nominal, True, 0.99)), "ms")
            outcome.put("max_rate_rps", max_rate(rates, slacks), "1/s")
            outcome.put("ok_frac", 1.0 - outcome.failed / max(1, outcome.attempted),
                        "frac")
            outcome.put("peak_rss_mb", common.peak_rss_mb(), "MB")
        engine.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome
