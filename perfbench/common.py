"""Helpers shared by the workloads: statistics, spans, obs copies, output.

Nothing here imports ``repro``; the workloads import it only after
:func:`import_program` has put the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: The serving mix every workload reports on: 95% single-point lookups,
#: 5% 256-point scoring batches.
BATCH_SHARE = 0.05
BATCH_POINTS = 256
#: Where traced runs write their span dumps and serve_mixed its artifact.
OUT_DIR = ROOT / ".perfbench_out"


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit non-zero.

    The benchmark measures the source tree it sits in, never an installed
    copy, so a checkout without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    return float(np.quantile(values, q, method="inverted_cdf"))


def peak_rss_mb() -> float:
    """This process's peak resident set size since start or the last reset."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak-RSS high-water mark, where Linux allows it.

    Freed heap that glibc still holds is handed back first, so that the
    next peak measures the work that follows rather than earlier work.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass


class Spans:
    """Benchmark-owned spans around calls into the program's layers.

    Each record is ``(name, start, end, parent_index)`` on the
    ``perf_counter`` clock; records stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, Optional[int]]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        start = time.perf_counter()
        self.records.append((name, start, start, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index] = (name, start, time.perf_counter(), parent)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def last(self, name: str) -> float:
        return self.durations(name)[-1]

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.records
        ]


def span_total(snapshot: dict, suffix: str) -> float:
    """Total seconds of the obs spans whose path ends with ``suffix``."""
    total = 0.0
    for path, hist in snapshot["spans"].items():
        if path == suffix or path.endswith("/" + suffix):
            total += float(hist["total"])
    return total


def child_span_total(snapshot: dict, parent_suffix: str) -> float:
    """Total seconds of the direct children of the spans ending ``parent_suffix``."""
    total = 0.0
    for path, hist in snapshot["spans"].items():
        head, _, _ = path.rpartition("/")
        if head == parent_suffix or head.endswith("/" + parent_suffix):
            total += float(hist["total"])
    return total


def counter_sum(snapshot: dict, prefix: str, suffix: str) -> float:
    """Sum of counters named ``prefix*suffix`` (e.g. every flow backend's)."""
    return float(
        sum(
            v
            for k, v in snapshot["counters"].items()
            if k.startswith(prefix) and k.endswith(suffix)
        )
    )


def timer_stat(snapshot: dict, name: str, stat: str) -> float:
    hist = snapshot["timers"].get(name)
    return float(hist[stat]) if hist else 0.0


#: Every per-layer metric a traced run prints, with its unit.  A layer
#: that does no work on a workload reports 0 there.
PER_LAYER: Dict[str, str] = {
    "poset.contending_s": "s",
    "poset.chain_decompose_s": "s",
    "poset.dominance_pairs": "count",
    "poset.order_cache_hits": "count",
    "flow.build_s": "s",
    "flow.max_flow_s": "s",
    "flow.extract_cut_s": "s",
    "flow.augmenting_paths": "count",
    "flow.pushes": "count",
    "flow.phases": "count",
    "classifier.prune_s": "s",
    "classifier.anchors": "count",
    "classifier.us_per_point": "us",
    "passive.span_s": "s",
    "passive.verify_s": "s",
    "passive.num_contending": "count",
    "passive.unattributed_s": "s",
    "active.sample_chains_s": "s",
    "active.passive_finish_s": "s",
    "active.sigma_size": "count",
    "oracle.probes": "count",
    "oracle.requests": "count",
    "oracle.dedup_ratio": "frac",
    "oracle.wait_s": "s",
    "parallel.overlap": "ratio",
    "parallel.chain_s_max": "s",
    "parallel.dispatch_s": "s",
    "serve.load_s": "s",
    "serve.lookup_p50_ms": "ms",
    "serve.lookup_wall_p99_ms": "ms",
    "serve.lookup_service_ms": "ms",
    "serve.lookup_service_p99_ms": "ms",
    "serve.batch_service_ms": "ms",
    "serve.batch_service_p99_ms": "ms",
    "serve.lookup_queue_wait_ms": "ms",
    "serve.lookup_queue_wait_p99_ms": "ms",
    "serve.batch_queue_wait_ms": "ms",
    "serve.batch_queue_wait_p99_ms": "ms",
    "serve.queue_depth_max": "count",
    "serve.shed": "count",
    "serve.gen_late_ms": "ms",
    "obs.overhead_frac": "frac",
}


def passive_layers(snapshot: dict) -> Dict[str, float]:
    """The poset/flow/passive numbers of the ``passive`` spans in a snapshot.

    Works wherever ``solve_passive`` ran: a direct fit, the passive finish
    of an active fit, or the fit inside ``fit_artifact``.
    """
    counters = snapshot["counters"]
    passive_s = span_total(snapshot, "passive")
    return {
        "poset.contending_s": span_total(snapshot, "passive/contending"),
        "poset.dominance_pairs": float(counters.get("passive.dominance_pairs", 0)),
        "poset.order_cache_hits": float(counters.get("poset.order_cache_hits", 0)),
        "flow.build_s": span_total(snapshot, "passive/build_network"),
        "flow.max_flow_s": span_total(snapshot, "min_cut/max_flow"),
        "flow.extract_cut_s": span_total(snapshot, "min_cut/extract_cut"),
        "flow.augmenting_paths": counter_sum(snapshot, "flow.", ".augmenting_paths"),
        "flow.pushes": counter_sum(snapshot, "flow.", ".pushes"),
        "flow.phases": counter_sum(snapshot, "flow.", ".phases"),
        "passive.span_s": passive_s,
        "passive.verify_s": span_total(snapshot, "passive/verify"),
        "passive.num_contending": float(
            snapshot["gauges"].get("passive.num_contending") or 0),
        "passive.unattributed_s": passive_s - child_span_total(snapshot, "passive"),
    }


def mixed_queries(rng: np.random.Generator, known: np.ndarray,
                  count: int) -> np.ndarray:
    """Half uniform points in the data's box, half points of the data.

    The data include the anchors themselves, so the answers also test the
    boundary, where ``>=`` and ``>`` differ.
    """
    fresh = rng.uniform(known.min(axis=0), known.max(axis=0),
                        size=(count - count // 2, known.shape[1]))
    seen = known[rng.integers(0, len(known), count // 2)]
    return rng.permutation(np.concatenate([fresh, seen]))


def classify_us_per_point(classifier, batches) -> float:
    """Median microseconds per point of ``classify_matrix`` over ``batches``."""
    per_point = []
    for batch in batches:
        start = time.perf_counter()
        classifier.classify_matrix(batch)
        per_point.append((time.perf_counter() - start) / len(batch))
    return 1e6 * median(per_point)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    problem_count: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    dump: Dict[str, object] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        """Record a failed check (the caller counts the failed operation)."""
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.problem_count == 0


def write_dump(name: str, document: dict) -> Path:
    """Write a traced run's spans and obs copies under ``OUT_DIR``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(document, indent=1, default=float))
    return path
