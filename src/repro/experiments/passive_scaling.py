"""Experiment E3: passive-solver CPU time and optimality (Theorem 4).

Theorem 4 claims Problem 2 is solvable in ``O(d n^2) + T_maxflow(n)``.  We
measure wall-clock time of the full pipeline (dominance matrix, contending
reduction, min-cut) as ``n`` and ``d`` grow, and certify optimality on every
instance: for ``d = 1`` against the exact prefix-sum solver, and for small
``n`` against exhaustive search.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..core.passive import brute_force_passive, solve_passive
from ..core.passive_1d import solve_passive_1d
from ..datasets.synthetic import planted_monotone, planted_threshold_1d

TITLE = "E3 — passive weighted classification: CPU time vs n, d (Theorem 4)"

__all__ = ["run", "TITLE"]


def run(ns: Sequence[int] = (100, 200, 400, 800, 1600),
        ds: Sequence[int] = (1, 2, 4, 8),
        noise: float = 0.1, backend: str = "dinic_array",
        seed: int = 0) -> List[dict]:
    """Time the Theorem 4 solver across input sizes and dimensionalities."""
    rows: List[dict] = []
    for d in ds:
        for n in ns:
            if d == 1:
                points = planted_threshold_1d(n, noise=noise, rng=seed,
                                              weights="random")
            else:
                points = planted_monotone(n, d, noise=noise, rng=seed,
                                          weights="random")
            start = time.perf_counter()
            result = solve_passive(points, backend=backend)
            elapsed = time.perf_counter() - start

            check: Optional[str] = None
            if d == 1:
                exact = solve_passive_1d(points).optimal_error
                check = "ok" if abs(exact - result.optimal_error) < 1e-9 else "MISMATCH"
            elif n <= 14:
                exact = brute_force_passive(points)
                check = "ok" if abs(exact - result.optimal_error) < 1e-9 else "MISMATCH"

            rows.append({
                "d": d,
                "n": n,
                "noise": noise,
                "contending": result.num_contending,
                "opt_weighted_error": result.optimal_error,
                "time_s": elapsed,
                "optimality_check": check or "n/a",
            })
    return rows
