"""The labeling service the ``active_fit`` oracle calls.

It models a remote labeler: it looks up the point's true label and waits
a fixed :data:`WAIT_S` before answering.  The wait spins rather than
sleeps, so that the host's delay in waking an idle vCPU does not add a
noisy extra to every label.  It is a module-level class so
that ``active_classify(workers=2)`` can ship it to worker processes.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

#: The modelled service time of one label.
WAIT_S = 100e-6


class Labeler:
    """``coords -> label`` by the first coordinate, which must be unique."""

    def __init__(self, xs: np.ndarray, labels: np.ndarray) -> None:
        order = np.argsort(xs, kind="stable")
        self.xs = np.asarray(xs, dtype=float)[order]
        self.labels = np.asarray(labels, dtype=np.int8)[order]
        if len(self.xs) > 1 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("the labeler needs distinct first coordinates")

    def __call__(self, coords: Sequence[float]) -> int:
        i = int(np.searchsorted(self.xs, coords[0]))
        if i >= len(self.xs) or self.xs[i] != coords[0]:
            raise KeyError(f"no label for point {tuple(coords)}")
        until = time.perf_counter() + WAIT_S
        while time.perf_counter() < until:
            pass
        return int(self.labels[i])
