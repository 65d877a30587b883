"""Blockwise pairwise dominance computations.

The Theorem 4 pipeline needs three ``O(d n^2)``-time pairwise facts:

* which points are *contending* (Section 5.1);
* the dominance edges between contending label-0 and label-1 points;
* whether a final assignment is monotone (Lemma 16's certificate).

The cached ``PointSet.weak_dominance_matrix`` materializes all ``n^2``
booleans at once.  The functions here compute the edges and the
monotonicity check in row blocks of configurable size, keeping memory at
``O(n * block_size)`` while preserving the time bound; the contending mask
streams the same blocks through
:func:`repro.poset.bitset.contending_mask_bitset`.  ``solve_passive`` runs
these kernels at every input size.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .points import PointSet

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "pairwise_weak_dominance",
    "blocked_dominance_pair_arrays",
    "blocked_is_monotone_assignment",
]

#: Rows per block: 2048 rows x n columns of booleans stays in tens of MB
#: for n up to a few hundred thousand.
DEFAULT_BLOCK_SIZE = 2048


def _blocks(n: int, block_size: int) -> Iterator[Tuple[int, int]]:
    for start in range(0, n, block_size):
        yield start, min(n, start + block_size)


def pairwise_weak_dominance(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean ``(len(rows), len(cols))`` matrix of weak dominance.

    ``out[i, j]`` is true iff ``rows[i]`` weakly dominates ``cols[j]``.
    Accumulates one dimension at a time, so peak scratch memory is one
    ``rows x cols`` boolean matrix — never the ``(rows, cols, d)``
    broadcast intermediate that a single ``np.all(..., axis=2)`` call
    would materialize.
    """
    r = rows.shape[0]
    c = cols.shape[0]
    out = np.ones((r, c), dtype=bool)
    for k in range(rows.shape[1]):
        np.logical_and(out, rows[:, k, None] >= cols[None, :, k], out=out)
    return out


def blocked_dominance_pair_arrays(points: PointSet, sources: np.ndarray,
                                  targets: np.ndarray,
                                  block_size: int = DEFAULT_BLOCK_SIZE
                                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(source_ids, target_ids)`` dominance-pair arrays per block.

    Iterates blockwise over ``sources`` x ``targets`` (both arrays of point
    indices).  Each block yields two aligned integer arrays listing every
    pair where the source weakly dominates the target, in row-major order
    (sources in the order given, targets in the order given within a
    source), ready for :meth:`repro.flow.graph.FlowNetwork.add_edges`.
    This is the edge stream for the type-3 edges of the Theorem 4 flow
    network.
    """
    sources = np.asarray(sources, dtype=int)
    targets = np.asarray(targets, dtype=int)
    if len(sources) == 0 or len(targets) == 0:
        return
    target_coords = points.coords[targets]
    for start, stop in _blocks(len(sources), block_size):
        rows = points.coords[sources[start:stop]]
        dom = pairwise_weak_dominance(rows, target_coords)
        row_pos, col_pos = np.nonzero(dom)
        if len(row_pos):
            yield sources[start:stop][row_pos], targets[col_pos]


def blocked_is_monotone_assignment(points: PointSet, predictions: np.ndarray,
                                   block_size: int = DEFAULT_BLOCK_SIZE) -> bool:
    """Monotonicity check of an assignment without the full matrix.

    Violated iff some 0-assigned point weakly dominates a 1-assigned point.
    """
    pred = np.asarray(predictions, dtype=np.int8)
    if pred.shape != (points.n,):
        raise ValueError(f"expected {points.n} predictions, got {pred.shape}")
    zero_idx = np.flatnonzero(pred == 0)
    one_idx = np.flatnonzero(pred == 1)
    if len(zero_idx) == 0 or len(one_idx) == 0:
        return True
    one_coords = points.coords[one_idx]
    for start, stop in _blocks(len(zero_idx), block_size):
        rows = points.coords[zero_idx[start:stop]]
        if np.any(pairwise_weak_dominance(rows, one_coords)):
            return False
    return True
