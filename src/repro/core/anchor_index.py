"""Packed anchor index: orthant queries against a fixed set of anchors.

An upset classifier labels ``q`` with 1 iff ``q`` weakly dominates some
anchor, i.e. iff the orthant ``{x : x <= q}`` holds an anchor.  The index
answers that without comparing ``q`` with every anchor:

* per dimension ``k`` the anchors are sorted by coordinate ``k``, and row
  ``r`` of that dimension's *prefix table* is the set of anchors whose
  rank in ``k`` is below ``r``, packed 64 anchors per ``uint64`` word;
* a query takes ``r_k = searchsorted(sorted_k, q_k, side="right")`` in
  every dimension — exactly the anchors with ``anchor_k <= q_k`` — ANDs
  the ``d`` prefix rows, and answers 1 iff a bit survives.

A query costs ``O(d log a + d a / 64)`` word operations.  The anchors are
split into blocks of :data:`~repro.core.pairwise.DEFAULT_BLOCK_SIZE`, each
with its own prefix tables, so the tables take ``O(d a block / 8)`` bytes
rather than ``O(d a^2 / 8)``.

Comparison semantics match the dense ``np.all(q >= anchors, axis=1)``:
``-0.0`` equals ``0.0``, ``±inf`` sort to the ends, and a query with a NaN
coordinate answers 0 (``NaN >= x`` is false, whereas a binary search would
place NaN past every anchor).

Batches go through :meth:`AnchorIndex.hits` (numpy).  A single point goes
through :meth:`AnchorIndex.hit_one`, a scalar walk of the same tables:
``bisect_right`` on each sorted column and an AND of the prefix rows read
as Python ints, which avoids the per-call overhead of a dozen small numpy
operations on the serving lookup path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .pairwise import DEFAULT_BLOCK_SIZE

__all__ = ["AnchorIndex"]


def _chunks(n: int, size: int) -> Iterator[Tuple[int, int]]:
    for start in range(0, n, size):
        yield start, min(n, start + size)


def _bits(positions: np.ndarray) -> np.ndarray:
    """The ``uint64`` word with only bit ``position % 64`` set, per position."""
    return np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))


class _Block:
    """Prefix tables of one block of anchors (``start:stop`` of the index)."""

    __slots__ = ("start", "stop", "columns", "tables", "lists", "views", "row_bytes")

    def __init__(self, anchors: np.ndarray, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        size = stop - start
        words = (size + 63) // 64
        local = np.arange(size)
        columns: List[np.ndarray] = []
        tables: List[np.ndarray] = []
        for k in range(anchors.shape[1]):
            column = anchors[start:stop, k]
            order = np.argsort(column, kind="stable")
            table = np.zeros((size + 1, words), dtype=np.uint64)
            table[local + 1, order >> 6] = _bits(order)
            np.bitwise_or.accumulate(table, axis=0, out=table)
            table.setflags(write=False)
            sorted_column = column[order]
            sorted_column.setflags(write=False)
            columns.append(sorted_column)
            tables.append(table)
        self.columns = tuple(columns)
        self.tables = tuple(tables)
        self.lists = tuple(column.tolist() for column in columns)
        self.views = tuple(memoryview(table).cast("B") for table in tables)
        self.row_bytes = 8 * words

    def hits(self, columns: np.ndarray) -> np.ndarray:
        """``(q, words)`` AND of the prefix rows selected by ``(d, q)`` queries."""
        out = None
        for column, table, query in zip(self.columns, self.tables, columns):
            rows = np.take(table, np.searchsorted(column, query, side="right"), axis=0)
            out = rows if out is None else np.bitwise_and(out, rows, out=out)
        if out is None:  # d = 0: every query dominates every anchor
            return np.ones((columns.shape[1], 1), dtype=np.uint64)
        return out


class AnchorIndex:
    """Immutable packed index answering "does ``q`` dominate an anchor?".

    Built once from an ``(a, d)`` anchor matrix; every query method only
    reads the tables, so one index can serve concurrent callers.
    """

    def __init__(self, anchors: np.ndarray) -> None:
        anchors = np.asarray(anchors, dtype=float)
        self.num_anchors = anchors.shape[0]
        self._anchors = anchors
        self._blocks = tuple(
            _Block(anchors, start, stop)
            for start, stop in _chunks(self.num_anchors, DEFAULT_BLOCK_SIZE))

    def hits(self, coords: np.ndarray) -> np.ndarray:
        """Boolean per row of ``coords``: does it weakly dominate an anchor?"""
        out = np.zeros(coords.shape[0], dtype=bool)
        for start, stop in _chunks(coords.shape[0], DEFAULT_BLOCK_SIZE):
            columns = np.ascontiguousarray(coords[start:stop].T)
            rows = np.arange(start, stop)
            for block in self._blocks:
                found = block.hits(columns).any(axis=1)
                out[rows[found]] = True
                # Later blocks only see the queries still unanswered.
                rows, columns = rows[~found], columns[:, ~found]
        out[np.isnan(coords).any(axis=1)] = False
        return out

    def hit_one(self, point: Sequence[float]) -> bool:
        """Scalar walk of the tables for one point (a sequence of floats)."""
        for x in point:
            if x != x:  # NaN dominates nothing
                return False
        for block in self._blocks:
            stride = block.row_bytes
            mask = -1
            for x, column, view in zip(point, block.lists, block.views):
                r = bisect_right(column, x)
                mask &= int.from_bytes(view[r * stride:(r + 1) * stride], "little")
                if not mask:
                    break
            else:
                return True
        return False

    def redundant(self) -> np.ndarray:
        """Boolean per anchor: does it weakly dominate *another* anchor?

        Row ``i`` queries its own orthant; its own bit is always set, so it
        is redundant iff some other bit survives.  Expects distinct anchors
        in lexicographic order (``np.unique(..., axis=0)``): an anchor can
        then only dominate anchors at or before its own position, so blocks
        starting after a query chunk are skipped.
        """
        anchors = self._anchors
        out = np.zeros(self.num_anchors, dtype=bool)
        for start, stop in _chunks(self.num_anchors, DEFAULT_BLOCK_SIZE):
            columns = np.ascontiguousarray(anchors[start:stop].T)
            for block in self._blocks:
                if block.start >= stop:
                    break
                hit = block.hits(columns)
                own = np.arange(max(start, block.start), min(stop, block.stop))
                local = own - block.start
                hit[own - start, local >> 6] &= ~_bits(local)
                out[start:stop] |= hit.any(axis=1)
        return out
