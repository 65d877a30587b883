"""Packed-bitset order engine: the vectorized substrate for the hot paths.

Every load-bearing consumer of the dominance order — minimal/maximal
extraction, chain decomposition via Hopcroft–Karp, the Theorem 4 flow
network — reduces to row/column operations on the boolean order matrix.
This module packs that matrix into ``uint8`` bitset rows (``np.packbits``)
and re-expresses the hot loops as bitwise kernels:

* :class:`PackedOrder` — both orientations of the tie-broken strict order
  packed 8 points per byte, built **blockwise** through the PR 3 sparse
  iterators (:func:`repro.poset.sparse.order_matrix_blocks`) so scratch
  memory beyond the packed output stays ``O(block * n)`` booleans and the
  dense ``(n, n)`` caches are never forced;
* consumers (:func:`minimal_points_bitset`, :func:`maximal_points_bitset`,
  :func:`dominance_pair_count_bitset`, :func:`packed_adjacency`,
  :func:`contending_mask_bitset`) that answer the common order queries with
  byte-wise ``any``/popcount instead of per-point Python;
* :func:`hopcroft_karp_bitset` — Hopcroft–Karp whose BFS layering is a
  *bitset frontier expansion*: one ``np.bitwise_or.reduce`` over the packed
  adjacency rows of the frontier per layer, instead of a Python loop over
  every edge.  Its output (not just the matching size) is identical to the
  reference :func:`repro.poset.matching.hopcroft_karp`, which the parity
  tests assert vertex-for-vertex.

Popcounts use the hardware ``np.bitwise_count`` ufunc when available
(numpy >= 2.0) and fall back to a 256-entry lookup table otherwise.

Padding bits: with ``n`` not a multiple of 8 the final byte of every packed
row carries ``8 - n % 8`` zero padding bits.  All kernels here either
preserve zeros (AND/OR/popcount) or re-mask after complement; the
``n = 258``-style regression tests pin this.  See ``docs/poset.md`` for the
memory model and the path-selection policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.pairwise import DEFAULT_BLOCK_SIZE, pairwise_weak_dominance
from ..core.points import PointSet
from ..obs import recorder
from .matching import MatchingResult
from .sparse import order_matrix_blocks

__all__ = [
    "PackedOrder",
    "packed_order",
    "popcount",
    "minimal_points_bitset",
    "maximal_points_bitset",
    "dominance_pair_count_bitset",
    "packed_adjacency",
    "contending_mask_bitset",
    "hopcroft_karp_bitset",
    "BITSET_CUTOFF",
]

#: Below this many points the dense boolean paths win (packing overhead
#: exceeds the loop cost); at or above it the auto-selected poset consumers
#: switch to the packed engine.  Parity is asserted by tests at every size.
BITSET_CUTOFF = 256

_INF = float("inf")

if hasattr(np, "bitwise_count"):

    def _popcount_bytes(packed: np.ndarray) -> np.ndarray:
        """Per-byte popcount via the hardware ufunc (numpy >= 2.0)."""
        return np.bitwise_count(packed)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_LUT = (
        np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        .sum(axis=1)
        .astype(np.uint8)
    )

    def _popcount_bytes(packed: np.ndarray) -> np.ndarray:
        """Per-byte popcount via a 256-entry lookup table."""
        return _POPCOUNT_LUT[packed]


def popcount(packed: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Number of set bits in a packed ``uint8`` bitset array.

    With ``axis=None`` returns the scalar total; with ``axis=1`` the
    per-row counts (an ``int64`` array), etc.  Padding bits are zero by
    construction, so they never contribute.
    """
    return _popcount_bytes(packed).sum(axis=axis, dtype=np.int64)


def _unpack_indices(row: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the set bits of one packed row."""
    return np.flatnonzero(np.unpackbits(row, count=n))


class PackedOrder:
    """Both orientations of the tie-broken strict order as packed bitsets.

    Attributes
    ----------
    n:
        Number of points.
    below:
        ``(n, ceil(n/8))`` ``uint8`` array; bit ``j`` of row ``i`` is set
        iff ``i`` is above ``j`` (``j`` lies below ``i``) — the packed
        rows of ``PointSet.order_matrix()``.
    above:
        The packed transpose: bit ``i`` of row ``j`` is set iff ``i`` is
        above ``j``.  Row ``j`` is exactly the Lemma 6 bipartite adjacency
        of left vertex ``j``.  Built lazily on first access (a strided
        transpose-pack costs as much as packing ``below`` itself, and the
        minimal/maximal/height consumers never need it); once built, both
        orientations together hold 2 bits per ordered pair — still 4x
        smaller than one boolean matrix.

    Rows are write-protected; the final byte of every row carries zero
    padding bits when ``n`` is not a multiple of 8.
    """

    __slots__ = ("n", "below", "_above")

    def __init__(self, n: int, below: np.ndarray,
                 above: Optional[np.ndarray] = None) -> None:
        self.n = n
        self.below = below
        below.setflags(write=False)
        self._above = above
        if above is not None:
            above.setflags(write=False)

    @property
    def above(self) -> np.ndarray:
        above = self._above
        if above is None:
            above = _transpose_packed(self.below, self.n)
            above.setflags(write=False)
            self._above = above
            rec = recorder()
            if rec.enabled:
                rec.incr("poset.bitset_transposes")
        return above

    @property
    def num_bytes(self) -> int:
        """Total bytes currently materialized (``above`` counts once built)."""
        total = self.below.nbytes
        if self._above is not None:
            total += self._above.nbytes
        return total

    def below_indices(self, i: int) -> np.ndarray:
        """Ascending indices of the points below ``i`` (``i`` above them)."""
        return _unpack_indices(self.below[i], self.n)

    def above_indices(self, j: int) -> np.ndarray:
        """Ascending indices of the points above ``j``."""
        return _unpack_indices(self.above[j], self.n)

    def pair_count(self) -> int:
        """Number of ordered pairs (edges of the dominance DAG)."""
        return int(popcount(self.below))

    def __repr__(self) -> str:
        return f"PackedOrder(n={self.n}, num_bytes={self.num_bytes})"


def _transpose_packed(packed: np.ndarray, n: int,
                      block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Packed transpose of a packed ``(n, ceil(n/8))`` bit matrix.

    Row blocks are unpacked, transposed, and re-packed into the matching
    byte columns — ``O(block * n)`` boolean scratch.  Block starts stay on
    multiples of 8 so transposed panels land on byte boundaries.
    """
    n_bytes = packed.shape[1]
    out = np.zeros((n, n_bytes), dtype=np.uint8)
    block_size = max(8, (block_size // 8) * 8)
    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        block = np.unpackbits(packed[start:stop], axis=1, count=n)
        out[:, start // 8 : start // 8 + (stop - start + 7) // 8] = (
            np.packbits(block.T, axis=1)
        )
    return out


def packed_order(points: PointSet, block_size: int = DEFAULT_BLOCK_SIZE) -> PackedOrder:
    """Build (or fetch the cached) :class:`PackedOrder` of a point set.

    Construction streams :func:`repro.poset.sparse.order_matrix_blocks` and
    row-packs each ``(block, n)`` boolean panel immediately into ``below``,
    so peak scratch beyond the packed output is one boolean panel,
    ``O(block * n)`` bytes; the ``above`` orientation is derived lazily on
    first access (matching consumers) rather than transpose-packed here
    (dominance consumers never touch it).

    The result is cached on the ``PointSet`` (like the dense order-matrix
    cache, which this path deliberately does **not** populate): repeat
    calls are free and counted by ``poset.bitset_cache_hits``.
    """
    cached = points._packed_order
    rec = recorder()
    if cached is not None:
        if rec.enabled:
            rec.incr("poset.bitset_cache_hits")
        return cached
    n = points.n
    n_bytes = (n + 7) // 8
    block_size = max(8, (block_size // 8) * 8)
    below = np.zeros((n, n_bytes), dtype=np.uint8)
    with rec.span("bitset_pack"):
        for start, stop, block in order_matrix_blocks(points, block_size):
            below[start:stop] = np.packbits(block, axis=1)
            if rec.enabled:
                rec.incr("poset.bitset_pack_blocks")
    packed = PackedOrder(n, below)
    if rec.enabled:
        rec.incr("poset.bitset_packs")
        rec.gauge("poset.bitset_bytes", packed.num_bytes)
    points._packed_order = packed
    return packed


def minimal_points_bitset(points: PointSet,
                          block_size: int = DEFAULT_BLOCK_SIZE) -> List[int]:
    """Indices of minimal points from the packed engine.

    A point is minimal iff its ``below`` row is all-zero bytes — one
    vectorized ``any`` over the packed rows.  Agrees with
    :func:`repro.poset.dominance.minimal_points` at every size.
    """
    packed = packed_order(points, block_size)
    has_below = (packed.below != 0).any(axis=1)
    return np.flatnonzero(~has_below).tolist()


def maximal_points_bitset(points: PointSet,
                          block_size: int = DEFAULT_BLOCK_SIZE) -> List[int]:
    """Indices of maximal points: all-zero columns of ``below``.

    Computed as one OR-reduction over the packed rows (a point is maximal
    iff nobody is above it, i.e. its bit is clear in every row), so the
    lazy ``above`` transpose is never forced.
    """
    packed = packed_order(points, block_size)
    has_above = np.unpackbits(
        np.bitwise_or.reduce(packed.below, axis=0), count=points.n
    )
    return np.flatnonzero(has_above == 0).tolist()


def dominance_pair_count_bitset(points: PointSet,
                                block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Ordered-pair count via hardware popcount over the packed rows."""
    return packed_order(points, block_size).pair_count()


def packed_adjacency(points: PointSet,
                     block_size: int = DEFAULT_BLOCK_SIZE) -> List[List[int]]:
    """Adjacency lists of the dominance DAG (``adj[j]`` = points above ``j``).

    Same contract as :func:`repro.poset.dominance.dominance_adjacency`,
    unpacked row-by-row from the packed transpose.
    """
    packed = packed_order(points, block_size)
    return [packed.above_indices(j).tolist() for j in range(points.n)]


def contending_mask_bitset(points: PointSet,
                           block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Contending mask (Section 5.1) accumulated through packed panels.

    Streams label-0 row blocks against the label-1 columns, packs each
    dominance panel, and accumulates the "some label-0 point dominates
    label-1 ``q``" evidence as a single packed OR row — ``O(block * m1)``
    boolean scratch and ``m1 / 8`` bytes of accumulator for ``m1`` label-1
    points.  Bit-identical to the dense reference
    :func:`repro.core.passive.contending_mask`; this is the kernel
    ``solve_passive`` runs for ``d >= 3``.
    """
    points.require_full_labels()
    n = points.n
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    zero_idx = np.flatnonzero(points.labels == 0)
    one_idx = np.flatnonzero(points.labels == 1)
    if len(zero_idx) == 0 or len(one_idx) == 0:
        return mask
    one_coords = points.coords[one_idx]
    m1 = len(one_idx)
    one_hit = np.zeros((m1 + 7) // 8, dtype=np.uint8)
    rec = recorder()
    for start in range(0, len(zero_idx), block_size):
        stop = min(len(zero_idx), start + block_size)
        rows = points.coords[zero_idx[start:stop]]
        panel = np.packbits(pairwise_weak_dominance(rows, one_coords), axis=1)
        mask[zero_idx[start:stop]] = (panel != 0).any(axis=1)
        one_hit |= np.bitwise_or.reduce(panel, axis=0)
        if rec.enabled:
            rec.incr("poset.bitset_contending_blocks")
    mask[one_idx] = np.unpackbits(one_hit, count=m1).astype(bool)
    return mask


def hopcroft_karp_bitset(adjacency_packed: np.ndarray,
                         n_right: int) -> MatchingResult:
    """Hopcroft–Karp over a packed-bitset adjacency matrix.

    Parameters
    ----------
    adjacency_packed:
        ``(n_left, ceil(n_right/8))`` ``uint8`` array; bit ``v`` of row
        ``u`` set iff the bipartite edge ``u -> v`` exists (for the
        Lemma 6 reduction this is :attr:`PackedOrder.above`).
    n_right:
        Number of right-side vertices.

    The BFS layering is fully vectorized: each layer ORs the packed
    adjacency rows of the current left frontier into one reachable-rights
    bitset (``np.bitwise_or.reduce``), subtracts the already-seen rights,
    and maps the fresh ones through ``right_match`` to the next left
    frontier — ``O(n^2 / 8)`` bytes of bitwise work per phase instead of a
    Python loop over every edge.  The augmenting DFS keeps the reference
    engine's exact traversal (ascending neighbor order, dead-end
    ``dist = inf`` removal), unpacking each visited row once on demand, so
    ``left_match``/``right_match`` equal
    :func:`repro.poset.matching.hopcroft_karp` vertex-for-vertex — not
    just in matching size — which downstream chain decompositions rely on
    and the parity tests assert.
    """
    n_left = adjacency_packed.shape[0]
    expected_bytes = (n_right + 7) // 8
    if adjacency_packed.shape[1] != expected_bytes:
        raise ValueError(
            f"packed adjacency has {adjacency_packed.shape[1]} byte columns; "
            f"expected {expected_bytes} for n_right = {n_right}"
        )
    # The DFS runs on plain Python lists (per-edge numpy scalar indexing
    # would cost ~10x the list lookups of the reference engine); the BFS
    # runs on numpy mirrors, kept in sync at the few points the DFS
    # mutates state (path flips, phase roots).
    left_match: List[int] = [-1] * n_left
    right_match: List[int] = [-1] * n_right
    right_match_np = np.full(n_right, -1, dtype=np.int64)
    dist_np = np.zeros(n_left, dtype=np.float64)
    dist: List[float] = []
    left_free_np = np.ones(n_left, dtype=bool)
    right_free = np.ones(n_right, dtype=bool)
    rec = recorder()

    # Lazily unpacked neighbor rows for the DFS; only rows the DFS
    # actually visits are materialized, and each at most once.  Small rows
    # are cached as Python lists (scanned directly, reference-style);
    # large rows stay packed-order arrays and get a vectorized prefilter
    # per visit — below ~64 neighbors the fixed numpy overhead exceeds
    # the scan it saves.
    _PREFILTER_MIN_DEGREE = 64
    row_cache: Dict[int, object] = {}

    def candidates(u: int, dist_u: float) -> List[int]:
        """Neighbors of ``u`` worth scanning at visit time.

        For high-degree rows this is a vectorized prefilter of the
        reference scan: an edge ``u -> v`` is kept iff ``v`` is free or
        its owner sits on the next BFS layer.  Edges dropped are exactly
        those the reference DFS would scan and skip — the condition can
        never *become* true later within the same ``augment_from`` call
        (matches only flip when the call returns, and ``dist`` only moves
        to inf) — so iterating the pruned list with the runtime checks
        below reproduces the reference traversal edge-for-edge.
        """
        row = row_cache.get(u)
        if row is None:
            unpacked = _unpack_indices(adjacency_packed[u], n_right)
            row = (unpacked.tolist()
                   if len(unpacked) < _PREFILTER_MIN_DEGREE else unpacked)
            row_cache[u] = row
        if type(row) is list:
            return row
        owners = right_match_np[row]
        keep = owners == -1
        matched = ~keep
        keep[matched] = dist_np[owners[matched]] == dist_u + 1.0
        return row[keep].tolist()

    def bfs() -> bool:
        """Layered bitset frontier expansion; returns whether an
        augmenting path exists and fills ``dist_np`` for reachable lefts."""
        dist_np[:] = np.where(left_free_np, 0.0, _INF)
        frontier = left_free_np.copy()
        seen = np.zeros(expected_bytes, dtype=np.uint8)
        found = False
        layer = 0.0
        layers = 0
        while frontier.any():
            reach = np.bitwise_or.reduce(adjacency_packed[frontier], axis=0)
            fresh = reach & ~seen
            if not fresh.any():
                break
            seen |= fresh
            layers += 1
            rights = _unpack_indices(fresh, n_right)
            if right_free[rights].any():
                found = True
            owners = right_match_np[rights]
            owners = owners[owners != -1]
            owners = owners[dist_np[owners] == _INF]
            layer += 1.0
            dist_np[owners] = layer
            frontier = np.zeros(n_left, dtype=bool)
            frontier[owners] = True
        if rec.enabled:
            rec.incr("poset.bitset_matching_layers", layers)
        return found

    def augment_from(root: int) -> bool:
        """Iterative DFS for one augmenting path, mirroring the reference
        engine step-for-step (see ``repro.poset.matching``)."""
        stack = [[root, 0, candidates(root, dist[root])]]
        path = []
        while stack:
            frame = stack[-1]
            u, ptr, row = frame
            dist_next = dist[u] + 1
            advanced = False
            while ptr < len(row):
                v = row[ptr]
                ptr += 1
                frame[1] = ptr
                w = right_match[v]
                if w == -1:
                    path.append((u, v))
                    for pu, pv in path:
                        left_match[pu] = pv
                        right_match[pv] = pu
                        right_match_np[pv] = pu
                        right_free[pv] = False
                    return True
                if dist[w] == dist_next:
                    path.append((u, v))
                    stack.append([w, 0, candidates(w, dist[w])])
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                dist_np[u] = _INF
                stack.pop()
                if stack:
                    path.pop()
        return False

    size = 0
    phases = 0
    with rec.span("bitset_matching"):
        while bfs():
            phases += 1
            dist = dist_np.tolist()
            for u in range(n_left):
                if left_match[u] == -1 and augment_from(u):
                    size += 1
                    left_free_np[u] = False
    if rec.enabled:
        rec.incr("poset.matching.phases", phases)
        rec.incr("poset.matching.augmentations", size)
        rec.incr("poset.matching.edges", int(popcount(adjacency_packed)))
        rec.incr("poset.bitset_matchings")
    return MatchingResult(size, left_match, right_match)
