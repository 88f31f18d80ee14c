"""Brute-force mutual Hamming matching and distance-sorted filtering.

The Hamming distance between two 256-bit descriptors is a bit-vector inner
product: ``popcount(a) + popcount(b) - 2 * (a . b)`` over their unpacked
bits. ``match_bruteforce`` takes a block of R rows of A at a time and
computes its keys ``R * distance + r`` against all of B, r being the row's
offset in the block, as one float32 GEMM: the popcounts and the offset ride
in three extra columns of the two operands. Every partial sum is an integer
of magnitude at most ``R * (2 * bits + 1)``, kept below 2**24, which float32
holds exactly, so the distances equal the XOR popcounts bit for bit.

The same keys serve both directions. A row's argmin is its nearest B
descriptor, the lowest B index on ties. A column's minimum key holds, in one
reduction, the distance and the offset of its nearest A row in the block,
the lowest offset on ties; a running per-column best that only a strictly
smaller distance replaces carries that tie-break across blocks. A match is
kept only when it is mutual: row i survives when the nearest A descriptor
of its nearest B descriptor is i (the cross-check of Lowe, IJCV 2004).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegistrationError


@dataclass(eq=False)
class Matches:
    """Nearest-neighbor correspondences between descriptor indices, one row
    each. Indexing with an index array, a boolean mask or a slice selects rows.
    """

    index_a: np.ndarray   # (n,) intp
    index_b: np.ndarray   # (n,) intp
    distance: np.ndarray  # (n,) int64 Hamming distance

    def __len__(self) -> int:
        return len(self.index_a)

    def __getitem__(self, rows) -> "Matches":
        return Matches(self.index_a[rows], self.index_b[rows], self.distance[rows])


def match_bruteforce(descs_a: np.ndarray, descs_b: np.ndarray,
                     chunk: int = 256) -> Matches:
    """Mutual nearest neighbors between A and B by Hamming distance.

    Row i of A is kept when its nearest descriptor j in B has i as its own
    nearest descriptor in A. Ties break toward the lowest index on both
    sides; result order follows A. Equivalent to the exhaustive pairwise
    scan in each direction, keeping the pairs on which both agree. The
    result does not depend on ``chunk``, which bounds the keys of a block
    (chunk x len(B) float32, about 6 MB at the default and 6k descriptors).
    """
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    n_a, n_b = len(descs_a), len(descs_b)
    n_bits = 8 * descs_b.shape[1]
    rows = min(chunk, n_a, 2**24 // (2 * n_bits + 1))
    # ext_a row: [bits, popcount, 1, r]; ext_b row: [-2R bits, R, R popcount, 1]
    ext_b = np.empty((n_b, n_bits + 3), dtype=np.float32)
    ext_b[:, :n_bits] = np.unpackbits(descs_b, axis=1)
    ext_b[:, n_bits + 1] = rows * ext_b[:, :n_bits].sum(axis=1)
    ext_b[:, :n_bits] *= -2.0 * rows
    ext_b[:, n_bits] = rows
    ext_b[:, n_bits + 2] = 1.0
    ext_a = np.empty((rows, n_bits + 3), dtype=np.float32)
    ext_a[:, n_bits + 1] = 1.0
    ext_a[:, n_bits + 2] = np.arange(rows)

    index_b = np.empty(n_a, dtype=np.intp)
    distance = np.empty(n_a, dtype=np.int64)
    col_distance = np.full(n_b, n_bits + 1, dtype=np.int64)
    col_index = np.zeros(n_b, dtype=np.intp)
    # every block's keys go into this one buffer, so one block is live at a time
    keys_buffer = np.empty((rows, n_b), dtype=np.float32)
    for start in range(0, n_a, rows):
        bits = np.unpackbits(descs_a[start:start + rows], axis=1)
        block = ext_a[:len(bits)]
        block[:, :n_bits] = bits
        block[:, n_bits] = bits.sum(axis=1)
        keys = np.matmul(block, ext_b.T, out=keys_buffer[:len(bits)])
        nearest = keys.argmin(axis=1)
        index_b[start:start + rows] = nearest
        distance[start:start + rows] = keys[np.arange(len(bits)), nearest] // rows
        col_dist, col_row = np.divmod(keys.min(axis=0).astype(np.int64), rows)
        better = col_dist < col_distance
        col_distance[better] = col_dist[better]
        col_index[better] = start + col_row[better]
    mutual = np.flatnonzero(col_index[index_b] == np.arange(n_a))
    return Matches(mutual, index_b[mutual], distance[mutual])


def filter_matches(matches: Matches, drop_fraction: float) -> Matches:
    """Drop the worst ceil(N * drop_fraction) matches by distance; the rest
    are ordered ascending by (distance, index_a, index_b)."""
    if not 0.0 <= drop_fraction < 1.0:
        raise RegistrationError("filter",
                                f"drop_fraction must lie in [0, 1), got {drop_fraction}")
    order = np.lexsort((matches.index_b, matches.index_a, matches.distance))
    n_drop = math.ceil(len(order) * drop_fraction)
    return matches[order[:len(order) - n_drop]]
