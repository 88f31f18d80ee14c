"""Mutual Hamming matching, exhaustive or guided by a prior fit, and
distance-sorted filtering.

The Hamming distance between two 256-bit descriptors is the popcount of
their XOR (Rublee et al., ORB, ICCV 2011). ``match_bruteforce`` views each
descriptor as four 64-bit words and sums the four words' XOR popcounts into
one uint16 len(A) x len(B) matrix, ``ROW_BLOCK`` rows of A at a time
through two reused scratch buffers. Its one caller passes at most
``GUIDE_CORNERS`` descriptors a side, so the matrix is at most
1,000 x 1,000 (2 MB).

A row's argmin is its nearest B descriptor, the lowest B index on ties; a
column's argmin is its nearest A descriptor, the lowest A index on ties. A
match is kept only when it is mutual: row i survives when the nearest A
descriptor of its nearest B descriptor is i (the cross-check of Lowe, IJCV
2004).

``match_guided`` is the same mutual test over a much smaller candidate set
(guided matching, Hartley & Zisserman, *Multiple View Geometry*, section
4.8): a first fit predicts where each A corner lies in B's frame, and A row
i may pair only with the B corners less than ``radius`` from its prediction
whose distance to it is at most a cap. B's corners are hashed into a grid of
square cells of side ``radius``, so a prediction's candidates all lie in its
own cell or the 8 around it; ``searchsorted`` finds each cell's run of B
corners and ``repeat`` expands the runs into candidate pairs, with no loop
over corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegistrationError

ROW_BLOCK = 64  # A rows per block of the distance matrix


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


def match_bruteforce(descs_a: np.ndarray, descs_b: np.ndarray) -> Matches:
    """Mutual nearest neighbors between A and B by Hamming distance.

    Row i of A is kept when its nearest descriptor j in B has i as its own
    nearest descriptor in A. Ties break toward the lowest index on both
    sides; result order follows A. Equivalent to the exhaustive pairwise
    scan in each direction, keeping the pairs on which both agree. Holds
    the whole len(A) x len(B) uint16 distance matrix.
    """
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    words_a = np.ascontiguousarray(descs_a).view(np.uint64)
    words_b = np.ascontiguousarray(descs_b).view(np.uint64).T.copy()  # one row per word
    distances = np.zeros((len(words_a), words_b.shape[1]), dtype=np.uint16)
    xor = np.empty((min(ROW_BLOCK, len(words_a)), words_b.shape[1]), dtype=np.uint64)
    count = np.empty(xor.shape, dtype=np.uint8)
    for start in range(0, len(words_a), ROW_BLOCK):
        block = distances[start:start + ROW_BLOCK]
        xor_b, count_b = xor[:len(block)], count[:len(block)]
        for k, word_b in enumerate(words_b):
            np.bitwise_xor(words_a[start:start + ROW_BLOCK, k, None], word_b, out=xor_b)
            block += np.bitwise_count(xor_b, out=count_b)
    index_b = distances.argmin(axis=1)
    mutual = np.flatnonzero(distances.argmin(axis=0)[index_b] == np.arange(len(descs_a)))
    return Matches(mutual, index_b[mutual],
                   distances[mutual, index_b[mutual]].astype(np.int64))


def match_guided(descs_a: np.ndarray, descs_b: np.ndarray, predicted: np.ndarray,
                 xy_b: np.ndarray, radius: float, max_distance: int) -> Matches:
    """Mutual nearest neighbors between A and B among the pairs a prior fit
    allows.

    Row i of A may pair with row j of B only when ``xy_b[j]`` lies less than
    ``radius`` from ``predicted[i]`` (``np.hypot`` of the differences), A's
    corner mapped into B's frame, and their Hamming distance is at most
    ``max_distance``. Among those candidates a pair is kept when each side
    is the other's nearest, ties breaking toward the lowest index on both
    sides as in ``match_bruteforce``. A row whose prediction is not finite,
    or that has no candidate, is not matched. Result order follows A.
    """
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    # B's corners start at cell 1 and end one cell short of the grid's edge,
    # so the neighbour keys of a cell on the grid's empty border ring alias
    # only other empty ring cells or keys past either end
    origin = xy_b.min(axis=0) - radius
    cell_b = ((xy_b - origin) // radius).astype(np.intp)
    cols, rows = cell_b.max(axis=0) + 2
    key_b = cell_b[:, 1] * cols + cell_b[:, 0]
    order_b = np.argsort(key_b, kind="stable")
    sorted_keys = key_b[order_b]
    # the grid covers every point within radius of a B corner; comparisons
    # are False for NaN, so a non-finite prediction lies outside it
    end = origin + radius * np.array([cols, rows])
    inside = np.all((predicted >= origin) & (predicted < end), axis=1)
    rows_a = np.flatnonzero(inside)
    cell_a = ((predicted[rows_a] - origin) // radius).astype(np.intp)
    neighbours = (np.arange(-1, 2)[:, None] * cols + np.arange(-1, 2)).ravel()
    keys = ((cell_a[:, 1] * cols + cell_a[:, 0])[:, None] + neighbours).ravel()
    lo = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - lo
    # candidate k of run r sits at lo[r] + k in the sorted B corners
    run_start = np.cumsum(counts) - counts
    pair_a = np.repeat(np.repeat(rows_a, len(neighbours)), counts)
    pair_b = order_b[np.repeat(lo - run_start, counts) + np.arange(counts.sum())]

    offset = predicted[pair_a] - xy_b[pair_b]
    distance = np.bitwise_count(descs_a[pair_a] ^ descs_b[pair_b]).sum(axis=1, dtype=np.int64)
    keep = (np.hypot(offset[:, 0], offset[:, 1]) < radius) & (distance <= max_distance)
    pair_a, pair_b, distance = pair_a[keep], pair_b[keep], distance[keep]

    # the first pair of each row's (or column's) run in (row, distance,
    # column) order is its nearest candidate, lowest index on ties
    by_a = np.lexsort((pair_b, distance, pair_a))
    nearest_b = by_a[np.diff(pair_a[by_a], prepend=-1) != 0]
    by_b = np.lexsort((pair_a, distance, pair_b))
    nearest_a = by_b[np.diff(pair_b[by_b], prepend=-1) != 0]
    best_row = np.full(len(descs_b), -1, dtype=np.intp)
    best_row[pair_b[nearest_a]] = pair_a[nearest_a]
    mutual = nearest_b[best_row[pair_b[nearest_b]] == pair_a[nearest_b]]
    return Matches(pair_a[mutual], pair_b[mutual], distance[mutual])


def filter_matches(matches: Matches, drop_fraction: float) -> Matches:
    """Drop the worst ceil(N * drop_fraction) matches by distance; the rest
    are ordered ascending by (distance, index_a, index_b)."""
    if not 0.0 <= drop_fraction < 1.0:
        raise RegistrationError("filter",
                                f"drop_fraction must lie in [0, 1), got {drop_fraction}")
    order = np.lexsort((matches.index_b, matches.index_a, matches.distance))
    n_drop = math.ceil(len(order) * drop_fraction)
    return matches[order[:len(order) - n_drop]]
