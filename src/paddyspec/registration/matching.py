"""Brute-force Hamming matching and distance-sorted filtering.

The Hamming distance between two 256-bit descriptors is a bit-vector inner
product: ``popcount(a) + popcount(b) - 2 * (a . b)`` over their unpacked
bits. ``match_bruteforce`` computes it for a block of A against all of B as
one float32 GEMM. Every partial sum is an integer <= 256, which float32
holds exactly, so the distances equal the XOR popcounts bit for bit.
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
                     chunk: int = 512) -> Matches:
    """For each descriptor in A, its nearest neighbor in B by Hamming distance.

    Ties break toward the lowest B index; result order follows A. Equivalent
    to the exhaustive pairwise scan.
    """
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    bits_b = np.unpackbits(descs_b, axis=1).astype(np.float32)
    ones_b = bits_b.sum(axis=1)
    index_b = np.empty(len(descs_a), dtype=np.intp)
    distance = np.empty(len(descs_a), dtype=np.int64)
    for start in range(0, len(descs_a), chunk):
        bits = np.unpackbits(descs_a[start:start + chunk], axis=1).astype(np.float32)
        dists = bits @ bits_b.T
        dists *= -2.0
        dists += bits.sum(axis=1)[:, None]
        dists += ones_b
        nearest = dists.argmin(axis=1)
        index_b[start:start + chunk] = nearest
        distance[start:start + chunk] = dists[np.arange(len(bits)), nearest]
    return Matches(np.arange(len(descs_a)), index_b, distance)


def filter_matches(matches: Matches, drop_fraction: float = 0.10,
                   drop_best: bool = False) -> Matches:
    """Drop the worst ceil(N * drop_fraction) matches by distance.

    ``drop_best=True`` flips the direction and discards the smallest-distance
    matches instead. Output is ordered ascending by (distance, index_a,
    index_b) either way.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise RegistrationError("filter",
                                f"drop_fraction must lie in [0, 1), got {drop_fraction}")
    order = np.lexsort((matches.index_b, matches.index_a, matches.distance))
    n_drop = math.ceil(len(order) * drop_fraction)
    return matches[order[n_drop:] if drop_best else order[:len(order) - n_drop]]
