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


@dataclass(frozen=True)
class Match:
    """Nearest-neighbor correspondence between descriptor indices."""

    index_a: int
    index_b: int
    distance: int


def match_bruteforce(descs_a: np.ndarray, descs_b: np.ndarray,
                     chunk: int = 512) -> list[Match]:
    """For each descriptor in A, its nearest neighbor in B by Hamming distance.

    Ties break toward the lowest B index; result order follows A. Equivalent
    to the exhaustive pairwise scan.
    """
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    bits_b = np.unpackbits(descs_b, axis=1).astype(np.float32)
    ones_b = bits_b.sum(axis=1)
    matches: list[Match] = []
    for start in range(0, len(descs_a), chunk):
        bits = np.unpackbits(descs_a[start:start + chunk], axis=1).astype(np.float32)
        dists = bits @ bits_b.T
        dists *= -2.0
        dists += bits.sum(axis=1)[:, None]
        dists += ones_b
        nearest = dists.argmin(axis=1)
        best = dists[np.arange(len(bits)), nearest]
        matches.extend(Match(index_a=start + row, index_b=j, distance=int(d))
                       for row, (j, d) in enumerate(zip(nearest.tolist(), best.tolist())))
    return matches


def filter_matches(matches: list[Match], drop_fraction: float = 0.10,
                   drop_best: bool = False) -> list[Match]:
    """Drop the worst ceil(N * drop_fraction) matches by distance.

    ``drop_best=True`` flips the direction and discards the smallest-distance
    matches instead. Output is ordered ascending by distance either way.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise RegistrationError("filter",
                                f"drop_fraction must lie in [0, 1), got {drop_fraction}")
    ordered = sorted(matches, key=lambda m: (m.distance, m.index_a, m.index_b))
    n_drop = math.ceil(len(ordered) * drop_fraction)
    if n_drop == 0:
        return ordered
    return ordered[n_drop:] if drop_best else ordered[:len(ordered) - n_drop]
