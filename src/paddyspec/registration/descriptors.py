"""Rotated binary descriptors: 256 pairwise intensity tests on a smoothed patch.

Each corner at least ``PATCH_BORDER`` px inside its pyramid level gets an
orientation from the intensity centroid of a radius-15 disc on the
unsmoothed level, quantized to one of ``ORIENTATION_BINS`` = 32 bins of
11.25 degrees (ORB's precomputed rotated patterns, Rublee et al., ICCV 2011).
The disc's moments come from its 31 horizontal runs: two row prefix sums per
level, of I and of x * I (a summed-area table along rows, Crow, SIGGRAPH
1984), give each run's sum and x-moment from two lookups apiece.
The test pattern is fixed at import time (seeded isotropic Gaussian point
pairs, radius <= 13 so any rotation stays inside the border) and is rotated
and rounded once per bin; each corner samples the pattern of its bin. One bit
per test: smoothed(a) < smoothed(b).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RegistrationError
from .keypoints import Keypoints, gaussian_smooth

DESCRIPTOR_BITS = 256
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8
PATCH_BORDER = 16
_PATTERN_RADIUS = 13.0

# Only corners at least PATCH_BORDER px from every edge of their level are
# oriented, so a disc radius <= PATCH_BORDER keeps every run inside the level.
# Row dy of the disc is the run of dx with dx^2 + dy^2 <= radius^2.
_DISC_RADIUS = 15
_RUN_DY = np.arange(-_DISC_RADIUS, _DISC_RADIUS + 1)
_RUN_HALF = np.array([math.isqrt(_DISC_RADIUS ** 2 - dy * dy) for dy in _RUN_DY])


def _make_test_pattern(n_tests: int = DESCRIPTOR_BITS,
                       sigma: float = 31.0 / 5.0) -> np.ndarray:
    """(n_tests, 2, 2) integer offsets [(ax, ay), (bx, by)] per test."""
    rng = np.random.default_rng(9622153)
    pairs = np.empty((n_tests, 2, 2), dtype=np.int64)
    count = 0
    while count < n_tests:
        cand = np.round(rng.normal(0.0, sigma, size=(4,)))
        ax, ay, bx, by = cand
        if ax * ax + ay * ay > _PATTERN_RADIUS ** 2:
            continue
        if bx * bx + by * by > _PATTERN_RADIUS ** 2:
            continue
        # pair points at least 2 px apart, so rotation + rounding can never
        # collapse a test onto a single pixel
        if (ax - bx) ** 2 + (ay - by) ** 2 < 4.0:
            continue
        pairs[count, 0] = (ax, ay)
        pairs[count, 1] = (bx, by)
        count += 1
    return pairs


TEST_PATTERN = _make_test_pattern()
# x and y of every sampled point: the 256 first points of the tests, then
# the 256 second points
_PX = np.concatenate([TEST_PATTERN[:, 0, 0], TEST_PATTERN[:, 1, 0]]).astype(np.float64)
_PY = np.concatenate([TEST_PATTERN[:, 0, 1], TEST_PATTERN[:, 1, 1]]).astype(np.float64)

# Bin k holds the pattern rotated by k * 2pi / ORIENTATION_BINS, rounded to
# integer offsets; with 32 bins a quarter turn is exactly 8 bins.
ORIENTATION_BINS = 32
_BIN_ANGLES = np.arange(ORIENTATION_BINS)[:, None] * (2.0 * np.pi / ORIENTATION_BINS)
_ROT_X = np.round(np.cos(_BIN_ANGLES) * _PX - np.sin(_BIN_ANGLES) * _PY).astype(np.intp)
_ROT_Y = np.round(np.sin(_BIN_ANGLES) * _PX + np.cos(_BIN_ANGLES) * _PY).astype(np.intp)

# Corners are oriented and sampled this many at a time, so the per-corner
# temporaries (BLOCK x 31 disc-run sums and x-moments, BLOCK x 512 rotated
# offsets and samples) stay cache-sized instead of growing with the level's
# corner count.
BLOCK = 128


def _orientations(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Intensity-centroid angles of corners at least PATCH_BORDER px inside img."""
    h, w = img.shape
    # prefix[y, x] holds the sums of I and of x * I over img[y, :x]; the zero
    # column in front makes every run's sums a difference of two entries
    prefix = np.zeros((h, w + 1, 2))
    np.cumsum(img, axis=1, out=prefix[:, 1:, 0])
    np.cumsum(img * np.arange(w), axis=1, out=prefix[:, 1:, 1])
    prefix = prefix.reshape(-1, 2)
    angles = np.empty(len(ys))
    for start in range(0, len(ys), BLOCK):
        y, x = ys[start:start + BLOCK], xs[start:start + BLOCK]
        row = (y[:, None] + _RUN_DY) * (w + 1) + x[:, None]
        runs = prefix.take(row + (_RUN_HALF + 1), axis=0) - prefix.take(row - _RUN_HALF, axis=0)
        # m10 = sum (x' - x) I over the disc, m01 = sum dy I
        m10 = runs[:, :, 1].sum(axis=1) - x * runs[:, :, 0].sum(axis=1)
        m01 = (runs[:, :, 0] * _RUN_DY).sum(axis=1)
        angles[start:start + BLOCK] = np.arctan2(m01, m10)
    return angles


def _orientation_bins(angles: np.ndarray) -> np.ndarray:
    """Nearest of the ORIENTATION_BINS pattern rotations to each angle (radians)."""
    bins = np.round(angles * (ORIENTATION_BINS / (2.0 * np.pi))).astype(np.intp)
    return bins % ORIENTATION_BINS


def compute_descriptors(levels: list[np.ndarray],
                        keypoints: Keypoints) -> tuple[np.ndarray, np.ndarray]:
    """Oriented descriptors for keypoints at least 16 px inside their level
    of the ``build_pyramid`` pyramid they were detected on.

    Returns (packed descriptors (M, 32) uint8, kept original indices (M,)),
    in keypoint order. Border keypoints are dropped and reported through the
    kept indices.
    """
    if len(keypoints) == 0:
        raise RegistrationError("describe", "no keypoints to describe")

    descs = np.zeros((len(keypoints), DESCRIPTOR_BYTES), dtype=np.uint8)
    described = np.zeros(len(keypoints), dtype=bool)
    xs, ys = keypoints.lvl_xy.T
    for lvl in np.unique(keypoints.octave):
        img_l = gaussian_smooth(levels[lvl])
        h, w = img_l.shape
        sel = ((keypoints.octave == lvl)
               & (xs >= PATCH_BORDER) & (xs < w - PATCH_BORDER)
               & (ys >= PATCH_BORDER) & (ys < h - PATCH_BORDER))
        rows = np.flatnonzero(sel)
        bins = _orientation_bins(_orientations(levels[lvl], ys[rows], xs[rows]))
        smooth = img_l.ravel()
        # every rotated pattern stays within PATCH_BORDER, so every flat
        # index lands on its own (y, x) inside the level
        rotated = _ROT_Y * w + _ROT_X
        for start in range(0, len(rows), BLOCK):
            blk = rows[start:start + BLOCK]
            blk_y, blk_x = ys[blk], xs[blk]
            idx = rotated[bins[start:start + BLOCK]]
            idx += (blk_y * w + blk_x)[:, None]
            vals = smooth.take(idx)
            descs[blk] = np.packbits(vals[:, :DESCRIPTOR_BITS] < vals[:, DESCRIPTOR_BITS:],
                                     axis=1)
        described |= sel

    kept = np.flatnonzero(described)
    if len(kept) == 0:
        raise RegistrationError(
            "describe", "every keypoint fell inside the 16 px descriptor border")
    return descs[kept], kept
