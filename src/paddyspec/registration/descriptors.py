"""Rotated binary descriptors: 256 pairwise intensity tests on a smoothed patch.

Each corner at least ``PATCH_BORDER`` px inside its pyramid level gets an
orientation from the intensity centroid of a radius-15 disc on the
unsmoothed level, quantized to one of ``ORIENTATION_BINS`` = 32 bins of
11.25 degrees (ORB's precomputed rotated patterns, Rublee et al., ICCV 2011).
The test pattern is fixed at import time (seeded isotropic Gaussian point
pairs, radius <= 13 so any rotation stays inside the border) and is rotated
and rounded once per bin; each corner samples the pattern of its bin. One bit
per test: smoothed(a) < smoothed(b).
"""
from __future__ import annotations

import numpy as np

from .errors import RegistrationError
from .keypoints import Keypoints, gaussian_smooth

DESCRIPTOR_BITS = 256
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8
PATCH_BORDER = 16
_PATTERN_RADIUS = 13.0

# Only corners at least PATCH_BORDER px from every edge of their level are
# oriented, so a disc radius <= PATCH_BORDER keeps every sample inside the
# level and the gather needs no clipping.
_DISC_RADIUS = 15
_DISC_DY, _DISC_DX = np.nonzero(
    (np.arange(-_DISC_RADIUS, _DISC_RADIUS + 1)[:, None] ** 2
     + np.arange(-_DISC_RADIUS, _DISC_RADIUS + 1)[None, :] ** 2) <= _DISC_RADIUS ** 2)
_DISC_DY = (_DISC_DY - _DISC_RADIUS).astype(np.intp)
_DISC_DX = (_DISC_DX - _DISC_RADIUS).astype(np.intp)


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
# temporaries (BLOCK x 709 disc values, BLOCK x 512 rotated offsets and
# samples) stay cache-sized instead of growing with the level's corner count.
BLOCK = 128


def _orientations(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Intensity-centroid angles of corners at least PATCH_BORDER px inside img."""
    w = img.shape[1]
    vals = img.ravel().take((ys * w + xs)[:, None] + (_DISC_DY * w + _DISC_DX))
    m10 = (vals * _DISC_DX).sum(axis=1)
    m01 = (vals * _DISC_DY).sum(axis=1)
    return np.arctan2(m01, m10)


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
        # contiguous, so _orientations' ravel is a view, not a copy per block
        raw = np.ascontiguousarray(levels[lvl])
        smooth = img_l.ravel()
        # every rotated pattern stays within PATCH_BORDER, so every flat
        # index lands on its own (y, x) inside the level
        rotated = _ROT_Y * w + _ROT_X
        for start in range(0, len(rows), BLOCK):
            blk = rows[start:start + BLOCK]
            blk_y, blk_x = ys[blk], xs[blk]
            idx = rotated[_orientation_bins(_orientations(raw, blk_y, blk_x))]
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
