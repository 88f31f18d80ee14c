"""Rotated binary descriptors: 256 pairwise intensity tests on a smoothed patch.

Each corner at least ``PATCH_BORDER`` px inside its pyramid level gets an
orientation from the intensity centroid of a radius-15 disc on the
unsmoothed level. The test pattern is fixed at import time (seeded isotropic
Gaussian point pairs, radius <= 13 so any rotation stays inside the border)
and is rotated by that orientation before sampling. One bit per test:
smoothed(a) < smoothed(b).
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


def _orientations(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Intensity-centroid angles of corners at least PATCH_BORDER px inside img."""
    w = img.shape[1]
    vals = img.ravel()[(ys * w + xs)[:, None] + (_DISC_DY * w + _DISC_DX)[None, :]]
    m10 = (vals * _DISC_DX[None, :]).sum(axis=1)
    m01 = (vals * _DISC_DY[None, :]).sum(axis=1)
    return np.arctan2(m01, m10)


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

    ax = TEST_PATTERN[:, 0, 0].astype(np.float64)
    ay = TEST_PATTERN[:, 0, 1].astype(np.float64)
    bx = TEST_PATTERN[:, 1, 0].astype(np.float64)
    by = TEST_PATTERN[:, 1, 1].astype(np.float64)
    px = np.concatenate([ax, bx])
    py = np.concatenate([ay, by])

    descs = np.zeros((len(keypoints), DESCRIPTOR_BYTES), dtype=np.uint8)
    described = np.zeros(len(keypoints), dtype=bool)
    xs, ys = keypoints.lvl_xy.T
    for lvl in np.unique(keypoints.octave):
        img_l = gaussian_smooth(levels[lvl])
        h, w = img_l.shape
        sel = ((keypoints.octave == lvl)
               & (xs >= PATCH_BORDER) & (xs < w - PATCH_BORDER)
               & (ys >= PATCH_BORDER) & (ys < h - PATCH_BORDER))
        if not sel.any():
            continue
        angles = _orientations(levels[lvl], ys[sel], xs[sel])
        cos = np.cos(angles)[:, None]
        sin = np.sin(angles)[:, None]
        rx = np.round(cos * px[None, :] - sin * py[None, :]).astype(np.intp)
        ry = np.round(sin * px[None, :] + cos * py[None, :]).astype(np.intp)
        vals = img_l[ys[sel][:, None] + ry, xs[sel][:, None] + rx]
        bits = vals[:, :DESCRIPTOR_BITS] < vals[:, DESCRIPTOR_BITS:]
        descs[sel] = np.packbits(bits, axis=1)
        described |= sel

    kept = np.flatnonzero(described)
    if len(kept) == 0:
        raise RegistrationError(
            "describe", "every keypoint fell inside the 16 px descriptor border")
    return descs[kept], kept
