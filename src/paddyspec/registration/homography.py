"""Projective transform estimation: normalized DLT inside a RANSAC loop.

Minimal 4-point samples are solved by direct linear transformation after
Hartley normalization (centroid to origin, mean radius sqrt(2)); consensus
uses the symmetric transfer error. The winning inlier set is re-fit by DLT,
and the matches within ``inlier_px`` of the refit replace it and are re-fit
for as long as their number grows (Hartley & Zisserman, Algorithm 4.6): a
4-point sample from noisy corners is slightly off, and the refit recovers
the inliers it missed.

RANSAC stops adaptively (Hartley & Zisserman, *Multiple View Geometry*,
2nd ed., section 4.7.1). Every draw counts as one sample, collinear draws
and failed solves included. After sample t (0-based) the loop stops once
t + 1 >= ceil(log(1 - p) / log(1 - w**4)), where w is the best inlier count
so far over the number of matches and p = ``CONFIDENCE``: by then an
all-inlier sample has been drawn with probability p. ``iters`` caps the
samples; w = 1 stops at once, and before any consensus there is no bound.

RANSAC is batched. The samples are drawn in the same ``rng.choice`` sequence
a per-iteration loop would draw, ``SOLVE_CHUNK`` at a time, the collinear
ones are dropped, and the rest are solved together: one stacked
``np.linalg.svd`` over the ``(k, 8, 9)`` design matrices, with the rank,
inverse and determinant checks run on the whole stack. Consensus is scored
for ``SCORE_BLOCK`` homographies at a time against all N matches, so no
``(iters, N)`` array is ever held. A solved or scored sample that lies past
the stop is dropped. Every stacked call does per matrix what the
single-matrix call does, so the result is bit-identical to solving and
scoring one sample at a time and applying the stop rule after each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegistrationError
from .keypoints import Keypoints
from .matching import Matches

SOLVE_CHUNK = 64  # samples drawn and solved together
SCORE_BLOCK = 16  # homographies scored together against every match
CONFIDENCE = 0.99  # probability of having drawn one all-inlier sample at the stop


def _unit_h33(mats: np.ndarray) -> np.ndarray:
    """Each (k, 3, 3) matrix scaled so that h33 == 1 where |h33| > 1e-12."""
    h33 = mats[:, 2:3, 2:3]
    return mats / np.where(np.abs(h33) > 1e-12, h33, 1.0)


def _project(mats: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 2) points mapped through each (k, 3, 3) matrix: the mapped x and
    y, each (k, N)."""
    # one BLAS matmul per matrix: BLAS may fuse the multiply-adds, so
    # x*h00 + y*h01 + h02 written out can differ in the last bit
    proj = np.hstack([points, np.ones((len(points), 1))]) @ np.swapaxes(mats, 1, 2)
    # a point a sampled matrix sends to infinity gets an inf or NaN error,
    # which no inlier threshold accepts
    with np.errstate(divide="ignore", invalid="ignore"):
        return proj[..., 0] / proj[..., 2], proj[..., 1] / proj[..., 2]


def _distance(xy: tuple[np.ndarray, np.ndarray], points: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(xy - points, axis=-1)`` without the length-2 reduce."""
    dx = xy[0] - points[:, 0]
    dy = xy[1] - points[:, 1]
    return np.sqrt(dx * dx + dy * dy)


_DLT_FAILURES = ("degenerate point set: all points coincide",
                 "degenerate sample: minimal solve is rank deficient",
                 "estimated homography is singular")


def _normalization(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley similarities of (k, m, 2) point sets: centroid to origin, mean
    radius to sqrt(2). Returns (k, 3, 3) transforms and the (k,) sets whose
    points all coincide."""
    centroid = points.mean(axis=1)
    mean_radius = np.linalg.norm(points - centroid[:, None, :], axis=2).mean(axis=1)
    coincide = mean_radius < 1e-12
    s = np.sqrt(2.0) / np.where(coincide, 1.0, mean_radius)
    t = np.zeros((len(points), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, :2, 2] = -s[:, None] * centroid
    t[:, 2, 2] = 1.0
    return t, coincide


def _dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized DLT of k stacked (m, 2) correspondence sets.

    Returns the (k, 3, 3) matrices, not yet scaled to h33 == 1, and a (k,)
    code: 0 for a valid solve, else 1 + the index in ``_DLT_FAILURES`` of
    the first check it fails.
    """
    k, m = src.shape[:2]
    t_src, coincide_src = _normalization(src)
    t_dst, coincide_dst = _normalization(dst)
    ones = np.ones((k, m, 1))
    s = np.concatenate([src, ones], axis=2) @ np.swapaxes(t_src, 1, 2)
    d = np.concatenate([dst, ones], axis=2) @ np.swapaxes(t_dst, 1, 2)

    a = np.zeros((k, 2 * m, 9))
    a[:, 0::2, 0:2] = s[:, :, :2]
    a[:, 0::2, 2] = 1.0
    a[:, 0::2, 6:8] = -s[:, :, :2] * d[:, :, 0:1]
    a[:, 0::2, 8] = -d[:, :, 0]
    a[:, 1::2, 3:5] = s[:, :, :2]
    a[:, 1::2, 5] = 1.0
    a[:, 1::2, 6:8] = -s[:, :, :2] * d[:, :, 1:2]
    a[:, 1::2, 8] = -d[:, :, 1]

    # U is never used, so it stays thin; the 8x9 minimal system needs the full
    # vt, whose 9th row is its null space. A vanishing 8th singular value
    # there means rank < 8 (3 points on a line)
    _, sing, vt = np.linalg.svd(a, full_matrices=(m == 4))
    rank_deficient = (m == 4) & (sing[:, -1] < 1e-9 * np.maximum(sing[:, 0], 1e-30))
    h_norm = vt[:, -1].reshape(k, 3, 3)
    mats = np.linalg.inv(t_dst) @ h_norm @ t_src
    singular = np.abs(np.linalg.det(mats)) < 1e-12
    failure = np.select([coincide_src | coincide_dst, rank_deficient, singular],
                        [1, 2, 3], 0)
    return mats, failure


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least-squares (3, 3) homography src -> dst from >= 4 correspondences,
    scaled so that h33 == 1 where |h33| > 1e-12."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n < 4 or len(dst) != n:
        raise ValueError(f"need >= 4 paired points, got {len(src)}/{len(dst)}")
    mats, failure = _dlt(src[None], dst[None])
    if failure[0]:
        raise ValueError(_DLT_FAILURES[failure[0] - 1])
    return _unit_h33(mats)[0]


def _transfer_errors(mats: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Symmetric transfer error of each (k, 3, 3) homography (h33 == 1
    already applied) over all N points: (k, N)."""
    fwd = _distance(_project(mats, src), dst)
    bwd = _distance(_project(_unit_h33(np.linalg.inv(mats)), dst), src)
    return 0.5 * (fwd + bwd)


def symmetric_transfer_error(h: np.ndarray, src: np.ndarray,
                             dst: np.ndarray) -> np.ndarray:
    """Mean of forward and backward reprojection distances per point under
    the (3, 3) homography ``h``."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    return _transfer_errors(h[None], src, dst)[0]


def _collinear(points: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Of (k, 4, 2) samples, those with any 3 points (nearly) on a line."""
    out = np.zeros(len(points), dtype=bool)
    for skip in range(4):
        p = np.delete(points, skip, axis=1)
        area = np.abs((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        out |= area < tol
    return out


def _solve_minimal(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Valid h33-scaled homographies of (k, 4, 2) samples, in sample order,
    and the (k,) mask of the samples they come from."""
    try:
        mats, failure = _dlt(src, dst)
    except np.linalg.LinAlgError:
        # one failed SVD or inverse fails the whole stack: solve one at a time
        # and skip the failures, as a per-sample loop would
        if len(src) == 1:
            return np.empty((0, 3, 3)), np.zeros(1, dtype=bool)
        solved = [_solve_minimal(src[i:i + 1], dst[i:i + 1]) for i in range(len(src))]
        return (np.concatenate([mats for mats, _ in solved]),
                np.concatenate([valid for _, valid in solved]))
    valid = failure == 0
    return _unit_h33(mats[valid]), valid


def _samples_needed(count: int, n: int) -> float:
    """Samples after which a consensus of ``count`` of ``n`` matches stops
    RANSAC: ceil(log(1 - CONFIDENCE) / log(1 - w**4)) with w = count / n."""
    if count == 0:
        return math.inf
    if count == n:
        return 1
    return math.ceil(math.log(1.0 - CONFIDENCE) / math.log1p(-(count / n) ** 4))


@dataclass
class RansacResult:
    homography: np.ndarray  # (3, 3)
    inliers: Matches
    mean_residual: float
    samples: int  # samples drawn before the adaptive stop, at most ``iters``


def estimate_homography(matches: Matches, kps_a: Keypoints,
                        kps_b: Keypoints, *, iters: int = 2000,
                        inlier_px: float = 3.0, min_inliers: int = 10,
                        seed: int = 0) -> RansacResult:
    """Robustly fit the homography mapping keypoints A onto keypoints B.

    Sampling order is fixed by the seed over the matches sorted by
    (index_a, index_b, distance), so any permutation of the input yields the
    same result. The best sample has the most inliers; among equal counts,
    the least total inlier error; among equal totals, the first drawn.
    Sampling stops by the adaptive rule in the module docstring, after at
    most ``iters`` samples.
    """
    if len(matches) < 4:
        raise RegistrationError(
            "estimate", f"need >= 4 matches to estimate a homography, got {len(matches)}")

    canon = matches[np.lexsort((matches.distance, matches.index_b, matches.index_a))]
    src = kps_a.xy[canon.index_a]
    dst = kps_b.xy[canon.index_b]
    n = len(canon)
    needed = min(min_inliers, n)

    rng = np.random.default_rng(seed)
    best_mask: np.ndarray | None = None
    best_count = 0
    best_err = np.inf
    solved_any = False
    limit = iters  # samples to draw; shrinks as the consensus grows
    start = 0
    while start < limit:
        picks = np.array([rng.choice(n, size=4, replace=False)
                          for _ in range(min(SOLVE_CHUNK, limit - start))])
        src4, dst4 = src[picks], dst[picks]
        keep = np.flatnonzero(~(_collinear(src4) | _collinear(dst4)))
        mats, valid = _solve_minimal(src4[keep], dst4[keep])
        sample = start + keep[valid]  # the 0-based draw index of each of mats
        solved_any = solved_any or len(mats) > 0
        for lo in range(0, len(mats), SCORE_BLOCK):
            if sample[lo] >= limit:
                break
            err = _transfer_errors(mats[lo:lo + SCORE_BLOCK], src, dst)
            mask = err < inlier_px
            counts = mask.sum(axis=1)
            # only a count >= the best so far can win
            for row in np.flatnonzero(counts >= best_count):
                t = int(sample[lo + row])
                if t >= limit:
                    break
                count = int(counts[row])
                total = float(err[row][mask[row]].sum()) if count else np.inf
                if count > best_count or (count == best_count and total < best_err):
                    best_count = count
                    best_err = total
                    best_mask = mask[row]
                    limit = min(limit, max(t + 1, _samples_needed(count, n)))
        start += len(picks)

    if not solved_any:
        raise RegistrationError(
            "estimate", "degenerate sample handling exhausted: no valid minimal solve")
    if best_mask is None or best_count < needed:
        raise RegistrationError(
            "estimate",
            f"best consensus has {best_count} inliers; need at least {needed}")

    refit = dlt_homography(src[best_mask], dst[best_mask])
    while True:
        grown = symmetric_transfer_error(refit, src, dst) < inlier_px
        if grown.sum() <= best_mask.sum():
            break
        best_mask = grown
        refit = dlt_homography(src[best_mask], dst[best_mask])
    residuals = symmetric_transfer_error(refit, src[best_mask], dst[best_mask])
    return RansacResult(homography=refit, inliers=canon[best_mask],
                        mean_residual=float(residuals.mean()), samples=limit)
