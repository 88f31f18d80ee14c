"""Projective transform estimation: normalized DLT inside a RANSAC loop.

Minimal 4-point samples are solved by direct linear transformation after
Hartley normalization (centroid to origin, mean radius sqrt(2)); consensus
uses the symmetric transfer error; the winning inlier set is re-fit by DLT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegistrationError
from .keypoints import Keypoint
from .matching import Match


@dataclass
class Homography:
    """3x3 projective map, scaled so h33 == 1 whenever |h33| > 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {mat.shape}")
        if abs(mat[2, 2]) > 1e-12:
            mat = mat / mat[2, 2]
        self.matrix = mat

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.matrix))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 2) points through the transform."""
        pts = np.asarray(points, dtype=np.float64)
        ones = np.ones((len(pts), 1))
        proj = np.hstack([pts, ones]) @ self.matrix.T
        return proj[:, :2] / proj[:, 2:3]


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley similarity: centroid to origin, mean radius to sqrt(2)."""
    centroid = points.mean(axis=0)
    radii = np.linalg.norm(points - centroid, axis=1)
    mean_radius = radii.mean()
    if mean_radius < 1e-12:
        raise ValueError("degenerate point set: all points coincide")
    s = np.sqrt(2.0) / mean_radius
    return np.array([[s, 0.0, -s * centroid[0]],
                     [0.0, s, -s * centroid[1]],
                     [0.0, 0.0, 1.0]])


def dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography src -> dst from >= 4 correspondences."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n < 4 or len(dst) != n:
        raise ValueError(f"need >= 4 paired points, got {len(src)}/{len(dst)}")
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    s = (np.hstack([src, np.ones((n, 1))]) @ t_src.T)
    d = (np.hstack([dst, np.ones((n, 1))]) @ t_dst.T)

    a = np.zeros((2 * n, 9))
    a[0::2, 0:2] = s[:, :2]
    a[0::2, 2] = 1.0
    a[0::2, 6:8] = -s[:, :2] * d[:, 0:1]
    a[0::2, 8] = -d[:, 0]
    a[1::2, 3:5] = s[:, :2]
    a[1::2, 5] = 1.0
    a[1::2, 6:8] = -s[:, :2] * d[:, 1:2]
    a[1::2, 8] = -d[:, 1]

    _, sing, vt = np.linalg.svd(a)
    # for the 8x9 minimal system the null space is the 9th right-singular
    # vector; a vanishing 8th singular value means rank < 8 (3 points on a line)
    if n == 4 and sing[-1] < 1e-9 * max(sing[0], 1e-30):
        raise ValueError("degenerate sample: minimal solve is rank deficient")
    h_norm = vt[-1].reshape(3, 3)
    mat = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(np.linalg.det(mat)) < 1e-12:
        raise ValueError("estimated homography is singular")
    return Homography(mat)


def symmetric_transfer_error(h: Homography, src: np.ndarray,
                             dst: np.ndarray) -> np.ndarray:
    """Mean of forward and backward reprojection distances per point."""
    fwd = np.linalg.norm(h.apply(src) - dst, axis=1)
    bwd = np.linalg.norm(h.inverse().apply(dst) - src, axis=1)
    return 0.5 * (fwd + bwd)


def _collinear(points: np.ndarray, tol: float = 1e-6) -> bool:
    """Any 3 of the 4 sample points (nearly) on a line."""
    for skip in range(4):
        p = np.delete(points, skip, axis=0)
        area = abs((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                   - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        if area < tol:
            return True
    return False


@dataclass
class RansacResult:
    homography: Homography
    inliers: list[Match]
    mean_residual: float
    n_input: int = 0


def estimate_homography(matches: list[Match], kps_a: list[Keypoint],
                        kps_b: list[Keypoint], *, iters: int = 2000,
                        inlier_px: float = 3.0, min_inliers: int = 10,
                        seed: int = 0) -> RansacResult:
    """Robustly fit the homography mapping keypoints A onto keypoints B.

    Sampling order is fixed by the seed over a canonically sorted copy of
    the match list, so any permutation of the input yields the same result.
    """
    if len(matches) < 4:
        raise RegistrationError(
            "estimate", f"need >= 4 matches to estimate a homography, got {len(matches)}")

    canon = sorted(matches, key=lambda m: (m.index_a, m.index_b, m.distance))
    src = np.array([[kps_a[m.index_a].x, kps_a[m.index_a].y] for m in canon])
    dst = np.array([[kps_b[m.index_b].x, kps_b[m.index_b].y] for m in canon])
    n = len(canon)
    needed = min(min_inliers, n)

    rng = np.random.default_rng(seed)
    best_mask: np.ndarray | None = None
    best_count = 0
    best_err = np.inf
    solved_any = False
    for _ in range(iters):
        pick = rng.choice(n, size=4, replace=False)
        if _collinear(src[pick]) or _collinear(dst[pick]):
            continue
        try:
            h = dlt_homography(src[pick], dst[pick])
        except ValueError:
            continue
        solved_any = True
        err = symmetric_transfer_error(h, src, dst)
        mask = err < inlier_px
        count = int(mask.sum())
        total = float(err[mask].sum()) if count else np.inf
        if count > best_count or (count == best_count and total < best_err):
            best_count = count
            best_err = total
            best_mask = mask

    if not solved_any:
        raise RegistrationError(
            "estimate", "degenerate sample handling exhausted: no valid minimal solve")
    if best_mask is None or best_count < needed:
        raise RegistrationError(
            "estimate",
            f"best consensus has {best_count} inliers; need at least {needed}")

    refit = dlt_homography(src[best_mask], dst[best_mask])
    residuals = symmetric_transfer_error(refit, src[best_mask], dst[best_mask])
    inliers = [m for m, keep in zip(canon, best_mask) if keep]
    return RansacResult(homography=refit, inliers=inliers,
                        mean_residual=float(residuals.mean()), n_input=n)
