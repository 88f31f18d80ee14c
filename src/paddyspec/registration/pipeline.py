"""Whole-pair registration: detect, describe, match, filter, estimate, warp.

The green channel drives feature detection in both modalities (it is the
one band present in RGB and R-G-NIR alike). The recovered homography maps
RGB coordinates into the R-G-NIR frame, and the RGB image is warped there
at the R-G-NIR resolution.

The survey camera sees a much narrower field (41 degrees) than the phone
(123 degrees), so a correct homography upscales RGB content into the R-G-NIR
frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imaging import ImageF, ImageFormatError, warp_perspective
from .descriptors import compute_descriptors
from .errors import RegistrationError
from .homography import RansacResult, estimate_homography
from .keypoints import build_pyramid, detect_keypoints
from .matching import filter_matches, match_bruteforce


@dataclass
class RegistrationParams:
    """Every registration setting; ``seed`` drives RANSAC sampling."""

    target_count: int = 10000
    drop_fraction: float = 0.10
    drop_best: bool = False
    ransac_iters: int = 2000
    inlier_px: float = 3.0
    min_inliers: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.target_count < 4:
            raise RegistrationError(
                "params", f"target_count must be >= 4, got {self.target_count}")
        if not 0.0 <= self.drop_fraction < 1.0:
            raise RegistrationError(
                "params", f"drop_fraction must lie in [0, 1), got {self.drop_fraction}")
        if self.ransac_iters < 1:
            raise RegistrationError(
                "params", f"ransac_iters must be >= 1, got {self.ransac_iters}")
        if not self.inlier_px > 0.0:
            raise RegistrationError(
                "params", f"inlier_px must be > 0, got {self.inlier_px}")
        if self.min_inliers < 4:
            raise RegistrationError(
                "params", f"min_inliers must be >= 4, got {self.min_inliers}")


@dataclass
class RegistrationDiagnostics:
    pair_id: str
    keypoints_a: int
    keypoints_b: int
    described_a: int
    described_b: int
    matches: int
    filtered: int
    inliers: int
    mean_residual: float
    samples: int
    homography: list[float]

    def record(self) -> str:
        """One structured-text record for the batch report."""
        h = " ".join(f"{v:.9g}" for v in self.homography)
        return (f"pair={self.pair_id} kp_a={self.keypoints_a} kp_b={self.keypoints_b} "
                f"desc_a={self.described_a} desc_b={self.described_b} "
                f"matches={self.matches} filtered={self.filtered} "
                f"inliers={self.inliers} mean_residual={self.mean_residual:.6f} "
                f"samples={self.samples} H=[{h}]")


@dataclass
class RegistrationResult:
    image: ImageF
    mask: np.ndarray
    homography: np.ndarray  # (3, 3)
    diagnostics: RegistrationDiagnostics


def register_pair(rgb: ImageF, rgnir: ImageF,
                  params: RegistrationParams | None = None,
                  pair_id: str = "") -> RegistrationResult:
    """Align an RGB image onto its paired R-G-NIR image."""
    if params is None:
        params = RegistrationParams()
    for img, name, band in ((rgb, "rgb", "G"), (rgnir, "rgnir", "G")):
        if not img.has_band(band):
            raise RegistrationError("detect", f"{name} image has no {band} band")

    levels_a = build_pyramid(rgb.band("G"))
    levels_b = build_pyramid(rgnir.band("G"))

    kps_a = detect_keypoints(levels_a, params.target_count)
    kps_b = detect_keypoints(levels_b, params.target_count)
    n_detected_a, n_detected_b = len(kps_a), len(kps_b)
    descs_a, kept_a = compute_descriptors(levels_a, kps_a)
    descs_b, kept_b = compute_descriptors(levels_b, kps_b)
    kps_a, kps_b = kps_a[kept_a], kps_b[kept_b]

    matches = match_bruteforce(descs_a, descs_b)
    filtered = filter_matches(matches, params.drop_fraction, params.drop_best)
    result: RansacResult = estimate_homography(
        filtered, kps_a, kps_b, iters=params.ransac_iters, inlier_px=params.inlier_px,
        min_inliers=params.min_inliers, seed=params.seed)

    try:
        warped, mask = warp_perspective(rgb, result.homography, rgnir.width, rgnir.height)
    except ImageFormatError as exc:
        raise RegistrationError("warp", str(exc)) from exc

    diag = RegistrationDiagnostics(
        pair_id=pair_id,
        keypoints_a=n_detected_a,
        keypoints_b=n_detected_b,
        described_a=len(kept_a),
        described_b=len(kept_b),
        matches=len(matches),
        filtered=len(filtered),
        inliers=len(result.inliers),
        mean_residual=result.mean_residual,
        samples=result.samples,
        homography=[float(v) for v in result.homography.ravel()],
    )
    return RegistrationResult(image=warped, mask=mask,
                              homography=result.homography, diagnostics=diag)
