"""Whole-pair registration: detect, describe, match, filter, estimate, warp.

The green channel drives feature detection in both modalities (it is the
one band present in RGB and R-G-NIR alike). The recovered homography maps
RGB coordinates into the R-G-NIR frame, and the RGB image is warped there
at the R-G-NIR resolution.

Matching runs in two passes (guided matching, Hartley & Zisserman,
*Multiple View Geometry*, section 4.8). The first matches, filters and fits
only the ``GUIDE_CORNERS`` strongest described corners of each image
(descriptors come strongest first); the second pairs every RGB corner only
with the R-G-NIR corners within ``INLIER_PX`` of where that first fit puts
it, at a Hamming distance no larger than the first fit's worst inlier
(``match_guided``), and filters and fits those as before. At 10k corners
the first pass compares 1,000 x 1,000 descriptors where one exhaustive
match compares about 5,800 x 5,800, and the second only a few per corner.
A pair on which either pass raises fails with that pass's
``RegistrationError``.

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
from .keypoints import Keypoints, build_pyramid, detect_keypoints
from .matching import Matches, filter_matches, match_bruteforce, match_guided

GUIDE_CORNERS = 1000  # strongest described corners per image in the first pass
DROP_FRACTION = 0.10  # share of the worst matches the filter drops
INLIER_PX = 3.0       # transfer error below which a match is an inlier, in pixels
MIN_INLIERS = 10      # inliers a fit needs


@dataclass
class RegistrationParams:
    """The registration compute budgets; ``seed`` drives RANSAC sampling."""

    target_count: int = 10000
    ransac_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.target_count < 4:
            raise RegistrationError(
                "params", f"target_count must be >= 4, got {self.target_count}")
        if self.ransac_iters < 1:
            raise RegistrationError(
                "params", f"ransac_iters must be >= 1, got {self.ransac_iters}")


@dataclass
class RegistrationDiagnostics:
    pair_id: str
    keypoints_a: int
    keypoints_b: int
    described_a: int
    described_b: int
    matches: int
    filtered: int
    guide_inliers: int  # the first pass's inliers
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
                f"guide_inliers={self.guide_inliers} inliers={self.inliers} "
                f"mean_residual={self.mean_residual:.6f} samples={self.samples} H=[{h}]")


@dataclass
class RegistrationResult:
    image: ImageF
    mask: np.ndarray
    homography: np.ndarray  # (3, 3)
    diagnostics: RegistrationDiagnostics


def _features(gray: np.ndarray, target_count: int) -> tuple[int, Keypoints, np.ndarray]:
    """(corners detected, described corners, their descriptors) of one image."""
    levels = build_pyramid(gray)
    kps = detect_keypoints(levels, target_count)
    descs, kept = compute_descriptors(levels, kps)
    return len(kps), kps[kept], descs


def _fit(matches: Matches, kps_a: Keypoints, kps_b: Keypoints,
         params: RegistrationParams) -> tuple[Matches, RansacResult]:
    """(filtered matches, RANSAC result) of one matching."""
    filtered = filter_matches(matches, DROP_FRACTION)
    return filtered, estimate_homography(
        filtered, kps_a, kps_b, iters=params.ransac_iters, inlier_px=INLIER_PX,
        min_inliers=MIN_INLIERS, seed=params.seed)


def register_pair(rgb: ImageF, rgnir: ImageF, params: RegistrationParams,
                  pair_id: str = "") -> RegistrationResult:
    """Align an RGB image onto its paired R-G-NIR image."""
    for img, name, band in ((rgb, "rgb", "G"), (rgnir, "rgnir", "G")):
        if not img.has_band(band):
            raise RegistrationError("detect", f"{name} image has no {band} band")

    # rgb first, so when both images fail, rgb's error is the one raised
    n_detected_a, kps_a, descs_a = _features(rgb.band("G"), params.target_count)
    n_detected_b, kps_b, descs_b = _features(rgnir.band("G"), params.target_count)

    # first pass: the strongest corners, matched exhaustively
    _, guide = _fit(match_bruteforce(descs_a[:GUIDE_CORNERS], descs_b[:GUIDE_CORNERS]),
                    kps_a[:GUIDE_CORNERS], kps_b[:GUIDE_CORNERS], params)
    # second pass: every corner, matched near where the first fit puts it; a
    # corner the fit sends to infinity gets a non-finite prediction, which
    # match_guided leaves unmatched
    mapped = np.hstack([kps_a.xy, np.ones((len(kps_a), 1))]) @ guide.homography.T
    with np.errstate(divide="ignore", invalid="ignore"):
        predicted = mapped[:, :2] / mapped[:, 2:]
    matches = match_guided(descs_a, descs_b, predicted, kps_b.xy, INLIER_PX,
                           int(guide.inliers.distance.max()))
    filtered, result = _fit(matches, kps_a, kps_b, params)

    try:
        warped, mask = warp_perspective(rgb, result.homography, rgnir.width, rgnir.height)
    except ImageFormatError as exc:
        raise RegistrationError("warp", str(exc)) from exc

    diag = RegistrationDiagnostics(
        pair_id=pair_id,
        keypoints_a=n_detected_a,
        keypoints_b=n_detected_b,
        described_a=len(kps_a),
        described_b=len(kps_b),
        matches=len(matches),
        filtered=len(filtered),
        guide_inliers=len(guide.inliers),
        inliers=len(result.inliers),
        mean_residual=result.mean_residual,
        samples=result.samples,
        homography=[float(v) for v in result.homography.ravel()],
    )
    return RegistrationResult(image=warped, mask=mask,
                              homography=result.homography, diagnostics=diag)
