"""DLT + RANSAC homography estimation and whole-pair registration."""
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddyspec import registration as reg
from paddyspec import synthetic
from paddyspec.imaging import ImageF
from paddyspec.registration import RegistrationError
from paddyspec.registration.homography import CONFIDENCE, SCORE_BLOCK, RansacResult


class Keypoint(NamedTuple):
    """One keypoint, as the list-based oracle below reads it."""

    x: float
    y: float


class Match(NamedTuple):
    """One correspondence, as the list-based oracle below takes and returns it."""

    index_a: int
    index_b: int
    distance: int


def keypoint_list(kps: reg.Keypoints) -> list[Keypoint]:
    return [Keypoint(x, y) for x, y in kps.xy.tolist()]


def match_list(matches: reg.Matches) -> list[Match]:
    return [Match(*row) for row in zip(matches.index_a.tolist(), matches.index_b.tolist(),
                                       matches.distance.tolist())]


# The per-iteration RANSAC that the batched estimate_homography replaced, with
# the adaptive stop checked after every sample and the refit repeated while
# its inliers grow, kept as the oracle it must match bit for bit, with the
# homography class it was written against.
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
        with np.errstate(divide="ignore", invalid="ignore"):     # points sent to infinity
            return proj[:, :2] / proj[:, 2:3]


def _reference_normalization(points: np.ndarray) -> np.ndarray:
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


def reference_dlt_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography src -> dst from >= 4 correspondences."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n < 4 or len(dst) != n:
        raise ValueError(f"need >= 4 paired points, got {len(src)}/{len(dst)}")
    t_src = _reference_normalization(src)
    t_dst = _reference_normalization(dst)
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


def reference_symmetric_transfer_error(h: Homography, src: np.ndarray,
                                       dst: np.ndarray) -> np.ndarray:
    """Mean of forward and backward reprojection distances per point."""
    fwd = np.linalg.norm(h.apply(src) - dst, axis=1)
    bwd = np.linalg.norm(h.inverse().apply(dst) - src, axis=1)
    return 0.5 * (fwd + bwd)


def _reference_collinear(points: np.ndarray, tol: float = 1e-6) -> bool:
    """Any 3 of the 4 sample points (nearly) on a line."""
    for skip in range(4):
        p = np.delete(points, skip, axis=0)
        area = abs((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                   - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        if area < tol:
            return True
    return False


def reference_estimate_homography(matches, kps_a, kps_b, *, iters: int = 2000,
                                  inlier_px: float = 3.0, min_inliers: int = 10,
                                  seed: int = 0) -> RansacResult:
    """Robustly fit the homography mapping keypoints A onto keypoints B."""
    if len(matches) < 4:
        raise RegistrationError(
            "estimate", f"need >= 4 matches to estimate a homography, got {len(matches)}")

    canon = sorted(matches, key=lambda m: (m.index_a, m.index_b, m.distance))
    src = np.array([[kps_a[m.index_a].x, kps_a[m.index_a].y] for m in canon])
    dst = np.array([[kps_b[m.index_b].x, kps_b[m.index_b].y] for m in canon])
    n = len(canon)
    needed = min(min_inliers, n)

    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    best_err = np.inf
    solved_any = False
    for t in range(iters):
        pick = rng.choice(n, size=4, replace=False)
        h = None
        if not (_reference_collinear(src[pick]) or _reference_collinear(dst[pick])):
            try:
                h = reference_dlt_homography(src[pick], dst[pick])
            except ValueError:
                pass
        if h is not None:
            solved_any = True
            err = reference_symmetric_transfer_error(h, src, dst)
            mask = err < inlier_px
            count = int(mask.sum())
            total = float(err[mask].sum()) if count else np.inf
            if count > best_count or (count == best_count and total < best_err):
                best_count = count
                best_err = total
                best_mask = mask
        # adaptive stop: an all-inlier sample has been drawn with probability
        # CONFIDENCE at the inlier share w of the best consensus so far
        samples = t + 1
        w = best_count / n
        if w == 1.0 or (w > 0.0 and samples >= math.ceil(
                math.log(1.0 - CONFIDENCE) / math.log1p(-w ** 4))):
            break

    if not solved_any:
        raise RegistrationError(
            "estimate", "degenerate sample handling exhausted: no valid minimal solve")
    if best_mask is None or best_count < needed:
        raise RegistrationError(
            "estimate",
            f"best consensus has {best_count} inliers; need at least {needed}")

    refit = reference_dlt_homography(src[best_mask], dst[best_mask])
    # re-estimate from the inliers of the refit while their number grows
    while True:
        grown = reference_symmetric_transfer_error(refit, src, dst) < inlier_px
        if grown.sum() <= best_mask.sum():
            break
        best_mask = grown
        refit = reference_dlt_homography(src[best_mask], dst[best_mask])
    residuals = reference_symmetric_transfer_error(refit, src[best_mask], dst[best_mask])
    inliers = [m for m, keep in zip(canon, best_mask) if keep]
    return RansacResult(homography=refit.matrix, inliers=inliers,
                        mean_residual=float(residuals.mean()), samples=samples)


def ransac_outcome(estimate, matches, kps_a, kps_b, **kwargs):
    """Everything ``estimate`` returns, in bytes, or the error it raises."""
    try:
        result = estimate(matches, kps_a, kps_b, **kwargs)
    except RegistrationError as exc:
        return ("error", exc.stage, str(exc))
    inliers = result.inliers
    return (inliers if isinstance(inliers, list) else match_list(inliers),
            result.homography.tobytes(), np.float64(result.mean_residual).tobytes(),
            result.samples)


def reference_outcome(matches, kps_a, kps_b, **kwargs):
    """``ransac_outcome`` of the oracle, given the lists the arrays hold."""
    return ransac_outcome(reference_estimate_homography, match_list(matches),
                          keypoint_list(kps_a), keypoint_list(kps_b), **kwargs)


# The benchmark's ingest pool splits 8 pairs in the paper's 2135:1095:585
# class ratio (largest remainder) and draws them in this order.
INGEST_LABELS = ("blast",) * 5 + ("brown_spot",) * 2 + ("healthy",)


def translation(tx, ty):
    return np.array([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]])


class TestDlt:
    def test_exact_translation_from_four_points(self):
        rng = np.random.default_rng(0)
        h_true = translation(5.0, -3.0)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, h_true, n=4)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=50, seed=1)
        assert np.abs(result.homography - h_true).max() < 1e-6

    def test_identity_correspondences(self):
        rng = np.random.default_rng(1)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, np.eye(3), n=12)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=100, seed=2)
        assert np.abs(result.homography - np.eye(3)).max() < 1e-9

    def test_dlt_recovers_projective_map(self):
        rng = np.random.default_rng(2)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, _ = synthetic.make_correspondences(rng, h_true, n=30)
        h = reg.dlt_homography(kps_a.xy, kps_b.xy)
        assert synthetic.corner_reprojection_error(h, h_true) < 1e-8

    def test_degenerate_sample_rejected(self):
        src = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [5.0, 7.0]])  # 3 collinear
        dst = src + 2.0
        with pytest.raises(ValueError):
            reg.dlt_homography(src, dst)

    def test_too_few_matches(self):
        rng = np.random.default_rng(3)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, np.eye(3), n=3)
        with pytest.raises(RegistrationError):
            reg.estimate_homography(matches, kps_a, kps_b)


class TestRansac:
    def test_outliers_rejected(self):
        rng = np.random.default_rng(4)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=100, outlier_fraction=0.30)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=2000, seed=5)
        err = synthetic.corner_reprojection_error(result.homography, h_true)
        assert err < 1.0
        assert len(result.inliers) >= 60

    def test_inlier_set_invariant_under_permutation(self):
        rng = np.random.default_rng(6)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=60, outlier_fraction=0.25)
        params = dict(iters=500, seed=7)
        first = reg.estimate_homography(matches, kps_a, kps_b, **params)
        second = reg.estimate_homography(matches[rng.permutation(len(matches))],
                                         kps_a, kps_b, **params)
        set_a = set(zip(first.inliers.index_a.tolist(), first.inliers.index_b.tolist()))
        set_b = set(zip(second.inliers.index_a.tolist(), second.inliers.index_b.tolist()))
        assert set_a == set_b
        assert np.allclose(first.homography, second.homography)

    def test_noise_free_matches_refit_equals_global_dlt(self):
        rng = np.random.default_rng(8)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, h_true, n=40)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=300, seed=9)
        assert len(result.inliers) == 40
        assert result.samples == 1  # every match is an inlier: w = 1 stops at once
        direct = reg.dlt_homography(kps_a.xy, kps_b.xy)
        assert np.abs(result.homography - direct).max() < 1e-9

    def test_insufficient_consensus_errors(self):
        rng = np.random.default_rng(10)
        # pure noise: no homography explains 10+ of 40 random correspondences
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, np.eye(3), n=40, outlier_fraction=1.0, noise=80.0)
        with pytest.raises(RegistrationError) as exc:
            reg.estimate_homography(matches, kps_a, kps_b,
                                    iters=200, seed=11)
        assert exc.value.stage == "estimate"

    def test_symmetric_transfer_error_zero_for_exact(self):
        rng = np.random.default_rng(12)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, _ = synthetic.make_correspondences(rng, h_true, n=10)
        err = reg.symmetric_transfer_error(h_true, kps_a.xy, kps_b.xy)
        assert err.max() < 1e-9


class TestRegisterPair:
    def test_synthetic_pair_reprojection_below_one_pixel(self):
        rng = np.random.default_rng(13)
        rgb, rgnir, h_true = synthetic.make_registration_pair(rng, out_size=220)
        params = reg.RegistrationParams(target_count=1200,
                                        ransac_iters=3000, seed=14)
        result = reg.register_pair(rgb, rgnir, params, pair_id="t0")
        grid = np.stack(np.meshgrid(np.linspace(10, 209, 15),
                                    np.linspace(10, 209, 15)), axis=-1).reshape(-1, 2)
        true_h = Homography(h_true)
        mapped_true = true_h.apply(grid)
        inside = ((mapped_true[:, 0] >= 0) & (mapped_true[:, 0] <= 219)
                  & (mapped_true[:, 1] >= 0) & (mapped_true[:, 1] <= 219))
        mapped_est = Homography(result.homography).apply(grid)
        err = np.linalg.norm(mapped_est[inside] - mapped_true[inside], axis=1)
        assert err.mean() < 1.0, f"mean reprojection error {err.mean():.3f}"

    def test_self_registration_is_identity(self):
        rng = np.random.default_rng(15)
        tex = synthetic.smooth_texture(200, 200, rng)
        img = ImageF(np.stack([tex, tex, tex], axis=-1).astype(np.float32),
                     ("R", "G", "B"))
        params = reg.RegistrationParams(target_count=700,
                                        ransac_iters=800, seed=16)
        result = reg.register_pair(img, img, params)
        corners = np.array([[0.0, 0.0], [199.0, 0.0], [0.0, 199.0], [199.0, 199.0]])
        moved = Homography(result.homography).apply(corners)
        assert np.linalg.norm(moved - corners, axis=1).max() < 0.5

    def test_textureless_pair_fails_at_detection(self):
        flat = ImageF(np.full((64, 64, 3), 0.5, dtype=np.float32), ("R", "G", "B"))
        with pytest.raises(RegistrationError) as exc:
            reg.register_pair(flat, flat)
        assert exc.value.stage == "detect"

    def test_fov_gap_implies_upscaling(self):
        rng = np.random.default_rng(17)
        rgb, rgnir, h_true = synthetic.make_registration_pair(rng, out_size=220)
        params = reg.RegistrationParams(target_count=1200,
                                        ransac_iters=3000, seed=18)
        result = reg.register_pair(rgb, rgnir, params)
        # the wide-FOV RGB content must map to a larger region in the R-G-NIR frame
        sv = np.linalg.svd(result.homography[:2, :2], compute_uv=False)
        assert sv.min() > 1.2

    def test_diagnostics_record_fields(self):
        rng = np.random.default_rng(19)
        rgb, rgnir, _ = synthetic.make_registration_pair(rng, out_size=200)
        params = reg.RegistrationParams(target_count=700,
                                        ransac_iters=1000, seed=20)
        result = reg.register_pair(rgb, rgnir, params, pair_id="abc")
        line = result.diagnostics.record()
        for token in ("pair=abc", "matches=", "inliers=", "mean_residual=", "samples=", "H=["):
            assert token in line
        # the sample count sits before the H=[...] suffix that report readers split on
        samples = re.search(r" samples=(\d+) H=\[", line)
        assert samples and 1 <= int(samples.group(1)) <= params.ransac_iters
        assert line.startswith("pair=abc ") and line.endswith("]")
        assert result.mask.shape == (rgnir.height, rgnir.width)
        assert result.image.band_labels == ("R", "G", "B")

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_params_register_ingest_pairs(self, seed):
        # the 8 pairs per seed of the benchmark's ingest pool, in memory
        rng = np.random.default_rng(seed)
        errs = []
        for label in INGEST_LABELS:
            rgb, rgnir, h_true = synthetic.make_registration_pair(
                rng, scene_size=420, out_size=256, nir_level=synthetic.NIR_LEVELS[label])
            result = reg.register_pair(rgb, rgnir, reg.RegistrationParams())
            errs.append(synthetic.corner_reprojection_error(result.homography, h_true, 256))
        assert max(errs) <= 3.0, f"corner errors {np.round(errs, 2).tolist()} px"

    @pytest.mark.parametrize("rng_seed", [13, 17])
    def test_default_params_register_fixture_pairs(self, rng_seed):
        # the pairs above, at default params rather than 1,200 corners and 3,000 iterations
        rng = np.random.default_rng(rng_seed)
        rgb, rgnir, h_true = synthetic.make_registration_pair(rng, out_size=220)
        result = reg.register_pair(rgb, rgnir, reg.RegistrationParams())
        assert synthetic.corner_reprojection_error(result.homography, h_true, 220) <= 3.0

    def test_one_pyramid_per_image(self, monkeypatch):
        from paddyspec.registration import keypoints
        calls = []
        original = keypoints.resize_bilinear

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(keypoints, "resize_bilinear", counting)
        rng = np.random.default_rng(19)
        rgb, rgnir, _ = synthetic.make_registration_pair(rng, out_size=200)
        reg.register_pair(rgb, rgnir, reg.RegistrationParams(target_count=700,
                                                             ransac_iters=1000, seed=20))
        assert len(calls) == 2 * (keypoints.N_LEVELS - 1)

    @pytest.mark.parametrize("bad", [{"target_count": 3}, {"drop_fraction": 1.5},
                                     {"drop_fraction": -0.1}, {"ransac_iters": 0},
                                     {"inlier_px": 0.0}, {"min_inliers": 3},
                                     {"min_inliers": 0}, {"min_inliers": -3}])
    def test_params_out_of_range_rejected(self, bad):
        with pytest.raises(RegistrationError) as exc:
            reg.RegistrationParams(**bad)
        assert exc.value.stage == "params"


def _keypoints(points):
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(xy)
    return reg.Keypoints(xy=xy, score=np.ones(n),
                         octave=np.zeros(n, dtype=np.intp), lvl_xy=xy.astype(np.intp))


def _matches(index_b, distance):
    return reg.Matches(np.arange(len(index_b)), np.asarray(index_b),
                       np.asarray(distance, dtype=np.int64))


@st.composite
def match_sets(draw):
    """Correspondences on coarse grids and lines, so that duplicated points,
    collinear draws and wholly degenerate sets are common."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["grid", "grid", "inliers", "line", "same"]))
    grid = draw(st.sampled_from([3, 8, 256]))
    pts_a = rng.integers(0, grid, size=(n, 2)).astype(np.float64)
    pts_b = rng.integers(0, grid, size=(n, 2)).astype(np.float64)
    if layout == "inliers":  # a share of exact matches under a projective map
        h = synthetic.random_projective_homography(rng)
        proj = np.hstack([pts_a, np.ones((n, 1))]) @ h.T
        share = rng.integers(4, n + 1)
        pts_b[:share] = proj[:share, :2] / proj[:share, 2:3]
    elif layout == "line":  # every point of both sets on one line
        pts_a[:, 1] = 2.0 * pts_a[:, 0] + 1.0
        pts_b[:, 0] = 5.0
    elif layout == "same":  # every point of both sets coincides
        pts_a[:] = pts_a[0]
        pts_b[:] = pts_b[0]
    order = rng.permutation(n)
    matches = _matches(order, rng.integers(0, 4, size=n))
    if draw(st.booleans()):  # A keypoints in several matches, so the canonical
        matches.index_a = rng.integers(0, n, size=n)  # order needs all three keys
    return matches, _keypoints(pts_a), _keypoints(pts_b[np.argsort(order)])


class TestBatchedRansacOracle:
    """The batched RANSAC returns exactly what the per-iteration loop did."""

    @given(case=match_sets(), iters=st.integers(1, 80), seed=st.integers(0, 1000),
           inlier_px=st.sampled_from([0.5, 3.0]), min_inliers=st.sampled_from([4, 10]))
    @example(case=(_matches(range(4), [0] * 4), _keypoints([(0, 0)] * 4),
                   _keypoints([(1, 1)] * 4)), iters=5, seed=0, inlier_px=3.0, min_inliers=4)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_per_iteration_loop(self, case, iters, seed, inlier_px, min_inliers):
        matches, kps_a, kps_b = case
        kwargs = dict(iters=iters, seed=seed, inlier_px=inlier_px, min_inliers=min_inliers)
        assert (ransac_outcome(reg.estimate_homography, matches, kps_a, kps_b, **kwargs)
                == reference_outcome(matches, kps_a, kps_b, **kwargs))

    def test_all_degenerate_raises_same_error(self):
        kps = _keypoints([(float(i), 3.0 * i) for i in range(12)])
        matches = _matches(range(12), [0] * 12)
        got = ransac_outcome(reg.estimate_homography, matches, kps, kps, iters=30)
        assert got == reference_outcome(matches, kps, kps, iters=30)
        assert got == ("error", "estimate",
                       "[estimate] degenerate sample handling exhausted: no valid minimal solve")

    def test_failed_minimal_svd_skips_sample(self, monkeypatch):
        # a minimal SVD that does not converge fails the whole stacked call;
        # the loop skipped just that sample, and so must the batched solve
        svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape[-2] == 8 and (a[..., 0, 0] < -1.0).any():
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        rng = np.random.default_rng(23)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=80, outlier_fraction=0.3, noise=0.5)
        got = ransac_outcome(reg.estimate_homography, matches, kps_a, kps_b, iters=300)
        assert got == reference_outcome(matches, kps_a, kps_b, iters=300)
        assert len(got[0]) >= 40

    @pytest.mark.parametrize("rng_seed, kind, n, outliers, noise, iters, seed", [
        (0, "translation", 4, 0.0, 0.0, 50, 1),
        (1, "identity", 12, 0.0, 0.0, 100, 2),
        (4, "projective", 100, 0.30, 0.0, 2000, 5),
        (6, "projective", 60, 0.25, 0.0, 500, 7),
        (8, "projective", 40, 0.0, 0.0, 300, 9),
        (10, "identity", 40, 1.0, 80.0, 200, 11),
        (21, "projective", 400, 0.5, 0.7, 2000, 0),
    ])
    def test_correspondence_fixtures(self, rng_seed, kind, n, outliers, noise, iters, seed):
        rng = np.random.default_rng(rng_seed)
        h_true = {"translation": translation(5.0, -3.0), "identity": np.eye(3)}.get(kind)
        if h_true is None:
            h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=n, outlier_fraction=outliers, noise=noise)
        kwargs = dict(iters=iters, seed=seed)
        assert (ransac_outcome(reg.estimate_homography, matches, kps_a, kps_b, **kwargs)
                == reference_outcome(matches, kps_a, kps_b, **kwargs))

    @pytest.mark.parametrize("rng_seed, size, target, iters, seed", [
        (13, 220, 1200, 3000, 14), (15, 200, 700, 800, 16), (17, 220, 1200, 3000, 18),
        (19, 200, 700, 1000, 20)])
    def test_registration_fixtures(self, rng_seed, size, target, iters, seed):
        # the TestRegisterPair pairs; seed 15 is the self-registration one
        rng = np.random.default_rng(rng_seed)
        if rng_seed == 15:
            tex = synthetic.smooth_texture(size, size, rng)
            rgb = rgnir = ImageF(np.stack([tex] * 3, axis=-1).astype(np.float32),
                                 ("R", "G", "B"))
        else:
            rgb, rgnir, _ = synthetic.make_registration_pair(rng, out_size=size)
        params = reg.RegistrationParams(target_count=target, ransac_iters=iters, seed=seed)
        kps, descs = [], []
        for img in (rgb, rgnir):
            levels = reg.build_pyramid(img.band("G"))
            detected = reg.detect_keypoints(levels, target)
            described, kept = reg.compute_descriptors(levels, detected)
            kps.append(detected[kept])
            descs.append(described)
        matches = reg.filter_matches(reg.match_bruteforce(*descs), params.drop_fraction)
        kwargs = dict(iters=iters, inlier_px=params.inlier_px,
                      min_inliers=params.min_inliers, seed=seed)
        assert (ransac_outcome(reg.estimate_homography, matches, *kps, **kwargs)
                == reference_outcome(matches, *kps, **kwargs))

    @pytest.mark.parametrize("rng_seed, outliers, noise, inlier_px", [
        (30, 0.25, 0.0, 3.0), (31, 0.4, 0.0, 3.0), (30, 0.25, 0.5, 1.0)])
    def test_stop_inside_scoring_block(self, rng_seed, outliers, noise, inlier_px):
        # the stop comes after 13, 34 or 27 samples, inside a block of
        # homographies already scored; in the noisy case a sample scored past
        # the stop would replace the best consensus if it were not dropped
        rng = np.random.default_rng(rng_seed)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=60, outlier_fraction=outliers, noise=noise)
        kwargs = dict(iters=2000, seed=rng_seed, inlier_px=inlier_px)
        got = ransac_outcome(reg.estimate_homography, matches, kps_a, kps_b, **kwargs)
        assert got == reference_outcome(matches, kps_a, kps_b, **kwargs)
        samples = got[-1]
        assert samples < kwargs["iters"] and samples % SCORE_BLOCK != 0

    def test_refit_and_residual_match_reference(self):
        rng = np.random.default_rng(22)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, _ = synthetic.make_correspondences(rng, h_true, n=1100, noise=0.5)
        src, dst = kps_a.xy, kps_b.xy
        # 1,100 is the size of the largest inlier refits on the benchmark pairs
        for m in (4, 5, 37, 300, 1100):
            h = reg.dlt_homography(src[:m], dst[:m])
            ref = reference_dlt_homography(src[:m], dst[:m])
            assert h.tobytes() == ref.matrix.tobytes()
            assert (reg.symmetric_transfer_error(h, src, dst).tobytes()
                    == reference_symmetric_transfer_error(ref, src, dst).tobytes())
