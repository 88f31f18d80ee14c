"""DLT + RANSAC homography estimation and whole-pair registration."""
import numpy as np
import pytest

from paddyspec import registration as reg
from paddyspec import synthetic
from paddyspec.imaging import ImageF
from paddyspec.registration import RegistrationError


def translation(tx, ty):
    return np.array([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]])


class TestDlt:
    def test_exact_translation_from_four_points(self):
        rng = np.random.default_rng(0)
        h_true = translation(5.0, -3.0)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, h_true, n=4)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=50, seed=1)
        assert np.abs(result.homography.matrix - h_true).max() < 1e-6

    def test_identity_correspondences(self):
        rng = np.random.default_rng(1)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, np.eye(3), n=12)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=100, seed=2)
        assert np.abs(result.homography.matrix - np.eye(3)).max() < 1e-9

    def test_dlt_recovers_projective_map(self):
        rng = np.random.default_rng(2)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, _ = synthetic.make_correspondences(rng, h_true, n=30)
        src = np.array([[kp.x, kp.y] for kp in kps_a])
        dst = np.array([[kp.x, kp.y] for kp in kps_b])
        h = reg.dlt_homography(src, dst)
        assert synthetic.corner_reprojection_error(h.matrix, h_true) < 1e-8

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
        err = synthetic.corner_reprojection_error(result.homography.matrix, h_true)
        assert err < 1.0
        assert len(result.inliers) >= 60

    def test_inlier_set_invariant_under_permutation(self):
        rng = np.random.default_rng(6)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=60, outlier_fraction=0.25)
        params = dict(iters=500, seed=7)
        first = reg.estimate_homography(matches, kps_a, kps_b, **params)
        shuffled = [matches[i] for i in rng.permutation(len(matches))]
        second = reg.estimate_homography(shuffled, kps_a, kps_b, **params)
        set_a = {(m.index_a, m.index_b) for m in first.inliers}
        set_b = {(m.index_a, m.index_b) for m in second.inliers}
        assert set_a == set_b
        assert np.allclose(first.homography.matrix, second.homography.matrix)

    def test_noise_free_matches_refit_equals_global_dlt(self):
        rng = np.random.default_rng(8)
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(rng, h_true, n=40)
        result = reg.estimate_homography(matches, kps_a, kps_b,
                                         iters=300, seed=9)
        assert len(result.inliers) == 40
        src = np.array([[kp.x, kp.y] for kp in kps_a])
        dst = np.array([[kp.x, kp.y] for kp in kps_b])
        direct = reg.dlt_homography(src, dst)
        assert np.abs(result.homography.matrix - direct.matrix).max() < 1e-9

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
        src = np.array([[kp.x, kp.y] for kp in kps_a])
        dst = np.array([[kp.x, kp.y] for kp in kps_b])
        err = reg.symmetric_transfer_error(reg.Homography(h_true), src, dst)
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
        true_h = reg.Homography(h_true)
        mapped_true = true_h.apply(grid)
        inside = ((mapped_true[:, 0] >= 0) & (mapped_true[:, 0] <= 219)
                  & (mapped_true[:, 1] >= 0) & (mapped_true[:, 1] <= 219))
        mapped_est = result.homography.apply(grid)
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
        moved = result.homography.apply(corners)
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
        sv = np.linalg.svd(result.homography.matrix[:2, :2], compute_uv=False)
        assert sv.min() > 1.2

    def test_diagnostics_record_fields(self):
        rng = np.random.default_rng(19)
        rgb, rgnir, _ = synthetic.make_registration_pair(rng, out_size=200)
        params = reg.RegistrationParams(target_count=700,
                                        ransac_iters=1000, seed=20)
        result = reg.register_pair(rgb, rgnir, params, pair_id="abc")
        line = result.diagnostics.record()
        for token in ("pair=abc", "matches=", "inliers=", "mean_residual=", "H=["):
            assert token in line
        assert result.mask.shape == (rgnir.height, rgnir.width)
        assert result.image.band_labels == ("R", "G", "B")

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
                                     {"inlier_px": 0.0}])
    def test_params_out_of_range_rejected(self, bad):
        with pytest.raises(RegistrationError) as exc:
            reg.RegistrationParams(**bad)
        assert exc.value.stage == "params"
