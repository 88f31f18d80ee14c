"""Panel extraction, line fitting, and reflectance application."""
import numpy as np
import pytest

from paddyspec import calibration as cal
from paddyspec import synthetic
from paddyspec.calibration import BandCalibration, CalibrationError, Panel, PanelRoi, PanelSpec
from paddyspec.imaging import ImageF


def uniform_board(values=(0.1, 0.3, 0.6, 0.9), bands=3, size=120):
    """Board whose panels hold the given DN values exactly."""
    data = np.full((size, size, bands), 0.4, dtype=np.float32)
    side, margin = 40, 10
    positions = [(margin, margin), (margin, size - margin - side),
                 (size - margin - side, margin), (size - margin - side, size - margin - side)]
    panels = []
    for v, (y, x) in zip(values, positions):
        data[y:y + side, x:x + side, :] = v
        panels.append(Panel(reflectance=tuple([v] * bands), roi=PanelRoi(x, y, side, side)))
    return ImageF(data, ("R", "G", "NIR")), PanelSpec(panels)


class TestExtractPanelStats:
    def test_uniform_panels_exact(self):
        img, panels = uniform_board()
        means = cal.extract_panel_stats(img, panels)
        assert np.allclose(means, np.array([[0.1] * 3, [0.3] * 3, [0.6] * 3, [0.9] * 3]),
                           atol=1e-6)

    def test_trimmed_mean_resists_salt_and_pepper(self):
        img, panels = uniform_board()
        rng = np.random.default_rng(0)
        data = img.data.copy()
        for panel in panels.panels:
            roi = panel.roi
            n = roi.w * roi.h
            # 4% salt and 4% pepper, inside the 5% trim at each end
            flat_idx = rng.choice(n, size=int(0.08 * n), replace=False)
            ys, xs = np.unravel_index(flat_idx, (roi.h, roi.w))
            half = len(flat_idx) // 2
            data[roi.y + ys[:half], roi.x + xs[:half], :] = 1.0
            data[roi.y + ys[half:], roi.x + xs[half:], :] = 0.0
        noisy = ImageF(data, img.band_labels)
        means = cal.extract_panel_stats(noisy, panels)
        clean = np.array([[0.1] * 3, [0.3] * 3, [0.6] * 3, [0.9] * 3])
        assert np.abs(means - clean).max() < 1e-3

    def test_roi_out_of_bounds(self):
        img, panels = uniform_board()
        panels.panels[2].roi.x = 110
        with pytest.raises(CalibrationError, match="outside"):
            cal.extract_panel_stats(img, panels)

    def test_high_variance_roi_rejected(self):
        img, panels = uniform_board()
        rng = np.random.default_rng(1)
        data = img.data.copy()
        roi = panels.panels[0].roi
        data[roi.y:roi.y + roi.h, roi.x:roi.x + roi.w, :] = rng.uniform(
            0, 1, (roi.h, roi.w, 3)).astype(np.float32)
        with pytest.raises(CalibrationError, match="variance"):
            cal.extract_panel_stats(ImageF(data, img.band_labels), panels)

    def test_tiny_roi_rejected(self):
        img, panels = uniform_board()
        panels.panels[0].roi.w = 4
        panels.panels[0].roi.h = 4
        with pytest.raises(CalibrationError, match="25"):
            cal.extract_panel_stats(img, panels)


class TestFitCalibration:
    def test_identity_fit(self):
        refl = np.array([[0.1, 0.1, 0.1], [0.3, 0.3, 0.3],
                         [0.6, 0.6, 0.6], [0.9, 0.9, 0.9]])
        calib = cal.fit_calibration(refl, refl)
        assert np.allclose(calib.gain, 1.0, atol=1e-12)
        assert np.allclose(calib.offset, 0.0, atol=1e-12)
        assert np.allclose(calib.fit_residual, 0.0, atol=1e-12)

    def test_exact_affine_recovery(self):
        refl = np.array([[0.1, 0.1, 0.1], [0.3, 0.3, 0.3],
                         [0.6, 0.6, 0.6], [0.9, 0.9, 0.9]])
        dn = 0.5 * refl + 0.1
        calib = cal.fit_calibration(dn, refl)
        assert np.allclose(calib.gain, 2.0, atol=1e-12)
        assert np.allclose(calib.offset, -0.2, atol=1e-12)
        assert calib.fit_residual.max() < 1e-12

    def test_noisy_fit_within_bounds(self):
        rng = np.random.default_rng(2)
        refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
        sigma = 0.01
        worst_gain = 0.0
        for _ in range(50):
            dn = (refl - 0.05) / 1.25 + rng.normal(0, sigma, refl.shape)
            calib = cal.fit_calibration(dn, refl)
            worst_gain = max(worst_gain, np.abs(calib.gain - 1.25).max())
        # OLS slope std on 4 points spanning ~0.64 DN: sigma_g ~ gain*sigma/(0.3)
        assert worst_gain < 3.0 * 1.25 * sigma / 0.28 * 1.5

    def test_rank_deficient_rejected(self):
        refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
        dn = np.full((4, 3), 0.5)
        with pytest.raises(CalibrationError, match="rank deficient"):
            cal.fit_calibration(dn, refl)

    def test_negative_gain_rejected(self):
        refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
        dn = 1.0 - refl  # inverted: slope would be negative
        with pytest.raises(CalibrationError, match="gain"):
            cal.fit_calibration(dn, refl)

    def test_nan_gain_rejected(self):
        refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
        dn = refl * 0.8 + 0.05
        refl[2, 1] = np.nan  # one unknown panel reflectance makes the slope NaN
        with pytest.raises(CalibrationError, match="band 1: non-positive gain nan"):
            cal.fit_calibration(dn, refl)


class TestApplyCalibration:
    def _identity(self):
        return BandCalibration(gain=np.ones(3), offset=np.zeros(3),
                               fit_residual=np.zeros(3))

    def test_identity_application(self):
        rng = np.random.default_rng(3)
        img = ImageF(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32), ("R", "G", "NIR"))
        out, rate = cal.apply_calibration(img, self._identity())
        assert np.allclose(out.data, img.data, atol=1e-7)
        assert rate == 0.0

    def test_clamping_reported(self):
        img = ImageF(np.full((4, 4, 3), 0.6, dtype=np.float32), ("R", "G", "NIR"))
        calib = BandCalibration(gain=np.full(3, 2.0), offset=np.zeros(3),
                                fit_residual=np.zeros(3))
        out, rate = cal.apply_calibration(img, calib)
        assert np.all(out.data == 1.0)
        assert rate == 1.0

    def test_affine_arithmetic(self):
        img = ImageF(np.full((2, 2, 3), 0.4, dtype=np.float32), ("R", "G", "NIR"))
        calib = BandCalibration(gain=np.full(3, 2.0), offset=np.full(3, -0.2),
                                fit_residual=np.zeros(3))
        out, rate = cal.apply_calibration(img, calib)
        assert np.allclose(out.data, 0.6, atol=1e-6)
        assert rate == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 0.5, (6, 6, 3)).astype(np.float32)
        b = a + rng.uniform(0, 0.4, (6, 6, 3)).astype(np.float32)
        calib = BandCalibration(gain=np.array([1.3, 0.9, 1.1]),
                                offset=np.array([-0.05, 0.02, 0.0]),
                                fit_residual=np.zeros(3))
        out_a, _ = cal.apply_calibration(ImageF(a, ("R", "G", "NIR")), calib)
        out_b, _ = cal.apply_calibration(ImageF(b, ("R", "G", "NIR")), calib)
        assert np.all(out_a.data <= out_b.data + 1e-7)

    def test_band_count_mismatch(self):
        img = ImageF(np.zeros((2, 2, 1), dtype=np.float32), ("G",))
        with pytest.raises(CalibrationError, match="bands"):
            cal.apply_calibration(img, self._identity())


class TestRoundTrip:
    def test_fit_then_apply_recovers_reflectance(self):
        rng = np.random.default_rng(5)
        gain = np.array([1.25, 1.10, 1.40])
        offset = np.array([-0.05, -0.02, -0.08])
        board, panels = synthetic.make_calibration_board(rng, gain=gain, offset=offset)
        means = cal.extract_panel_stats(board, panels)
        calib = cal.fit_calibration(means, panels.known_reflectance())
        assert calib.fit_residual.max() < 1e-5

        refl_true = rng.uniform(0.05, 0.9, (16, 16, 3)).astype(np.float64)
        dn = (refl_true - offset) / gain
        out, rate = cal.apply_calibration(
            ImageF(dn.astype(np.float32), ("R", "G", "NIR")), calib)
        assert rate == 0.0
        assert np.abs(out.data - refl_true).max() < 1e-4

    def test_exact_round_trip_in_float64(self):
        # clamp-free affine distortion recovered to machine precision
        gain = np.array([1.25, 1.10, 1.40])
        offset = np.array([-0.05, -0.02, -0.08])
        refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
        dn = (refl - offset) / gain
        calib = cal.fit_calibration(dn, refl)
        assert np.abs(calib.gain - gain).max() < 1e-12
        assert np.abs(calib.offset - offset).max() < 1e-12
        assert calib.fit_residual.max() < 1e-12

    def test_session_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        board, panels = synthetic.make_calibration_board(rng)
        path = tmp_path / "session.json"
        cal.save_session(path, "board.png", panels)
        board_path, loaded, bands = cal.load_session(path)
        assert board_path == "board.png"
        assert bands == ("R", "G", "NIR")
        assert np.allclose(loaded.known_reflectance(), panels.known_reflectance())

    def test_calibration_file_round_trip(self, tmp_path):
        calib = BandCalibration(gain=np.array([1.2, 1.0, 1.5]),
                                offset=np.array([-0.1, 0.0, 0.05]),
                                fit_residual=np.array([1e-4, 2e-4, 0.0]))
        path = tmp_path / "calib.json"
        cal.save_calibration(calib, path)
        back = cal.load_calibration(path)
        assert np.allclose(back.gain, calib.gain)
        assert np.allclose(back.offset, calib.offset)
        assert np.allclose(back.fit_residual, calib.fit_residual)

    @pytest.mark.parametrize("text,needle", [
        ("{not json", "JSONDecodeError"),
        ('["R", "G", "NIR"]', "TypeError"),
        ('{"band_labels": ["R", "G", "NIR"]}', "KeyError: 'gain'"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": ["a", "b", "c"], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, 0]}', "ValueError"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, 1], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, 0]}', "one number per band"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, NaN, 1], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, 0]}', "must be finite"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, 1, 1], '
         '"offset": [0, -Infinity, 0], "fit_residual": [0, 0, 0]}', "must be finite"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, 1, 1], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, NaN]}', "must be finite"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, 0, 1], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, 0]}', "gains must be > 0"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [-1, -1, -1], '
         '"offset": [0, 0, 0], "fit_residual": [0, 0, 0]}', "gains must be > 0"),
        ('{"band_labels": ["R", "G", "NIR"], "gain": [1, 1, 1], '
         '"offset": [0, 0, 1' + "0" * 400 + '], "fit_residual": [0, 0, 0]}', "OverflowError"),
    ], ids=["not-json", "not-object", "missing-key", "non-numeric", "short-list",
            "nan-gain", "infinite-offset", "nan-residual", "zero-gain", "negative-gains",
            "huge-integer"])
    def test_malformed_calibration_file(self, tmp_path, text, needle):
        path = tmp_path / "calib.json"
        path.write_text(text)
        with pytest.raises(CalibrationError, match=needle):
            cal.load_calibration(path)
