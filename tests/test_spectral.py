"""NDVI computation and RGB+NDVI fusion."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddyspec import spectral
from paddyspec.imaging import ImageF
from paddyspec.spectral import SpectralError


class TestNdvi:
    def test_equal_bands_give_zero(self):
        band = np.full((4, 4), 0.5)
        out = spectral.compute_ndvi(band, band)
        assert np.abs(out).max() < 1e-5

    def test_direct_evaluation(self):
        out = spectral.compute_ndvi(np.array([[0.2]]), np.array([[0.8]]))
        assert abs(out[0, 0] - 0.6) < 1e-5

    def test_zero_zero_guarded(self):
        out = spectral.compute_ndvi(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(out == 0.0)
        assert np.isfinite(out).all()

    def test_negative_input_rejected(self):
        with pytest.raises(SpectralError, match="negative"):
            spectral.compute_ndvi(np.array([[-0.1]]), np.array([[0.5]]))

    def test_shape_mismatch(self):
        with pytest.raises(SpectralError, match="shapes"):
            spectral.compute_ndvi(np.zeros((2, 2)), np.zeros((3, 2)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_range_and_finiteness(self, seed):
        rng = np.random.default_rng(seed)
        red = rng.uniform(0.0, 1.0, (8, 8))
        nir = rng.uniform(0.0, 1.0, (8, 8))
        out = spectral.compute_ndvi(red, nir)
        assert np.isfinite(out).all()
        assert out.min() >= -1.0 and out.max() <= 1.0

    @given(st.floats(0.1, 10.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, c, seed):
        # bands bounded away from zero keep the eps guard's influence
        # below the stated tolerance for the whole scale range
        rng = np.random.default_rng(seed)
        red = rng.uniform(0.05, 1.0, (6, 6))
        nir = rng.uniform(0.05, 1.0, (6, 6))
        base = spectral.compute_ndvi(red, nir)
        scaled = spectral.compute_ndvi(c * red, c * nir)
        assert np.abs(base - scaled).max() < 1e-4


class TestFuse:
    def _rgb(self, rng, h=6, w=6):
        return ImageF(rng.uniform(0, 1, (h, w, 3)).astype(np.float32), ("R", "G", "B"))

    def test_all_valid_bands_pass_through(self):
        rng = np.random.default_rng(0)
        rgb = self._rgb(rng)
        ndvi = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        sample = spectral.fuse(rgb, ndvi, np.ones((6, 6), bool))
        assert sample.shape == (4, 6, 6)
        assert sample.dtype == np.float32
        assert np.array_equal(sample[0], rgb.band("R"))
        assert np.array_equal(sample[1], rgb.band("G"))
        assert np.array_equal(sample[2], rgb.band("B"))
        assert np.array_equal(sample[3], ndvi)

    def test_masked_pixels_zero_in_all_bands(self):
        rng = np.random.default_rng(1)
        rgb = self._rgb(rng)
        ndvi = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        mask = np.ones((6, 6), bool)
        mask[:, :3] = False
        sample = spectral.fuse(rgb, ndvi, mask)
        assert np.all(sample[:, :, :3] == 0.0)
        assert np.array_equal(sample[:3, :, 3:], np.transpose(rgb.data[:, 3:], (2, 0, 1)))
        assert np.array_equal(sample[3, :, 3:], ndvi[:, 3:])

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        rgb = self._rgb(rng)
        with pytest.raises(SpectralError, match="ndvi shape"):
            spectral.fuse(rgb, np.zeros((5, 6), np.float32), np.ones((6, 6), bool))
        with pytest.raises(SpectralError, match="mask shape"):
            spectral.fuse(rgb, np.zeros((6, 6), np.float32), np.ones((5, 6), bool))

    def test_save_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        rgb = self._rgb(rng)
        ndvi = rng.uniform(-1, 1, (6, 6)).astype(np.float32)
        sample = spectral.fuse(rgb, ndvi, np.ones((6, 6), bool))
        path = tmp_path / "sample.pspec"
        spectral.save_fused(sample, path)
        back = spectral.load_fused(path)
        assert back.tobytes() == sample.tobytes()
