"""Feature detection, binary descriptors, and brute-force matching."""
import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddyspec import registration as reg
from paddyspec.registration import RegistrationError, pipeline
from paddyspec.registration.descriptors import (
    BLOCK, DESCRIPTOR_BITS, DESCRIPTOR_BYTES, ORIENTATION_BINS, PATCH_BORDER, TEST_PATTERN,
    _ROT_X, _ROT_Y, _orientation_bins, _orientations)
from paddyspec.registration.matching import ROW_BLOCK
from paddyspec.registration.keypoints import (
    _subpixel_offsets, gaussian_smooth, harris_response)
from paddyspec.synthetic import make_registration_pair, smooth_texture


class Match(NamedTuple):
    """One correspondence, as the list-based oracles below take and return it."""

    index_a: int
    index_b: int
    distance: int


def match_list(matches: reg.Matches) -> list[Match]:
    return [Match(*row) for row in zip(matches.index_a.tolist(), matches.index_b.tolist(),
                                       matches.distance.tolist())]


# A row-at-a-time XOR/popcount matcher, run in both directions as the
# oracle match_bruteforce's blocked distance matrix must match exactly: a
# pair is kept when each side is the other's nearest neighbor.
def hamming_distance(d1: np.ndarray, d2: np.ndarray) -> int:
    """Popcount of the XOR of two packed 256-bit descriptors."""
    return int(np.bitwise_count(np.bitwise_xor(d1, d2)).sum())


def _nearest_by_xor(descs_a: np.ndarray, descs_b: np.ndarray,
                    chunk: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """For each descriptor in A, the index of its nearest neighbor in B
    (lowest index on ties) and the distance to it."""
    a64 = np.ascontiguousarray(descs_a).view(np.uint64)
    b64 = np.ascontiguousarray(descs_b).view(np.uint64)
    nearest, best = [], []
    for start in range(0, len(a64), chunk):
        block = a64[start:start + chunk]
        dists = np.bitwise_count(block[:, None, :] ^ b64[None, :, :]).sum(
            axis=2, dtype=np.int32)
        nearest.append(dists.argmin(axis=1))
        best.append(dists.min(axis=1))
    return np.concatenate(nearest), np.concatenate(best)


def reference_match_bruteforce(descs_a: np.ndarray, descs_b: np.ndarray) -> list[Match]:
    """Mutual nearest neighbors of A and B by Hamming distance, in A order."""
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    a_to_b, distance = _nearest_by_xor(descs_a, descs_b)
    b_to_a, _ = _nearest_by_xor(descs_b, descs_a)
    return [Match(index_a=i, index_b=int(j), distance=int(distance[i]))
            for i, j in enumerate(a_to_b) if b_to_a[j] == i]


def reference_match_guided(descs_a, descs_b, predicted, xy_b, radius, max_distance):
    """Mutual nearest neighbors on the exhaustive XOR/popcount distance
    matrix, with the pairs outside the window or over the cap masked out."""
    a64 = np.ascontiguousarray(descs_a).view(np.uint64)
    b64 = np.ascontiguousarray(descs_b).view(np.uint64)
    dist = np.bitwise_count(a64[:, None, :] ^ b64[None, :, :]).sum(axis=2, dtype=np.int64)
    near = np.hypot(predicted[:, None, 0] - xy_b[None, :, 0],
                    predicted[:, None, 1] - xy_b[None, :, 1]) < radius
    allowed = near & (dist <= max_distance)
    masked = np.where(allowed, dist, np.iinfo(np.int64).max)
    out = []
    for i in np.flatnonzero(allowed.any(axis=1)):
        j = int(masked[i].argmin())
        if masked[:, j].argmin() == i:
            out.append(Match(index_a=int(i), index_b=j, distance=int(dist[i, j])))
    return out


# The per-keypoint subpixel refinement that _subpixel_offsets replaced, kept
# unchanged as the oracle it must match bit for bit.
def reference_subpixel_offset(response: np.ndarray, y: int, x: int) -> tuple[float, float]:
    """Parabolic refinement of a response peak, clamped to half a pixel."""
    h, w = response.shape
    if not (0 < y < h - 1 and 0 < x < w - 1):
        return 0.0, 0.0

    def refine(lo, mid, hi):
        denom = lo - 2.0 * mid + hi
        if denom >= -1e-12:
            return 0.0
        return float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))

    dx = refine(response[y, x - 1], response[y, x], response[y, x + 1])
    dy = refine(response[y - 1, x], response[y, x], response[y + 1, x])
    return dx, dy


# The sorted()-based filter that the lexsort filter_matches replaced, kept
# unchanged as the oracle it must match exactly.
def reference_filter_matches(matches: list[Match], drop_fraction: float = 0.10,
                             drop_best: bool = False) -> list[Match]:
    """Drop the worst ceil(N * drop_fraction) matches by distance."""
    if not 0.0 <= drop_fraction < 1.0:
        raise RegistrationError("filter",
                                f"drop_fraction must lie in [0, 1), got {drop_fraction}")
    ordered = sorted(matches, key=lambda m: (m.distance, m.index_a, m.index_b))
    n_drop = math.ceil(len(ordered) * drop_fraction)
    if n_drop == 0:
        return ordered
    return ordered[n_drop:] if drop_best else ordered[:len(ordered) - n_drop]


# The clipped orientation step that detect_keypoints ran on every detected
# corner, and the compute_descriptors that read those angles (the angles now
# passed in, and each snapped to the nearest of 32 bins of 11.25 degrees
# before the pattern is rotated by it), as the oracles the descriptor stage
# must match bit for bit.
_REF_DISC_DY, _REF_DISC_DX = np.nonzero(
    (np.arange(-15, 16)[:, None] ** 2 + np.arange(-15, 16)[None, :] ** 2) <= 15 * 15)
_REF_DISC_DY = (_REF_DISC_DY - 15).astype(np.intp)
_REF_DISC_DX = (_REF_DISC_DX - 15).astype(np.intp)


def reference_orientations(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Intensity-centroid angles, with the disc clipped at image borders."""
    h, w = img.shape
    sy = ys[:, None] + _REF_DISC_DY[None, :]
    sx = xs[:, None] + _REF_DISC_DX[None, :]
    inside = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    vals = img[np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1)] * inside
    m10 = (vals * _REF_DISC_DX[None, :]).sum(axis=1)
    m01 = (vals * _REF_DISC_DY[None, :]).sum(axis=1)
    return np.arctan2(m01, m10)


def reference_angles(levels: list[np.ndarray], keypoints: reg.Keypoints) -> np.ndarray:
    """Angles of every keypoint, as detect_keypoints computed them."""
    angle = np.empty(len(keypoints))
    xs, ys = keypoints.lvl_xy.T
    for lvl in np.unique(keypoints.octave):
        on = keypoints.octave == lvl
        angle[on] = reference_orientations(levels[lvl], ys[on], xs[on])
    return angle


def reference_orientation_bins(angle: np.ndarray) -> np.ndarray:
    """Index of the 32-bin orientation nearest to each angle, in [0, 32)."""
    return np.round(angle * (32 / (2 * np.pi))).astype(np.int64) % 32


def reference_compute_descriptors(levels: list[np.ndarray], keypoints: reg.Keypoints,
                                  angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors for keypoints at least 16 px inside their level."""
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
        angles = reference_orientation_bins(angle[sel]) * (2 * np.pi / 32)
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


def assert_descriptors_match_reference(img: np.ndarray, target_count: int) -> None:
    """compute_descriptors, its kept corners' angles and its failure all equal
    the reference's, which orients every detected corner."""
    levels = reg.build_pyramid(img)
    assert_keypoints_described_as_reference(levels, reg.detect_keypoints(levels, target_count))


def assert_keypoints_described_as_reference(levels: list[np.ndarray],
                                            kps: reg.Keypoints) -> None:
    angle = reference_angles(levels, kps)
    try:
        ref_descs, ref_kept = reference_compute_descriptors(levels, kps, angle)
    except RegistrationError as exc:
        with pytest.raises(RegistrationError, match=re.escape(str(exc))):
            reg.compute_descriptors(levels, kps)
        return
    descs, kept = reg.compute_descriptors(levels, kps)
    assert kept.tobytes() == ref_kept.tobytes()
    assert descs.tobytes() == ref_descs.tobytes()
    xs, ys = kps.lvl_xy[kept].T
    for lvl in np.unique(kps.octave[kept]):
        on = kps.octave[kept] == lvl
        # the disc-run prefix sums add in another order than the gather: the
        # angles may differ in the last bits, never by a bin
        got = _orientations(levels[lvl], ys[on], xs[on])
        assert np.array_equal(_orientation_bins(got), _orientation_bins(angle[kept][on]))
        assert np.abs(got - angle[kept][on]).max() <= 1e-9


# The separable filters as they were written before the edge-padding slices:
# np.pad(mode="edge"), then one product per tap added onto zeros in kernel
# order, as the oracles harris_response and gaussian_smooth must equal to the
# byte and to the sign of every zero.
def reference_filter1d(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    r = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for i, k in enumerate(kernel):
        if axis == 0:
            out += k * padded[i:i + img.shape[0], :]
        else:
            out += k * padded[:, i:i + img.shape[1]]
    return out


_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def reference_gaussian_smooth(img: np.ndarray) -> np.ndarray:
    return reference_filter1d(reference_filter1d(img.astype(np.float64), _BINOMIAL5, 0),
                              _BINOMIAL5, 1)


def reference_harris_response(img: np.ndarray) -> np.ndarray:
    smooth3 = np.array([1.0, 2.0, 1.0]) / 4.0
    diff = np.array([-0.5, 0.0, 0.5])
    gray = img.astype(np.float64)
    ix = reference_filter1d(reference_filter1d(gray, diff, 1), smooth3, 0)
    iy = reference_filter1d(reference_filter1d(gray, diff, 0), smooth3, 1)
    sxx = reference_filter1d(reference_filter1d(ix * ix, _BINOMIAL5, 0), _BINOMIAL5, 1)
    syy = reference_filter1d(reference_filter1d(iy * iy, _BINOMIAL5, 0), _BINOMIAL5, 1)
    sxy = reference_filter1d(reference_filter1d(ix * iy, _BINOMIAL5, 0), _BINOMIAL5, 1)
    return sxx * syy - sxy * sxy - 0.04 * (sxx + syy) ** 2


class TestDetect:
    @given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           float32=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_filters_match_edge_padded_reference(self, h, w, seed, float32):
        # images narrower than a kernel, and runs of +0.0 and -0.0, where a
        # skipped or reordered zero tap would flip only the sign of a zero
        rng = np.random.default_rng(seed)
        img = rng.uniform(-1.0, 1.0, size=(h, w))
        img[rng.uniform(size=(h, w)) < 0.4] = 0.0
        img[rng.uniform(size=(h, w)) < 0.2] = -0.0
        img = img.astype(np.float32) if float32 else img
        for got, want in ((gaussian_smooth(img), reference_gaussian_smooth(img)),
                          (harris_response(img), reference_harris_response(img))):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_constant_image_errors(self):
        img = np.full((64, 64), 0.5)
        with pytest.raises(RegistrationError) as exc:
            reg.detect_keypoints(reg.build_pyramid(img), target_count=100)
        assert exc.value.stage == "detect"

    def test_white_square_corners(self):
        img = np.zeros((96, 96))
        img[24:72, 24:72] = 1.0
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=64)
        for corner in [(24, 24), (24, 71), (71, 24), (71, 71)]:
            dist = np.linalg.norm(kps.xy - np.array(corner), axis=1).min()
            assert dist <= 1.0, f"corner {corner} missed by {dist:.2f} px"

    def test_exact_target_count_on_rich_texture(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0.0, 1.0, size=(512, 512))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=10000)
        assert len(kps) == 10000

    def test_scores_sorted_descending(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0.0, 1.0, size=(128, 128))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=200)
        assert (np.diff(kps.score) <= 0).all()

    def test_coordinates_in_bounds(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0.0, 1.0, size=(80, 120))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=300)
        assert ((kps.xy >= 0.0) & (kps.xy <= [119.0, 79.0])).all()

    def test_too_small_image_errors(self):
        with pytest.raises(RegistrationError):
            reg.detect_keypoints(reg.build_pyramid(np.zeros((16, 16))), target_count=10)


class TestDescriptors:
    def test_deterministic(self):
        img = smooth_texture(96, 96, np.random.default_rng(3))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=120)
        d1, k1 = reg.compute_descriptors(reg.build_pyramid(img), kps)
        d2, k2 = reg.compute_descriptors(reg.build_pyramid(img.copy()), kps[:])
        assert np.array_equal(k1, k2)
        assert np.array_equal(d1, d2)

    def test_descriptor_shape_and_border_report(self):
        img = smooth_texture(72, 72, np.random.default_rng(4))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=200)
        descs, kept = reg.compute_descriptors(reg.build_pyramid(img), kps)
        assert descs.shape == (len(kept), 32)
        assert descs.dtype == np.uint8
        assert (kps.lvl_xy[kept] >= 16).all()

    @given(h=st.integers(32, 160), w=st.integers(32, 160), seed=st.integers(0, 2**32 - 1),
           smooth=st.booleans(), inverted=st.booleans(), float32=st.booleans(),
           target=st.sampled_from([4, 60, 400, 10000]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_clipped_reference_on_textures(self, h, w, seed, smooth, inverted,
                                                   float32, target):
        # small images put many corners, and at 32 px all of them, inside the
        # 16 px border, where the reference oriented them with a clipped disc;
        # float32-valued images are what load_image hands to registration
        rng = np.random.default_rng(seed)
        img = (smooth_texture(h, w, rng, radius=1) if smooth
               else rng.uniform(0.0, 1.0, size=(h, w)))
        img = 1.0 - img if inverted else img
        assert_descriptors_match_reference(img.astype(np.float32) if float32 else img, target)

    @pytest.mark.parametrize("rng_seed, size, target", [
        (13, 220, 1200), (17, 220, 1200), (19, 200, 700)])
    def test_matches_clipped_reference_on_registration_pairs(self, rng_seed, size, target):
        rgb, rgnir, _ = make_registration_pair(np.random.default_rng(rng_seed),
                                               out_size=size)
        for img in (rgb, rgnir):
            assert_descriptors_match_reference(img.band("G"), target)

    @pytest.mark.parametrize("rng_seed", [1, 2, 3])
    def test_blocks_match_reference_at_default_params(self, rng_seed):
        rgb, rgnir, _ = make_registration_pair(np.random.default_rng(rng_seed), out_size=256)
        for img in (rgb, rgnir):
            levels = reg.build_pyramid(img.band("G"))
            kps = reg.detect_keypoints(levels, reg.RegistrationParams().target_count)
            assert_keypoints_described_as_reference(levels, kps)
            _, kept = reg.compute_descriptors(levels, kps)
            per_level = np.bincount(kps.octave[kept])
            # several whole blocks and a partial last one on some level
            assert ((per_level > 2 * BLOCK) & (per_level % BLOCK != 0)).any(), per_level

        # one level with fewer corners than a block and one with an exact
        # multiple of it, next to border corners that are never described
        inside = np.zeros(len(kps), dtype=bool)
        inside[kept] = True
        rows = np.concatenate([np.flatnonzero(inside & (kps.octave == 0))[:2 * BLOCK],
                               np.flatnonzero(inside & (kps.octave == 1))[:BLOCK // 3],
                               np.flatnonzero(~inside)[:20]])
        subset = kps[np.sort(rows)]
        assert_keypoints_described_as_reference(levels, subset)
        _, kept = reg.compute_descriptors(levels, subset)
        assert np.bincount(subset.octave[kept]).tolist() == [2 * BLOCK, BLOCK // 3]

    def test_memory_does_not_grow_with_corner_count(self):
        rgb, _, _ = make_registration_pair(np.random.default_rng(1), out_size=256)
        levels = reg.build_pyramid(rgb.band("G"))
        peaks = []
        for target in (2500, 10000):
            kps = reg.detect_keypoints(levels, target)
            tracemalloc.start()
            try:
                reg.compute_descriptors(levels, kps)
                peaks.append((len(kps), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        (n_small, small), (n_large, large) = peaks
        assert n_small >= 2400 and n_large >= 7500, peaks
        assert large <= 2 * small and large < 8 * 2**20, peaks

    def test_rotation_by_90_degrees_small_distance(self):
        img = smooth_texture(96, 96, np.random.default_rng(6), radius=1)
        rot = np.rot90(img, k=1)  # (x, y) -> (y, W-1-x)
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=150)
        kps_r = reg.detect_keypoints(reg.build_pyramid(rot), target_count=150)
        descs, kept = reg.compute_descriptors(reg.build_pyramid(img), kps)
        descs_r, kept_r = reg.compute_descriptors(reg.build_pyramid(rot), kps_r)
        kps, kps_r = kps[kept], kps_r[kept_r]
        w = img.shape[1]
        checked = 0
        for row in range(len(kps)):
            x, y = kps.xy[row]
            dists = np.linalg.norm(kps_r.xy - np.array([y, w - 1 - x]), axis=1)
            j = int(dists.argmin())
            if dists[j] > 0.5 or kps_r.octave[j] != kps.octave[row]:
                continue
            hamming = hamming_distance(descs[row], descs_r[j])
            assert hamming <= 64, f"rotated pair hamming {hamming}"
            checked += 1
        assert checked >= 10

    def test_pattern_is_fixed_and_bounded(self):
        pattern = reg.TEST_PATTERN
        assert pattern.shape == (256, 2, 2)
        radii = np.sqrt((pattern.astype(float) ** 2).sum(axis=2))
        assert radii.max() <= 13.0

    def test_rotated_pattern_table(self):
        assert ORIENTATION_BINS == 32
        assert _ROT_X.shape == _ROT_Y.shape == (32, 2 * DESCRIPTOR_BITS)
        # every bin's samples stay inside the border, so no gather is clipped
        assert np.abs(_ROT_X).max() <= PATCH_BORDER and np.abs(_ROT_Y).max() <= PATCH_BORDER
        # bin 0 is the pattern itself; bin k + 8 is bin k turned by exactly
        # 90 degrees, (x, y) -> (-y, x)
        assert _ROT_X[0].tolist() == TEST_PATTERN[:, :, 0].T.ravel().tolist()
        assert _ROT_Y[0].tolist() == TEST_PATTERN[:, :, 1].T.ravel().tolist()
        turned = (np.arange(32) + 8) % 32
        assert np.array_equal(_ROT_X[turned], -_ROT_Y)
        assert np.array_equal(_ROT_Y[turned], _ROT_X)

    def test_orientation_bins_at_fixed_angles(self):
        assert _orientation_bins(np.array([-np.pi, 0.0, np.pi])).tolist() == [16, 0, 16]
        # bin k covers the angles within half a bin of k * 11.25 degrees: one
        # ulp below the edge between bins k and k + 1 lies in k, one ulp above
        # in k + 1, and the edge itself goes to one of the two
        k = np.arange(-16, 16)
        edges = (k + 0.5) * (2 * np.pi / 32)
        assert _orientation_bins(np.nextafter(edges, -np.inf)).tolist() == (k % 32).tolist()
        assert (_orientation_bins(np.nextafter(edges, np.inf)).tolist()
                == ((k + 1) % 32).tolist())
        on_edge = _orientation_bins(edges)
        assert ((on_edge == k % 32) | (on_edge == (k + 1) % 32)).all()
        assert reference_orientation_bins(edges).tolist() == on_edge.tolist()


class TestMatching:
    def _random_descs(self, rng, n):
        return rng.integers(0, 256, size=(n, 32)).astype(np.uint8)

    def test_identical_descriptor_distance_zero(self):
        rng = np.random.default_rng(7)
        descs = self._random_descs(rng, 10)
        matches = reg.match_bruteforce(descs[:1], descs)
        assert matches.distance[0] == 0
        assert np.array_equal(descs[matches.index_b[0]], descs[0])

    def test_complement_distance_256(self):
        rng = np.random.default_rng(8)
        d = self._random_descs(rng, 1)
        comp = np.bitwise_not(d)
        matches = reg.match_bruteforce(d, comp)
        assert matches.distance[0] == 256

    def test_empty_input_errors(self):
        rng = np.random.default_rng(9)
        d = self._random_descs(rng, 4)
        with pytest.raises(RegistrationError):
            reg.match_bruteforce(np.empty((0, 32), dtype=np.uint8), d)
        with pytest.raises(RegistrationError):
            reg.match_bruteforce(d, np.empty((0, 32), dtype=np.uint8))

    def _oracle(self, a, b):
        def nearest(x, y):
            out = []
            for i in range(len(x)):
                best_j, best_d = 0, 257
                for j in range(len(y)):
                    d = int(bin(int.from_bytes(np.bitwise_xor(x[i], y[j]).tobytes(),
                                               "big")).count("1"))
                    if d < best_d:
                        best_j, best_d = j, d
                out.append((best_j, best_d))
            return out

        b_to_a = nearest(b, a)
        return [(i, j, d) for i, (j, d) in enumerate(nearest(a, b)) if b_to_a[j][0] == i]

    @given(na=st.integers(1, 48), nb=st.integers(1, 48), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        a = self._random_descs(rng, na)
        b = self._random_descs(rng, nb)
        assert match_list(reg.match_bruteforce(a, b)) == self._oracle(a, b)

    def test_tie_breaks_to_lowest_index(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        b = np.zeros((3, 32), dtype=np.uint8)  # all tie at distance 0
        assert reg.match_bruteforce(a, b).index_b[0] == 0

    @given(na=st.integers(1, 40), nb=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([2, 4, 256]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_tied_distances_match_xor_oracle(self, na, nb, seed, levels):
        # descriptors drawn from a few byte values and from each other, so that
        # many B rows tie at the nearest distance
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=levels).astype(np.uint8)
        b = values[rng.integers(0, levels, size=(nb, 32))]
        b[rng.random(nb) < 0.3] = b[0]
        a = values[rng.integers(0, levels, size=(na, 32))]
        copied = rng.random(na) < 0.5
        a[copied] = b[rng.integers(0, nb, size=int(copied.sum()))]
        assert match_list(reg.match_bruteforce(a, b)) == reference_match_bruteforce(a, b)

    def test_column_ties_go_to_lowest_a(self):
        rng = np.random.default_rng(29)
        a = self._random_descs(rng, 1030)
        b = self._random_descs(rng, 6)
        # B[1]: five exact copies in A, and a row at distance 1 before them
        a[[2, 3, 511, 512, 1025]] = b[1]
        a[0] = b[1] ^ np.eye(32, dtype=np.uint8)[0]
        # B[2]: a closer A row after a farther one
        a[500] = b[2] ^ np.eye(32, dtype=np.uint8)[3]
        a[700] = b[2]
        # B[3]: two different A rows at the same distance 1, 509 rows apart
        a[4] = b[3] ^ np.eye(32, dtype=np.uint8)[0]
        a[513] = b[3] ^ np.eye(32, dtype=np.uint8)[5]
        matches = reg.match_bruteforce(a, b)
        assert match_list(matches) == reference_match_bruteforce(a, b)
        kept = dict(zip(matches.index_b.tolist(), matches.index_a.tolist()))
        assert (kept[1], kept[2], kept[3]) == (2, 700, 4)

    @pytest.mark.parametrize("rng_seed, size, target", [
        (13, 220, 1200), (17, 220, 1200), (19, 200, 700)])
    def test_registration_fixtures_match_xor_oracle(self, rng_seed, size, target):
        rgb, rgnir, _ = make_registration_pair(np.random.default_rng(rng_seed),
                                               out_size=size)
        descs = []
        for img in (rgb, rgnir):
            levels = reg.build_pyramid(img.band("G"))
            descs.append(reg.compute_descriptors(
                levels, reg.detect_keypoints(levels, target))[0])
        assert match_list(reg.match_bruteforce(*descs)) == reference_match_bruteforce(*descs)

    def test_first_pass_memory_is_two_distance_matrices(self):
        # the first pass's largest call; the column argmin copies the matrix
        n = pipeline.GUIDE_CORNERS
        rng = np.random.default_rng(31)
        a = self._random_descs(rng, n)
        b = self._random_descs(rng, n)
        matrix = n * n * 2                    # the uint16 distance matrix
        scratch = ROW_BLOCK * n * (8 + 1)     # one block's uint64 XORs and uint8 counts
        vectors = 16 * n * 8                  # B's words and a few index vectors
        tracemalloc.start()
        try:
            reg.match_bruteforce(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * matrix + scratch + vectors, (peak, matrix, scratch)


@st.composite
def guided_cases(draw):
    """Descriptors from a few byte values and from each other, so distances
    tie; B corners on a half-pixel lattice, so window distances tie; and A
    predictions near B corners, far from all of them, or not finite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    na, nb = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    values = rng.integers(0, 256, size=draw(st.sampled_from([2, 4, 256]))).astype(np.uint8)
    b = values[rng.integers(0, len(values), size=(nb, 32))]
    a = values[rng.integers(0, len(values), size=(na, 32))]
    source = rng.integers(0, nb, size=na)   # the B row each A row is drawn near
    copied = rng.random(na) < 0.5
    a[copied] = b[source[copied]]
    extent = draw(st.sampled_from([4.0, 20.0, 200.0]))
    xy_b = rng.integers(0, 2 * extent + 1, size=(nb, 2)) / 2.0
    predicted = xy_b[source] + rng.integers(-2, 3, size=(na, 2)) / 2.0
    kind = rng.integers(0, 6, size=na)
    predicted[kind == 0] += rng.normal(0.0, 2.0, size=(int((kind == 0).sum()), 2))
    predicted[kind == 1] = [1e6, -1e6]
    predicted[kind == 2, rng.integers(0, 2)] = rng.choice([np.nan, np.inf, -np.inf])
    radius = draw(st.sampled_from([0.5, 1.0, 3.0, 7.25]))
    max_distance = draw(st.sampled_from([0, 40, 128, 256]))
    return a, b, predicted, xy_b, radius, max_distance


class TestMatchGuided:
    @given(case=guided_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_masked_xor_oracle(self, case):
        assert match_list(reg.match_guided(*case)) == reference_match_guided(*case)

    def test_ties_break_to_lowest_index_on_both_sides(self):
        b = np.zeros((4, 32), dtype=np.uint8)
        b[1] = 255                                   # far in Hamming distance
        xy_b = np.array([[10.0, 10.0], [10.0, 10.0], [11.0, 10.0], [9.0, 10.0]])
        # row 0 reaches B[0] and B[2] at distance 0 and keeps B[0]; rows 0 and
        # 2 both reach B[0], and row 0 wins it; rows 1, 2 and 3 reach B[3],
        # and row 1 wins it
        a = np.zeros((4, 32), dtype=np.uint8)
        predicted = np.array([[10.5, 11.0], [8.0, 10.0], [10.0, 9.0], [8.0, 10.0]])
        matches = reg.match_guided(a, b, predicted, xy_b, 1.5, 256)
        assert match_list(matches) == [Match(0, 0, 0), Match(1, 3, 0)]
        assert match_list(matches) == reference_match_guided(a, b, predicted, xy_b, 1.5, 256)

    def test_rows_without_candidates_stay_unmatched(self):
        rng = np.random.default_rng(41)
        a = rng.integers(0, 256, size=(5, 32)).astype(np.uint8)
        b = a.copy()
        xy_b = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0], [20.0, 0.0]])
        predicted = xy_b.copy()
        predicted[1] = [5.0, 3.0]          # exactly radius away: outside the window
        predicted[2] = [np.nan, 0.0]
        predicted[3] = [np.inf, -np.inf]
        b[4] ^= 1                          # one bit over a cap of 0
        matches = reg.match_guided(a, b, predicted, xy_b, 3.0, 0)
        assert match_list(matches) == [Match(0, 0, 0)]
        assert len(reg.match_guided(a, b, np.full((5, 2), np.nan), xy_b, 3.0, 256)) == 0

    @staticmethod
    def _fixture_features(rng_seed, size, target):
        """(descriptors, corner xy) of both images, and the true homography."""
        rgb, rgnir, h_true = make_registration_pair(np.random.default_rng(rng_seed),
                                                    out_size=size)
        features = []
        for img in (rgb, rgnir):
            levels = reg.build_pyramid(img.band("G"))
            kps = reg.detect_keypoints(levels, target)
            descs, kept = reg.compute_descriptors(levels, kps)
            features.append((descs, kps[kept].xy))
        return features, h_true

    @pytest.mark.parametrize("rng_seed, size, target", [(13, 220, 1200), (19, 200, 700)])
    def test_registration_fixtures_match_masked_xor_oracle(self, rng_seed, size, target):
        ((descs_a, xy_a), (descs_b, xy_b)), h_true = self._fixture_features(
            rng_seed, size, target)
        mapped = np.hstack([xy_a, np.ones((len(xy_a), 1))]) @ h_true.T
        predicted = mapped[:, :2] / mapped[:, 2:]
        case = (descs_a, descs_b, predicted, xy_b, 3.0, 64)
        matches = match_list(reg.match_guided(*case))
        assert len(matches) > 50
        assert matches == reference_match_guided(*case)

    @pytest.mark.parametrize("rng_seed, size, target", [(13, 220, 1200), (19, 200, 700)])
    def test_unbounded_window_and_cap_equal_bruteforce(self, rng_seed, size, target):
        ((descs_a, xy_a), (descs_b, xy_b)), _ = self._fixture_features(rng_seed, size, target)
        guided = reg.match_guided(descs_a, descs_b, np.zeros_like(xy_a), xy_b, 2.0 * size, 256)
        assert match_list(guided) == match_list(reg.match_bruteforce(descs_a, descs_b))

    def test_empty_input_errors(self):
        d = np.zeros((3, 32), dtype=np.uint8)
        xy = np.zeros((3, 2))
        with pytest.raises(RegistrationError):
            reg.match_guided(d[:0], d, xy[:0], xy, 3.0, 256)
        with pytest.raises(RegistrationError):
            reg.match_guided(d, d[:0], xy, xy[:0], 3.0, 256)


class TestFilterMatches:
    def _matches(self, distances):
        index = np.arange(len(distances))
        return reg.Matches(index, index, np.array(distances, dtype=np.int64))

    def test_drops_ten_percent_of_200(self):
        rng = np.random.default_rng(10)
        matches = self._matches(list(rng.integers(0, 200, size=200)))
        assert len(reg.filter_matches(matches, drop_fraction=0.10)) == 180

    def test_zero_fraction_returns_sorted_input(self):
        matches = self._matches([5, 1, 3])
        out = reg.filter_matches(matches, drop_fraction=0.0)
        assert out.distance.tolist() == [1, 3, 5]
        assert len(out) == 3

    def test_worst_match_removed(self):
        matches = self._matches(list(range(10)))
        out = reg.filter_matches(matches, drop_fraction=0.10)
        assert len(out) == 9
        assert out.distance.max() == 8

    @given(st.lists(st.integers(0, 256), min_size=1, max_size=64),
           st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_retention_count(self, distances, frac):
        matches = self._matches(distances)
        out = reg.filter_matches(matches, drop_fraction=frac)
        assert len(out) == len(matches) - math.ceil(len(matches) * frac)

    @given(n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           distances=st.sampled_from([1, 3, 257]), indices=st.sampled_from([2, 5, 60]),
           drop_fraction=st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.99]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_sorted_reference(self, n, seed, distances, indices, drop_fraction):
        # few distinct distances and indices, so that distance ties, (distance,
        # index_a) ties and repeated rows are common
        rng = np.random.default_rng(seed)
        matches = reg.Matches(rng.integers(0, indices, n), rng.integers(0, indices, n),
                              rng.integers(0, distances, n))
        assert (match_list(reg.filter_matches(matches, drop_fraction))
                == reference_filter_matches(match_list(matches), drop_fraction))


@st.composite
def response_maps(draw):
    """Response maps drawn from few levels, down to one (a flat map), so that
    flat, ridge, valley and plateau neighbourhoods are common."""
    h, w = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 1000]))
    scale = draw(st.sampled_from([1e-13, 1e-3, 1.0]))
    return scale * rng.integers(0, levels, size=(h, w)) + rng.choice(
        [0.0, scale * 1e-3], size=(h, w))


class TestSubpixelOffsets:
    @given(response=response_maps())
    @example(response=np.array([[0.0, 0.0, 0.0], [0.0, 5e-13, 0.0], [0.0, 0.0, 0.0]]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_scalar_reference(self, response):
        # every pixel is refined, the border included; the example puts the
        # curvature exactly on the -1e-12 flatness threshold
        h, w = response.shape
        ys, xs = np.divmod(np.arange(h * w), w)
        dx, dy = _subpixel_offsets(response, ys, xs)
        ref = np.array([reference_subpixel_offset(response, y, x) for y, x in zip(ys, xs)])
        assert dx.tobytes() == ref[:, 0].tobytes()
        assert dy.tobytes() == ref[:, 1].tobytes()
