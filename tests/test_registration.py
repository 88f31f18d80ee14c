"""Feature detection, binary descriptors, and brute-force matching."""
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddyspec import registration as reg
from paddyspec.registration import RegistrationError
from paddyspec.registration.descriptors import (
    DESCRIPTOR_BITS, DESCRIPTOR_BYTES, PATCH_BORDER, TEST_PATTERN, _orientations)
from paddyspec.registration.keypoints import _subpixel_offsets, gaussian_smooth
from paddyspec.synthetic import make_registration_pair, smooth_texture


class Match(NamedTuple):
    """One correspondence, as the list-based oracles below take and return it."""

    index_a: int
    index_b: int
    distance: int


def match_list(matches: reg.Matches) -> list[Match]:
    return [Match(*row) for row in zip(matches.index_a.tolist(), matches.index_b.tolist(),
                                       matches.distance.tolist())]


# The XOR/popcount matcher that the GEMM match_bruteforce replaced, run in
# both directions as the oracle it must match exactly: a pair is kept when
# each side is the other's nearest neighbor.
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
# corner, and the compute_descriptors that read those angles, kept unchanged
# (the angles now passed in) as the oracles the descriptor-stage orientation
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
        angles = angle[sel]
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
    kps = reg.detect_keypoints(levels, target_count)
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
        assert (_orientations(levels[lvl], ys[on], xs[on]).tobytes()
                == angle[kept][on].tobytes())


class TestDetect:
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
           smooth=st.booleans(), inverted=st.booleans(),
           target=st.sampled_from([4, 60, 400, 10000]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_clipped_reference_on_textures(self, h, w, seed, smooth, inverted,
                                                   target):
        # small images put many corners, and at 32 px all of them, inside the
        # 16 px border, where the reference oriented them with a clipped disc
        rng = np.random.default_rng(seed)
        img = (smooth_texture(h, w, rng, radius=1) if smooth
               else rng.uniform(0.0, 1.0, size=(h, w)))
        assert_descriptors_match_reference(1.0 - img if inverted else img, target)

    @pytest.mark.parametrize("rng_seed, size, target", [
        (13, 220, 1200), (17, 220, 1200), (19, 200, 700)])
    def test_matches_clipped_reference_on_registration_pairs(self, rng_seed, size, target):
        rgb, rgnir, _ = make_registration_pair(np.random.default_rng(rng_seed),
                                               out_size=size)
        for img in (rgb, rgnir):
            assert_descriptors_match_reference(img.band("G"), target)

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
           levels=st.sampled_from([2, 4, 256]), chunk=st.sampled_from([1, 7, 512]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_gemm_distance_matches_xor_oracle(self, na, nb, seed, levels, chunk):
        # descriptors drawn from a few byte values and from each other, so that
        # many B rows tie at the nearest distance
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=levels).astype(np.uint8)
        b = values[rng.integers(0, levels, size=(nb, 32))]
        b[rng.random(nb) < 0.3] = b[0]
        a = values[rng.integers(0, levels, size=(na, 32))]
        copied = rng.random(na) < 0.5
        a[copied] = b[rng.integers(0, nb, size=int(copied.sum()))]
        assert (match_list(reg.match_bruteforce(a, b, chunk=chunk))
                == reference_match_bruteforce(a, b))

    @pytest.mark.parametrize("chunk", [1, 3, 512])
    def test_column_ties_across_chunks_go_to_lowest_a(self, chunk):
        rng = np.random.default_rng(29)
        a = self._random_descs(rng, 1030)
        b = self._random_descs(rng, 6)
        # B[1]: exact copies in A straddle the boundaries of every chunk size
        a[[2, 3, 511, 512, 1025]] = b[1]
        a[0] = b[1] ^ np.eye(32, dtype=np.uint8)[0]  # distance 1, in an earlier block
        # B[2]: a closer A row in a later block replaces an earlier one
        a[500] = b[2] ^ np.eye(32, dtype=np.uint8)[3]
        a[700] = b[2]
        # B[3]: two different A rows at the same distance 1, 509 rows apart
        a[4] = b[3] ^ np.eye(32, dtype=np.uint8)[0]
        a[513] = b[3] ^ np.eye(32, dtype=np.uint8)[5]
        matches = reg.match_bruteforce(a, b, chunk=chunk)
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


class TestFilterMatches:
    def _matches(self, distances):
        index = np.arange(len(distances))
        return reg.Matches(index, index, np.array(distances, dtype=np.int64))

    def test_drops_ten_percent_of_200(self):
        rng = np.random.default_rng(10)
        matches = self._matches(list(rng.integers(0, 200, size=200)))
        assert len(reg.filter_matches(matches)) == 180

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

    def test_literal_direction_drops_best(self):
        matches = self._matches(list(range(10)))
        out = reg.filter_matches(matches, drop_fraction=0.10, drop_best=True)
        assert out.distance.min() == 1

    @given(st.lists(st.integers(0, 256), min_size=1, max_size=64),
           st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_retention_count(self, distances, frac):
        matches = self._matches(distances)
        out = reg.filter_matches(matches, drop_fraction=frac)
        assert len(out) == len(matches) - math.ceil(len(matches) * frac)

    @given(n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           distances=st.sampled_from([1, 3, 257]), indices=st.sampled_from([2, 5, 60]),
           drop_fraction=st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.99]), drop_best=st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_sorted_reference(self, n, seed, distances, indices, drop_fraction,
                                      drop_best):
        # few distinct distances and indices, so that distance ties, (distance,
        # index_a) ties and repeated rows are common
        rng = np.random.default_rng(seed)
        matches = reg.Matches(rng.integers(0, indices, n), rng.integers(0, indices, n),
                              rng.integers(0, distances, n))
        assert (match_list(reg.filter_matches(matches, drop_fraction, drop_best))
                == reference_filter_matches(match_list(matches), drop_fraction, drop_best))


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
