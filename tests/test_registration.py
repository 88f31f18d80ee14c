"""Feature detection, binary descriptors, and brute-force matching."""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddyspec import registration as reg
from paddyspec.registration import RegistrationError
from paddyspec.registration.keypoints import _subpixel_offsets
from paddyspec.synthetic import make_registration_pair, smooth_texture


class Match(NamedTuple):
    """One correspondence, as the list-based oracles below take and return it."""

    index_a: int
    index_b: int
    distance: int


def match_list(matches: reg.Matches) -> list[Match]:
    return [Match(*row) for row in zip(matches.index_a.tolist(), matches.index_b.tolist(),
                                       matches.distance.tolist())]


# The XOR/popcount matcher that the GEMM match_bruteforce replaced, kept
# unchanged as the oracle it must match exactly.
def hamming_distance(d1: np.ndarray, d2: np.ndarray) -> int:
    """Popcount of the XOR of two packed 256-bit descriptors."""
    return int(np.bitwise_count(np.bitwise_xor(d1, d2)).sum())


def reference_match_bruteforce(descs_a: np.ndarray, descs_b: np.ndarray,
                               chunk: int = 512) -> list[Match]:
    """For each descriptor in A, its nearest neighbor in B by Hamming distance."""
    if len(descs_a) == 0 or len(descs_b) == 0:
        raise RegistrationError("match", "cannot match against an empty descriptor set")
    a64 = np.ascontiguousarray(descs_a).view(np.uint64)
    b64 = np.ascontiguousarray(descs_b).view(np.uint64)
    matches: list[Match] = []
    for start in range(0, len(a64), chunk):
        block = a64[start:start + chunk]
        dists = np.bitwise_count(block[:, None, :] ^ b64[None, :, :]).sum(
            axis=2, dtype=np.int32)
        nearest = dists.argmin(axis=1)
        best = dists[np.arange(len(block)), nearest]
        for row in range(len(block)):
            matches.append(Match(index_a=start + row,
                                 index_b=int(nearest[row]),
                                 distance=int(best[row])))
    return matches


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

    def test_inverted_image_gives_complement(self):
        img = smooth_texture(96, 96, np.random.default_rng(5))
        kps = reg.detect_keypoints(reg.build_pyramid(img), target_count=80)
        descs, kept = reg.compute_descriptors(reg.build_pyramid(img), kps)
        inv_descs, inv_kept = reg.compute_descriptors(reg.build_pyramid(1.0 - img), kps)
        assert np.array_equal(kept, inv_kept)
        assert np.array_equal(inv_descs, np.bitwise_not(descs))

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
        out = []
        for i in range(len(a)):
            best_j, best_d = 0, 257
            for j in range(len(b)):
                d = int(bin(int.from_bytes(np.bitwise_xor(a[i], b[j]).tobytes(),
                                           "big")).count("1"))
                if d < best_d:
                    best_j, best_d = j, d
            out.append((i, best_j, best_d))
        return out

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
                == reference_match_bruteforce(a, b, chunk=chunk))

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
