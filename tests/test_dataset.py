"""Manifest building, stratified folds, and class weights."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddyspec import dataset as ds
from paddyspec.dataset import LABELS, ManifestError


def make_tree(root, counts, prefix="s"):
    """Write empty paired files for each class count."""
    for label, n in zip(LABELS, counts):
        d = root / label
        d.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            (d / f"{prefix}{label}{i:05d}_rgb.png").touch()
            (d / f"{prefix}{label}{i:05d}_rgnir.png").touch()


class TestBuildManifest:
    def test_counts_and_total(self, tmp_path):
        make_tree(tmp_path, (12, 7, 5))
        manifest = ds.build_manifest(tmp_path)
        assert manifest.counts == {"blast": 12, "brown_spot": 7, "healthy": 5}
        assert len(manifest) == 24

    def test_empty_root(self, tmp_path):
        for label in LABELS:
            (tmp_path / label).mkdir()
        manifest = ds.build_manifest(tmp_path)
        assert len(manifest) == 0
        assert manifest.counts == {label: 0 for label in LABELS}

    def test_unpaired_file_named(self, tmp_path):
        make_tree(tmp_path, (2, 2, 2))
        (tmp_path / "blast" / "orphan_rgb.png").touch()
        with pytest.raises(ManifestError, match="orphan"):
            ds.build_manifest(tmp_path)

    def test_unknown_label_dir(self, tmp_path):
        make_tree(tmp_path, (1, 1, 1))
        (tmp_path / "rust").mkdir()
        with pytest.raises(ManifestError, match="rust"):
            ds.build_manifest(tmp_path)

    def test_order_independent_and_idempotent(self, tmp_path):
        make_tree(tmp_path, (5, 4, 3))
        m1 = ds.build_manifest(tmp_path)
        m2 = ds.build_manifest(tmp_path)
        assert [r.id for r in m1.records] == [r.id for r in m2.records]
        assert m1.records == m2.records

    def test_csv_round_trip(self, tmp_path):
        make_tree(tmp_path, (3, 2, 2))
        manifest = ds.build_manifest(tmp_path)
        path = tmp_path / "manifest.csv"
        ds.write_manifest_csv(manifest, path)
        back = ds.read_manifest_csv(path)
        assert back.records == manifest.records
        assert back.counts == manifest.counts

    @pytest.mark.parametrize("row", [
        "a,a_rgb.png,a_rgnir.png",                      # short
        "a,a_rgb.png,a_rgnir.png,blast,",               # long
    ])
    def test_malformed_row_is_manifest_error(self, tmp_path, row):
        path = tmp_path / "manifest.csv"
        path.write_text(",".join(ds.MANIFEST_HEADER) + "\n" + row + "\n")
        with pytest.raises(ManifestError, match="manifest.csv:2"):
            ds.read_manifest_csv(path)

    def test_repeated_id_is_manifest_error(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(",".join(ds.MANIFEST_HEADER) + "\n"
                        "a,a_rgb.png,a_rgnir.png,blast\n"
                        "a,b_rgb.png,b_rgnir.png,healthy\n")
        with pytest.raises(ManifestError, match="manifest.csv:3: repeated id 'a'"):
            ds.read_manifest_csv(path)


class TestStratifiedKfold:
    def _manifest(self, counts):
        records = []
        for label, n in zip(LABELS, counts):
            for i in range(n):
                records.append(ds.SampleRecord(
                    id=f"{label}{i:05d}", rgb_path="x", rgnir_path="y", label=label))
        return ds.Manifest(records=records)

    def test_field_scale_counts_split_exactly(self):
        manifest = self._manifest((2135, 1095, 585))
        folds = ds.stratified_kfold(manifest, k=5, seed=0)
        for fold in range(5):
            ids = {r.id for r in manifest.records if folds.fold_of[r.id] == fold}
            per_class = {label: 0 for label in LABELS}
            for r in manifest.records:
                if r.id in ids:
                    per_class[r.label] += 1
            assert per_class == {"blast": 427, "brown_spot": 219, "healthy": 117}

    def test_single_fold_contains_everything(self):
        manifest = self._manifest((4, 3, 2))
        folds = ds.stratified_kfold(manifest, k=1, seed=0)
        assert set(folds.fold_of.values()) == {0}

    def test_determinism_and_seed_sensitivity(self):
        manifest = self._manifest((20, 15, 10))
        a = ds.stratified_kfold(manifest, k=5, seed=3)
        b = ds.stratified_kfold(manifest, k=5, seed=3)
        c = ds.stratified_kfold(manifest, k=5, seed=4)
        assert a.fold_of == b.fold_of
        assert a.fold_of != c.fold_of
        # same count profile for both seeds
        for folds in (a, c):
            sizes = [sum(1 for f in folds.fold_of.values() if f == i) for i in range(5)]
            assert sizes == [9, 9, 9, 9, 9]

    def test_class_below_k_rejected(self):
        manifest = self._manifest((5, 5, 3))
        with pytest.raises(ManifestError, match="healthy"):
            ds.stratified_kfold(manifest, k=5, seed=0)

    @given(counts=st.tuples(st.integers(5, 60), st.integers(5, 60), st.integers(5, 60)),
           k=st.integers(2, 5), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_balance(self, counts, k, seed):
        manifest = self._manifest(counts)
        folds = ds.stratified_kfold(manifest, k=k, seed=seed)
        all_ids = {r.id for r in manifest.records}
        assert set(folds.fold_of) == all_ids
        for ci, label in enumerate(LABELS):
            per_fold = np.zeros(k, dtype=int)
            for r in manifest.records:
                if r.label == label:
                    per_fold[folds.fold_of[r.id]] += 1
            assert per_fold.max() - per_fold.min() <= 1

    def test_folds_csv_round_trip(self, tmp_path):
        manifest = self._manifest((6, 6, 6))
        folds = ds.stratified_kfold(manifest, k=3, seed=1)
        path = tmp_path / "folds.csv"
        ds.write_folds_csv(folds, path)
        back = ds.read_folds_csv(path)
        assert back.fold_of == folds.fold_of
        assert back.k == 3

    @pytest.mark.parametrize("row", ["a", "a,0,1", "a,one", "a,-1", "a,1.5", "a,", "b,2"])
    def test_malformed_folds_row_is_manifest_error(self, tmp_path, row):
        path = tmp_path / "folds.csv"
        path.write_text("id,fold\nb,0\n" + row + "\n")
        with pytest.raises(ManifestError, match="folds.csv:3"):
            ds.read_folds_csv(path)

    @pytest.mark.parametrize("rows, needle", [
        ("a,0\nb,2\n", "1 of 0..2 are missing: 1$"),
        ("a,999999999\n", "999999999 of 0..999999999 are missing: 0, 1, 2, 3, 4, 5, 6, 7, ...$"),
    ], ids=["gap", "huge"])
    def test_fold_ids_must_run_from_zero(self, tmp_path, rows, needle):
        path = tmp_path / "folds.csv"
        path.write_text("id,fold\n" + rows)
        with pytest.raises(ManifestError, match=needle):
            ds.read_folds_csv(path)

    def test_check_covers_names_missing_ids(self):
        manifest = self._manifest((3, 3, 3))
        folds = ds.stratified_kfold(manifest, k=3, seed=0)
        folds.check_covers(manifest)
        dropped = manifest.records[4].id
        del folds.fold_of[dropped]
        with pytest.raises(ManifestError, match=dropped):
            folds.check_covers(manifest)


class TestClassWeights:
    def test_field_scale_weights(self):
        weights = ds.class_weights_from_counts(np.array([2135, 1095, 585]))
        assert np.abs(weights - np.array([0.5956, 1.1614, 2.1738])).max() < 1e-4

    def test_balanced_counts_give_ones(self):
        assert np.allclose(ds.class_weights_from_counts(np.array([7, 7, 7])), 1.0)

    def test_small_exact_case(self):
        weights = ds.class_weights_from_counts(np.array([1, 1, 2]))
        assert np.allclose(weights, [4 / 3, 4 / 3, 2 / 3])

    def test_zero_count_rejected(self):
        with pytest.raises(ManifestError):
            ds.class_weights_from_counts(np.array([3, 0, 2]))

    @given(st.tuples(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 5000)))
    @settings(max_examples=100, deadline=None)
    def test_weighted_mass_preserved(self, counts):
        counts = np.array(counts)
        weights = ds.class_weights_from_counts(counts)
        assert abs((weights * counts).sum() - counts.sum()) < 1e-9 * counts.sum()
