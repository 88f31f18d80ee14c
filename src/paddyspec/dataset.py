"""Dataset manifest, stratified k-fold splitting, and class weights.

Samples live on disk as ``root/<label>/<id>_rgb.png`` plus
``root/<label>/<id>_rgnir.png``. Splitting is stratified per class (seeded
shuffle, then round-robin) and deliberately ignores capture sessions; if field
sessions correlate with disease pressure this leaks session context across
folds, which is a known validity caveat of the protocol.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

LABELS = ("blast", "brown_spot", "healthy")


class ManifestError(ValueError):
    """Directory layout or manifest contents are inconsistent."""


RGB_SUFFIX = "_rgb.png"
RGNIR_SUFFIX = "_rgnir.png"


@dataclass
class SampleRecord:
    id: str
    rgb_path: str
    rgnir_path: str
    label: str


@dataclass
class Manifest:
    records: list[SampleRecord]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def counts(self) -> dict[str, int]:
        """Samples per label, every label present."""
        counts = {label: 0 for label in LABELS}
        for r in self.records:
            counts[r.label] += 1
        return counts


def build_manifest(root_dir) -> Manifest:
    """Scan the class-directory layout into a deterministic manifest.

    Ordering is lexicographic by (label, id); unknown label directories and
    unpaired files are errors that name every offender.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise ManifestError(f"dataset root {root} is not a directory")

    problems: list[str] = []
    records: list[SampleRecord] = []
    seen_ids: dict[str, str] = {}
    for entry in sorted(root.iterdir()):
        if not entry.is_dir():
            continue
        if entry.name not in LABELS:
            problems.append(f"unknown label directory: {entry.name}")
            continue
        rgb_ids = set()
        rgnir_ids = set()
        for f in entry.iterdir():
            if f.name.endswith(RGB_SUFFIX):
                rgb_ids.add(f.name[:-len(RGB_SUFFIX)])
            elif f.name.endswith(RGNIR_SUFFIX):
                rgnir_ids.add(f.name[:-len(RGNIR_SUFFIX)])
        for orphan in sorted(rgb_ids - rgnir_ids):
            problems.append(f"{entry.name}/{orphan}: RGB file without an R-G-NIR pair")
        for orphan in sorted(rgnir_ids - rgb_ids):
            problems.append(f"{entry.name}/{orphan}: R-G-NIR file without an RGB pair")
        for sample_id in sorted(rgb_ids & rgnir_ids):
            if sample_id in seen_ids:
                problems.append(
                    f"duplicate id {sample_id} in {entry.name} and {seen_ids[sample_id]}")
                continue
            seen_ids[sample_id] = entry.name
            records.append(SampleRecord(
                id=sample_id,
                rgb_path=str(entry / f"{sample_id}{RGB_SUFFIX}"),
                rgnir_path=str(entry / f"{sample_id}{RGNIR_SUFFIX}"),
                label=entry.name,
            ))
    if problems:
        raise ManifestError("manifest build failed:\n  " + "\n  ".join(problems))

    records.sort(key=lambda r: (r.label, r.id))
    return Manifest(records=records)


@dataclass
class FoldAssignment:
    k: int
    fold_of: dict[str, int] = field(default_factory=dict)

    def check_covers(self, manifest: Manifest) -> None:
        """Raise ManifestError naming manifest ids that have no fold."""
        missing = [r.id for r in manifest.records if r.id not in self.fold_of]
        if missing:
            raise ManifestError(f"{len(missing)} manifest ids have no fold: "
                                + ", ".join(missing[:8]))


def stratified_kfold(manifest: Manifest, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Per-class seeded shuffle followed by round-robin fold assignment.

    Guarantees per-fold per-class counts within +-1 of n_c / k.
    """
    if k < 1:
        raise ManifestError(f"k must be >= 1, got {k}")
    assignment = FoldAssignment(k=k)
    for ci, label in enumerate(LABELS):
        ids = sorted(r.id for r in manifest.records if r.label == label)
        if len(ids) < k:
            raise ManifestError(
                f"class {label} has {len(ids)} samples; cannot split into {k} folds")
        rng = np.random.default_rng([seed, ci])
        order = rng.permutation(len(ids))
        for position, idx in enumerate(order):
            assignment.fold_of[ids[idx]] = position % k
    return assignment


def class_weights_from_counts(counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (K * n_c); uniform counts give ones."""
    counts = np.asarray(counts, dtype=np.float64)
    if (counts <= 0).any():
        raise ManifestError(f"class weights need positive counts, got {counts}")
    total = counts.sum()
    return total / (len(counts) * counts)


def class_weights(manifest: Manifest) -> np.ndarray:
    counts = np.array([manifest.counts[label] for label in LABELS])
    return class_weights_from_counts(counts)


@contextmanager
def _csv_reader(path):
    """A csv.reader over ``path``; bytes that do not decode raise ManifestError."""
    with open(path, newline="") as fh:
        try:
            yield csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not {exc.encoding} text: {exc.reason}") from None


MANIFEST_HEADER = ["id", "rgb_path", "rgnir_path", "label"]


def write_manifest_csv(manifest: Manifest, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in manifest.records:
            writer.writerow([r.id, r.rgb_path, r.rgnir_path, r.label])


def read_manifest_csv(path) -> Manifest:
    records: list[SampleRecord] = []
    seen: set[str] = set()
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ManifestError(f"{path}: unexpected manifest header {header}")
        for row in reader:
            if len(row) != len(MANIFEST_HEADER):
                raise ManifestError(f"{path}:{reader.line_num}: expected "
                                    f"{len(MANIFEST_HEADER)} fields, got {len(row)}")
            sid, rgb, rgnir, label = row
            if label not in LABELS:
                raise ManifestError(f"{path}: unknown label {label!r} for id {sid}")
            if sid in seen:
                raise ManifestError(f"{path}:{reader.line_num}: repeated id {sid!r}")
            seen.add(sid)
            records.append(SampleRecord(id=sid, rgb_path=rgb, rgnir_path=rgnir, label=label))
    return Manifest(records=records)


def write_folds_csv(assignment: FoldAssignment, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "fold"])
        for sample_id in sorted(assignment.fold_of):
            writer.writerow([sample_id, assignment.fold_of[sample_id]])


def read_folds_csv(path) -> FoldAssignment:
    fold_of: dict[str, int] = {}
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header != ["id", "fold"]:
            raise ManifestError(f"{path}: unexpected folds header {header}")
        for row in reader:
            if len(row) != 2 or not (row[1].isascii() and row[1].isdigit()):
                raise ManifestError(f"{path}:{reader.line_num}: expected "
                                    f"'id,fold' with a fold >= 0, got {row}")
            if row[0] in fold_of:
                raise ManifestError(f"{path}:{reader.line_num}: repeated id {row[0]!r}")
            try:
                fold_of[row[0]] = int(row[1])
            except ValueError:  # more digits than int() converts
                raise ManifestError(f"{path}:{reader.line_num}: fold id of {len(row[1])} "
                                    "digits is out of range") from None
    ids = set(fold_of.values())
    if ids != set(range(len(ids))):
        top = max(ids)
        n_missing = top + 1 - len(ids)
        missing = ", ".join(map(str, islice((i for i in range(top) if i not in ids), 8)))
        raise ManifestError(f"{path}: fold ids must run from 0 with no gap, but "
                            f"{n_missing} of 0..{top} are missing: {missing}"
                            + (", ..." if n_missing > 8 else ""))
    return FoldAssignment(k=len(ids), fold_of=fold_of)
