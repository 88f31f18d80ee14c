"""Training loop, cosine-annealing-with-restarts schedule and F1 metrics.

Defaults mirror the production configuration: 50 epochs, batch size 16,
Adam, weighted cross-entropy, cosine annealing restarting every
``CYCLE_EPOCHS`` epochs from an ``LR_MAX`` peak, in float32. The schedule
advances per optimizer step (epoch fraction), restarts with constant cycle
length, and bottoms out at 0.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .dataset import LABELS, FoldAssignment, Manifest, SampleRecord, class_weights
from .model import ResNet18, build_resnet18
from .nn import Adam, Tensor
from .spectral import load_fused

INPUT_CHANNELS = {"rgb": 3, "rgb_ndvi": 4}  # RGB, or RGB + NDVI
INPUT_MODES = tuple(INPUT_CHANNELS)
LR_MAX = 0.05      # the schedule's peak, at every restart
CYCLE_EPOCHS = 10  # epochs from one restart to the next


class TrainingError(RuntimeError):
    """Configuration or data-loading failure during training."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 16
    input_mode: str = "rgb_ndvi"
    input_size: int = 256
    seed: int = 0
    dtype = np.float32  # the training precision: a constant, not a field

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.input_size < 1:
            raise TrainingError(f"input_size must be >= 1, got {self.input_size}")
        if self.input_mode not in INPUT_MODES:
            raise TrainingError(f"input_mode must be one of {INPUT_MODES}, "
                                f"got {self.input_mode!r}")

    @property
    def channels(self) -> int:
        return INPUT_CHANNELS[self.input_mode]


def lr_at(step_epoch: float) -> float:
    """Cosine annealing with constant-length restarts.

    t = step_epoch mod CYCLE_EPOCHS;  lr = LR_MAX/2 * (1 + cos(pi*t/CYCLE_EPOCHS))
    """
    if step_epoch < 0:
        raise TrainingError(f"step_epoch must be >= 0, got {step_epoch}")
    t = math.fmod(step_epoch, CYCLE_EPOCHS)
    return 0.5 * LR_MAX * (1.0 + math.cos(math.pi * t / CYCLE_EPOCHS))


# -- metrics ---------------------------------------------------------------------


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predictions."""

    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())


def confusion_from_pairs(labels, predictions, num_classes: int = len(LABELS)
                         ) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise TrainingError(f"labels {labels.shape} vs predictions {predictions.shape}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels, predictions), 1)
    return ConfusionMatrix(counts)


def f1_scores(confusion: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class F1 (0 where undefined) and their unweighted mean."""
    counts = confusion.counts
    k = counts.shape[0]
    per_class = np.zeros(k)
    for c in range(k):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall > 0:
            per_class[c] = 2.0 * precision * recall / (precision + recall)
    return per_class, float(per_class.mean())


@dataclass
class EvalResult:
    confusion: ConfusionMatrix
    per_class_f1: np.ndarray
    macro_f1: float


def evaluate_model(model: ResNet18, arrays: np.ndarray, labels: np.ndarray,
                   batch_size: int) -> EvalResult:
    """Argmax predictions over eval-mode softmax outputs."""
    if len(arrays) == 0:
        raise TrainingError("cannot evaluate on an empty sample set")
    if arrays.shape[1] != model.in_channels:
        raise TrainingError(f"samples have {arrays.shape[1]} channels, "
                            f"model expects {model.in_channels}")
    predictions = np.empty(len(arrays), dtype=np.int64)
    for start in range(0, len(arrays), batch_size):
        batch = arrays[start:start + batch_size].astype(model.dtype, copy=False)
        probs = model.predict_proba(Tensor(batch))
        predictions[start:start + len(batch)] = probs.argmax(axis=1)
    confusion = confusion_from_pairs(labels, predictions, model.num_classes)
    per_class, macro = f1_scores(confusion)
    return EvalResult(confusion=confusion, per_class_f1=per_class, macro_f1=macro)


# -- data access -------------------------------------------------------------------


class FusedCacheSource:
    """Loads fused (4, H, W) tensors from ``<cache_dir>/<id>.pspec``."""

    def __init__(self, cache_dir):
        self.cache_dir = Path(cache_dir)

    def load(self, record: SampleRecord) -> np.ndarray:
        return load_fused(self.cache_dir / f"{record.id}.pspec")


def load_sample_batch(source, records: list[SampleRecord], cfg: TrainConfig) -> np.ndarray:
    """The records' first ``cfg.channels`` bands, copied file by file into one array."""
    size = cfg.input_size
    batch = np.empty((len(records), cfg.channels, size, size), dtype=cfg.dtype)
    for i, record in enumerate(records):
        try:
            arr = source.load(record)
        except Exception as exc:
            raise TrainingError(f"failed to load sample {record.id}: {exc}") from exc
        if arr.shape[0] != 4:
            raise TrainingError(f"sample {record.id}: expected 4 fused bands, "
                                f"got {arr.shape[0]}")
        if arr.shape[1:] != (cfg.input_size, cfg.input_size):
            raise TrainingError(
                f"sample {record.id}: plane {arr.shape[1:]} != configured input size "
                f"{cfg.input_size}; regenerate the fused cache")
        batch[i] = arr[:cfg.channels]
    return batch


# -- training ------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_macro_f1: float
    per_class_f1: tuple[float, float, float]


HISTORY_HEADER = ["epoch", "lr", "train_loss", "val_macro_f1",
                  "f1_blast", "f1_spot", "f1_healthy"]


def write_history_csv(history: list[EpochStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for row in history:
            writer.writerow([row.epoch, repr(row.lr), repr(row.train_loss),
                             repr(row.val_macro_f1)]
                            + [repr(v) for v in row.per_class_f1])


@dataclass
class TrainResult:
    model: ResNet18
    history: list[EpochStats]
    val_result: EvalResult | None


def model_seed(cfg_seed: int, fold_id: int) -> int:
    return int(np.random.SeedSequence([cfg_seed, fold_id]).generate_state(1)[0])


def fit(model: ResNet18, cfg: TrainConfig, arrays: np.ndarray, labels: np.ndarray,
        class_weights: np.ndarray, max_steps: int | None = None,
        shuffle_tag: int = 0, on_epoch=None) -> tuple[list[float], int]:
    """Optimize the model in place; returns per-step losses and step count.

    Runs ``cfg.epochs`` epochs. A step budget overrides that count: it runs
    ``ceil(max_steps / steps_per_epoch)`` epochs, the last one cut short at
    ``max_steps``. ``on_epoch(model, steps_so_far)`` runs after each epoch, a
    cut-short one included; returning True stops training early (convergence
    probes, overfit checks).

    Each step is one ``Adam.step(loss, lr)``: backward runs inside it and
    each parameter is updated as soon as its gradient is final, so a step
    never holds the whole gradient set. A step whose scheduled lr is 0 runs
    no backward. A backward closure that raised mid-step would leave the
    parameters handed over before it updated and the rest not; no closure
    checks anything, as every op checks its operands in forward.
    """
    if max_steps is not None and max_steps < 1:
        raise TrainingError(f"max_steps must be >= 1, got {max_steps}")
    n = len(arrays)
    optimizer = Adam(model.parameters())
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    epochs = cfg.epochs if max_steps is None else math.ceil(max_steps / steps_per_epoch)
    weights = np.asarray(class_weights, dtype=cfg.dtype)
    losses: list[float] = []
    for epoch in range(epochs):
        order = np.random.default_rng([cfg.seed, shuffle_tag, epoch]).permutation(n)
        for i in range(steps_per_epoch):
            if max_steps is not None and len(losses) >= max_steps:
                break
            idx = order[i * cfg.batch_size:(i + 1) * cfg.batch_size]
            x = Tensor(arrays[idx].astype(cfg.dtype, copy=False))
            logits = model.forward(x, train=True)
            loss = nn.weighted_cross_entropy(logits, labels[idx], weights)
            lr = lr_at(epoch + i / steps_per_epoch)
            if lr > 0.0:
                optimizer.step(loss, lr)
            losses.append(loss.item())
        if on_epoch is not None and on_epoch(model, len(losses)):
            break
    return losses, len(losses)


def train_fold(cfg: TrainConfig, manifest: Manifest, folds: FoldAssignment,
               fold_id: int, source, max_steps: int | None = None) -> TrainResult:
    """Train on k-1 folds and validate on the held-out fold after every epoch.

    Class weights come from the training folds only; the model seed is
    derived from (cfg.seed, fold_id), making rgb and rgb_ndvi runs a paired
    comparison under identical folds.
    """
    if not 0 <= fold_id < folds.k:
        raise TrainingError(f"fold_id {fold_id} out of range for k={folds.k}")
    folds.check_covers(manifest)
    train_records = [r for r in manifest.records if folds.fold_of[r.id] != fold_id]
    val_records = [r for r in manifest.records if folds.fold_of[r.id] == fold_id]
    if not train_records or not val_records:
        raise TrainingError(f"fold {fold_id} leaves an empty train or validation set")

    weights = class_weights(Manifest(train_records))

    train_y = np.array([LABELS.index(r.label) for r in train_records], dtype=np.int64)
    val_y = np.array([LABELS.index(r.label) for r in val_records], dtype=np.int64)
    train_x = load_sample_batch(source, train_records, cfg)
    val_x = load_sample_batch(source, val_records, cfg)

    model = build_resnet18(in_channels=cfg.channels, num_classes=len(LABELS),
                           seed=model_seed(cfg.seed, fold_id), dtype=cfg.dtype)
    validated: list[tuple[int, EvalResult]] = []

    def validate(trained: ResNet18, steps: int) -> bool:
        validated.append((steps, evaluate_model(trained, val_x, val_y, cfg.batch_size)))
        return False

    losses, _ = fit(model, cfg, train_x, train_y, weights, max_steps=max_steps,
                    shuffle_tag=fold_id, on_epoch=validate)
    history = []
    start = 0
    for epoch, (end, result) in enumerate(validated):
        history.append(EpochStats(
            epoch=epoch,
            lr=lr_at(float(epoch)),
            train_loss=float(np.mean(losses[start:end])),
            val_macro_f1=result.macro_f1,
            per_class_f1=tuple(float(v) for v in result.per_class_f1),
        ))
        start = end
    return TrainResult(model=model, history=history, val_result=validated[-1][1])
