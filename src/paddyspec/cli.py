"""Operator-facing command line wiring all stages into reproducible runs.

Exit codes: 0 on success, 1 on data/processing failure, 2 on usage or
configuration errors. Every mutating subcommand echoes its fully resolved
configuration next to its outputs.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import dataset as ds
from . import gradsuite, nn, training
from .config import (
    ConfigError,
    PipelineConfig,
    render_config,
    resolve_config,
    write_resolved_config,
)
from .imaging import (
    BAND_SETS,
    ImageF,
    ImageFormatError,
    load_image,
    read_png,
    resize_bilinear,
    resize_mask,
    save_image,
    write_png,
)
from .model import build_resnet18
from .registration import RegistrationError, register_pair
from .spectral import SpectralError, compute_ndvi, fuse, save_fused
from .training import FusedCacheSource, TrainingError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
# flags that count something; each must be at least 1 where given
COUNT_FLAGS = ("jobs", "k", "max_steps", "trials", "full_net_trials")


class CommandFailure(RuntimeError):
    """Processing failure that should exit with code 1."""


def _out_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.paths.output_dir)


def _echo_config(cfg: PipelineConfig, command: str) -> None:
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out / f"config_{command}.json")


def _read_pairs(path) -> ds.Manifest:
    try:
        return ds.read_manifest_csv(path)
    except (OSError, ds.ManifestError) as exc:
        raise CommandFailure(f"cannot read pairs manifest {path}: {exc}") from exc


def _require_files(paths, hint: str = "") -> None:
    """A dry run's check of the whole batch: fail when an input file is missing.
    A real run leaves it to each pair's reader, so a missing file fails its pair."""
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise CommandFailure(f"{hint}missing input files: " + ", ".join(missing[:8]))


def _each_pair(stage: str, records, jobs: int, work, outputs):
    """Run ``work(record, *outputs(record))`` on each pair, ``jobs`` at once (at 1,
    on the calling thread). A pair that raises a registration, image or spectral
    error fails alone: its outputs from an earlier run are deleted, so none passes
    for this run's, and ``<stage>: pair <id> failed: <message>`` goes to stderr.
    Returns ``[(record, result)]`` and ``[(record, error)]`` in manifest order."""
    def attempt(record):
        paths = outputs(record)
        try:
            return record, work(record, *paths), None
        except (RegistrationError, ImageFormatError, SpectralError) as exc:
            for path in paths:
                path.unlink(missing_ok=True)
            return record, None, exc

    results, failures = [], []
    with ThreadPoolExecutor(jobs) as pool:  # it starts a thread only when given work
        for record, result, error in (pool.map if jobs > 1 else map)(attempt, records):
            if error is None:
                results.append((record, result))
            else:
                print(f"{stage}: pair {record.id} failed: {error}", file=sys.stderr)
                failures.append((record, error))
    return results, failures


# -- register ---------------------------------------------------------------------


def cmd_register(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.pairs)
    if args.dry_run:
        _require_files(p for r in manifest.records for p in (r.rgb_path, r.rgnir_path))
        print(f"register: {len(manifest)} pairs validated (dry run)")
        return EXIT_OK
    _echo_config(cfg, "register")
    reg_dir = _out_dir(cfg) / "registered"
    reg_dir.mkdir(parents=True, exist_ok=True)
    params = cfg.registration_params()

    def work(record: ds.SampleRecord, rgb_path: Path, mask_path: Path) -> str:
        rgb = load_image(record.rgb_path, "rgb")
        rgnir = load_image(record.rgnir_path, "rgnir")
        result = register_pair(rgb, rgnir, params, pair_id=record.id)
        save_image(result.image, rgb_path)
        write_png(mask_path, (result.mask * np.uint8(255)).astype(np.uint8))
        return result.diagnostics.record()

    results, failures = _each_pair(
        "register", manifest.records, args.jobs, work,
        lambda r: (reg_dir / f"{r.id}_rgb.png", reg_dir / f"{r.id}_mask.png"))
    rows = results + [(r, f"pair={r.id} FAILED stage={getattr(exc, 'stage', 'io')}: {exc}")
                      for r, exc in failures]
    rows.sort(key=lambda row: row[0].id)
    (reg_dir / "report.txt").write_text("".join(line + "\n" for _, line in rows))
    print(f"register: {len(results)}/{len(rows)} pairs registered -> {reg_dir}")
    return EXIT_FAILURE if failures else EXIT_OK


# -- calibrate ---------------------------------------------------------------------


def cmd_calibrate(cfg: PipelineConfig, args) -> int:
    session_path = cfg.calibration_session
    if not session_path:
        raise ConfigError("calibrate needs calibration_session in the config")
    board_rel, panels, bands = cal.load_session(session_path)
    if bands != BAND_SETS["rgnir"]:
        # the fitted gains apply to the R-G-NIR images band by band
        raise cal.CalibrationError(f"session file {session_path}: image has bands "
                                   f"{list(BAND_SETS['rgnir'])}, calibration {list(bands)}")
    board_path = Path(board_rel)
    if not board_path.is_absolute():
        board_path = Path(session_path).parent / board_path
    manifest = _read_pairs(args.pairs)
    if args.dry_run:
        _require_files(r.rgnir_path for r in manifest.records)  # the only pair file it reads
        print(f"calibrate: session {session_path} and {len(manifest)} pairs "
              "validated (dry run)")
        return EXIT_OK

    _echo_config(cfg, "calibrate")
    board = load_image(board_path, bands)
    means = cal.extract_panel_stats(board, panels)
    calib = cal.fit_calibration(means, panels.known_reflectance(), bands)
    cal.save_calibration(calib, _out_dir(cfg) / "calibration.json")

    cal_dir = _out_dir(cfg) / "calibrated"
    cal_dir.mkdir(parents=True, exist_ok=True)

    def work(record: ds.SampleRecord, out_path: Path) -> float:
        out, clamp_rate = cal.apply_calibration(load_image(record.rgnir_path, "rgnir"),
                                                calib)
        save_image(out, out_path)
        return clamp_rate

    results, failures = _each_pair("calibrate", manifest.records, args.jobs, work,
                                   lambda r: (cal_dir / f"{r.id}_rgnir.png",))
    for record, clamp_rate in results:
        if clamp_rate > cal.WARN_CLAMP_RATE:
            print(f"calibrate: warning: {record.id} clamped "
                  f"{clamp_rate:.0%} of samples", file=sys.stderr)
    print(f"calibrate: fit residual {calib.fit_residual.max():.2e}; "
          f"{len(results)} images -> {cal_dir}")
    return EXIT_FAILURE if failures else EXIT_OK


# -- ndvi / fusion -----------------------------------------------------------------


def _fused_sample(rgb: ImageF, rgnir: ImageF, mask: np.ndarray,
                  size: int) -> np.ndarray:
    """Network-resolution (4, size, size) RGB + NDVI sample; the one path for
    ndvi and predict. The three inputs must share one frame size."""
    frames = {(rgb.height, rgb.width), mask.shape, (rgnir.height, rgnir.width)}
    if len(frames) > 1:
        raise SpectralError(
            f"frame sizes differ (h, w): registered rgb {(rgb.height, rgb.width)}, "
            f"mask {mask.shape}, calibrated rgnir {(rgnir.height, rgnir.width)}")
    try:
        rgb_small = resize_bilinear(rgb, size, size)
        rgnir_small = resize_bilinear(rgnir, size, size)
    except MemoryError as exc:
        raise SpectralError(f"cannot resize to the requested input size {size} x {size}: "
                            f"{exc}") from exc
    ndvi = compute_ndvi(rgnir_small.band("R"), rgnir_small.band("NIR"))
    return fuse(rgb_small, ndvi, resize_mask(mask, size, size))


def cmd_ndvi(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.pairs)
    reg_dir = _out_dir(cfg) / "registered"
    cal_dir = _out_dir(cfg) / "calibrated"

    def inputs(record: ds.SampleRecord):
        return (reg_dir / f"{record.id}_rgb.png", reg_dir / f"{record.id}_mask.png",
                cal_dir / f"{record.id}_rgnir.png")

    if args.dry_run:
        _require_files((p for r in manifest.records for p in inputs(r)),
                       "run register and calibrate first; ")
        print(f"ndvi: inputs for {len(manifest)} pairs validated (dry run)")
        return EXIT_OK

    _echo_config(cfg, "ndvi")
    cache_dir = Path(cfg.paths.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    def work(record: ds.SampleRecord, out_path: Path) -> None:
        rgb_path, mask_path, rgnir_path = inputs(record)
        sample = _fused_sample(load_image(rgb_path, "rgb"), load_image(rgnir_path, "rgnir"),
                               read_png(mask_path) > 127, cfg.training.input_size)
        save_fused(sample, out_path)

    results, failures = _each_pair("ndvi", manifest.records, args.jobs, work,
                                   lambda r: (cache_dir / f"{r.id}.pspec",))
    print(f"ndvi: {len(results)} fused samples -> {cache_dir}")
    return EXIT_FAILURE if failures else EXIT_OK


# -- dataset -----------------------------------------------------------------------


def cmd_dataset_build(cfg: PipelineConfig, args) -> int:
    manifest = ds.build_manifest(cfg.paths.data_root)
    if args.dry_run:
        print(f"dataset build: {len(manifest)} samples validated (dry run)")
        return EXIT_OK
    _echo_config(cfg, "dataset_build")
    path = _out_dir(cfg) / "manifest.csv"
    ds.write_manifest_csv(manifest, path)
    counts = " ".join(f"{label}={manifest.counts[label]}" for label in ds.LABELS)
    print(f"dataset build: {len(manifest)} samples ({counts}) -> {path}")
    return EXIT_OK


def cmd_dataset_split(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.manifest or str(_out_dir(cfg) / "manifest.csv"))
    folds = ds.stratified_kfold(manifest, k=args.k, seed=cfg.seed)
    if args.dry_run:
        print(f"dataset split: k={args.k} over {len(manifest)} samples (dry run)")
        return EXIT_OK
    _echo_config(cfg, "dataset_split")
    path = _out_dir(cfg) / "folds.csv"
    ds.write_folds_csv(folds, path)
    print(f"dataset split: k={args.k} seed={cfg.seed} -> {path}")
    return EXIT_OK


# -- train / eval / predict ----------------------------------------------------------


def _load_split(cfg: PipelineConfig, manifest_path, folds_path):
    manifest = _read_pairs(manifest_path or str(_out_dir(cfg) / "manifest.csv"))
    folds_file = folds_path or str(_out_dir(cfg) / "folds.csv")
    try:
        folds = ds.read_folds_csv(folds_file)
        folds.check_covers(manifest)
    except (OSError, ds.ManifestError) as exc:
        raise CommandFailure(f"cannot read folds {folds_file}: {exc}") from exc
    return manifest, folds


def _checkpoint_name(fold: int, mode: str) -> str:
    return f"fold{fold}_{mode}"


def _fold_arg(value: str) -> int:
    try:
        fold = int(value)
    except ValueError:
        raise ConfigError(f"--fold must be an integer, got {value!r}") from None
    if fold < 0:
        raise ConfigError(f"--fold must be >= 0, got {fold}")
    return fold


def cmd_train(cfg: PipelineConfig, args) -> int:
    fold = None if args.fold == "all" else _fold_arg(args.fold)
    manifest, folds = _load_split(cfg, args.manifest, args.folds)
    if fold is not None and fold >= folds.k:
        raise CommandFailure(f"fold_id {fold} out of range for k={folds.k}")
    source = FusedCacheSource(cfg.paths.cache_dir)
    train_cfg = cfg.train_config()
    fold_ids = list(range(folds.k)) if fold is None else [fold]
    if args.dry_run:
        print(f"train: folds {fold_ids} mode {train_cfg.input_mode} (dry run)")
        return EXIT_OK
    _echo_config(cfg, "train")
    out = _out_dir(cfg)
    for fold in fold_ids:
        result = training.train_fold(train_cfg, manifest, folds, fold, source,
                                     max_steps=args.max_steps)
        stem = _checkpoint_name(fold, train_cfg.input_mode)
        meta = {
            "seed": cfg.seed,
            "fold": fold,
            "input_mode": train_cfg.input_mode,
            "input_size": train_cfg.input_size,
            "epochs": len(result.history),
            "metrics": {
                "val_macro_f1": result.val_result.macro_f1,
                "per_class_f1": list(result.val_result.per_class_f1),
            },
        }
        nn.write_checkpoint(out / f"{stem}.ckpt", meta, result.model.state_arrays())
        training.write_history_csv(result.history, out / f"{stem}_history.csv")
        print(f"train: fold {fold} ({train_cfg.input_mode}) "
              f"val macro F1 {result.val_result.macro_f1:.4f} -> {stem}.ckpt")
    return EXIT_OK


def _load_checkpoint_model(path):
    try:
        meta, arrays = nn.read_checkpoint(path)
    except (OSError, nn.CheckpointError) as exc:
        raise CommandFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if not (isinstance(meta, dict) and isinstance(meta.get("input_mode"), str)
            and type(meta.get("input_size")) is int):
        raise CommandFailure(f"checkpoint {path}: meta needs input_mode and input_size")
    if meta["input_mode"] not in training.INPUT_MODES:
        raise CommandFailure(f"checkpoint {path}: input_mode must be one of "
                             f"{training.INPUT_MODES}, got {meta['input_mode']!r}")
    if meta["input_size"] < 1:
        raise CommandFailure(f"checkpoint {path}: input_size must be >= 1, "
                             f"got {meta['input_size']}")
    # the mode fixes the stem and the labels the head, so a checkpoint made for
    # other channels or classes fails load_state_arrays' shape check; the initial
    # weights are all overwritten, so they need no seed
    model = build_resnet18(in_channels=training.INPUT_CHANNELS[meta["input_mode"]],
                           num_classes=len(ds.LABELS))
    model.load_state_arrays(arrays)
    return meta, model


def cmd_eval(cfg: PipelineConfig, args) -> int:
    fold = _fold_arg(args.fold) if args.fold is not None else None
    meta, model = _load_checkpoint_model(args.checkpoint)
    if fold is None:
        fold = meta.get("fold")
        # type(), not isinstance(): JSON true is a bool, which is an int
        if type(fold) is not int or fold < 0:
            raise CommandFailure(f"checkpoint {args.checkpoint} names no fold id "
                                 f"(meta fold {fold!r}); pass --fold")
    manifest, folds = _load_split(cfg, args.manifest, args.folds)
    records = [r for r in manifest.records if folds.fold_of[r.id] == fold]
    if not records:
        raise CommandFailure(f"fold {fold} holds no samples")
    source = FusedCacheSource(cfg.paths.cache_dir)
    eval_cfg = cfg.train_config(input_mode=meta["input_mode"],
                                input_size=meta["input_size"])
    arrays = training.load_sample_batch(source, records, eval_cfg)
    labels = np.array([ds.LABELS.index(r.label) for r in records], dtype=np.int64)
    result = training.evaluate_model(model, arrays, labels, eval_cfg.batch_size)

    lines = [f"checkpoint: {args.checkpoint}",
             f"fold: {fold}  mode: {meta['input_mode']}  samples: {len(records)}",
             "confusion (rows true, cols predicted):"]
    for row in result.confusion.counts:
        lines.append("  " + " ".join(f"{v:5d}" for v in row))
    for label, f1 in zip(ds.LABELS, result.per_class_f1):
        lines.append(f"f1_{label}: {f1:.4f}")
    lines.append(f"macro_f1: {result.macro_f1:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if not args.dry_run:
        _echo_config(cfg, "eval")
        stem = _checkpoint_name(fold, meta["input_mode"])
        (_out_dir(cfg) / f"eval_{stem}.txt").write_text(text)
    return EXIT_OK


def cmd_predict(cfg: PipelineConfig, args) -> int:
    meta, model = _load_checkpoint_model(args.checkpoint)
    calib = cal.load_calibration(args.calibration or _out_dir(cfg) / "calibration.json")
    rgb = load_image(args.rgb, "rgb")
    rgnir_dn = load_image(args.rgnir, "rgnir")
    rgnir_refl, _ = cal.apply_calibration(rgnir_dn, calib)

    result = register_pair(rgb, rgnir_dn, cfg.registration_params(), pair_id="predict")

    sample = _fused_sample(result.image, rgnir_refl, result.mask, meta["input_size"])
    batch = sample[None, :model.in_channels].astype(model.dtype)
    probs = model.predict_proba(nn.Tensor(batch))[0]
    for label, p in zip(ds.LABELS, probs):
        print(f"{label}: {p:.4f}")
    print(f"prediction: {ds.LABELS[int(probs.argmax())]}")
    return EXIT_OK


def cmd_gradcheck(cfg: PipelineConfig, args) -> int:
    results, ok = gradsuite.run_suite(trials=args.trials, seed=cfg.seed,
                                      full_net_trials=args.full_net_trials)
    for name, err in results.items():
        status = "ok" if err < gradsuite.TOLERANCE else "FAIL"
        print(f"{name:<26} max_rel_err={err:.3e}  {status}")
    print(f"gradcheck: {'all checks passed' if ok else 'VIOLATIONS found'} "
          f"(tolerance {gradsuite.TOLERANCE:g})")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_config_print_defaults(_cfg: PipelineConfig, _args) -> int:
    print(render_config(PipelineConfig()), end="")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paddyspec",
        description="Multispectral rice disease diagnosis pipeline")
    # global flags go before the subcommand
    parser.add_argument("--config", help="JSON pipeline configuration file")
    parser.add_argument("--seed", type=int, help="override the pipeline seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="cap on the pairs register, calibrate and ndvi work "
                             "on at once, at least 1; 1 guarantees determinism")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate inputs, write nothing")
    parser.add_argument("--input-mode", choices=training.INPUT_MODES,
                        help="override training.input_mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="align RGB images onto their R-G-NIR pairs")
    p.add_argument("--pairs", required=True, help="manifest CSV of image pairs")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("calibrate", help="fit and apply reflectance calibration")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("ndvi", help="fuse registered RGB with the NDVI channel")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_ndvi)

    p = sub.add_parser("dataset", help="manifest and fold tooling")
    dsub = p.add_subparsers(dest="dataset_command", required=True)
    b = dsub.add_parser("build", help="scan the data root into manifest.csv")
    b.set_defaults(func=cmd_dataset_build)
    s = dsub.add_parser("split", help="stratified k-fold assignment")
    s.add_argument("--manifest", help="manifest CSV (default: out/manifest.csv)")
    s.add_argument("--k", type=int, default=5)
    s.set_defaults(func=cmd_dataset_split)

    p = sub.add_parser("train", help="train on k-1 folds, validate on one")
    p.add_argument("--manifest")
    p.add_argument("--folds")
    p.add_argument("--fold", default="all", help="fold id or 'all'")
    p.add_argument("--max-steps", type=int, default=None,
                   help="optimizer step budget; overrides training.epochs, and the "
                        "last, possibly partial, epoch is still validated and "
                        "written to the history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its held-out fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--folds")
    p.add_argument("--fold", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one RGB / R-G-NIR pair")
    p.add_argument("--rgb", required=True)
    p.add_argument("--rgnir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--calibration", help="calibration JSON (default: out/calibration.json)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--full-net-trials", type=int, default=2)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    d = csub.add_parser("print-defaults", help="print the default configuration")
    d.set_defaults(func=cmd_config_print_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in COUNT_FLAGS:
            value = getattr(args, name, None)
            if value is not None and value < 1:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{flag} must be >= 1, got {value}")
        cfg = resolve_config(args.config, seed=args.seed, input_mode=args.input_mode)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"paddyspec: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CommandFailure as exc:
        print(f"paddyspec: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (RegistrationError, ImageFormatError, cal.CalibrationError,
            SpectralError, TrainingError, ds.ManifestError, nn.ShapeError,
            nn.NonFiniteError) as exc:
        print(f"paddyspec: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
