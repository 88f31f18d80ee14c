"""The two benchmark workloads: ingest and train.

Each is a closed loop with one client in this process: the next unit of
work starts only after the previous one returns. A workload function takes
a :class:`Context`, generates its inputs from the seed, times set-up and
then units of work for ``ctx.seconds``, and returns a :class:`Outcome`.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import inputs
from tracing import Tracer

IMPORT_PROBE = ("import time; t = time.perf_counter(); import paddyspec.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
INLIER_PX = 3.0          # the program's default registration.inlier_px; a pair whose
                         # corner error exceeds it is misregistered, which is reported
                         # as a measured share and a per-layer count, not as `failed`
TRAIN_SHARE = 0.7        # share of the run spent in fit(); evaluation gets the rest

# Host-speed probe. On a shared host the same unit of work can take 25 % more
# or less wall time from one minute to the next. A fixed mix of numpy work that
# no program change touches is timed between units; its median in a run gives
# the host's speed, and the bounded time metrics are scaled to a host on which
# the probe takes PROBE_REF_S ("reference seconds", ref_s).
PROBE_REF_S = 0.05
PROBES_PER_GAP = 3       # probes before each unit of the timed loop
_probe_rng = np.random.default_rng(12345)
_PROBE_A = _probe_rng.integers(0, 2**63, (256, 4), dtype=np.uint64)
_PROBE_B = _probe_rng.integers(0, 2**63, (2000, 4), dtype=np.uint64)
_PROBE_M = _probe_rng.random((9, 9))
_PROBE_F = _probe_rng.random((768, 768), dtype=np.float32)
# Before the timed loop every run repeats its first unit untraced: once as a
# warm-up, and in a traced run this many times, the last repeat, warm like the
# traced one, being the overhead reference.
REFERENCE_RUNS = 2


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    env: dict


@dataclass
class Outcome:
    setup_s: float
    unit_walls: list[float]
    throughput_per_s: float
    named: dict                      # workload-specific metrics: name -> (value, unit)
    attempted: int
    failed: int
    tracer: Tracer
    units: dict = field(default_factory=dict)   # request id -> output digest
    checks: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    reference_counts: dict = field(default_factory=dict)
    overhead: tuple[float, float] | None = None  # (traced s, untraced s)
    probe_s: float = PROBE_REF_S                # median host-speed probe of the run


# -- shared helpers -------------------------------------------------------------------


def import_seconds(ctx: Context) -> float:
    """Median time of ``import paddyspec.cli`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=ctx.env,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip()))
    return median(times)


def cli_main(argv: list[str]) -> tuple[int, str]:
    """In-process `paddyspec` call with --jobs 1; returns (exit code, stdout)."""
    from paddyspec import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--jobs", "1"] + argv)
    return code, buf.getvalue()


def file_digest(paths, text: str = "") -> str:
    h = hashlib.sha256(text.encode())
    for p in paths:
        h.update(str(p).encode() + b"\0")
        h.update(Path(p).read_bytes() if Path(p).is_file() else b"<missing>")
    return h.hexdigest()


def tree_digest(*roots: str) -> str:
    files = sorted(p for r in roots if Path(r).is_dir()
                   for p in Path(r).rglob("*") if p.is_file())
    return file_digest(files)


def corner_error(h_est: np.ndarray, h_true: np.ndarray, extent: int) -> float:
    from paddyspec import synthetic
    return synthetic.corner_reprojection_error(h_est, h_true, extent)


def host_probe() -> float:
    """Seconds for the probe's fixed work: wide bit counts like the descriptor
    matcher, small linear algebra in a Python loop like RANSAC, and a float32
    matrix product like a convolution."""
    t0 = time.perf_counter()
    np.bitwise_count(_PROBE_A[:, None, :] ^ _PROBE_B[None]).sum(axis=2).argmin(axis=1)
    for k in range(500):
        np.linalg.svd(_PROBE_M + k)
    _PROBE_F @ _PROBE_F
    return time.perf_counter() - t0


def timed_loop(seconds: float, unit, probes: list[float]) -> None:
    """Run unit(i) for i = 0, 1, ... until ``seconds`` have passed, at least once.

    Before each unit, outside its time, cyclic garbage is collected, so no
    unit pays for the previous one's and the peak RSS does not depend on when
    the collector ran, and the host-speed probe is timed PROBES_PER_GAP times
    into ``probes``.
    """
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        probes.extend(host_probe() for _ in range(PROBES_PER_GAP))
        unit(i)
        i += 1


def untraced_reference(trace: bool, unit):
    """unit(tracer) repeated untraced with counting only, before the timed loop.

    Runs once, or REFERENCE_RUNS times when the run is traced. Returns the last
    repeat's result and per-request counts; the timed first unit must match them.
    """
    result, counts = None, {}
    for _ in range(REFERENCE_RUNS if trace else 1):
        with Tracer(timing=False).installed() as tracer:
            result = unit(tracer)
        counts = tracer.counts
    return result, counts


def misregistration(errs: list[float]) -> dict:
    bad = sum(1 for e in errs if e > INLIER_PX)
    return {"pairs": len(errs), "misregistered": bad,
            "share": bad / len(errs) if errs else None, "inlier_px": INLIER_PX,
            "corner_err_px": [round(e, 3) for e in errs]}


# -- ingest ----------------------------------------------------------------------------

INGEST_CONFIG = {
    "paths": {"data_root": "data", "cache_dir": "cache", "output_dir": "out"},
    "calibration_session": "data/session.json",
    "training": {"input_size": 64},
    "seed": 0,
}
INGEST_SIZE = 256
INGEST_PAIR_S = 6.0      # rough cost of one pair, used only to size the input pool


def ingest(ctx: Context) -> Outcome:
    from paddyspec import spectral

    rng = np.random.default_rng([ctx.seed, 1])
    writer = inputs.InputWriter()
    n_pairs = int(np.ceil(ctx.seconds / INGEST_PAIR_S)) + 1
    truths = inputs.write_ingest_tree(writer, rng, Path("data"), n_pairs, INGEST_SIZE)
    inputs.write_json(Path("config.json"), INGEST_CONFIG)
    base = ["--config", "config.json"]

    build_walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _ = cli_main(base + ["dataset", "build"])
        build_walls.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError("dataset build failed")
    setup_s = import_seconds(ctx) + median(build_walls)

    header, *rows = Path("out/manifest.csv").read_text().splitlines()
    Path("pairs").mkdir()
    ids = []
    for row in rows:
        pid = row.split(",", 1)[0]
        Path(f"pairs/{pid}.csv").write_text(header + "\n" + row + "\n")
        ids.append(pid)

    checks: list[str] = []

    def run_pair(i: int, tracer: Tracer) -> dict:
        pid = ids[i % len(ids)]
        tracer.request = f"{i}:{pid}"
        pairs = ["--pairs", f"pairs/{pid}.csv"]
        rec = {"id": pid, "stages": {}, "failed": False, "err": None}
        t_unit = time.perf_counter()
        for stage in ("register", "calibrate", "ndvi"):
            t0 = time.perf_counter()
            with tracer.span(f"cli.{stage}"):
                code, _ = cli_main(base + [stage] + pairs)
            rec["stages"][stage] = time.perf_counter() - t0
            if code != 0:
                rec["failed"] = True
                break
        rec["wall"] = time.perf_counter() - t_unit

        line = next((ln for ln in Path("out/registered/report.txt").read_text().splitlines()
                     if ln.startswith(f"pair={pid} ")), "")
        if "FAILED" in line or "H=[" not in line:
            rec["failed"] = True
        else:
            h_est = np.array(line.split("H=[", 1)[1].rstrip("]").split(), dtype=np.float64)
            rec["err"] = corner_error(h_est.reshape(3, 3), truths[pid], INGEST_SIZE)
            tracer.add("registration.pairs_checked", 1)
            if not rec["err"] <= INLIER_PX:
                tracer.add("registration.misregistered", 1)
        if len(rec["stages"]) == 3 and code == 0:
            fused = spectral.load_fused(f"cache/{pid}.pspec")
            ndvi = fused[3]
            if (fused.shape != (4, 64, 64) or not np.isfinite(fused).all()
                    or ndvi.min() < -1.0 or ndvi.max() > 1.0):
                checks.append(f"ingest: fused cache for {pid} is {fused.shape}, "
                              "non-finite or NDVI outside [-1, 1]")
        rec["digest"] = file_digest([
            f"out/registered/{pid}_rgb.png", f"out/registered/{pid}_mask.png",
            f"out/calibrated/{pid}_rgnir.png", f"cache/{pid}.pspec"], line)
        return rec

    reference, ref_counts = untraced_reference(ctx.trace, lambda tr: run_pair(0, tr))
    records: list[dict] = []
    probes: list[float] = []
    with Tracer(timing=ctx.trace).installed() as tracer:
        if ctx.trace:   # set-up is untraced, so time one more build for the layer table
            tracer.request = "dataset_build"
            with tracer.span("cli.dataset_build"):
                cli_main(base + ["dataset", "build"])
        timed_loop(ctx.seconds, lambda i: records.append(run_pair(i, tracer)), probes)

    n = len(records)
    walls = [r["wall"] for r in records]
    errs = [r["err"] for r in records if r["err"] is not None]
    stage_total = {s: sum(r["stages"].get(s, 0.0) for r in records)
                   for s in ("register", "calibrate", "ndvi")}
    named = {
        "ingest_pairs_per_s": (n / sum(walls), "1/s"),
        "register_s_per_pair": (stage_total["register"] / n, "s"),
        "calibrate_s_per_pair": (stage_total["calibrate"] / n, "s"),
        "ndvi_s_per_pair": (stage_total["ndvi"] / n, "s"),
        "register_corner_err_px_p50": (median(errs) if errs else None, "px"),
        "misregistered_share": (misregistration(errs)["share"], "ratio"),
    }
    checks += [f"ingest: input PNG {p} does not round-trip" for p in writer.roundtrip_failures]
    return Outcome(
        setup_s=setup_s, unit_walls=walls, throughput_per_s=n / sum(walls), named=named,
        attempted=n, failed=sum(r["failed"] for r in records), tracer=tracer,
        units={f"{i}:{r['id']}": r["digest"] for i, r in enumerate(records)},
        checks=checks, reference_counts=ref_counts,
        overhead=(records[0]["wall"], reference["wall"]) if ctx.trace else None,
        probe_s=median(probes),
        extra={"pool_pairs": len(ids), "png_filter_rows": writer.filter_row_counts(),
               "misregistration": misregistration(errs)})


# -- train -----------------------------------------------------------------------------

TRAIN_SIZE = 64
TRAIN_SAMPLES = 32       # two steps of batch 16 per epoch
EVAL_SAMPLES = 48


def train(ctx: Context) -> Outcome:
    from paddyspec import dataset as ds
    from paddyspec import model as model_mod
    from paddyspec import nn, training

    rng = np.random.default_rng([ctx.seed, 2])
    Path("out").mkdir()
    train_records = inputs.write_fused_cache(rng, Path("cache"), "train", TRAIN_SAMPLES,
                                             TRAIN_SIZE)
    eval_records = inputs.write_fused_cache(rng, Path("cache"), "eval", EVAL_SAMPLES,
                                            TRAIN_SIZE)
    cfg = training.TrainConfig(epochs=10**6, batch_size=16, input_mode="rgb_ndvi",
                               input_size=TRAIN_SIZE, seed=0)
    model_seed = training.model_seed(0, 0)

    def set_up():
        model = model_mod.build_resnet18(in_channels=cfg.channels, num_classes=3,
                                         seed=model_seed, dtype=cfg.dtype)
        source = training.FusedCacheSource("cache")
        return (model, training.load_sample_batch(source, train_records, cfg),
                training.load_sample_batch(source, eval_records, cfg))

    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model, train_x, eval_x = set_up()
        walls.append(time.perf_counter() - t0)
    setup_s = import_seconds(ctx) + median(walls)

    train_y = np.array([ds.LABELS.index(r.label) for r in train_records], dtype=np.int64)
    eval_y = np.array([ds.LABELS.index(r.label) for r in eval_records], dtype=np.int64)
    weights = inputs.paper_class_weights()
    steps_per_epoch = TRAIN_SAMPLES // cfg.batch_size
    checks: list[str] = []
    units: dict = {}

    def evaluate(k: int, tracer: Tracer, model) -> tuple[float, str]:
        tracer.request = f"eval{k}"
        t0 = time.perf_counter()
        result = training.evaluate_model(model, eval_x, eval_y, cfg.batch_size)
        wall = time.perf_counter() - t0
        if result.confusion.total() != len(eval_y):
            checks.append(f"train: confusion total {result.confusion.total()} "
                          f"!= {len(eval_y)} held-out samples")
        return wall, hashlib.sha256(result.confusion.counts.tobytes()).hexdigest()

    def reference_unit(tr: Tracer) -> float:
        ref_model = set_up()[0]
        tr.request = "fit"
        t0 = time.perf_counter()
        training.fit(ref_model, cfg, train_x, train_y, weights, max_steps=steps_per_epoch)
        return time.perf_counter() - t0 + evaluate(0, tr, ref_model)[0]

    reference, ref_counts = untraced_reference(ctx.trace, reference_unit)
    epoch_walls: list[float] = []
    eval_walls: list[float] = []
    probes: list[float] = []
    with Tracer(timing=ctx.trace).installed() as tracer:
        if ctx.trace:   # set-up is untraced, so time it once more for the layer table
            tracer.request = "setup"
            set_up()
        fit_budget = TRAIN_SHARE * ctx.seconds
        t_fit = time.perf_counter()
        resumed = [t_fit]

        def stop(_model, _steps) -> bool:
            # the probe runs between epochs, outside the epoch times
            now = time.perf_counter()
            epoch_walls.append(now - resumed[0])
            probes.append(host_probe())
            resumed[0] = time.perf_counter()
            return now - t_fit >= fit_budget

        tracer.request = "fit"
        losses, steps = training.fit(model, cfg, train_x, train_y, weights, on_epoch=stop)
        fit_wall = time.perf_counter() - t_fit

        def eval_unit(k: int) -> None:
            # the evaluated weights depend on how many steps fit() had time for
            wall, units[f"eval{k}-after-step{steps}"] = evaluate(k, tracer, model)
            eval_walls.append(wall)
        timed_loop(ctx.seconds - fit_wall, eval_unit, probes)
        # the checkpoint records how many epochs fit() had time for, and so do its bytes
        tracer.request = f"checkpoint-after-epoch{len(epoch_walls)}"
        t0 = time.perf_counter()
        meta = {"arch": {"in_channels": cfg.channels, "num_classes": 3}, "seed": 0,
                "fold": 0, "input_mode": cfg.input_mode, "input_size": cfg.input_size,
                "epochs": len(epoch_walls), "metrics": {}}
        nn.write_checkpoint(Path("out") / "fold0_rgb_ndvi.ckpt", meta, model.state_arrays())
        checkpoint_s = time.perf_counter() - t0
        # read back as `predict` loads it, so the read path is measured and checked
        t0 = time.perf_counter()
        _, arrays = nn.read_checkpoint(Path("out") / "fold0_rgb_ndvi.ckpt")
        checkpoint_read_s = time.perf_counter() - t0
        state = model.state_arrays()
        if arrays.keys() != state.keys() or not all(
                np.array_equal(arrays[k], state[k]) for k in state):
            checks.append("train: the checkpoint does not read back to the model's state")

    if not np.isfinite(losses).all():
        checks.append("train: non-finite loss")
    for k, loss in enumerate(losses):
        units[f"step{k}"] = float(loss).hex()
    step_walls = [e / steps_per_epoch for e in epoch_walls]
    samples = steps * cfg.batch_size
    train_wall = sum(epoch_walls)
    named = {
        "train_samples_per_s": (samples / train_wall, "1/s"),
        "eval_samples_per_s": (median(len(eval_y) / w for w in eval_walls), "1/s"),
        "train_step_s_p50": (median(step_walls), "s"),
        "checkpoint_write_s": (checkpoint_s, "s"),
        "checkpoint_read_s": (checkpoint_read_s, "s"),
    }
    overhead = (epoch_walls[0] + eval_walls[0], reference) if ctx.trace else None
    return Outcome(
        setup_s=setup_s, unit_walls=step_walls, throughput_per_s=samples / train_wall,
        named=named, attempted=steps + len(eval_walls),
        failed=int((~np.isfinite(losses)).sum()), tracer=tracer, units=units,
        checks=checks, reference_counts=ref_counts, overhead=overhead,
        probe_s=median(probes),
        extra={"train_samples": TRAIN_SAMPLES, "eval_samples": EVAL_SAMPLES,
               "input_size": TRAIN_SIZE, "batch_size": cfg.batch_size, "steps": steps,
               "final_loss": float(losses[-1])})


WORKLOADS = {"ingest": ingest, "train": train}
