"""Benchmark entry point for the paddyspec pipeline.

    python3 perfbench/run.py --workload ingest|train --seed N \
        --seconds S --trace 0|1 [--spans PATH]

Run from the repository root. The program is imported from ``src/``; each
run works in ``.perfbench/<workload>-seed<N>-trace<T>/`` and keeps its
report in ``.perfbench/results/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it is the full report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="where a traced run writes its spans "
                   "(default: .perfbench/spans/<workload>-seed<N>.jsonl)")
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_info() -> dict:
    import numpy as np
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(nproc: int, seed: int) -> dict:
    import numpy as np
    return {"nproc": nproc, "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "git_commit": git_commit(),
            "workload_seed": seed}


def code_version() -> str:
    """Digest of the program and benchmark sources: counts repeat only within one."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier(path: Path, units: dict, counts: dict) -> list[str]:
    """Exact-count and output-digest check against an earlier run of this seed."""
    if not path.is_file():
        return []
    earlier = json.loads(path.read_text())
    problems = []
    for unit in sorted(set(units) & set(earlier["unit_digests"])):
        if units[unit] != earlier["unit_digests"][unit]:
            problems.append(f"output digest of {unit} differs from an earlier run")
    for unit in sorted(set(counts) & set(earlier["unit_counts"])):
        if counts[unit] != earlier["unit_counts"][unit]:
            problems.append(f"work counts of {unit} differ from an earlier run")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "paddyspec" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'paddyspec'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    os.environ.pop("PADDYSPEC_CACHE", None)     # keep the program config fixed
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = ROOT / ".perfbench"
    work = state / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = Path(args.spans or state / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    spans_path = spans_path if spans_path.is_absolute() else ROOT / spans_path
    os.chdir(work)

    import tracing
    import workloads
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            env=env)
    outcome = workloads.WORKLOADS[args.workload](ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = outcome.tracer
    unit_counts = {str(k): dict(v) for k, v in tracer.counts.items()}
    checks = list(outcome.checks)
    for unit, ref in outcome.reference_counts.items():
        if dict(ref) != unit_counts.get(str(unit)):
            checks.append(f"work counts of {unit} differ between traced and untraced runs")
    results = state / "results"
    results.mkdir(exist_ok=True)
    seed_record = results / f"{args.workload}-seed{args.seed}-{code_version()}.json"
    checks += compare_with_earlier(seed_record, outcome.units, unit_counts)
    if not seed_record.is_file():
        seed_record.write_text(json.dumps({"unit_digests": outcome.units,
                                           "unit_counts": unit_counts}, sort_keys=True))

    from statistics import median
    # wall times scaled to the reference host speed (see workloads.PROBE_REF_S)
    host_speed = workloads.PROBE_REF_S / outcome.probe_s
    unit_s_p50 = median(outcome.unit_walls)
    end_to_end = {
        "setup_s": (outcome.setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "throughput_per_ref_s": (outcome.throughput_per_s / host_speed, "1/ref_s"),
        "unit_ref_s_p50": (unit_s_p50 * host_speed, "ref_s"),
    }
    measured = {
        "throughput_per_s": (outcome.throughput_per_s, "1/s"),
        "unit_s_p50": (unit_s_p50, "s"),
        "host_probe_s": (outcome.probe_s, "s"),
    }
    if args.trace:
        tracer.write_spans(spans_path)
        metrics = tracing.layer_metrics(tracer, outcome.overhead)
    else:
        metrics = end_to_end

    totals: dict = {}
    for per_unit in unit_counts.values():
        for name, value in per_unit.items():
            totals[name] = totals.get(name, 0) + value
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(nproc, args.seed),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in {**measured, **outcome.named}.items()},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "checks_failed": checks, "counts": totals, **outcome.extra,
        "unit_walls_s": outcome.unit_walls,
        "digests": {"out_and_cache": workloads.tree_digest("out", "cache"),
                    "units": len(outcome.units)},
        "spans": str(spans_path) if args.trace else None,
    }
    (results / f"{run_name}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**end_to_end, **measured, **outcome.named}.items():
        shown = json.dumps(value) if isinstance(value, dict) or value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown} {unit}")
    misregistered = outcome.extra.get("misregistration")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}, "
          f"checks failed {len(checks)}"
          + (f", misregistered {misregistered['misregistered']} of "
             f"{misregistered['pairs']}" if misregistered else ""))
    for problem in checks:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
