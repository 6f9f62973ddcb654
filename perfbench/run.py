"""dcmkit benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload update-room --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and measures the package under
src/ (never an installed copy).  Progress and every metric, by name with
its unit and sample count, go to stdout; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  A run record with machine info and
every timing is written to perfbench/_runs/, spans of a traced run next to
it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import numpy

import checks
from spans import LAYERS, UNIT_SCALE, median, quantile, summary, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
WORK = os.path.join(HERE, "_work")

# Final-line metrics.  End to end: the same four on every workload, each
# standing for that workload's operation and step (README.md, "Metrics").
END_TO_END = ("setup_s", "op_p50_ms", "step_s", "peak_rss_mb")
# Per layer: self time and share of every layer, the tracing overhead, and
# the per-call medians of the calls every workload makes.
PER_CALL = ("scene.loads_scene_ms", "raytrace.trace_static_mpcs_ms",
            "dcm.query_us", "dcm.model_from_map_us", "dcm.dumps_map_ms",
            "dcm.loads_map_ms", "gbsm.spawn_clusters_us", "gbsm.dynamic_cir_us",
            "hybrid.static_cir_us", "hybrid.combine_cir_us")
TRACED_PHASES = ("setup", "op", "step", "check")


def refuse(message: str) -> None:
    """Stop before measuring: exit 2 and print no result."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import dcmkit from this checkout's src/, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "dcmkit", "__init__.py")):
        refuse(f"no dcmkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import dcmkit
    where = os.path.realpath(dcmkit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        refuse(f"imported dcmkit from {where}, not from {SRC}")
    return dcmkit


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dcmkit", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, when it has one."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, workload) -> dict:
    """Medians of the timings, at the reference speed (speed.py) for those
    that follow it."""
    def timing(name):
        return run.scaled(name) if name in workload.follows_reference else run.samples.get(name, [])
    return {
        "setup_s": (median(timing("setup_s")), "s"),
        "op_p50_ms": (1e3 * median(timing(workload.op_metric)), "ms"),
        "step_s": (median(timing(workload.step_metric)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run) -> dict:
    per, total = run.spans.layer_self(TRACED_PHASES)
    out = {"trace.overhead_frac": run.derived.get("trace.overhead_frac", (0.0, "frac"))}
    for layer in LAYERS:
        out[layer + ".self_s"] = (per[layer], "s")
    for layer in LAYERS:
        out[layer + ".share"] = (per[layer] / total if total > 0 else 0.0, "frac")
    for name in PER_CALL:
        unit = unit_of(name)
        out[name] = (UNIT_SCALE[unit] * median(run.spans.durations(name, TRACED_PHASES)), unit)
    return out


def timings(run) -> dict:
    """Summary of every timed operation and every span name."""
    out = {}
    for name, xs in sorted(run.samples.items()):
        out[name] = summary(xs, unit_of(name))
    for name in sorted(set(run.spans.names) - set(out)):
        xs = run.spans.durations(name, TRACED_PHASES)
        if xs:
            out[name] = summary(xs, unit_of(name))
    return out


# Each workload's end-to-end metrics under their own names: (name, timing, quantile)
NAMED = {
    "build-panel": [("build_s", "build_s", 0.5)],
    "update-room": [("update_p50_ms", "update_ms", 0.5), ("update_p99_ms", "update_ms", 0.99),
                    ("update_same_record_p50_ms", "update_same_record_ms", 0.5),
                    ("update_new_record_p50_ms", "update_new_record_ms", 0.5),
                    ("cli_update_s", "cli_update_s", 0.5)],
    "stats-room": [("stats_panel_s", "stats_panel_s", 0.5)],
}


def named_metrics(run, workload_name: str) -> dict:
    out = dict(run.derived)
    if not run.trace:
        for name, timing, q in NAMED[workload_name]:
            xs = run.samples.get(timing, [])
            if xs:
                out[name] = (UNIT_SCALE[unit_of(name)] * quantile(xs, q), unit_of(name))
    out["ops_failed_frac"] = (run.failed / max(1, run.attempted), "frac")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def check_counts_repeat(run, workload: str, seed: int, digest: str) -> None:
    """Fail the run when an earlier run of the same code, seed and length
    counted otherwise.  The length counts too: it sets how many inputs a
    run draws from its seed."""
    for path in sorted(glob.glob(os.path.join(RUNS, "*.json"))):
        try:
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            continue
        key = (old.get("workload"), old.get("seed"), old.get("seconds"), old.get("source_digest"))
        if key != (workload, seed, run.seconds, digest):
            continue
        try:
            checks.check_counts_repeat(run.counts, old.get("counts", {}), f"{workload} seed {seed}")
        except checks.CheckFailed as exc:
            run.fail(str(exc))
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-panel", "update-room", "stats-room"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    dcmkit = import_package()
    from workloads import WORKLOADS, Run

    os.makedirs(RUNS, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    workdir = os.path.join(WORK, tag)
    os.makedirs(workdir)
    started = time.time()
    run = Run(ROOT, workdir, args.seed, args.seconds, bool(args.trace))
    workload = WORKLOADS[args.workload](run)
    try:
        workload.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.speed.sample()
    run.samples["reference_ms"] = run.speed.times

    digest = source_digest()
    check_counts_repeat(run, args.workload, args.seed, digest)
    final = per_layer(run) if run.trace else end_to_end(run, workload)
    named = named_metrics(run, args.workload)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "wall_s": time.time() - started,
        "git_commit": git_commit(),
        "source_digest": digest,
        "dcmkit_file": os.path.realpath(dcmkit.__file__),
        "machine": machine_info(),
        "environment": {k: os.environ.get(k) for k in
                        ("DCM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "notes": run.notes,
        "hooks_missing": run.hooks_missing,
        "counts": run.counts,
        "timings": timings(run),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**named, **final}.items()},
    }
    with open(os.path.join(RUNS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if run.trace:
        run.spans.dump(os.path.join(RUNS, tag + ".spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  dcmkit {record['dcmkit_file']}")
    for name, s in record["timings"].items():
        tail = f"  p{s['tail_pct']} {s['tail']:.6g}" if "tail" in s else ""
        p50 = f"{s['p50']:.6g}" if "p50" in s else "-"
        print(f"  timing  {name:<34} p50 {p50} {s['unit']}{tail}  n={s['n']}")
    for name, value in sorted(run.counts.items()):
        print(f"  count   {name:<34} {value} count")
    for name, (value, unit) in sorted({**named, **final}.items()):
        print(f"  metric  {name:<34} {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in final.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
