"""Benchmark of ambiseg, run from the repository root:

    python3 perfbench/run.py --workload train-planar-2k --seed 1 --seconds 30 --trace 0

Workloads are listed, with the reason for each, in BENCHMARK.json. A run makes
its inputs from --seed, sets up, then runs operations in a closed loop for about
--seconds and checks every output. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps the public functions of each ambiseg module,
traces every second operation and reports the per-layer metrics (means per
traced operation). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (environment,
digests, every metric) is printed on the line before it and written to
.bench_out/<workload>-seed<seed>-trace<trace>.json.

Exit codes: 0 after a run, 1 when ambiseg cannot be imported from ./src, 2 for
invalid arguments.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def _import_program() -> None:
    """Import ambiseg from ./src of this checkout, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ambiseg
    except ImportError as e:
        sys.exit(f"perfbench: cannot import ambiseg from {src}: {e}")
    if not Path(ambiseg.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: ambiseg was imported from {ambiseg.__file__}, not from {src}")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or None."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of ./.git when the checkout is a git repository; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    from tracing import module
    try:
        np_config = np.show_config(mode="dicts")
        simd = np_config.get("SIMD Extensions")
        blas = np_config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:                      # numpy < 1.26 has no mode= argument
        simd, blas = None, {}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd": simd,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "kdtree_cutoff": module("cloud").KDTREE_CUTOFF,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def end_to_end(out) -> dict:
    ops = out.op_s
    return {
        "op_ms_p50": 1e3 * statistics.median(ops),
        "points_per_s": out.points * len(ops) / sum(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(out.setup_s),
    }


def per_layer(out, tracer) -> dict:
    metrics = tracer.aggregate(out.roots)
    hits = metrics.get("refine.self_mask_hits", 0.0)
    points = metrics.get("refine.stage_points", 0.0)
    metrics["refine.self_mask_ratio"] = hits / points if points else 0.0
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(out.traced_op_s)
                                          - statistics.median(out.op_s))
    return metrics


def write_spans(path: Path, spans: list) -> None:
    """One JSON line per span; spans of one operation share the id of its root span."""
    roots: list[int] = []
    with open(path, "w") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            roots.append(i if parent < 0 else roots[parent])
            fh.write(json.dumps({"id": i, "root": roots[i], "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    _import_program()
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    try:
        if tracer is not None:
            tracer.install()
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, sizes, tracer, workdir)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    computed = per_layer(out, tracer) if args.trace else end_to_end(out)
    # a layer the workload never enters has no spans: it reads 0
    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared[kind]}
    failed = len(out.failed_ops)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": environment(),
        "attempted": out.attempted,
        "failed": failed,
        "error_rate": failed / out.attempted,
        "failures": out.failures[:20],
        "operations": {"untraced": len(out.op_s), "traced": len(out.traced_op_s)},
        "op_ms": [1e3 * t for t in out.op_s],
        "traced_op_ms": [1e3 * t for t in out.traced_op_s],
        "setup_s": out.setup_s,
        "op_ms_p90": (1e3 * statistics.quantiles(out.op_s, n=10)[8]
                      if len(out.op_s) >= 100 else None),
        "extra": out.extra,
        "metrics": metrics,
        "all_computed": computed,
    }
    if tracer is not None:
        record["setup_layers"] = tracer.aggregate(out.setup_roots)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        write_spans(OUT_DIR / f"{stem}.spans.jsonl", tracer.spans)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not out.failures, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
