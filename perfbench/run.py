#!/usr/bin/env python3
"""puritynet benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload probe_scaling --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The line before the result holds the
run's environment record.  The program is imported from ``src/`` of the
checkout; BLAS threads are capped at the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
WORKLOADS = ("probe_scaling", "artifacts", "lattice_two_column")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 9
#: Host-speed kernel runs in each of them, after its set-up.
SETUP_SPEED_SAMPLES = 9

#: Set-up proper ends when the first call returns; the child then times the
#: host-speed kernel on its own CPU, and reports both.
SETUP_CODE = """
import time
import puritynet
from puritynet.cli import main
code = main(["probe", "--spec-text", "statespec v1\\nkind = ghz\\nn = 2\\n", "--out", {out!r}])
end = time.perf_counter()
import json, sys
sys.path.insert(0, {bench_dir!r})
from hostspeed import kernel
kernel_s = []
for _ in range({samples}):
    t0 = time.perf_counter()
    kernel()
    kernel_s.append(time.perf_counter() - t0)
print(json.dumps({{"code": code, "end": end, "kernel_s": kernel_s}}))
"""


def cache_sizes() -> dict:
    """L2/L3 sizes in bytes from glibc's sysconf, or None where unknown."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {"l2_cache_bytes": None, "l3_cache_bytes": None}
    # glibc _SC_LEVEL2_CACHE_SIZE = 191, _SC_LEVEL3_CACHE_SIZE = 194
    return {"l2_cache_bytes": libc.sysconf(191), "l3_cache_bytes": libc.sysconf(194)}


def cap_blas_threads(nproc: int) -> str:
    """Limit BLAS/OpenMP threads to ``nproc``; must run before numpy loads.

    Idle OpenBLAS workers are also told to sleep almost at once: by default
    they spin for a while after every call, on the CPU the caller would
    otherwise have to itself, and add to the caller's latency spikes."""
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")  # 2^4 cycles, the minimum
    return os.environ["OPENBLAS_NUM_THREADS"]


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter importing puritynet and making one
    call, in reference seconds and in raw seconds.  ``time.perf_counter`` is
    CLOCK_MONOTONIC, shared by parent and child; each set-up is scaled by
    the median kernel time its own interpreter saw right after it."""
    import hostspeed

    code = SETUP_CODE.format(
        out=str(WORK_DIR / "setup_probe.json"), bench_dir=str(BENCH_DIR), samples=SETUP_SPEED_SAMPLES
    )
    raw, reference = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True
        )
        report = json.loads(child.stdout.splitlines()[-1])
        if report["code"] != 0:
            raise RuntimeError(f"set-up probe exited with {report['code']}")
        raw.append(report["end"] - t0)
        reference.append(raw[-1] * hostspeed.REF_KERNEL_S / statistics.median(report["kernel_s"]))
    return statistics.median(reference), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "puritynet" / "__init__.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a puritynet checkout", file=sys.stderr)
            return 2

    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path[:0] = [src, str(BENCH_DIR)]
    WORK_DIR.mkdir(exist_ok=True)

    # imported here so that numpy loads after the BLAS thread cap is set
    import bench
    import workloads

    if args.trace:
        metrics, runner, record = bench.run_traced(args.workload, args.seed, args.seconds, WORK_DIR)
        units = dict(bench.PER_LAYER)
    else:
        setup_s, raw_setup_s = measure_setup(dict(os.environ))
        metrics, runner, record = bench.run_untraced(args.workload, args.seed, args.seconds, WORK_DIR)
        metrics["setup_s"] = setup_s
        record["raw_seconds"]["setup_s"] = raw_setup_s
        units = dict(bench.END_TO_END)

    attempted, failed = len(runner.ops), len(runner.failures)
    record.update(
        workload=args.workload,
        why=workloads.WHY[args.workload],
        failed_frac=failed / attempted,
        first_failures=runner.failures[:5],
        environment=bench.environment(args.seed, blas_threads, nproc, cache_sizes()),
    )
    if args.trace:
        record["bytes_computed_note"] = "qstate.partial_trace.bytes_computed is computed from array sizes"
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
