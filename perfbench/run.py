"""modglue benchmark: glue-ladder, descent-ladder and suite.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload glue-ladder --seed 1 --seconds 40 --trace 0

Run all three, each in its own fresh process, and print every metric:

    python3 perfbench/run.py

--trace 0 measures the end-to-end metrics with no tracing, and prints the
ladders' item latency percentiles above the result line; --trace 1 runs
one untraced pass, then one pass with the span tracer installed, and reports
the per-layer metrics and the tracing overhead.  The library is imported from
src/ of the checkout this file sits in; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: BLAS threads per workload (capped at nproc), pinned before numpy is
#: imported: SVD times change 1.7-3.8x between one and two threads, so runs
#: with different counts do not compare.  Two threads pay off on the large
#: SVDs of glue-ladder.  descent-ladder and suite make thousands of small and
#: mid-size SVDs, where a second thread only adds synchronisation; on a
#: 2-core machine it made their item latencies slower and far noisier.
BLAS_THREADS = {"glue-ladder": 2, "descent-ladder": 1, "suite": 1}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

WORKLOADS = ("glue-ladder", "descent-ladder", "suite")

#: The metrics of the JSON result, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Printed for the ladders only, never in the JSON result: every result
#: metric must exist on every workload, and eleven criteria carry no
#: percentile on suite.  On the ladders they move with the machine's
#: Python speed, which drifts more from run to run than the pass time does.
LATENCY_UNITS = {"item_p50_ms": "ms", "item_p90_ms": "ms"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(workload: str) -> int:
    threads = min(BLAS_THREADS[workload], nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_library():
    """Import modglue from this checkout's src/, never from elsewhere."""
    if not (SRC / "modglue" / "__init__.py").is_file():
        sys.exit(f"error: no modglue sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modglue

    if Path(modglue.__file__).resolve().parent != SRC / "modglue":
        sys.exit(f"error: modglue imported from {modglue.__file__}, not {SRC}")


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": threads,
        "nproc": nproc(),
    }


def percentile(sorted_values, q):
    """Nearest-rank percentile and the count of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_workload(args, threads, import_s):
    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(OUT_DIR), smoke=args.smoke)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    print("# env " + json.dumps(environment(threads), sort_keys=True))

    if args.trace:
        return traced_run(args, wl, Tracer())

    per_pass, passes, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    # after the first pass, start one only if it is expected to end within --seconds
    while not passes or time.perf_counter() - start + passes[-1] <= args.seconds:
        t0 = time.perf_counter()
        lat, keys, a, f = wl.run_pass()
        passes.append(time.perf_counter() - t0)
        per_pass.append(lat)
        attempted += a
        failed += f
    latencies = [statistics.median(item) for item in zip(*per_pass)]
    done = sum(len(lat) for lat in per_pass)
    if not latencies:
        return attempted, failed, {}
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(passes),
        "items_per_s": done / sum(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "setup_s": f"import {import_s:.3f} s + median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes of {len(latencies)} items: "
                  + ", ".join(f"{p:.3f}" for p in passes),
        "items_per_s": f"{done} items in {sum(passes):.3f} s",
        "peak_rss_mb": "this process",
    }
    shown, units = dict(metrics), {**END_TO_END_UNITS, **LATENCY_UNITS}
    if args.workload != "suite":
        lat_sorted = sorted(latencies)
        p50, _ = percentile(lat_sorted, 0.5)
        p90, beyond = percentile(lat_sorted, 0.9)
        shown.update(item_p50_ms=1e3 * p50, item_p90_ms=1e3 * p90)
        counts["item_p50_ms"] = (f"n={len(latencies)} items, each its median over "
                                 f"{len(passes)} passes; not in the result")
        counts["item_p90_ms"] = f"n={len(latencies)} items, {beyond} beyond; not in the result"
    for name, value in shown.items():
        print(f"{args.workload:15s} {name:12s} {value:12.4f} {units[name]:4s} ({counts[name]})")
    print(f"{args.workload:15s} fail_frac    {failed}/{attempted} = {failed / attempted:g}")
    print_per_key(args.workload, keys, latencies)
    return attempted, failed, {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}


def print_per_key(workload, keys, latencies):
    by_key = defaultdict(list)
    for key, lat in zip(keys, latencies):
        by_key[key].append(lat)
    for key, lats in by_key.items():
        print(f"{workload:15s}   {key:48s} n={len(lats):4d} median {1e3 * statistics.median(lats):10.2f} ms")


def traced_run(args, wl, tracer):
    from tracer import per_layer_metric_units

    t0 = time.perf_counter()
    _, _, attempted_plain, failed_plain = wl.run_pass()
    untraced = time.perf_counter() - t0

    def tag(key):
        tracer.tag = key

    tracer.install()
    try:
        t0 = time.perf_counter()
        _, _, attempted, failed = wl.run_pass(on_item=tag)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path)

    values = tracer.metrics(traced, untraced)
    units = dict(per_layer_metric_units())
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"{args.workload:15s} {name:52s} {shown} {unit}")
    print(f"{args.workload:15s} tracing overhead {traced - untraced:.3f} s "
          f"(traced {traced:.3f} s, untraced {untraced:.3f} s); "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    glue_by_key = {k: v for (n, k), v in tracer.by_tag.items() if n == "glue.glue" and k}
    for key, seconds in glue_by_key.items():
        print(f"{args.workload:15s}   glue.glue.total_s in {key:44s} {seconds:10.4f} s")
    return attempted + attempted_plain, failed + failed_plain, {n: {"value": values[n], "unit": u} for n, u in units.items()}


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="after the first pass, start no pass expected to end after this many seconds")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="small ladders and --trials 2 suite, for the self-tests")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    threads = pin_blas_threads(args.workload)
    t0 = time.perf_counter()
    import_library()
    import workloads  # noqa: F401  (numpy, modglue and the ladders)

    import_s = time.perf_counter() - t0
    attempted, failed, metrics = run_workload(args, threads, import_s)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
