"""Benchmark for the mlaan engine, run from outside through `mlaan.cli.main`
and the package's public functions.

    python3 perfbench/run.py --workload desk-mlaan --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

One workload per process. The run prints the machine facts, every metric
by name with its unit, the attempted and failed operation counts and any
failed output check; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). `--workload all`
runs each workload in a process of its own and prints every result.

The program is imported from `src/` next to this directory; without it
the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-runs")
WORKLOADS = ("desk-mlaan", "analyze")
# one BLAS thread: on the 2-core machine the baseline was measured on, two
# threads made no step faster and every step noisier
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def pin_blas_threads() -> int:
    """Set the BLAS thread count before numpy loads; returns the setting."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import mlaan from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import mlaan
    import mlaan.cli  # noqa: F401 - the CLI is not imported by the package
    where = os.path.dirname(os.path.abspath(mlaan.__file__))
    if where != os.path.join(src, "mlaan"):
        raise ImportError(f"mlaan was imported from {where}, not from {src}")
    return mlaan


def blas_threads_in_use():
    """Thread count OpenBLAS reports, read through its C API; None if the
    loaded library cannot be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": threads, "blas_threads_in_use": blas_threads_in_use()}


def run_one(args) -> int:
    threads = pin_blas_threads()
    mlaan = import_program()
    import spans
    import workloads

    facts = machine_facts(threads)
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    with open(os.path.join(out, "cli.log"), "w") as log:
        if args.workload == "desk-mlaan":
            res, attempted, failed = workloads.run_training(
                mlaan, workloads.desk_mlaan_config(args.seed), args.seconds,
                args.trace, out, log)
        else:
            res, attempted, failed = workloads.run_analyze(
                mlaan, workloads.analyze_configs(args.seed), args.seconds,
                args.trace, out, log)

    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if attempted == 0:
        for reason in res.problems:
            print(f"CHECK FAILED: {reason}")
        print("no operation was attempted; no result", file=sys.stderr)
        return 1
    if args.trace:
        units = dict(spans.PER_LAYER)
        metrics = {name: res.per_layer.get(name, 0.0) for name, _ in spans.PER_LAYER}
    else:
        units = dict(workloads.END_TO_END)
        metrics = {name: res.e2e.get(name) for name, _ in workloads.END_TO_END}
        if any(v is None for v in metrics.values()):
            res.fail("a run with no completed operation has no metrics")
            metrics = {k: (0.0 if v is None else v) for k, v in metrics.items()}
    for name, value, unit in [(n, metrics[n], units[n]) for n in metrics] + res.info:
        print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        # set against an untraced run, these give the tracing overhead
        for name, unit in workloads.END_TO_END:
            if name in res.e2e:
                print(f"traced {name} = {res.e2e[name]:.6g} {unit}")
    print(f"operations attempted={attempted} failed={failed}")
    for reason in res.problems:
        print(f"CHECK FAILED: {reason}")
    print(f"checks {'passed' if res.correct else 'FAILED'}")
    print(json.dumps({"correct": res.correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": float(v), "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            summary[name] = {"exit_code": proc.returncode}
            continue
        summary[name] = json.loads(lines[-1])
        ok = ok and summary[name]["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
