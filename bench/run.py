"""Run one slotnav benchmark workload and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 5 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run, whose spans go to .bench_work/trace-<workload>-<seed>.json.
A failed check sets "correct" to false; the exit code is 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")


def limit_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cpus))
        except ValueError:
            current = cpus
        os.environ[var] = str(min(max(current, 1), cpus))
    return cpus


def environment(cpus: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpus": cpus,
            "cpu_model": model}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "gradcheck", "serve", "navigate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = limit_blas_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import slotnav
        if os.path.dirname(os.path.abspath(slotnav.__file__)) != os.path.join(ROOT, "src",
                                                                             "slotnav"):
            raise ImportError(f"slotnav is imported from {slotnav.__file__}")
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    env = environment(cpus)
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workloads.FULL, workdir, WORK)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if result["tracer"] is not None:
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        result["tracer"].write(path, {"workload": args.workload, "seed": args.seed,
                                      "env": env, "metrics": {
                                          name: value for name, (value, _)
                                          in result["metrics"].items()}})
        print(f"trace {path}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print("raw " + " ".join(f"{name}={value:.6g}" for name, value in result["raw"].items()))
    print("speed factor setup {:.4f} measure {:.4f}".format(*result["speed"]))
    print(f"attempted {result['attempted']} failed {result['failed']}")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
