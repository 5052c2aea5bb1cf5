"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pretrain-default --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout; nothing is installed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Earlier lines describe the environment and the run.

Exit codes: 0 with a result; 2 for bad arguments; 3 when the program or the
single-thread BLAS pin is missing, in which case no result is printed.
"""

import argparse
import os
import sys

# The BLAS pools must be pinned before NumPy loads: OpenBLAS reads these
# variables once, when the library is first loaded.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class BenchRefused(Exception):
    """The benchmark cannot measure this checkout faithfully."""


def _blas_threads():
    """Threads the loaded OpenBLAS would use, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_environment():
    """Refuse to run without the program's sources or the BLAS pin."""
    if not os.path.isfile(os.path.join(SRC, "querysplat", "__init__.py")):
        raise BenchRefused(f"no program sources under {SRC}")
    threads = _blas_threads()
    if threads is not None and threads != 1:
        raise BenchRefused(f"BLAS runs {threads} threads; the pin to 1 is not in effect")
    if threads is None and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        raise BenchRefused("cannot confirm the single-thread BLAS pin")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": threads,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--out", default=os.path.join(BENCH_DIR, "runs"),
        help="directory for the run's files (datasets, checkpoints, traces)",
    )
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        env = check_environment()
    except BenchRefused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    import json

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.out, env)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
