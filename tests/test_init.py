"""Tests for the package's import-time single-thread BLAS pin."""

import os
import subprocess
import sys

import pytest

import querysplat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(querysplat.__file__)))
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

NUMPY_FIRST = """
import ctypes
import numpy
import querysplat
get_threads = querysplat._openblas("get_num_threads")
get_threads.argtypes = []
get_threads.restype = ctypes.c_int
print(get_threads())
"""


@pytest.mark.skipif(
    querysplat._openblas("get_num_threads") is None, reason="no OpenBLAS found under NumPy"
)
def test_blas_pinned_to_one_thread_when_numpy_loads_first():
    # With no pin in the environment, NumPy sizes its OpenBLAS pool to the
    # core count before the package is imported; the package must still
    # bring it down to one thread.
    env = {k: v for k, v in os.environ.items() if k not in PIN_VARS}
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_FIRST], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("module", ["config", "decoder", "pretrain", "finetune", "cli"])
def test_each_module_imports_first_without_a_cycle(module):
    # config holds the typed sub-configs that decoder, pretrain and finetune
    # import; whichever module a fresh interpreter loads first must import.
    script = (
        f"import querysplat.{module}\n"
        "from querysplat.config import DecoderConfig\n"
        "print(DecoderConfig().K)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "512"
