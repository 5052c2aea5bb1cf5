"""Query-based Gaussian splatting pre-training at desk scale."""

# Pin BLAS/OpenMP pools to a single thread. Multi-threaded GEMM changes
# summation order between runs and thread counts, which would break the
# byte-identical reproducibility contract. The environment variables hold
# when NumPy loads after this point; a NumPy imported earlier has already
# sized its OpenBLAS pool, so that library is also set to one thread below.
import ctypes as _ctypes
import os as _os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, "1")


def _openblas(name):
    """The function openblas_<name> of the OpenBLAS that NumPy loaded, under
    any of its builds' symbol names, or None if there is no such library."""
    import glob

    import numpy as np

    libdir = _os.path.join(_os.path.dirname(_os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(_os.path.join(libdir, "lib*openblas*.so*"))):
        try:
            lib = _ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


_set_threads = _openblas("set_num_threads")
if _set_threads is not None:
    _set_threads.argtypes = [_ctypes.c_int]
    _set_threads.restype = None
    _set_threads(1)

__version__ = "0.1.0"
