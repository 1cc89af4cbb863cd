"""The FYK_THREADS setting.

This module imports no numpy, so the package can bound BLAS from it before
numpy loads OpenBLAS (the BLAS variables are read only when the library
loads).
"""
import os

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def env_threads():
    """FYK_THREADS as a thread count (values below 1 count as 1), or None
    when it is unset or empty.  Raises ValueError when it is not an integer."""
    raw = os.environ.get("FYK_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"FYK_THREADS must be an integer, got {raw!r}") from None


def bound_blas():
    """Set the BLAS thread variables from FYK_THREADS, when it is set.

    An invalid value is left for the CLI to report as a usage error, so that
    importing the library never fails on it."""
    try:
        n = env_threads()
    except ValueError:
        return
    if n is not None:
        for var in _BLAS_VARS:
            os.environ[var] = str(n)
