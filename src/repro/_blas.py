"""Best-effort control of the OpenBLAS thread pools loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own thread pool; neither exposes the pool size, and threadpoolctl
is not a dependency.  :func:`limit_blas_threads` finds the OpenBLAS
libraries mapped into the process and sets their thread counts through
OpenBLAS's C API, restoring the previous counts on exit.  Where none is
found (another BLAS, or a platform without ``/proc/self/maps``) it does
nothing.

The setting is process-wide, like the environment variables it stands in
for (``OPENBLAS_NUM_THREADS``), which only take effect before the library
is loaded.  It changes results as well as speed: OpenBLAS picks a
different (small-matrix) GEMM kernel when it runs single-threaded, so two
runs agree bit for bit only at the same thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Iterator

__all__ = ["blas_thread_counts", "cap_blas_threads", "limit_blas_threads"]

# (getter, setter) symbol pairs: wheel builds prefix the symbols with
# ``scipy_`` and the 64-bit-integer builds suffix them with ``64_``.
_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_pools() -> dict[str, tuple]:
    """Library path -> ``(get, set)`` functions of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    pools = {}
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(library, get_name, None)
            set_ = getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                pools[path] = (get, set_)
                break
    return pools


def blas_thread_counts() -> dict[str, int]:
    """Library path -> thread count of every loaded OpenBLAS pool."""
    return {path: int(get()) for path, (get, _) in _openblas_pools().items()}


def _lower(pools: dict[str, tuple], threads: int) -> dict[str, int]:
    """Cap ``pools`` at ``threads``; return the previous count of each one lowered."""
    lowered = {}
    for path, (get, set_) in pools.items():
        count = int(get())
        if count > threads:
            set_(threads)
            lowered[path] = count
    return lowered


def cap_blas_threads(threads: int) -> None:
    """Cap every loaded OpenBLAS pool at ``threads`` for the rest of the process."""
    _lower(_openblas_pools(), threads)


@contextlib.contextmanager
def limit_blas_threads(threads: int) -> Iterator[None]:
    """Run the block with every loaded OpenBLAS pool capped at ``threads``.

    Pools already at or below the cap are left alone; the others get their
    previous count back on exit.
    """
    pools = _openblas_pools()
    lowered = _lower(pools, threads)
    try:
        yield
    finally:
        for path, count in lowered.items():
            pools[path][1](count)
