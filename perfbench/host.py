"""BLAS thread pinning for this process, the host stamp of a result, and host speed.

`pin_blas_threads` must run before numpy is first imported: OpenBLAS reads
its thread count from the environment once, when it is loaded. Only this
process's environment is changed. `HostSpeed` measures how fast the host
runs during a run.
"""

import ctypes
import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS itself, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp():
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = _openblas_threads()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": "library" if threads is not None else "environment",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# A probe run takes about this long on the 2-CPU x86_64 host the benchmark
# was sized on; timings are reported as if every probe had taken this long.
REFERENCE_PROBE_S = 0.004


class HostSpeed:
    """Times a fixed probe between closed loops, to scale timings to a nominal host speed.

    A shared host switches between speeds that differ by up to a half, for
    a second or a few at a time, and everything timed meanwhile moves with
    it. The probe is the benchmark's own code, the mix a control step is
    made of (small dense Cholesky solves, matrix-vector products, clipping
    and dict updates), and never calls the program, so a change to the
    program cannot move it: scaling by `factor` takes out the host's speed
    and leaves the program's own changes in.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import cho_factor, cho_solve

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((30, 30))
        self._chol = cho_factor(self._a @ self._a.T + 30.0 * np.eye(30))
        self._v = rng.standard_normal(30)
        self._solve, self._clip = cho_solve, np.clip
        self.groups = []            # probe times (s), one list per call of probe()

    def _probe(self):
        t0 = time.perf_counter()
        x = self._v
        for _ in range(100):
            x = self._clip(self._a @ self._solve(self._chol, x), -1.0, 1.0)
            s = float(x @ x)
            acc = {j: j * s for j in range(40)}
            x = x * (sum(acc.values()) > 0.0)
        return time.perf_counter() - t0

    def probe(self, n=3):
        """Time a group of n probes; returns the group's index."""
        self.groups.append([self._probe() for _ in range(n)])
        return len(self.groups) - 1

    def median_s(self):
        return statistics.median(t for group in self.groups for t in group)

    def factor(self, first, last):
        """Scale for what ran between probe groups `first` and `last`:
        REFERENCE_PROBE_S over the median probe time of those groups."""
        return REFERENCE_PROBE_S / statistics.median(
            t for group in self.groups[first:last + 1] for t in group)

    def seconds(self, first, last):
        """Time spent probing in groups `first` to `last`."""
        return sum(sum(group) for group in self.groups[first:last + 1])
