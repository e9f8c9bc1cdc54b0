"""Where a result was measured: machine, caches, library versions, code identity."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
from typing import Dict, Optional

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: Optional[str]) -> Optional[int]:
    if not text:
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def caches() -> Dict[str, dict]:
    """CPU 0's caches as the kernel reports them, keyed L1d, L1i, L2, L3."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level is None or kind is None:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[name] = {"bytes": _size_bytes(_read(f"{d}/size")),
                     "shared_cpus": _read(f"{d}/shared_cpu_list")}
    return out


def cpu_model() -> Optional[str]:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def source_digest(src: str) -> str:
    """sha256 over every file under ``src``, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None  # checkouts made for benchmarking carry no history
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def collect(root: str, src: str) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs across NumPy releases
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }
