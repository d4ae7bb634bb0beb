"""What produced a benchmark result: machine, versions, code and threads.

``machine_provenance`` runs in ``run.py`` and reads only the
checkout and the kernel's read-only CPU description; ``runtime_provenance``
runs inside a child interpreter after ``heatkern`` is imported, so it sees
the libraries and thread settings the program actually runs with.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("HEATKERN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every file under ``src/``; it
    names the code when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def machine_provenance(root: Path, seed: int) -> dict:
    return {
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def runtime_provenance() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas_info = {"name": "unknown", "version": "unknown"}
    try:
        from heatkern.cli import _thread_cap

        heatkern_threads = _thread_cap()
    except (ImportError, ValueError):
        heatkern_threads = None
    raw = os.environ.get("HEATKERN_THREADS")
    blas_raw = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_info,
        "heatkern_threads": {"effective": heatkern_threads,
                             "source": "set" if raw is not None else "default"},
        "openblas_threads": {"effective": _openblas_threads(),
                             "source": "set" if blas_raw is not None else "default"},
    }
