"""What machine produced a number: the host fingerprint.

``pin_blas_threads`` must run before numpy is first imported — OpenBLAS
reads its thread count once, at load.  One thread is the benchmark's
setting: on a 2-core box the default threading doubled CPU-seconds for
no wall-clock gain and made cold repetitions slower.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = ["blas_threads", "fingerprint", "pin_blas_threads"]

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    pinned = all(os.environ.get(v) == str(BLAS_THREADS) for v in _THREAD_VARS)
    if not pinned and "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy loads")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # the sanitizer validates every contracted call; timing it would
    # measure the sanitizer
    os.environ.pop("REPRO_SANITIZE", None)


def blas_threads() -> int:
    """The thread count in effect: what the environment told the BLAS
    and OpenMP runtimes when they loaded (0: unset or contradictory, so
    the library's own default)."""
    counts = {os.environ.get(var, "0") for var in _THREAD_VARS}
    return int(counts.pop()) if len(counts) == 1 else 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # an exported tree: ask no parent
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: Path) -> dict:
    """Host facts recorded in every result file.  ``compare`` refuses
    two files that differ in any of them but the commit: reference time
    (see :mod:`perfbench.recorder`) means nothing across hosts."""
    import numpy as np

    from .recorder import CANARY_REF_S

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}
    )
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "canary_ref_ms": [1e3 * ref for ref in CANARY_REF_S],
        "git_commit": _git_commit(root),
    }
