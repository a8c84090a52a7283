"""Pins the process environment for benchmark runs and records it.

Import this module before numpy or dqwalk: the BLAS thread-count variables
only take effect if they are set before numpy loads.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread, dqwalk's own worker count left at its default (1), and no
# bytecode written into src/ or the benchmark's directory.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

os.environ.update(PINNED)
os.environ.pop("DQWALK_THREADS", None)
sys.dont_write_bytecode = True


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "dqwalk", "cli.py"))


def add_src_path() -> None:
    """Make ``import dqwalk`` load the checkout's src/ tree, not an install."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment for fresh interpreters that must import dqwalk from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record() -> dict:
    """Machine, toolchain and source version the results were measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "pinned_env": PINNED,
    }
