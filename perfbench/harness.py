"""Process and environment helpers shared by the benchmark's scripts."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "cotype", "cli.py"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed hashing keeps set/dict iteration, and so timings, the same run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Run:
    returncode: int | None  # negative for a signal; None after a timeout
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_process(argv: list[str], timeout: float, tag: str = "cmd") -> Run:
    """Run argv to completion (or kill it after `timeout` seconds) and return its
    output, wall time and max RSS from wait4. Output goes through files in
    OUT_DIR, so large stdout cannot fill a pipe."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f".{tag}-{os.getpid()}.stdout")
    err_path = os.path.join(OUT_DIR, f".{tag}-{os.getpid()}.stderr")
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def kill():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.unlink(out_path)
    os.unlink(err_path)
    code = None if timed_out.is_set() else proc.returncode
    return Run(code, stdout, stderr, wall, usage.ru_maxrss, timed_out.is_set())


def cotype_argv(args) -> list[str]:
    return [sys.executable, "-m", "cotype.cli", *args]


# ---------------------------------------------------------------------------
# Environment fingerprint: numbers from different machines or backends must
# never be compared.
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_sha256(top: str) -> str:
    """Digest of every .py file under top, so a checkout without git history
    still identifies the code it measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    try:
        import mpmath.libmp

        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath_backend": backend,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit_sha(),
        "src_sha256": _tree_sha256(SRC) if os.path.isdir(SRC) else None,
    }


def write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
