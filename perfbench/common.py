"""Shared pieces of the benchmark: corpus shape, statistics, process probes.

Everything here is stdlib only, so the entry point (``run.py``) can import it
without paying for numpy; the worker processes import it too.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Sequence

#: Root of the checkout the benchmark runs in (this file's parent's parent).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Working directory for campaign output, traces and results (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: The default ``--seed``; the expected fig3 rows are committed for it.
DEFAULT_SEED = 0

#: Fig. 3 corpus shape: every panel of a workload at both hardware
#: qualities over the paper's full 17-point utilization grid.
FAILURE_PROBABILITIES = (1e-3, 1e-5)
#: Sets per grid point.  The kill path's peak RSS grows with it
#: (timing-point LRU), and 16 sets left too few cold rounds in a run.
SETS_PER_POINT = 8
FIG3_PANELS = {"fig3-kill": ("a", "b"), "fig3-degrade": ("c", "d")}

#: Cold starts timed per run for ``setup_s`` (the fastest one is reported).
SETUP_STARTS = 7


def corpus_options(
    workload: str, seed: int, utilizations: Sequence[float]
) -> dict[str, Any]:
    """The fig3 campaign options naming one workload's corpus.

    ``campaign-degrade`` runs exactly the ``fig3-degrade`` corpus.
    """
    key = "fig3-degrade" if workload == "campaign-degrade" else workload
    return {
        "panels": list(FIG3_PANELS[key]),
        "failure_probabilities": [float(f) for f in FAILURE_PROBABILITIES],
        "utilizations": [float(u) for u in utilizations],
        "sets_per_point": SETS_PER_POINT,
        "seed": int(seed),
    }


def corpus_points(options: dict[str, Any]) -> list[tuple[str, float, int, float]]:
    """``(panel, f, point_index, utilization)`` in sweep order."""
    return [
        (panel, f, index, u)
        for panel in options["panels"]
        for f in options["failure_probabilities"]
        for index, u in enumerate(options["utilizations"])
    ]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def hit_ratio(counters: dict[str, int], prefix: str) -> float:
    """``<prefix>.hits`` over hits plus misses in an obs counter snapshot."""
    hits = counters.get(f"{prefix}.hits", 0)
    return ratio(hits, hits + counters.get(f"{prefix}.misses", 0))


def steal_seconds() -> float:
    """Cumulative hypervisor steal time of the machine (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {
                line.split()[-1] for line in handle if "openblas" in line.lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(lib, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def run_environment(extra: dict[str, Any]) -> dict[str, Any]:
    """The record that tells a noisy run from a slow program."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **extra,
    }


def proc_stat(pid: int) -> tuple[float, int]:
    """``(cpu seconds, minor faults)`` of a live process from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # Fields after the parenthesised command name; utime/stime are
    # fields 14/15 and minflt field 10 of proc(5).
    fields = text[text.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks, int(fields[7])


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env(obs: bool = False, **overrides: str) -> dict[str, str]:
    """Environment for a program process: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in ("REPRO_OBS", "REPRO_NO_NUMPY", "REPRO_NO_BATCH"):
        env.pop(name, None)
    if obs:
        env["REPRO_OBS"] = "1"
    env.update(overrides)
    return env


def worker_command(config: dict[str, Any]) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(config)]


def run_worker(config: dict[str, Any], timeout: float) -> dict[str, Any]:
    """Run ``worker.py`` with ``config``; return its last stdout JSON line."""
    proc = subprocess.run(
        worker_command(config),
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {config.get('mode')} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_start(command: list[str]) -> float:
    """Wall time of one cold run of a short-lived command."""
    begin = time.perf_counter()
    proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True, check=False)
    elapsed = time.perf_counter() - begin
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-2000:]}"
        )
    return elapsed


class StartTimer:
    """Times ``SETUP_STARTS`` cold starts spread evenly over a run.

    Interference only ever adds time to a start, and its slow spells last
    seconds, so the starts are spaced out and the fastest one is kept.
    """

    def __init__(self, seconds: float, start: Callable[[], float]) -> None:
        self.start = start
        self.interval = seconds / SETUP_STARTS
        self.next_at = time.perf_counter()
        self.times: list[float] = []

    def maybe(self) -> None:
        """Take the next start if it is due (call between rounds)."""
        if len(self.times) < SETUP_STARTS and time.perf_counter() >= self.next_at:
            self.times.append(self.start())
            self.next_at += self.interval

    def fastest(self) -> float:
        while len(self.times) < SETUP_STARTS:
            self.times.append(self.start())
        return min(self.times)
