"""Shared plumbing: paths, subprocess launchers, statistics, /proc memory.

Everything here acts on the benchmark's own processes and files.  The
program under test is imported from ``src/`` of the checkout the
benchmark runs in; subprocesses get the same ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

ROOT = os.path.abspath(os.getcwd())
SRC = os.path.join(ROOT, "src")
#: Scratch output (daemon logs, traces); listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, daemon never ready)."""


def require_program() -> None:
    """Fail fast in a directory that does not hold the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program to measure: {SRC}/repro is missing "
            "(run from the root of a repository checkout)"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)


def child_env(hash_seed: Optional[int] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# ---------------------------------------------------------------------------
# Statistics.  Failed operations enter latency samples as +inf (they miss
# every limit).
# ---------------------------------------------------------------------------
def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of the samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: list) -> float:
    return statistics.median(values)


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Host facts and the host-speed probe (reference figures, not metrics).
# ---------------------------------------------------------------------------
def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def speed_probe(loops: int = 200_000) -> float:
    """Seconds for a fixed pure-Python loop: a slow host phase shows as
    a larger figure before or after a workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Memory: peak RSS of a process and its descendants, read from /proc.
# ---------------------------------------------------------------------------
def _children_map() -> dict:
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(name))
    return children


def process_tree(pid: int) -> list:
    children = _children_map()
    tree, stack = [], [pid]
    while stack:
        current = stack.pop()
        tree.append(current)
        stack.extend(children.get(current, ()))
    return tree


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of VmHWM (peak resident set) over a process and its
    descendants, in MB."""
    return sum(_status_kb(p, "VmHWM") for p in process_tree(pid)) / 1024.0


class TreeRssSampler:
    """Track the largest tree-wide peak RSS of a short-lived process
    (a CLI campaign whose workers exit with it), polling /proc."""

    def __init__(self, pid: int, interval_s: float = 0.25) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_peak_rss_mb(self.pid))
            self._stop.wait(self.interval_s)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_mb


# ---------------------------------------------------------------------------
# Subprocesses.  Each starts a session of its own, so that the pool workers
# and resource trackers it forks can be found by their process group.  The
# benchmark is their child subreaper: whatever they orphan becomes its
# child, and it reaps them, so nothing it starts outlives it, not even as
# a zombie left to init.
# ---------------------------------------------------------------------------
#: Process groups of the subprocesses started and not yet seen empty.
_GROUPS: set = set()
#: Seconds a finished subprocess's group may take to empty on its own
#: (its orphaned workers exit and are reaped) before it is killed.
GROUP_GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Make orphaned descendants this process's children (Linux
    ``prctl``; acts on this process only).  False where unavailable."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def launch(args: list, hash_seed: Optional[int] = None,
           **popen_kwargs) -> subprocess.Popen:
    """Start ``args`` in the checkout, in a new session."""
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(hash_seed),
                            start_new_session=True, **popen_kwargs)
    _GROUPS.add(proc.pid)
    return proc


def _stat_fields(pid) -> Optional[list]:
    """Fields 3 onwards of ``/proc/<pid>/stat`` (state, ppid, pgrp, ...),
    or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat[stat.rfind(b")") + 2:].split()


def _processes(field: int, value: int) -> list:
    """Pids whose stat field 4 (``field=1``, ppid) or 5 (``field=2``,
    pgrp) equals ``value``; reaps those that are zombie children of this
    process on the way."""
    found = []
    for name in os.listdir("/proc"):
        fields = _stat_fields(name) if name.isdigit() else None
        if fields is None or int(fields[field]) != value:
            continue
        if fields[0] == b"Z" and int(fields[1]) == os.getpid():
            try:
                os.waitpid(int(name), os.WNOHANG)
                continue
            except ChildProcessError:
                pass
        found.append(int(name))
    return found


def _wait_empty(field: int, value: int, seconds: float) -> list:
    deadline = time.perf_counter() + seconds
    while True:
        left = _processes(field, value)
        if not left or time.perf_counter() >= deadline:
            return left
        time.sleep(0.01)


def _kill(pids: list) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def end_group(proc: subprocess.Popen, grace_s: float = GROUP_GRACE_S
              ) -> None:
    """Wait for ``proc`` (killing it if it still runs) and then for every
    process of its group; kill the group if it does not empty within
    ``grace_s``."""
    if proc.poll() is None:
        _kill([proc.pid])
    proc.wait()
    left = _wait_empty(2, proc.pid, grace_s)
    if left:
        _kill(left)
        left = _wait_empty(2, proc.pid, grace_s)
        if left:
            raise BenchError(f"processes {left} of group {proc.pid} "
                             "did not end")
    _GROUPS.discard(proc.pid)


def end_all() -> None:
    """Kill every group still known, stop this process's in-process pool
    and resource tracker, and reap every child left, orphans included:
    the last step on every path out of the benchmark."""
    for pgid in list(_GROUPS):
        _kill(_processes(2, pgid))
        _wait_empty(2, pgid, GROUP_GRACE_S)
        _GROUPS.discard(pgid)
    if "repro.perf.engine" in sys.modules:
        sys.modules["repro.perf.engine"].shutdown_pool(wait=True)
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        stop = getattr(tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    left = _wait_empty(1, os.getpid(), GROUP_GRACE_S)
    if left:
        _kill(left)
        _wait_empty(1, os.getpid(), GROUP_GRACE_S)


# ---------------------------------------------------------------------------
# The shipped daemon as a subprocess.
# ---------------------------------------------------------------------------
class Daemon:
    """``python -m repro serve --port 0`` with default settings."""

    def __init__(self) -> None:
        from repro.serve.client import ServeClient

        self.launched = time.perf_counter()
        self._log = open(os.path.join(OUT_DIR, "daemon.log"), "ab")
        self.proc = launch(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.proc.stdout.readline()
        try:
            ready = json.loads(line)
            self.port = int(ready["data"]["endpoints"]["port"])
        except (ValueError, KeyError, TypeError) as error:
            self._stop()
            raise BenchError(f"daemon never became ready: {line!r}") from error
        self.client = ServeClient(port=self.port)

    def status(self) -> dict:
        return self.client.status()["data"]

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """Ask the daemon to shut down (it stops its pool workers), wait
        for it and its workers; kill them if they do not end."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=20)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        self._stop()

    def _stop(self) -> None:
        try:
            end_group(self.proc)
        finally:
            self.proc.stdout.close()
            self._log.close()


def setup_median(first_request, starts: int, launch=None) -> tuple:
    """``starts`` cold starts, each timed from launching a daemon to the
    answer to ``first_request(daemon)``; keeps the last daemon running.
    Returns ``(median set-up seconds, daemon)``."""
    times, daemon = [], None
    for _ in range(starts):
        if daemon is not None:
            daemon.close()
        daemon = (launch or Daemon)()
        try:
            first_request(daemon)
        except BaseException:
            daemon.close()
            raise
        times.append(time.perf_counter() - daemon.launched)
    return median(times), daemon


# ---------------------------------------------------------------------------
# The fuzz CLI as a subprocess.
# ---------------------------------------------------------------------------
def run_fuzz_cli(args: list, hash_seed: Optional[int] = None,
                 sample_rss: bool = False) -> tuple:
    """Run ``repro fuzz --json <args>``; returns ``(wall seconds, stdout
    text, parsed envelope, tree peak RSS MB or None)``."""
    start = time.perf_counter()
    proc = launch(
        [sys.executable, "-m", "repro", "fuzz", "--json", "--out",
         os.path.join(OUT_DIR, "fuzz_repros"), *args],
        hash_seed=hash_seed,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    sampler = TreeRssSampler(proc.pid) if sample_rss else None
    try:
        out, err = proc.communicate(timeout=120)
        wall = time.perf_counter() - start
    finally:
        peak = sampler.stop() if sampler is not None else None
        end_group(proc)
    try:
        envelope = json.loads(out)
    except ValueError as error:
        raise BenchError(
            f"repro fuzz {' '.join(args)} printed no report "
            f"(exit {proc.returncode}): {err[-400:]}"
        ) from error
    return wall, out, envelope, peak
