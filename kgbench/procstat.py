"""CPU and memory of the benchmark's whole process tree, read from ``/proc``.

The tree is this process and every descendant: Ray's GCS, raylet and
workers all hang below the driver that called ``ray.init``.  CPU time is
user+sys of every live process plus what each has collected from children
it reaped, so the total only grows while the tree lives.  RSS is summed
over processes, so pages of the shared object store count once per process
that maps them.
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended between listing and reading
        return None
    # the command name (field 2) may hold spaces; fields after it follow ')'
    return raw[raw.rindex(")") + 2:].split()


def tree_pids(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(pids: list[int]) -> float:
    """utime + stime + cutime + cstime over ``pids``, in seconds."""
    ticks = 0
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            ticks += int(f[11]) + int(f[12]) + int(f[13]) + int(f[14])
    return ticks / _TICK


def tree_rss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total * _PAGE / 2**20


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:  # spill files are deleted once their object is freed
                continue
    return total


class TreeSampler:
    """Samples summed RSS (and the spill directory's size) on a thread.

    Use as a context manager around one job; ``cpu_s``, ``peak_rss_mb`` and
    ``peak_spill_mb`` hold the job's figures after exit.  The process list is
    re-read every tenth sample, which keeps the thread's share of the
    driver's interpreter lock small.
    """

    def __init__(self, spill_dir: str | None = None, interval_s: float = 0.05):
        self.spill_dir = spill_dir
        self.interval_s = interval_s
        self.root = os.getpid()
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.peak_spill_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._pids: list[int] = []

    def _sample(self, refresh: bool) -> None:
        if refresh:
            self._pids = tree_pids(self.root)
        self.peak_rss_mb = max(self.peak_rss_mb, tree_rss_mb(self._pids))
        if self.spill_dir:
            self.peak_spill_mb = max(self.peak_spill_mb, dir_bytes(self.spill_dir) / 2**20)

    def _run(self) -> None:
        n = 0
        while not self._stop.wait(self.interval_s):
            n += 1
            self._sample(n % 10 == 0)

    def __enter__(self) -> "TreeSampler":
        self._sample(True)
        self._cpu0 = tree_cpu_s(self._pids)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample(True)
        self.cpu_s = tree_cpu_s(self._pids) - self._cpu0
