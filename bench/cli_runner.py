"""Run the program's CLI in a fresh interpreter and measure that run alone.

Wall time spans process start to reaping; `steal_free_s` takes out of it
the time the hypervisor ran other guests on this machine's virtual CPUs
(steal, from /proc/stat), which on a shared host moves the wall time of
identical runs by tens of percent. CPU time comes from the
`wait4` rusage of that one child, which also covers any descendants it
reaped, so earlier runs never leak in the way `RUSAGE_CHILDREN` would.
Peak memory is the larger of the child's own high-water mark and the
highest sum of resident sizes over its process tree, both sampled from
/proc while it runs, so a program that spreads work over several
processes is charged for all of them at once. The `ru_maxrss` of `wait4`
is not used: Linux carries the forking process's high-water mark over
exec into it, so it reads the benchmark's own memory whenever that is the
larger.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_SAMPLE_S = 0.02


@dataclass
class CliResult:
    returncode: int
    wall_s: float
    cpu_s: float
    steal_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def steal_free_s(self) -> float:
        """Wall time with the host's steal time taken out.

        Of the time the run's processes ran on a virtual CPU or waited for
        the hypervisor to give one back (cpu + steal), only the share they
        ran counts. Steal is taken machine-wide, which is the run's own
        while the benchmark is the only load on the machine.
        """
        busy = self.cpu_s + self.steal_s
        if self.cpu_s <= 0:
            return self.wall_s
        return self.wall_s * self.cpu_s / busy


_TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def host_steal_s() -> float:
    """Machine-wide steal time so far: time the hypervisor ran other
    guests while one of this machine's virtual CPUs had work."""
    try:
        with open("/proc/stat", "rb") as handle:
            fields = handle.readline().split()
        return int(fields[8]) * _TICK_S
    except (OSError, ValueError, IndexError):
        return 0.0


def _memory_kb(pid: int) -> tuple:
    """(resident size, high-water mark) of one process, 0 once it is gone."""
    rss = hwm = 0
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith(b"VmHWM:"):
                    hwm = int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return rss, hwm


def _children(pid: int) -> list:
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids += [int(k) for k in handle.read().split()]
    except (OSError, ValueError):
        pass
    return kids


def _tree_peak_kb(pid: int) -> int:
    """Sum of resident sizes over the tree, or the root's high-water mark."""
    total, todo, seen = 0, [pid], set()
    root_hwm = 0
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.add(p)
        rss, hwm = _memory_kb(p)
        total += rss
        if p == pid:
            root_hwm = hwm
        todo += _children(p)
    return max(total, root_hwm)


class CliRunner:
    def __init__(self, repo: Path, scratch: Path):
        self.env = dict(os.environ)
        src = str(repo / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.repo = repo
        self.scratch = scratch

    def run(self, args: list, timeout_s: float = 170.0) -> CliResult:
        """`python -m analytika.cli <args>`, measured."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        out_path = self.scratch / "cli.stdout"
        err_path = self.scratch / "cli.stderr"
        peak = [0]
        done = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            steal = host_steal_s()
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "analytika.cli", *args],
                cwd=self.repo, env=self.env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL)

            def sample():
                while not done.wait(_SAMPLE_S):
                    peak[0] = max(peak[0], _tree_peak_kb(proc.pid))
                    if time.perf_counter() - started > timeout_s:
                        proc.kill()

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
                steal = host_steal_s() - steal
            finally:
                done.set()
                sampler.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(
            returncode=proc.returncode, wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime, steal_s=steal,
            peak_rss_mb=peak[0] / 1024,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"))
