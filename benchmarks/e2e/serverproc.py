"""The served process under test: spawn, probe, measure, stop.

The server is the shipped CLI (``repro.cli.main(["serve", ...])``) in a
child process, or the same CLI behind ``traced_server.py``.  CPU time and
peak memory are read from ``/proc`` for the server and every process
below it (shard workers and multiprocessing's resource tracker).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_SERVE_ENTRY = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
_PORT = re.compile(r"serving on [^\s:]+:(\d+)")
#: Seconds a server may take to announce its port, and to exit after ``shutdown``.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def _descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name sits in parentheses and may contain spaces.
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def kill_tree(pid: int) -> None:
    """SIGKILL ``pid`` and every process below it, deepest first."""
    for victim in reversed(_descendants(pid)):
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError:
            pass


def kill_children() -> None:
    """Kill every process below this one and reap the direct children."""
    for child in _descendants(os.getpid())[1:]:
        kill_tree(child)
        try:
            os.waitpid(child, 0)
        except ChildProcessError:
            pass


def _cpu_seconds(pid: int) -> float:
    """CPU time of ``pid``'s live threads, to the nanosecond.

    ``schedstat`` counts the scheduler's exact run time, where the
    ``utime``/``stime`` of ``stat`` sample whole clock ticks, too coarse
    for requests that cost well under a tick.
    """
    total = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tids:
        try:
            total += int(Path(f"/proc/{pid}/task/{tid}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


def _peak_rss_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


def _is_shard_worker(pid: int) -> bool:
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"multiprocessing.spawn" in cmdline


class ServerProcess:
    """One ``repro serve`` child: started, answering, stopped cleanly."""

    def __init__(self, argv: Sequence[str], launcher: Optional[Sequence[str]] = None) -> None:
        """Spawn the server and block until it answers ``healthz``.

        ``launcher`` replaces the plain CLI entry (the traced run passes
        ``traced_server.py`` and its options).  ``setup_s`` is the time
        from spawn to the first ``healthz`` reply.
        """
        from repro.serve.client import ServeClient

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        entry = list(launcher) if launcher else ["-c", _SERVE_ENTRY]
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", *argv, "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            self.port = self._wait_for_port(started + START_TIMEOUT_S)
            self.control = ServeClient.connect("127.0.0.1", self.port, retries=50, delay=0.05)
            self.control.healthz()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - started

    def _wait_for_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            seen += line
            match = _PORT.search(line.decode("utf-8", "replace"))
            if match:
                return int(match.group(1))
        raise RuntimeError(f"server did not start: {seen.decode('utf-8', 'replace')[-500:]}")

    # ------------------------------------------------------------------
    # /proc readings
    # ------------------------------------------------------------------

    def cpu_seconds(self) -> float:
        """CPU time of the server and every process below it."""
        return sum(_cpu_seconds(pid) for pid in _descendants(self.proc.pid))

    def worker_cpu_seconds(self) -> float:
        """CPU time of the shard worker processes alone."""
        return sum(
            (_cpu_seconds(pid) for pid in _descendants(self.proc.pid)
             if pid != self.proc.pid and _is_shard_worker(pid)),
            0.0,
        )

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and every process below it."""
        return sum(_peak_rss_kb(pid) for pid in _descendants(self.proc.pid)) / 1024.0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """The server's ``/metrics`` samples without labels."""
        values: Dict[str, float] = {}
        for line in self.control.metrics_text().splitlines():
            if not line or line.startswith("#") or "{" in line:
                continue
            name, _, value = line.partition(" ")
            values[name] = float(value)
        return values

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def stop(self) -> List[str]:
        """Send ``shutdown`` and wait; return every unclean-exit finding."""
        problems: List[str] = []
        try:
            self.control.shutdown()
        except Exception as exc:  # noqa: BLE001 - reported as a finding
            problems.append(f"shutdown op failed: {type(exc).__name__}: {exc}")
        finally:
            self.control.close()
        try:
            _, stderr = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return problems + [f"server did not exit within {STOP_TIMEOUT_S:.0f}s"]
        text = stderr.decode("utf-8", "replace")
        if self.proc.returncode != 0:
            problems.append(f"server exited with code {self.proc.returncode}")
        if "Traceback" in text:
            problems.append("traceback on server stderr: " + text[-800:])
        if re.search(r"resource_tracker.*leaked shared_memory", text):
            problems.append("resource_tracker reported leaked shared_memory")
        return problems

    def kill(self) -> None:
        """Last resort: kill the server and everything below it, and reap it."""
        if self.proc.returncode is None:
            kill_tree(self.proc.pid)
            self.proc.communicate()
