"""Measurement plumbing: the closed loop, process-tree accounting from
``/proc``, and server subprocesses that are always reaped."""

from __future__ import annotations

import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perf.catalog import ROOT

PERF = ROOT / "perf"

#: What an operation returns and what the oracle expects: the number of
#: answer rows (or the count), and an order-independent checksum of the
#: rows (``None`` for count-mode operations).
Answer = Tuple[int, Optional[int]]

_MASK = (1 << 64) - 1


def checksum(rows) -> int:
    """Order-independent row checksum.  ``hash`` of an int tuple is not
    salted, so the oracle and a later run agree across processes."""
    return sum(map(hash, rows)) & _MASK


def consume(rows) -> Answer:
    return len(rows), checksum(rows)


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: The machine speed every calibrated time is expressed at: the speed at
#: which the kernel below takes this long.  It defines a unit; the raw
#: times are printed beside the calibrated ones.
CAL_REF_S = 0.001
_cal_rows: List[Tuple[int, int, int]] = []


def _calibration_kernel() -> int:
    """Half interpreter work of the engine's kind (bisect over sorted int
    tuples, tuple building, dict updates), half C-level data movement of
    the wire's kind (sort, column split, array pack and unpack, zip)."""
    if not _cal_rows:
        _cal_rows.extend(
            (i * 7919 % 1201, i * 104729 % 1201, i * 1299709 % 1201)
            for i in range(2500))
    data = sorted(_cal_rows)
    size = len(data)
    total, seen = 0, {}
    for i in range(520):
        key = (i * 31 % 1201, i * 17 % 1201)
        position = bisect_left(data, key)
        row = data[position % size]
        seen[row[0]] = seen.get(row[0], 0) + 1
        total += position + len(row[:1] + key)
    blocks = [array("H", [row[c] for row in data]).tobytes()
              for c in range(3)]
    columns = []
    for block in blocks:
        column = array("H")
        column.frombytes(block)
        columns.append(column.tolist())
    return total + len(list(zip(*columns)))


def speed_factor(samples: int = 5) -> float:
    """How slow the calling thread's CPU is right now: median kernel time
    ÷ ``CAL_REF_S``.

    Each vCPU of this shared box flips, every few seconds and on its own,
    between two speeds 18 % apart (the kernel takes 0.95 or 1.13 ms), and
    CPU time stretches with wall time.  Raw times of identical work on one
    thread therefore differ by up to 25 % between runs; divided by this
    factor, sampled on that thread between cycles, they repeat within a
    few per cent.  It says nothing about the other vCPU, so work done by
    server processes is reported raw.
    """
    timings = []
    for _ in range(samples):
        started = time.perf_counter()
        _calibration_kernel()
        timings.append(time.perf_counter() - started)
    return sorted(timings)[samples // 2] / CAL_REF_S


# ----------------------------------------------------------------------
# Operations and the closed loop
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One operation of a workload's cycle."""

    cell: str
    run: Callable[[], Answer]
    expect: Optional[Answer] = None


@dataclass
class LoopResult:
    """Per cycle: its raw wall time, the machine-speed factor sampled
    around it, and the raw latency of each verified operation."""

    wall_s: float = 0.0
    cycle_s: List[float] = field(default_factory=list)
    speed: List[float] = field(default_factory=list)
    op_ms: List[List[float]] = field(default_factory=list)
    calibration_s: float = 0.0
    rows: int = 0          # answer tuples delivered or counted
    fetched: int = 0       # the delivered part: rows that crossed to the caller
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    @property
    def cycles(self) -> int:
        return len(self.cycle_s)

    def _factors(self, calibrated: bool) -> List[float]:
        return self.speed if calibrated else [1.0] * self.cycles

    def mean_speed(self) -> float:
        """Raw loop time ÷ calibrated loop time."""
        calibrated = sum(s / f for s, f in zip(self.cycle_s, self.speed))
        return sum(self.cycle_s) / calibrated if calibrated else 1.0

    def latencies_ms(self, calibrated: bool = True) -> List[float]:
        return [value / factor
                for values, factor in zip(self.op_ms,
                                          self._factors(calibrated))
                for value in values]

    def per_second(self, amount: int, calibrated: bool = True) -> float:
        """``amount`` (a whole-loop total) per second, from the median
        cycle: a cycle that hit a stall does not drag it."""
        if not self.cycle_s:
            return 0.0
        return amount / self.cycles / statistics.median(
            s / f for s, f in zip(self.cycle_s, self._factors(calibrated)))


def _drive(client: int, cycle: Sequence[Op], first_op: int,
           result: LoopResult, lock: threading.Lock, recorder,
           latencies: List[float]) -> None:
    """One client's pass over its cycle; ``latencies`` gets each verified
    operation's milliseconds."""
    rows = fetched = failed = 0
    errors: List[str] = []
    for index, op in enumerate(cycle):
        if recorder is not None:
            recorder.begin_op(client * 10_000_000 + first_op + index,
                              op.cell)
        started = time.perf_counter()
        try:
            got = op.run()
            error = None if got == op.expect else (
                f"{op.cell}: expected {op.expect}, got {got}")
        except Exception as exc:  # a failed op is a counted failure
            error = f"{op.cell}: {type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        if recorder is not None:
            recorder.end_op()
        if error is None:
            rows += got[0]
            if got[1] is not None:
                fetched += got[0]
            latencies.append((ended - started) * 1e3)
        else:
            failed += 1
            errors.append(error)
    with lock:
        result.rows += rows
        result.fetched += fetched
        result.attempted += len(cycle)
        result.failed += failed
        result.errors.extend(errors[:5 - len(result.errors)])


def run_loop(clients: Sequence[Sequence[Op]], seconds: float,
             recorder=None) -> LoopResult:
    """Closed loop: each client issues its next operation only after the
    previous answer is fully consumed and verified.  Whole cycles only
    (every run measures the same mix), all clients in step, one thread
    per client.  Machine speed is sampled between cycles, never inside
    one."""
    result = LoopResult()
    lock = threading.Lock()
    result.start_ns = time.perf_counter_ns()
    started = time.perf_counter()
    before = speed_factor()
    result.calibration_s = time.perf_counter() - started
    done = 0
    while True:
        latencies: List[List[float]] = [[] for _ in clients]
        cycle_started = time.perf_counter()
        if len(clients) == 1:
            # On this thread, so the speed samples are taken on the CPU
            # the operations ran on.
            _drive(0, clients[0], done, result, lock, recorder, latencies[0])
        else:
            threads = [
                threading.Thread(target=_drive, args=(
                    index, cycle, done, result, lock, recorder,
                    latencies[index]))
                for index, cycle in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        cycle_ended = time.perf_counter()
        after = speed_factor()
        result.calibration_s += time.perf_counter() - cycle_ended
        result.cycle_s.append(cycle_ended - cycle_started)
        result.speed.append((before + after) / 2)
        result.op_ms.append([value for mine in latencies for value in mine])
        before = after
        done += max(len(cycle) for cycle in clients)
        if time.perf_counter() - started >= seconds:
            break
    result.wall_s = time.perf_counter() - started
    result.end_ns = time.perf_counter_ns()
    return result


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between cells)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def process_tree(root: Optional[int] = None) -> List[int]:
    """``root`` (default: this process) and every live descendant."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ")".
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Sequence[int]) -> Dict[int, float]:
    """user+sys CPU of each live pid (children already reaped by a pid
    are included through its cutime/cstime)."""
    usage: Dict[int, float] = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        usage[pid] = sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICKS
    return usage


def peak_rss_mib(pids: Sequence[int]) -> float:
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        except OSError:
            continue
        if match:
            total += int(match.group(1)) / 1024.0
    return total


# ----------------------------------------------------------------------
# Server subprocesses
# ----------------------------------------------------------------------
def free_ports(count: int) -> List[int]:
    """Ports probed free just before launch (peers must know each other's
    address up front, so ``--port 0`` is not an option for a fleet)."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class ServerProc:
    """One ``repro server`` subprocess: the real product, or the same
    product under the benchmark's wrappers when ``spans_path`` is set."""

    def __init__(self, arguments: Sequence[str],
                 spans_path: Optional[str] = None) -> None:
        self.spans_path = spans_path
        self.started = time.perf_counter()
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "server"]
        else:
            command = [sys.executable, str(PERF / "traced_server.py"),
                       spans_path]
        self.process = subprocess.Popen(
            command + list(arguments) + ["--log-level", "warning"],
            env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.url: Optional[str] = None
        self.ready_s: Optional[float] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the server prints its URL line."""
        timer = threading.Timer(timeout, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        match = re.search(r"repro://[^\s;]+", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.url = match.group(0)
        self.ready_s = time.perf_counter() - self.started
        return self.url

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM, then kill; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_servers(argument_sets: Sequence[Sequence[str]],
                  spans_paths: Optional[Sequence[str]] = None
                  ) -> List[ServerProc]:
    """Launch servers side by side; on any failure none is left behind."""
    servers: List[ServerProc] = []
    try:
        for index, arguments in enumerate(argument_sets):
            servers.append(ServerProc(
                arguments, spans_paths[index] if spans_paths else None))
        for server in servers:
            server.wait_ready()
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return servers


def kill_group(process: subprocess.Popen) -> None:
    """Stop a child started with ``start_new_session=True`` and everything
    it spawned: SIGTERM to the group, then SIGKILL."""
    for signum in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(process.pid, signum)
        except ProcessLookupError:
            break
        try:
            process.wait(timeout=10)
            break
        except subprocess.TimeoutExpired:
            continue


def interrupt_on_sigterm() -> None:
    """Turn SIGTERM into KeyboardInterrupt so ``finally`` blocks reap the
    servers before this process dies."""
    owner = os.getpid()

    def handler(signum, frame):
        if os.getpid() == owner:
            raise KeyboardInterrupt
        # A forked pool worker inherits this handler; it should just die.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
    signal.signal(signal.SIGTERM, handler)

