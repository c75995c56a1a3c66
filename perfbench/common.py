"""Shared pieces of the benchmark: paths, spans, digests, diagnostics.

Nothing here imports ``repro``; the worker adds ``src/`` to the path
before any workload module is loaded.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep-ior-120", "plan-shapes", "serve-mixed")

#: fixed hash seed for every interpreter the benchmark starts
HASH_SEED = "0"


class CheckFailed(Exception):
    """An output check found a wrong result (the benchmark is incorrect)."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict[str, str]:
    """Environment for interpreters the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percent, value)`` or ``None`` when there are too few
    samples for any tail (fewer than ``4 * beyond``).
    """
    n = len(values)
    if n < 4 * beyond:
        return None
    ordered = sorted(values)
    index = n - beyond - 1
    return 100.0 * (index + 1) / n, ordered[index]


def plan_digest(plan_dict: dict) -> str:
    """Content digest of a plan dict (canonical JSON, like the cache)."""
    text = json.dumps(plan_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, this one by default."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent index, op id]``; spans of one
    op share the op id. Collector pauses are timed through
    ``gc.callbacks`` while an op is open.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.n_ops = 0
        self._stack: list[int] = []
        self._gc_t0 = 0.0
        self.gc_s = 0.0
        self.gc_n = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_n += 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, root: str):
        """One traced op: a root span plus collector timing."""
        self.op += 1
        self.n_ops += 1
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(root):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name over every op."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] += (end - start) - child_s[i]
        return dict(totals)

    @staticmethod
    def span_cost_s(n: int = 20_000) -> float:
        """Measured cost of recording one span (enter + exit)."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def root_walls(self) -> list[float]:
        return [end - start for _n, start, end, parent, _o in self.spans if parent is None]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p, "op": o}
             for n, s, e, p, o in self.spans]
        ))


def descendants(pid: int) -> list[int]:
    """``pid`` and every process below it, from the parent field of
    ``/proc/<pid>/stat``."""
    parents: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # ended while we looked
        parents[int(stat.rsplit(")", 1)[1].split()[1])].append(int(entry))
    tree = [pid]
    for node in tree:
        tree.extend(parents.get(node, []))
    return tree


def cpu_s(pids: list[int]) -> float:
    """CPU seconds used so far by every live thread of ``pids``.

    Reads each thread's ``schedstat`` (nanoseconds on a CPU). Like
    ``time.process_time`` it leaves out the time the host took the
    virtual CPU away (steal).
    """
    total_ns = 0
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total_ns += int(fh.read().split()[0])
            except OSError:
                pass  # the thread ended while we looked
    return total_ns / 1e9


#: iterations of the yardstick loop
YARDSTICK_LOOPS = 200_000
#: CPU seconds :func:`yardstick_s` takes on the machine the README's figures
#: come from. Reported times are scaled to this host speed.
YARDSTICK_NOMINAL_S = 0.025
#: the timed loop runs the yardstick at most once per this many seconds
YARDSTICK_EVERY_S = 0.5


def yardstick_s() -> float:
    """CPU seconds of a fixed pure-Python integer loop: the host's speed.

    It creates no object the collector tracks, so the program's live
    heap cannot slow it.
    """
    c0 = time.process_time()
    acc = 0
    for i in range(YARDSTICK_LOOPS):
        acc += i * i & 7
    return time.process_time() - c0


def read_steal_s() -> float:
    """Host steal time so far, from the ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return float("nan")
    ticks = int(fields[8]) if len(fields) > 8 else 0
    return ticks / os.sysconf("SC_CLK_TCK")
