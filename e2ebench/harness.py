"""Shared machinery of the end-to-end benchmark.

Nothing here imports ``repro``: the reference kernel that normalises
times, the in-memory span tracer, percentiles, peak RSS, the CLI start
probes (run in fresh interpreter processes) and the per-operation
attempt/failure ledger.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout (the directory holding ``src/`` and this folder).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Milliseconds the reference kernel takes on the reference machine.
#: A time normalised by it reads as milliseconds on a machine of that
#: speed (unit ``ref-ms``; ``setup_s`` is in seconds at that speed).
#: Fixed once; never re-tuned, or every earlier figure changes meaning.
REF_KERNEL_MS = 5.0


def ref_kernel() -> int:
    """A few milliseconds of pure-Python dict arithmetic.

    The kind of work the engine does: hashing ints, inserting into and
    probing a dict that outgrows the CPU's private caches, so both
    interpreter speed and memory speed on this machine, at this moment,
    scale the kernel as they scale the workloads.  It allocates no
    object the cyclic garbage collector tracks, so its time does not
    grow with the heap a workload has built.
    """
    table: dict[int, int] = {}
    for i in range(20000):
        table[(i * 7919) % 100003] = i
    total = 0
    for i in range(20000):
        total += table.get((i * 104729) % 100003, 0)
    return total


class Clock:
    """Times operations and normalises them by the reference kernel.

    ``sample()`` runs the kernel once, in the calling thread, and keeps
    its duration; callers invoke it between operations.  Machine speed
    drifts within a run as well as between runs, so an operation is
    normalised by the kernel samples taken around it (``normalise``);
    ``ref`` uses the run's median and serves per-layer figures.
    """

    #: Kernel samples on each side of an operation that set its speed.
    WINDOW = 1

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        # Unrecorded: the first call in a process also faults in the
        # heap pages its dict grows into, and ran 20-40% slow.
        ref_kernel()

    def sample(self) -> float:
        start = time.perf_counter()
        ref_kernel()
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        return elapsed

    def mark(self) -> int:
        """Position of an operation among the kernel samples."""
        return len(self.kernel_s)

    def kernel_median_s(self) -> float:
        if not self.kernel_s:
            self.sample()
        return statistics.median(self.kernel_s)

    def ref(self, raw_s: float) -> float:
        """Raw seconds -> reference seconds at the run's median speed."""
        return raw_s * (REF_KERNEL_MS / 1000.0) / self.kernel_median_s()

    def ref_ms(self, raw_s: float) -> float:
        return self.ref(raw_s) * 1000.0

    def speed(self, mark: int) -> float:
        """Reference seconds per raw second for an operation at ``mark``:
        from the median of the kernel samples nearest it."""
        count = len(self.kernel_s)
        low = max(0, min(mark - 1 - self.WINDOW, count - 1 - 2 * self.WINDOW))
        window = self.kernel_s[low:low + 2 * self.WINDOW + 1]
        return REF_KERNEL_MS / 1000.0 / statistics.median(window)

    def normalise(self, timed: list[tuple[float, int]]) -> list[float]:
        """(raw seconds, mark) pairs -> reference seconds."""
        return [raw_s * self.speed(mark) for raw_s, mark in timed]

    def summary(self, ops: list[list[tuple[float, int]]], statistic,
                scale: float = 1.0) -> tuple[float, float]:
        """``statistic`` of the raw and of the normalised times of
        operations timed in parts, each part a (raw seconds, mark) pair
        normalised by the kernel samples around it."""
        raw = [sum(raw_s for raw_s, _ in parts) for parts in ops]
        ref = [sum(self.normalise(parts)) for parts in ops]
        return statistic(raw) * scale, statistic(ref) * scale


def ring_with_chords(nodes: int, chords: int, rng) -> list[tuple]:
    """A directed ring over ``n0..n<nodes-1>`` plus distinct random chords.

    The ring makes the graph strongly connected whatever the seed, so
    every node reaches every node and the closure holds exactly
    ``nodes**2`` facts; the seed only places the chords, which set the
    path lengths a fixpoint walks.
    """
    ring = [(f"n{i}", f"n{(i + 1) % nodes}") for i in range(nodes)]
    taken = set(ring)
    extra = []
    while len(extra) < chords:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        edge = (f"n{a}", f"n{b}")
        if a != b and edge not in taken:
            taken.add(edge)
            extra.append(edge)
    return ring + extra


def circulant(nodes: int, step: int) -> list[tuple]:
    """The ring ``n_i -> n_(i+1)`` plus the chords ``n_i -> n_(i+step)``.

    Every node looks alike, so a change's cost depends on the change,
    not on where a seed happened to place the chords.
    """
    return [(f"n{i}", f"n{(i + hop) % nodes}") for hop in (1, step)
            for i in range(nodes)]


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted): the
    smallest value with at least ``fraction`` of the samples at or below
    it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


#: Fresh CLI processes started per run.
CLI_STARTS = 11

# A child process times the reference kernel itself before doing its
# work: machine speed differs between processes (and the cores they land
# on) far more than within one, so a child's time is normalised by its
# own kernel, never by the parent's.
_CHILD = """import sys, time
{kernel}
def samples(times):
    for _ in range(3):
        start = time.perf_counter()
        ref_kernel()
        times.append(time.perf_counter() - start)
times = []
samples(times)
try:
{work}
except SystemExit as stop:
    if stop.code not in (None, 0):
        raise
samples(times)
times.sort()
sys.stdout.write("\\nkernel %r %r\\n" % ((times[2] + times[3]) / 2,
                                         sum(times)))
"""

_CLI_WORK = """    sys.argv = ["repro", "--help"]
    import runpy
    runpy.run_module("repro", run_name="__main__", alter_sys=True)"""

_IMPORT_WORK = """    start = time.perf_counter()
    import repro.cli
    elapsed = time.perf_counter() - start
    ours = sum(1 for m in sys.modules
               if m == "repro" or m.startswith("repro."))
    print(elapsed, ours, len(sys.modules))"""


def _child(work: str, timeout_s: float) -> tuple[float, float, float, str]:
    """Run ``work`` in a fresh interpreter between its own kernel samples.

    Returns (wall seconds less the kernel samples, child kernel median
    seconds, same in reference units, the rest of standard output).
    """
    code = _CHILD.format(kernel=inspect.getsource(ref_kernel), work=work)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), timeout=timeout_s,
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child exited {done.returncode}: "
                           + done.stderr[-400:])
    rest, _, last = done.stdout.rstrip("\n").rpartition("\nkernel ")
    kernel, total = (float(x) for x in last.split())
    return wall - total, kernel, REF_KERNEL_MS / 1000.0 / kernel, rest


def cli_starts(ledger: "Ledger", problems: list[str],
               count: int = CLI_STARTS) -> tuple[float, float]:
    """Median (raw, reference) seconds of fresh ``python -m repro --help``
    processes (each one's interpreter start, imports and help output)."""
    raw, ref = [], []
    for _ in range(count):
        try:
            seconds, _, scale, _ = _child(_CLI_WORK, timeout_s=60.0)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
            ledger.attempt("cli_start", False)
            problems.append(str(error))
            continue
        ledger.attempt("cli_start", True)
        raw.append(seconds)
        ref.append(seconds * scale)
    if not raw:
        return float("nan"), float("nan")
    return statistics.median(raw), statistics.median(ref)


def cli_import_probe(timeout_s: float = 60.0) -> tuple[float, int, int]:
    """(reference seconds to ``import repro.cli``, repro modules, all
    modules) measured in a fresh interpreter."""
    _, _, scale, out = _child(_IMPORT_WORK, timeout_s)
    seconds, ours, total = out.split()
    return float(seconds) * scale, int(ours), int(total)


class Ledger:
    """Operations attempted and failed, per operation type."""

    def __init__(self) -> None:
        self.ops: dict[str, dict[str, int]] = {}

    def attempt(self, op: str, ok: bool) -> None:
        entry = self.ops.setdefault(op, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        if not ok:
            entry["failed"] += 1

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.ops.values())


class Tracer:
    """In-memory spans: name, start, end, parent.

    Disabled tracers cost one attribute test per span.  Self time of a
    span is its duration minus the time its direct children cover.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a named counter recorded at a boundary."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self times (seconds), one per span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, list[float]] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None:
                continue
            duration = span["end"] - span["start"]
            out.setdefault(span["name"], []).append(
                duration - child_time[index])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [{"id": i, "name": s["name"], "parent": s["parent"],
                 "start_s": s["start"] - origin,
                 "end_s": (s["end"] or s["start"]) - origin}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}))


def out_dir() -> Path:
    """Where runs leave span dumps and reports (ignored by git)."""
    return ROOT / ".e2ebench_out"


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """Median traced operation time over median untraced, in percent."""
    if not traced or not plain:
        return 0.0
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base * 100.0
