"""Closed-loop measurement, set-up timing and metric assembly.

One client runs ops back to back: the next op starts when the previous one
returns, and the output check runs between them, outside the op's time.
The first two passes always complete; after them, no op starts once
``seconds`` have passed.

Op times are scaled to a fixed machine speed. The probe, a fixed kernel
of benchmark code, runs just before and just after each op, and every
50 ms inside it from a timer signal. The op's wall time, net of the probe
runs inside it, is multiplied by the probe's nominal time (1 ms) over the
mean of the op's probes. On a shared host the same op can run up to twice
as slow for seconds at a time, and runs made minutes apart differ as
much; the probe slows with the op, so the scaled time follows the program,
not the host's load. A workload whose op waits on child processes probes
only before and after it, so that no probe competes with the children for
the cores. Set-up time is not scaled: ``import riccicrit`` slows far less
under load than the probe does, so scaling it made it drift the other way.

A slot's latency is the median of its scaled repeats. Throughput is one
pass's units over the sum of the slot latencies, so every figure covers
the same mix of slots however far the last pass got. A workload with a
single slot repeats it all run long; its latency percentiles use every
repeat.
"""

from __future__ import annotations

import gc
import itertools
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, program_env

SETUP_REPEATS = 9
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import riccicrit; print(time.perf_counter() - t)"

# The probe: an assignment solver's compare-and-subtract scan over rows of
# 2000-bit integers, the arithmetic the program's exact solvers run on. Each
# run scans the next rows of a 5 MB matrix, so that, like the program on
# large inputs, it reads from beyond the core's caches; under load it then
# slows about as much as the program does. It is benchmark code, so no
# change to the program changes its time.
PROBE_BASE = 7**700
PROBE_MATRIX = [[PROBE_BASE * ((i * 31 + j) % 5) + i * j for j in range(200)] for i in range(96)]
PROBE_ROWS = 32
PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.001
_probe_rows = itertools.count()


def probe() -> float:
    """Seconds one run of the probe kernel takes now, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        minv = [PROBE_BASE * 100] * len(PROBE_MATRIX[0])
        for r in range(PROBE_ROWS):
            row = PROBE_MATRIX[next(_probe_rows) % len(PROBE_MATRIX)]
            delta = PROBE_BASE * 50
            for j, c in enumerate(row):
                cur = c - r - j
                if cur < minv[j]:
                    minv[j] = cur
                if minv[j] < delta:
                    delta = minv[j]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class OpTimer:
    """Times one op, net of the probe runs made inside it, and scales it."""

    def __init__(self, probe_inside: bool):
        self.every = PROBE_EVERY_S if probe_inside else 0.0
        self.probes: list[float] = []
        self.inside = 0.0
        self.wall = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        self.probes.append(probe())
        self.t0 = time.perf_counter()
        if self.every:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> bool:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.wall = time.perf_counter() - self.t0 - self.inside
        self.probes.append(probe())
        return False

    def scaled(self) -> float:
        """The op's wall time at the nominal probe speed."""
        return self.wall * PROBE_NOMINAL_S / statistics.fmean(self.probes)


class Loop:
    """Latencies and outcomes of one closed loop."""

    def __init__(self, slots: int):
        self.wall: list[list[float]] = [[] for _ in range(slots)]
        self.latency: list[list[float]] = [[] for _ in range(slots)]
        self.probes: list[float] = []
        self.units = [0] * slots
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def record(self, slot: int, timer: OpTimer) -> None:
        self.wall[slot].append(timer.wall)
        self.latency[slot].append(timer.scaled())
        self.probes.extend(timer.probes)

    def slot_latencies(self) -> list[float]:
        return [statistics.median(lat) for lat in self.latency if lat]

    @property
    def ops_per_s(self) -> float:
        return sum(u for u, lat in zip(self.units, self.latency) if lat) / sum(self.slot_latencies())

    def latency_samples(self) -> list[float]:
        """Each slot's latency; a workload with one slot gives every repeat."""
        filled = [lat for lat in self.latency if lat]
        return list(filled[0]) if len(filled) == 1 else self.slot_latencies()


def closed_loop(wl, seconds: float, op=None, min_passes: int = 2) -> Loop:
    """Passes over ``wl.order``, each on freshly built inputs, so repeats do the same work."""
    op = op or wl.op
    loop = Loop(max(wl.order) + 1)
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        if p >= min_passes and time.perf_counter() >= deadline:
            return loop
        inputs = wl.build()
        for slot in wl.order:
            if p >= min_passes and time.perf_counter() >= deadline:
                return loop
            with OpTimer(wl.probe_inside) as timer:
                try:
                    out = op(inputs, slot, p)
                except Exception:
                    out = None
                    traceback.print_exc(file=sys.stderr)
            loop.attempted += 1
            ok = False
            if out is not None:
                try:
                    ok = wl.check(slot, p, out)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            if not ok:
                loop.failed += 1
                print(f"perfbench: {wl.name} op failed at slot {slot}, pass {p}", file=sys.stderr)
            loop.record(slot, timer)
            loop.units[slot] = wl.units(slot)
        loop.passes += 1
        p += 1


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def import_seconds(root: Path) -> float:
    """Median over fresh interpreters of the time ``import riccicrit`` takes."""
    env = program_env(root / "src")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def timed_builds(wl) -> float:
    """Median time to build the program's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(wl) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = getattr(wl, "peak_tree_kb", 0)
    if children:
        children = max(children, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return (own + children) / 1024


def run(rc, workload: str, seed: int, seconds: float, trace: bool, root: Path, size: str = "full") -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable notes."""
    work_dir = root / ".perfbench" / f"{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](rc, seed, size, work_dir)
    setup_s = import_seconds(root)
    setup_s += timed_builds(wl)
    notes = [f"{workload} seed={seed}: {wl.describe()}"]
    if trace:
        metrics, loop = traced_run(wl, seconds, work_dir, notes)
    else:
        loop = closed_loop(wl, seconds)
        metrics = end_to_end(wl, loop, setup_s, notes)
    notes.append(f"{loop.attempted} ops, {loop.failed} failed, {loop.passes} whole passes of {len(wl.order)}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, notes


def end_to_end(wl, loop: Loop, setup_s: float, notes: list[str]) -> dict:
    samples = loop.latency_samples()
    tail_s, pct, n = tail(samples)
    notes.append(f"op_tail_ms is p{pct:.1f} of {n} op latencies ({10 if n > 10 else 0} beyond)")
    raw = loop.wall[0] if len(loop.wall) == 1 else [statistics.median(w) for w in loop.wall if w]
    notes.append(
        f"probe {min(loop.probes) * 1e3:.3f} ms fastest, {statistics.median(loop.probes) * 1e3:.3f} ms median, "
        f"{PROBE_NOMINAL_S * 1e3:g} ms nominal; unscaled op_p50_ms {statistics.median(raw) * 1e3:.3f}"
    )
    sums = getattr(wl, "edit_sums", None)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
        "success_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        # Workloads without edit sets answer exactly: their ratio is 1.
        "greedy_edits_over_opt": (sums["greedy"] / sums["opt"] if sums else 1.0, "ratio"),
        "randomized_edits_over_opt": (sums["randomized"] / sums["opt"] if sums else 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(wl, seconds: float, work_dir: Path, notes: list[str]) -> tuple[dict, Loop]:
    """Untraced then traced passes of the same ops; per-layer metrics from the traced half.

    On cli-batch-weighted the subprocess invocations run first (they cannot
    be traced from here), then the same batch runs in-process through
    ``riccicrit.cli.main --jobs 1``: untraced for the single-threaded
    baseline, then traced for the worker-side layer split.
    """
    cli_layer = {"cli.invocations": 0, "cli.wall_s": 0.0, "cli.output_bytes": 0, "cli.pickled_bytes": 0, "cli.parallel_efficiency": 0.0}
    op = wl.op
    loop = Loop(max(wl.order) + 1)
    cli = hasattr(wl, "inprocess_op")
    if cli:
        loop = closed_loop(wl, seconds / 2)
        walls = loop.latency_samples()
        cli_layer["cli.invocations"] = len(walls)
        cli_layer["cli.wall_s"] = statistics.median(walls)
        cli_layer["cli.output_bytes"] = statistics.median(wl.output_bytes)
        cli_layer["cli.pickled_bytes"] = wl.pickled_bytes()
        op = wl.inprocess_op
    untraced = closed_loop(wl, 0, op=op, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(wl, 0, op=op, min_passes=1)
    finally:
        tracer.uninstall()
    tracer.write(work_dir / "spans.json.gz")
    if cli:
        cli_layer["cli.parallel_efficiency"] = statistics.median(untraced.latency_samples()) / (2 * cli_layer["cli.wall_s"])
    for part in (untraced, traced):
        loop.attempted += part.attempted
        loop.failed += part.failed
        loop.passes += part.passes
    layer = tracer.layer_metrics()
    layer.update(cli_layer)
    layer["trace.untraced_ops_per_s"] = untraced.ops_per_s
    layer["trace.traced_ops_per_s"] = traced.ops_per_s
    layer["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
    notes.append(f"{len(tracer.span_name)} spans written to {work_dir / 'spans.json.gz'}")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}, loop


def layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"
