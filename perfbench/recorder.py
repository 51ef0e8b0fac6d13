"""Operation timing, output checks and call spans for one benchmark pass.

An operation is the unit a workload times and checks (one protocol, one
Monte-Carlo call, one CLI subprocess). A workload repeats the same list of
operations in rounds, with fresh inputs of the same shape in each round; an
operation is named by its position in that list and its round. Inside an
operation the benchmark makes public calls into the library through
:meth:`Recorder.call`; with tracing on, each call becomes a span whose
parent is the operation's span. Spans stay in memory until the run writes
them out.

A shared host drifts in speed: for tens of seconds at a time the same
code can run up to twice as slowly. So after
every operation of an untraced pass the recorder also times the host probe,
a fixed piece of work that does not touch the library, and scales each
round's times by how fast the probe ran in that round.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

#: the library's modules, which the benchmark treats as its layers
LAYERS = ("qcore", "haar", "protocol", "fidelity", "estimation", "search", "cli")
#: the host probe's median time at the reference host speed; a scaled time is
#: what the measured time would have been had the probe taken exactly this long
PROBE_REFERENCE_S = 1e-3
_PROBE_MATRIX = np.full((32, 32), 0.01 + 0.01j)


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop and a few small NumPy operations.

    About 1 ms on a 2-CPU x86-64 host running at its usual speed. It mixes
    interpreter work and small array operations, as the workloads do.
    """
    start = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    a = _PROBE_MATRIX
    for _ in range(10):
        a = np.exp(1j * 0.01 * (a @ _PROBE_MATRIX).real)
    return time.perf_counter() - start


def speed_factor(probe_seconds) -> float:
    """Factor that scales times measured alongside these probe times to the reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probe_seconds)


@dataclass(frozen=True)
class Failure:
    """One output check that did not hold, or an operation that raised."""

    op: str  # position of the operation in the workload's list
    round: int
    layer: str
    check: str
    expected: str
    observed: str
    tol: str

    def describe(self) -> str:
        return (
            f"{self.op} (round {self.round}): {self.check} [{self.layer}] "
            f"expected {self.expected}, observed {self.observed}, tol {self.tol}"
        )


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>" for calls, "op" for operations
    parent: int | None
    op: str | None  # "<position>@r<round>"
    phase: str  # "setup" or "run"
    start: float
    end: float
    d: int | None = None
    work: float | None = None  # samples, shots or candidates the call processed
    tag: str | None = None
    peak_mb: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Times operations, collects check failures and, when tracing, spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.phase = "setup"
        self.ops: list[tuple[str, int, float]] = []  # (position, round, seconds)
        self.failures: list[Failure] = []
        self.spans: list[Span] = []
        self.probes: dict[int, list[float]] = defaultdict(list)  # round -> probe seconds
        self._op: tuple[str, int] | None = None
        self._op_span: int | None = None
        self._last_call = "bench"

    @contextmanager
    def op(self, position: str, rnd: int):
        """Time one operation; an exception inside it is recorded as a failure."""
        self._op = (position, rnd)
        self._last_call = "bench"
        start = time.perf_counter()
        if self.trace:
            self._op_span = len(self.spans)
            self.spans.append(
                Span(self._op_span, "op", None, f"{position}@r{rnd}", self.phase, start, start)
            )
        try:
            yield
        except Exception as exc:  # the operation failed; record it and carry on
            self.failures.append(
                Failure(position, rnd, self._last_call.split(".", 1)[0], "raised",
                        "no exception", f"{type(exc).__name__}: {exc}", "-")
            )
        finally:
            end = time.perf_counter()
            self.ops.append((position, rnd, end - start))
            if not self.trace:
                self.probes[rnd].append(host_probe())
            if self.trace:
                self.spans[self._op_span].end = end
            self._op = self._op_span = None

    def call(self, name, fn, *args, d=None, work=None, tag=None, memory=False, **kwargs):
        """Call ``fn``; with tracing on, record a span named ``name`` around it."""
        self._last_call = name
        if not self.trace:
            return fn(*args, **kwargs)
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            peak = None
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            op = f"{self._op[0]}@r{self._op[1]}" if self._op else None
            self.spans.append(
                Span(len(self.spans), name, self._op_span, op, self.phase,
                     start, end, d, work, tag, peak)
            )

    def check(self, ok: bool, layer: str, check: str, expected, observed, tol) -> bool:
        """Record a failure unless ``ok``; returns ``ok``."""
        if not ok:
            position, rnd = self._op or ("setup", 0)
            self.failures.append(
                Failure(position, rnd, layer, check, str(expected), str(observed), str(tol))
            )
        return ok

    def failed_ops(self) -> set[tuple[str, int]]:
        return {(f.op, f.round) for f in self.failures}

    def op_seconds(self, scaled: bool) -> dict[str, float]:
        """Each position's median time over the rounds of the pass.

        ``scaled`` multiplies each round's times by that round's speed factor
        first; it needs the probes of an untraced pass.
        """
        factors = {r: speed_factor(p) for r, p in self.probes.items()} if scaled else {}
        times: dict[str, list[float]] = defaultdict(list)
        for position, rnd, seconds in self.ops:
            times[position].append(seconds * factors.get(rnd, 1.0))
        return {position: statistics.median(t) for position, t in times.items()}

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}


def layer_summary(rec: Recorder, wall: float) -> dict[str, dict]:
    """Calls, self time, share of ``wall`` and failed operations per layer, run phase only.

    The benchmark's own time (checks, bookkeeping) is the self time of the
    operation spans and is reported as the layer ``bench``.
    """
    own = self_seconds(rec.spans)
    out = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in LAYERS + ("bench",)}
    for s in rec.spans:
        if s.phase != "run":
            continue
        layer = "bench" if s.name == "op" else s.layer
        out[layer]["self_s"] += own[s.id]
        if s.name != "op":
            out[layer]["calls"] += 1
    for layer in out:
        failed = {(f.op, f.round) for f in rec.failures if f.layer == layer}
        out[layer]["failed"] = len(failed)
        out[layer]["share"] = out[layer]["self_s"] / wall if wall > 0 else 0.0
    return out
