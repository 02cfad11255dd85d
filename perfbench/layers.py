"""Spans and result capture around the calls into each olfc layer.

The benchmark does not edit olfc. For the length of a run it replaces a few
module and class attributes with wrappers and restores them afterwards:

* always, ``cli.run``, ``cli.settle`` and ``cli.solve_olc``, to keep their
  results for the output gate and the determinism digest, and
  ``ClosedLoop.rk4`` and ``TrajectoryLog.to_csv``, to time the integration
  loops and the CSV export in slices (below);
* with tracing on, also ``cli.load_scenario``, ``Scenario.load_model``,
  ``ClosedLoop.__init__`` and ``cli.check_theorem1``, each recorded as a
  span.

A span holds its name, layer, start, end, the index of the span that
caused it, and the pipeline it belongs to. Spans stay in memory until the
run writes them out. A layer's self time is the length of its spans minus
the part covered by their child spans, so the self times of all layers,
``cli`` included, add up to the time spent in ``cli.main``.

A slice is ``n`` consecutive units of the same work inside one call: RK4
steps of a ``run`` or ``settle`` call, from the start of step ``k * n`` to
the start of step ``(k + 1) * n``, or CSV rows of a ``to_csv`` call, from
the write of row ``k * n`` to the write of row ``(k + 1) * n``. ``n`` is
5, or in a ``run`` the least multiple of 5 and the log decimation, so that
every slice of a ``run`` logs the same number of records; slices last 0.3
to 25 ms on a 2-vCPU Xeon guest. The wrapper on ``ClosedLoop.rk4`` only
counts calls and reads the clock every ``n``-th call. ``to_csv`` writes
through ``numpy.savetxt``, which writes the header and then one row per
``write`` call on the file it opens with ``numpy.lib._datasource.open``;
for the length of a ``to_csv`` call, that function hands out files whose
``write`` is counted the same way. Should ``to_csv`` stop writing row by
row, its calls simply yield no slices.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    pipeline: str


SLICE_UNITS = 5
INTEGRATION_KINDS = ("run", "settle")


@dataclass
class SlicedCall:
    """One ``run``, ``settle`` or ``to_csv`` call: its wall time and its slices."""

    kind: str
    wall_s: float
    units: int  # RK4 steps or CSV rows
    slice_units: int
    slices: list[float]  # seconds per slice of slice_units units


@dataclass
class Capture:
    """What one pipeline's layer calls returned, and how its sliced calls went."""

    runs: list = field(default_factory=list)  # (scenario, model or None, TrajectoryLog)
    settles: list = field(default_factory=list)
    solutions: list = field(default_factory=list)
    sliced: list[SlicedCall] = field(default_factory=list)

    @property
    def integration_s(self) -> float:
        return sum(c.wall_s for c in self.sliced if c.kind in INTEGRATION_KINDS)


class Recorder:
    """Owns the spans of a run and the capture of the current pipeline."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pipeline = ""
        self.capture = Capture()
        self._every = 0  # slice length of the sliced call under way; 0 outside one
        self._skip = 0  # leading ticks that are not units (the CSV header)
        self._ticks = 0
        self._marks: list[float] = []

    def begin(self, pipeline: str) -> Capture:
        self.pipeline = pipeline
        self.capture = Capture()
        return self.capture

    def sliced(self, kind: str, every: int, skip: int, fn, *args, **kwargs):
        """Call fn with the units it ticks timed in slices of `every` units."""
        self._every, self._skip, self._ticks, self._marks = every, skip, 0, []
        t0 = time.perf_counter()
        try:
            return self.call(f"simulator.{kind}", f"simulator.{kind}", fn, *args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            marks = self._marks
            units = max(self._ticks - self._skip, 0)
            self.capture.sliced.append(
                SlicedCall(kind, wall, units, every, [b - a for a, b in zip(marks, marks[1:])])
            )
            self._every = 0

    def tick(self) -> None:
        """Count one unit; read the clock at the start of every slice."""
        if self._every:
            unit = self._ticks - self._skip
            if unit >= 0 and unit % self._every == 0:
                self._marks.append(time.perf_counter())
            self._ticks += 1

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn, inside a span when tracing is on."""
        if not self.trace:
            return fn(*args, **kwargs)
        span = Span(name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.pipeline)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.layer] += (s.end - s.start) - c
        return dict(out)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _traced(rec: Recorder, name: str, layer: str, fn):
    def wrapper(*args, **kwargs):
        return rec.call(name, layer, fn, *args, **kwargs)

    return wrapper


def _captured_run(rec: Recorder, fn):
    def wrapper(scenario, model=None):
        every = math.lcm(SLICE_UNITS, scenario.log_decimation)
        log = rec.sliced("run", every, 0, fn, scenario, model)
        rec.capture.runs.append((scenario, model, log))
        return log

    return wrapper


def _captured_settle(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        result = rec.sliced("settle", SLICE_UNITS, 0, fn, *args, **kwargs)
        rec.capture.settles.append(result)
        return result

    return wrapper


def _counted_rk4(rec: Recorder, fn):
    def rk4(self, *args, **kwargs):
        rec.tick()
        return fn(self, *args, **kwargs)

    return rk4


class _CountedFile:
    """A file whose writes tick the recorder; everything else goes to the file."""

    def __init__(self, fh, rec: Recorder):
        self._fh = fh
        self._rec = rec

    def write(self, text):
        self._rec.tick()
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _sliced_to_csv(rec: Recorder, fn):
    def to_csv(self, path):
        datasource = np.lib._datasource
        opener = datasource.open
        datasource.open = lambda *args, **kwargs: _CountedFile(opener(*args, **kwargs), rec)
        try:
            return rec.sliced("to_csv", SLICE_UNITS, 1, fn, self, path)
        finally:
            datasource.open = opener

    return to_csv


def _captured_solve(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        sol = rec.call("oracle.solve_olc", "oracle", fn, *args, **kwargs)
        rec.capture.solutions.append(sol)
        return sol

    return wrapper


class Instrumented:
    """Context manager that installs the wrappers on olfc and removes them."""

    def __init__(self, rec: Recorder):
        from olfc import cli, simulator

        self._patches = [
            (cli, "run", _captured_run(rec, cli.run)),
            (cli, "settle", _captured_settle(rec, cli.settle)),
            (cli, "solve_olc", _captured_solve(rec, cli.solve_olc)),
            (simulator.ClosedLoop, "rk4", _counted_rk4(rec, simulator.ClosedLoop.rk4)),
            (simulator.TrajectoryLog, "to_csv", _sliced_to_csv(rec, simulator.TrajectoryLog.to_csv)),
        ]
        if rec.trace:
            self._patches += [
                (cli, "load_scenario", _traced(rec, "network.load_scenario", "network", cli.load_scenario)),
                (simulator.Scenario, "load_model",
                 _traced(rec, "network.load_model", "network", simulator.Scenario.load_model)),
                (simulator.ClosedLoop, "__init__",
                 _traced(rec, "simulator.build", "simulator.build", simulator.ClosedLoop.__init__)),
                (cli, "check_theorem1", _traced(rec, "analysis.check_theorem1", "analysis", cli.check_theorem1)),
            ]
        self._saved: list = []

    def __enter__(self):
        for owner, name, wrapper in self._patches:
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span around a call, in seconds."""

    def noop():
        return None

    plain = Recorder(trace=False)
    traced = Recorder(trace=True)
    t0 = time.perf_counter()
    for _ in range(n):
        plain.call("noop", "noop", noop)
    t1 = time.perf_counter()
    for _ in range(n):
        traced.call("noop", "noop", noop)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n
