"""Workload-independent parts of the benchmark: the timed unit loop with
per-unit failure isolation, latency percentiles, and the host calibration
loop.  Nothing here imports dronecoal, so it can be tested on its own.

Host speed on a shared machine drifts by tens of percent within seconds,
so the loop also times short slices of a fixed calibration workload
between units.  A unit's time divided by the mean of the slices just
before and after it is host-relative ("calib" units); those are what the
benchmark gates.  Raw seconds are reported beside them."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

# Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10          # samples that must lie beyond a reported percentile
CALIB_N = 300_000        # pure-Python iterations of one calibration slice
CALIB_ARRAYS = 5_000     # small numpy array operations of one slice
CALIB_EVERY_S = 0.5      # at most one slice per this many seconds of run

# Failure kinds.  NON_CONVERGED is a unit the program did not complete,
# reported by its output or by the expected non-convergence exception; a
# wrong output and any other exception make the run incorrect.
NON_CONVERGED = "non-converged"
WRONG_OUTPUT = "wrong-output"
CRASHED = "crashed"


@dataclass(frozen=True)
class Unit:
    """One timed call into the program and the check of its output.

    ``check`` returns None when the output is right, else a
    (kind, message) pair with kind NON_CONVERGED or WRONG_OUTPUT.
    """
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str] | None]


@dataclass
class UnitRecord:
    name: str
    seconds: float
    kind: str | None = None          # None when the unit completed
    error: str = ""
    cycle: list[str] = field(default_factory=list)
    calib: float = 0.0   # mean of the slices just before and after the unit


def cycle_of(trace) -> list[str]:
    """The structures a non-converging best-reply run cycles through: the
    shortest tail of the change trace that ends where it began."""
    names = [s if isinstance(s, str) else s.to_string() for s in trace]
    if not names:
        return []
    last = names[-1]
    for period in range(1, len(names)):
        if names[-1 - period] == last:
            return names[-period:]
    return names


def calibrate() -> float:
    """Seconds taken by a fixed slice of work shaped like the program's: a
    pure-Python loop of CALIB_N iterations, then CALIB_ARRAYS operations on
    small numpy arrays.  Either half alone tracks the workloads' unit times
    less closely as host speed changes (their unit times grow faster than
    the pure-Python half, slower than the numpy half)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_N):
        acc = (acc + i * i) % 1_000_003
    total = 0.0
    for i in range(CALIB_ARRAYS):
        total += float((np.full(8, float(i)) * 0.5 + 1.0).sum())
    elapsed = time.perf_counter() - t0
    if acc < 0 or total < 0:   # keeps the loops' results live
        raise AssertionError(acc, total)
    return elapsed


@dataclass
class Run:
    records: list[UnitRecord]
    busy: float                  # seconds inside unit calls
    calib: list[float]           # calibration slices, first and last
                                 # around all units, the rest between them
    passes: int = 0


def run_units(make_pass: Callable[[], Iterable[Unit]], seconds: float,
              non_convergence: type[BaseException],
              clock: Callable[[], float] = time.perf_counter,
              calib: Callable[[], float] = calibrate) -> Run:
    """Run whole passes of ``make_pass()``: one, then more while the next
    is expected to end within ``seconds``.  Every pass has the same units,
    so a faster program measures more passes, never different inputs.

    Output checks run outside the unit time.  A unit that raises is
    recorded with its exception and the loop goes on: ``non_convergence``
    (with the structures of its cycle) counts as NON_CONVERGED, any other
    exception as CRASHED.  Calibration slices are timed before the first
    unit, between units at most once per CALIB_EVERY_S, and after the last.
    """
    run = Run([], 0.0, [calib()])
    bracketed = 0   # records before this one have their slices

    def take_slice():
        nonlocal bracketed
        run.calib.append(calib())
        mean = (run.calib[-2] + run.calib[-1]) / 2
        for record in run.records[bracketed:]:
            record.calib = mean
        bracketed = len(run.records)
        return clock()

    start = last_calib = clock()
    while True:
        for unit in make_pass():
            if clock() - last_calib >= CALIB_EVERY_S:
                last_calib = take_slice()
            t0 = clock()
            try:
                out = unit.run()
            except Exception as exc:
                dt = clock() - t0
                run.busy += dt
                kind = NON_CONVERGED if isinstance(exc, non_convergence) \
                    else CRASHED
                trace = getattr(exc, "trace", None)
                run.records.append(UnitRecord(
                    unit.name, dt, kind, f"{type(exc).__name__}: {exc}",
                    cycle_of(trace) if trace else []))
                continue
            dt = clock() - t0
            run.busy += dt
            verdict = unit.check(out)
            kind, error = verdict if verdict else (None, "")
            run.records.append(UnitRecord(unit.name, dt, kind, error))
        run.passes += 1
        elapsed = clock() - start
        if elapsed * (run.passes + 1) / run.passes > seconds:
            take_slice()
            return run


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None
