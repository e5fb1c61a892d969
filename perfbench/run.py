"""Benchmark of the dronecoal batch pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The workloads are defined in workloads.py;
each runs in this one process, single-threaded, with BLAS pinned to one
thread.

Each workload has a fixed manifest made from --seed; one pass runs all of
its units.  --trace 0 runs one pass, then more while the next is expected
to end within --seconds, and reports the end-to-end metrics.  Because host
speed on a shared machine drifts by tens of percent within seconds, unit
times are gated in "calib" units, multiples of the calibration slices
timed around each unit (see harness.py).  setup_s is timed in fresh
processes, each paired with a reference process that only starts Python
and imports numpy and scipy, and is reported as seconds of a host on which
that reference takes REF_STARTUP_S.  Raw seconds are printed beside them.

--trace 1 runs one pass twice, first plain and then with every public
layer function traced, and reports per-layer calls, total and self time,
counters, and the tracing overhead; its counts repeat exactly for a given
seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A run record with the host,
versions and failures is written under .bench_runs/.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:   # before anything loads numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (CRASHED, WRONG_OUTPUT,  # noqa: E402
                     calibrate, percentile, run_units, tail_percentile)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 5       # set-up / reference pairs timed; the median counts
REF_STARTUP_S = 0.5    # reference process time on a quiet host
REF_CODE = "import time, numpy, scipy.optimize; print(repr(time.monotonic()))"
PROBE_TIMEOUT_S = 120
EDGE_SLICES = 5        # calibration slices before and after the units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workloads():
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads.WORKLOADS


def non_convergence_error():
    from dronecoal import NonConvergenceError
    return NonConvergenceError


def setup_probe(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the point where this
    workload's first unit could start (import dronecoal, make inputs), and
    the seconds the reference process takes right before it."""
    def ready_after(cmd):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        return float(proc.stdout.split()[-1]) - t0

    ref = ready_after([sys.executable, "-c", REF_CODE])
    setup = ready_after([sys.executable, __file__, "--setup-probe",
                         "--workload", args.workload, "--seed",
                         str(args.seed)])
    return setup, ref


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(workload, args, scratch, seconds):
    """Set-up plus whole passes (one when ``seconds`` is 0); returns
    (inputs, run, wall seconds)."""
    t0 = time.perf_counter()
    inputs = workload.setup(args.seed, scratch)
    run = run_units(lambda: workload.units(inputs), seconds,
                    non_convergence_error())
    return inputs, run, time.perf_counter() - t0


def end_to_end(run, setup_samples):
    """Gated metrics and the report lines, raw seconds included."""
    records = run.records
    done = sorted(r.seconds for r in records if r.kind is None)
    p50 = percentile(done, 50) if done else None
    done_calib = sorted(r.seconds / r.calib for r in records
                        if r.kind is None)
    busy_calib = math.fsum(r.seconds / r.calib for r in records)
    setup = statistics.median(
        REF_STARTUP_S * wall / ref for wall, ref in setup_samples)
    metrics = {
        "setup_s": (setup, "s"),
        "units_per_calib": (len(done) / busy_calib, "1/calib"),
        "unit_calib.p50": (percentile(done_calib, 50) if done else None,
                           "calib"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    walls, refs = zip(*setup_samples)
    lines = [f"setup_s {setup!r} s (median of {len(setup_samples)} "
             f"fresh-process set-ups over their reference process, times "
             f"{REF_STARTUP_S} s; medians {statistics.median(walls)!r} s "
             f"set-up, {statistics.median(refs)!r} s reference)",
             f"units_per_s {len(done) / run.busy!r} 1/s",
             f"units_per_calib {metrics['units_per_calib'][0]!r} 1/calib",
             f"unit_s.p50 {p50!r} s (n={len(done)})",
             f"unit_calib.p50 {metrics['unit_calib.p50'][0]!r} calib"]
    tail = tail_percentile(len(done))
    if tail is not None and tail > 50:
        lines.append(f"unit_s.p{tail:g} {percentile(done, tail)!r} s "
                     f"(n={len(done)})")
    failed = sum(r.kind is not None for r in records)
    lines.append(f"failed_share {failed / len(records)!r} "
                 f"({failed}/{len(records)}; passes: {run.passes})")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]!r} MB")
    return metrics, lines


def traced(workload, args, scratch):
    """One pass twice, plain and then traced; returns the traced pass, the
    plain pass's records, per-layer metrics and lines."""
    import tracer
    _, plain, plain_wall = measure(workload, args, scratch, 0)
    spans = tracer.Tracer()
    spans.install()
    try:
        inputs, run, traced_wall = measure(workload, args, scratch, 0)
    finally:
        spans.uninstall()
    layer = spans.summary()
    layer["trace.overhead_s"] = traced_wall - plain_wall
    span_file = RUNS / f"{args.workload}-spans.npz"   # latest traced run
    spans.save(span_file)
    lines = [f"plain {plain_wall!r} s, traced {traced_wall!r} s, "
             f"{len(spans.kind)} spans written to "
             f"{span_file.relative_to(ROOT)}",
             "patched " + " ".join(spans.sites)]
    return inputs, run, plain.records, layer, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dronecoal" / "__init__.py").is_file():
        print(f"error: dronecoal sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        load_workloads()[args.workload].setup(args.seed, str(RUNS))
        print(repr(time.monotonic()))
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    catalogue = load_workloads()
    if args.workload not in catalogue:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(catalogue)}", file=sys.stderr)
        return 2
    workload = catalogue[args.workload]
    setup_samples = [] if args.trace else \
        [setup_probe(args) for _ in range(SETUP_PROBES)]
    import numpy
    import scipy

    RUNS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=RUNS)
    try:
        before = [calibrate() for _ in range(EDGE_SLICES)]
        if args.trace:
            inputs, run, plain, layer, lines = traced(workload, args,
                                                      scratch)
        else:
            inputs, run, _ = measure(workload, args, scratch,
                                     args.seconds)
            plain = []
        records = run.records
        finish_lines, finish_errors = workload.finish(inputs, records)
        after = [calibrate() for _ in range(EDGE_SLICES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    slices = before + run.calib + after
    calib = statistics.median(slices)
    if args.trace:
        layer["host.calib_s"] = calib
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(layer.items())}
        lines += [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
    else:
        metrics, lines = end_to_end(run, setup_samples)
    failed = [r for r in records if r.kind is not None]
    correct = not finish_errors and all(
        r.kind not in (WRONG_OUTPUT, CRASHED) for r in plain + records)
    lines += finish_lines
    first_failure = {}
    for r in failed:
        first_failure.setdefault(r.name, r)
    for name, r in first_failure.items():
        times = sum(f.name == name for f in failed)
        lines.append(f"failed {name} [{r.kind}] in {times} of {run.passes} "
                     f"passes: {r.error}"
                     + (f"; cycle {' -> '.join(r.cycle)}" if r.cycle else ""))
    lines += [f"check failed: {e}" for e in finish_errors]
    lines.append(f"host.calib_s {calib!r} s (median of {len(slices)} "
                 f"slices, {min(slices)!r} to {max(slices)!r})")

    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "calib_s": slices,
        "setup_and_reference_s": setup_samples,
        "passes": run.passes,
        "attempted": len(records), "failed": len(failed),
        "correct": correct,
        "failures": [{"unit": r.name, "kind": r.kind, "error": r.error,
                      "cycle": r.cycle} for r in failed],
        "report": lines,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} units attempted, {len(failed)} failed")
    for line in lines:
        print(line)
    print(f"run record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
