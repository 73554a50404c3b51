"""Benchmark of the consonance package, driven only through its public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lattice --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20

Closed loop: one client, one process, one thread, no think time.  The
package is imported from ``src/`` of the checkout and nowhere else.  Inputs
come from ``--seed`` only.  A run

  1. measures set-up (import plus input generation) in fresh interpreters,
     several times, and keeps the median;
  2. runs whole cycles of the workload until ``--seconds`` have passed and at
     least 100 items have run, so the 90th percentile has ten samples beyond;
  3. checks every output, then the criterion-8 anchor cell (outside the
     timed region, whatever the seed);
  4. prints every metric by name with its unit, and as its last line one
     JSON object: ``correct``, ``attempted`` (operations: trials, contours
     or queries), ``failed`` (failed checks) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Their timings are
in "cal": the time one run of a fixed calibration kernel takes beside the
measured item (see ``end_to_end``); the same timings in wall-clock units
(trials_per_s, contour_p90_ms, ...) are printed above the JSON line.  With
``--trace 1`` every item runs both untraced and with span tracing installed,
and the metrics are the per-layer ones, including each layer's share of the
traced time and the tracing overhead; the spans are written to
``perfbench/out/spans-<workload>.csv``.
"""

from __future__ import annotations

import os
import sys

# Measure the default serial path with single-threaded numeric libraries;
# this has to happen before numpy is first imported.
os.environ.pop("CONSONANCE_THREADS", None)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# ``workloads`` is imported only after the package: it imports numpy, whose
# import cost belongs to the measured set-up.
from spans import LAYERS, NO_ITEM, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("coverage-label", "coverage-numeric", "lattice", "predictive")

#: fresh interpreters used to measure set-up; the median is reported
SETUP_PROBES = 5
#: the 90th percentile needs ten samples beyond it
MIN_ITEMS = 100
#: calibration: kernel rounds (about 1 ms), repeats per reading, seconds between readings
CAL_ROUNDS = 3
CAL_REPEATS = 3
CAL_INTERVAL_S = 0.2
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900


#: an operation that raises one of these counts as failed; the run goes on
OP_ERRORS = (ValueError, RuntimeError, AssertionError)


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the package is missing)."""


def import_package():
    """Import consonance from this checkout's ``src/``, refusing any other copy."""
    if not (SRC / "consonance" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'consonance'}")
    sys.path.insert(0, str(SRC))
    import consonance
    import consonance.cli  # noqa: F401  (the cli layer is part of the API surface)

    origin = Path(consonance.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"consonance imported from {origin}, not from {SRC}")
    return consonance


# --------------------------------------------------------------------------
# set-up probes
# --------------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int):
    """Child mode: time import and input generation, print them as JSON."""
    t0 = perf_counter()
    api = import_package()
    t1 = perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload_name].inputs(api, seed)
    t2 = perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3}))


def measure_setup(workload_name: str, seed: int) -> dict:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median((s["import_ms"] + s["inputs_ms"]) / 1e3 for s in samples),
        "import_ms": statistics.median(s["import_ms"] for s in samples),
        "inputs_ms": statistics.median(s["inputs_ms"] for s in samples),
    }


# --------------------------------------------------------------------------
# timed passes
# --------------------------------------------------------------------------


def run_one(workload, api, item):
    """One timed operation: (item, output or the exception it raised, seconds)."""
    t0 = perf_counter()
    try:
        out = workload.run(api, item)
    except OP_ERRORS as exc:
        out = exc
    return item, out, perf_counter() - t0


_CAL_FRACTIONS = tuple(Fraction(k, 101) for k in range(1, 102))


def calibration_kernel():
    """Fixed interpreter-bound work like the package's own: exact
    rational-versus-float comparisons and small-dict updates.  It does not
    touch the package, so no change to the package can change its cost."""
    hits, table = 0, {}
    for _ in range(CAL_ROUNDS):
        hits += sum(1 for f in _CAL_FRACTIONS if f > 0.37)
        for i in range(200):
            table[i % 17] = table.get(i % 17, 0) + i
    return hits, table


def calibrate() -> float:
    """Seconds one kernel run takes right now: the best of a few back to back."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        calibration_kernel()
        best = min(best, perf_counter() - t0)
    return best


def run_timed(workload, api, cycles, seconds: float, min_items: int):
    """Whole cycles until ``seconds`` have passed and ``min_items`` have run.

    Each output is checked as soon as it is timed, and only what the
    workload retains of it is kept, so the outputs do not pile up in the
    measured peak memory.  Between items, at most every CAL_INTERVAL_S, the
    calibration kernel is timed.  Returns the records, the failures and, per
    record, the mean of the readings taken just before and just after it:
    the length of one "cal" at the moment the item ran.
    """
    records, failures, marks = [], [], []  # marks: (index of the next record, calibration seconds)
    start = perf_counter()
    last = float("-inf")
    turn = 0
    while turn == 0 or perf_counter() - start < seconds or len(records) < min_items:
        for item in cycles[turn % len(cycles)]:
            if perf_counter() - last >= CAL_INTERVAL_S:
                marks.append((len(records), calibrate()))
                last = perf_counter()
            item, out, dt = run_one(workload, api, item)
            failures += check_output(workload, item, out)
            records.append((item, workload.retain(out), dt))
        turn += 1
    marks.append((len(records), calibrate()))
    cal_s = []
    for (lo, before), (hi, after) in zip(marks, marks[1:]):
        cal_s += [(before + after) / 2] * (hi - lo)
    return records, failures, cal_s


def run_paired(workload, api, cycles, seconds: float, tracer):
    """Whole cycles; each item runs untraced and traced, alternating which first.

    The order flips from item to item and, for each stratum, from cycle to
    cycle.  That cancels the advantage the second run of an item gets from
    warm caches, so the difference of the two sums is the tracing overhead.
    """
    untraced, traced = [], []
    start = perf_counter()
    turn = 0
    while turn == 0 or perf_counter() - start < seconds:
        for position, item in enumerate(cycles[turn % len(cycles)]):
            for with_trace in ((False, True) if (position + turn) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.item = len(traced)
                    with tracer:
                        traced.append(run_one(workload, api, item))
                    tracer.item = NO_ITEM
                else:
                    untraced.append(run_one(workload, api, item))
        turn += 1
    return untraced, traced


def check_output(workload, item, out) -> list[str]:
    if isinstance(out, BaseException):
        return [f"{type(out).__name__}: {out}"]
    return workload.check(item, out)


def check_records(workload, records) -> list[str]:
    return [msg for item, out, _ in records for msg in check_output(workload, item, out)]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(workload, records, cal_s, setup) -> tuple[dict, dict]:
    """Gated metrics in calibration units, and the same timings in wall time.

    On a shared 2-core Xeon VM the CPU speed was seen to swing by up to 2x
    over tens of seconds, which moved wall-clock medians by 10-20% between
    runs.  Dividing each item's time by the calibration reading taken beside
    it cancels that swing (spreads of 2-7%); the wall-clock figures are
    printed for reading, not gated.
    """
    ops = [workload.ops(item) for item, _, _ in records]
    wall_ms = [dt / n * 1e3 for n, (_, _, dt) in zip(ops, records)]
    cals = [dt / n / c for n, (_, _, dt), c in zip(ops, records, cal_s)]
    gated = {
        "ops_per_cal": sum(ops) / sum(n * c for n, c in zip(ops, cals)),
        "op_p50_cal": statistics.median(cals),
        "op_p90_cal": p90(cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup["setup_s"],
    }
    wall = {
        f"{workload.plural}_per_s": (sum(ops) / sum(dt for _, _, dt in records), "1/s"),
        f"{workload.noun}_p50_ms": (statistics.median(wall_ms), "ms"),
        f"{workload.noun}_p90_ms": (p90(wall_ms), "ms"),
        "cal_ms": (statistics.median(cal_s) * 1e3, "ms"),
    }
    return gated, wall


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(workload, untraced, traced, tracer, setup, extra_s) -> dict:
    from workloads import per_layer_catalogue

    untraced_s = sum(dt for _, _, dt in untraced) + extra_s[0]
    traced_s = sum(dt for _, _, dt in traced) + extra_s[1]
    totals = tracer.totals()
    shares = {f"{layer}.self_share": totals.layer_self(layer) / 1e9 / traced_s for layer in LAYERS}
    metrics = {name: 0.0 for name, _, _ in per_layer_catalogue()}
    metrics.update(shares)
    metrics.update({
        "setup.import_ms": setup["import_ms"],
        "setup.inputs_ms": setup["inputs_ms"],
        "untraced.remainder_share": 1.0 - sum(shares.values()),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    ctx = SimpleNamespace(
        spans=totals,
        traced_items=[item for item, _, _ in traced],
        traced_outs=[out for _, out, _ in traced],
        ok=[i for i, (_, out, _) in enumerate(traced) if not isinstance(out, BaseException)],
        untraced=untraced,
    )
    metrics.update(workload.layer_metrics(ctx))
    return metrics


def environment(workload_name, seed, trace) -> dict:
    import numpy

    return {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "consonance").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int, min_items: int) -> dict:
    setup = measure_setup(name, seed)
    api = import_package()
    from workloads import END_TO_END, WORKLOADS, check_anchor, per_layer_catalogue, run_anchor

    workload = WORKLOADS[name]
    cycles = workload.inputs(api, seed)

    for item in cycles[0]:  # warm-up, neither timed nor checked
        run_one(workload, api, item)
    failures = []
    if trace:
        tracer = Tracer(workload.observers())
        untraced, traced = run_paired(workload, api, cycles, seconds, tracer)
        extra_s = []
        for context in (contextlib.nullcontext(), tracer):
            t0 = perf_counter()
            with context:
                failures += workload.extra(api)
            extra_s.append(perf_counter() - t0)
        failures += check_records(workload, untraced) + check_records(workload, traced)
        failures += [
            f"traced output differs from untraced for item {i}"
            for i, (a, b) in enumerate(zip(untraced, traced))
            if not isinstance(a[1], BaseException) and a[1] != b[1]
        ]
        records, first_pass = untraced + traced, untraced
        metrics = per_layer(workload, untraced, traced, tracer, setup, extra_s)
        units = {n: u for n, u, _ in per_layer_catalogue()}
        readable = {}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}.csv")
        if tracer.skipped:
            print(f"trace: skipped names no longer in the package: {', '.join(tracer.skipped)}")
    else:
        records, failures, cal_s = run_timed(workload, api, cycles, seconds, min_items)
        first_pass = records
        failures += workload.extra(api)
        metrics, readable = end_to_end(workload, records, cal_s, setup)
        units = {n: unit for n, (unit, _) in END_TO_END.items()}
        readable.update(workload.summary(records))
    failures += workload.finish(api, first_pass)
    failures += check_anchor(run_anchor(api))

    attempted = sum(workload.ops(item) for item, _, _ in records)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    if readable:
        print(f"{name} wall clock, not gated ({len(records)} {workload.plural} in the percentiles):")
        for key, (value, unit) in readable.items():
            print(f"{name}   {key} = {value:.6g} {unit}")
    print(f"{name} failed_ratio = {len(failures) / attempted:.6g} ratio ({len(failures)} failed / {attempted} attempted)")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print("env " + json.dumps(environment(name, seed, trace), sort_keys=True))
    return result


def run_all(seed: int, seconds: float, trace: int, min_items: int) -> dict:
    """Every workload, each in a fresh interpreter; metrics keyed workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--min-items", str(min_items)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-items", type=int, default=MIN_ITEMS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace, args.min_items)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.min_items)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
