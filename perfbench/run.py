"""pinchcert benchmark: three closed-loop workloads, checked against known answers.

Run from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client in one process sends the next operation when the previous one
returns.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures every layer through spans installed around
pinchcert's public functions, alternating untraced and traced passes over
the head of the workload's op cycle so the tracing overhead is measured in
the same run.

Times are reported at a reference speed.  A fixed loop that uses no
pinchcert code runs between timed ops, and each op's time is scaled by
how much slower or faster than 1 ms per repetition that loop ran beside
it; a bare interpreter importing numpy runs between set-up probes, and
each probe is scaled by how much slower or faster than 0.15 s that import
ran beside it.  On a shared host the CPU speed can drift by a third within
minutes; the scaling cancels the drift, not a change in pinchcert.
Wall-clock values are printed beside them.

The last line of standard output is one JSON object; the lines before it
say the same in words.  See perfbench/README.md for why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("certify", "sweep", "lab")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

#: repetitions of the reference loop beside each op, about a tenth of an op
REFERENCE_REPS = {"certify": 5, "sweep": 20, "lab": 20}
#: one repetition at the reference speed, by definition
REFERENCE_REP_MS = 1.0
#: a fresh interpreter's ``import numpy`` at the reference speed, by definition
REFERENCE_IMPORT_S = 0.15
_IMPORT_PROBE = ("import time; started = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - started)")

_REF_COEFFS = [Fraction(3 * i + 1, 7 * i + 2) for i in range(7)]
_REF_POINTS = [Fraction(k, 97) for k in range(1, 21)]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import, input generation and one warm-up op, then exit")
    return parser.parse_args(argv)


def _use_checkout_source() -> None:
    """Import pinchcert from this checkout's src/, never from elsewhere."""
    if not (SRC / "pinchcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no pinchcert sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _setup_probe(args) -> int:
    started = time.perf_counter()
    import workloads
    from tracing import NullTracer

    ops = workloads.CYCLES[args.workload](args.seed)
    ops[0].run(NullTracer())
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy, nothing else."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
    return float(done.stdout)


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time in fresh interpreters, one after another.

    Returns the wall times and the same times at the reference speed.  Set-up
    is mostly starting an interpreter and importing, so each probe is scaled
    by a bare ``import numpy`` in a fresh interpreter timed just before and
    just after it, not by the reference loop.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0"]
    wall, scaled = [], []
    before = _import_s()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("error: set-up probe failed")
        after = _import_s()
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        wall.append(seconds)
        scaled.append(seconds * 2 * REFERENCE_IMPORT_S / (before + after))
        before = after
    return wall, scaled


def reference_rep_ms(reps: int) -> float:
    """Milliseconds per repetition of a fixed loop that uses no pinchcert code.

    One repetition evaluates a rational polynomial by Horner's rule at 20
    points and contracts small numpy arrays, in about equal shares: the
    interpreter, Fraction and small-array work pinchcert's ops consist of.
    The garbage collector is off while it runs, so the objects the program
    keeps alive do not change its time.
    """
    import numpy as np

    forms = np.linspace(-1.0, 1.0, 44).reshape(11, 2, 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(reps):
            total = Fraction(0)
            for x in _REF_POINTS:
                value = Fraction(0)
                for c in _REF_COEFFS:
                    value = value * x + c
                total += value
            for _ in range(50):
                gram = np.einsum("aij,bij->ab", forms, forms)
                mean = 0.5 * (forms[:, 0, 0] + forms[:, 1, 1])
                spare = float(np.sum(gram**2)) + float(np.dot(mean, mean))
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    return elapsed * 1e3 / reps


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it.

    Nearest-rank; returns (value, percentile).  With ten samples or fewer
    it falls back to the maximum, reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def _finite(latencies: list[float]) -> list[float]:
    """Latencies of the ops that completed; a failed op has none."""
    return [x for x in latencies if not math.isnan(x)] or [math.nan]


def _timed_phase(runner, seconds: float, tracer, reps: int):
    """Closed loop for ``seconds``; the reference loop runs between ops.

    Returns the ops' wall latencies and the same latencies at the reference
    speed, each scaled by the mean of the reference loop just before and
    just after it.
    """
    wall, scaled = [], []
    index = 0
    before = reference_rep_ms(reps)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or index == 0:
        latency = runner.run(index, tracer)
        after = reference_rep_ms(reps)
        wall.append(latency)
        scaled.append(latency * 2 * REFERENCE_REP_MS / (before + after))
        before = after
        index += 1
    return _finite(wall), _finite(scaled)


def _environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _result(runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(args) -> dict:
    setup_wall, setup = _measure_setup(args)
    import workloads
    from tracing import NullTracer

    runner = workloads.Runner(workloads.CYCLES[args.workload](args.seed))
    tracer = NullTracer()
    runner.run(0, tracer)                       # warm-up, checked but not timed
    reps = REFERENCE_REPS[args.workload]
    reference_rep_ms(reps)                      # warm-up of the reference loop
    wall, latencies = _timed_phase(runner, args.seconds, tracer, reps)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def op_metrics(latencies):
        tail_s, tail_pct = tail(latencies)
        return {
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        }, tail_pct

    ops, tail_pct = op_metrics(latencies)
    wall_ops, _ = op_metrics(wall)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **ops,
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"{args.workload}: {len(latencies)} timed ops, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  setup_s      {statistics.median(setup_wall):.6g} s in wall time")
    for name, (value, unit) in wall_ops.items():
        print(f"  {name:<12} {value:.6g} {unit} in wall time")
    print(f"  op_tail_ms is p{tail_pct} of {len(latencies)} samples")
    print(f"  setup_s samples {[round(s, 4) for s in setup]}")
    print(f"  failed_frac  {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    print(f"  report digest {runner.digest()}")
    return _result(runner, metrics)


def per_layer(args) -> dict:
    import workloads
    from tracing import NullTracer, Tracer, layer_metrics, write_spans

    runner = workloads.Runner(workloads.CYCLES[args.workload](args.seed))
    n_ops = workloads.TRACED_OPS[args.workload]
    null, tracer = NullTracer(), Tracer()
    runner.run(0, null)                         # warm-up fills lazy caches
    # Pairs of one untraced and one traced pass over the first n_ops ops,
    # while another pair still fits in --seconds; counts are per op, so
    # they do not depend on how many pairs ran.
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        plain += [runner.run(i, null) for i in range(n_ops)]
        traced += [runner.run(i, tracer) for i in range(n_ops)]
        now = time.perf_counter()
        if now - started + (now - pair_started) > args.seconds:
            break
    n_traced = len(traced)
    metrics = layer_metrics(tracer, n_traced)
    p50_plain = statistics.median(_finite(plain)) * 1e3
    p50_traced = statistics.median(_finite(traced)) * 1e3
    metrics["trace.overhead_ms"] = (p50_traced - p50_plain, "ms")
    metrics["trace.spans"] = (len(tracer.spans) / n_traced, "count/op")
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    write_spans(tracer, spans_path)

    print(f"{args.workload}: {n_traced} traced and {len(plain)} untraced ops "
          f"over the first {n_ops} ops of the cycle, seed {args.seed}")
    print(f"  op_p50_ms untraced {p50_plain:.6g}, traced {p50_traced:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    print(f"  report digest {runner.digest()}")
    return _result(runner, metrics)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _use_checkout_source()
    # the lab must take its serial path whatever the caller's environment says
    os.environ.pop("PINCHCERT_THREADS", None)
    if args.setup_probe:
        return _setup_probe(args)
    result = per_layer(args) if args.trace else end_to_end(args)
    print(f"environment {json.dumps(_environment(), sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
