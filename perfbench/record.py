"""Record a baseline: every workload over several seeds, plus one traced run each.

Run from the repository root::

    python3 perfbench/record.py --tag seed --seeds 1-10

Writes perfbench/baseline/BENCH_<tag>.json with each end-to-end metric's
ten values, median, quartiles and spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles), one traced
run's per-layer metrics per workload, and the wall time of the full default
sweeps and of a 500-sample lab scan for comparison with older figures.
Seeds run in the outer loop so a slow spell of the machine spreads over all
workloads instead of landing on one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _reference() -> dict:
    """Wall time of the full default sweeps and a 500-sample s=4 lab scan."""
    sys.path.insert(0, str(ROOT / "src"))
    from pinchcert import param_search as ps
    from pinchcert import report_cli as rc

    out = {}
    for name, call in (
        ("optimize_left_default_s", lambda: rc.cmd_optimize("left", ps.default_config("left"))),
        ("optimize_right_default_s", lambda: rc.cmd_optimize("right", ps.default_config("right"))),
        ("lab_s4_500_samples_s", lambda: rc.cmd_lab(4, 500, 0, 1e-3)),
    ):
        started = time.perf_counter()
        report = call()
        out[name] = time.perf_counter() - started
        if not report.all_passed:
            raise SystemExit(f"error: reference run {name} failed")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    seeds = _seeds(args.seeds)
    for seed in seeds:
        for workload in workloads:
            result = _run(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"error: {workload} seed {seed} gave wrong answers")
            for metric in bounds:
                values[workload][metric].append(result["metrics"][metric]["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{m} {values[workload][m][-1]:.4g}" for m in bounds),
                  flush=True)

    record = {"tag": args.tag, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        end_to_end = {m: _summary(values[workload][m]) for m in bounds}
        for metric, summary in end_to_end.items():
            flag = "" if summary["spread"] < bounds[metric] / 3 else "  (over a third of its bound)"
            print(f"{workload} {metric}: median {summary['median']:.4g}, "
                  f"spread {summary['spread']:.4f}, bound {bounds[metric]}{flag}")
        traced = _run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    record["reference"] = _reference()
    print("reference", json.dumps(record["reference"]))
    path = HERE / "baseline" / f"BENCH_{args.tag}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
