"""Tests of the benchmark itself: determinism, oracles, contract.

Run with ``python -m pytest perfbench -q`` from the repository root; the
determinism tests start the benchmark twice per workload (about a minute).
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import shrinker_bridge as sb

F = Fraction
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: work counts that must repeat exactly between two runs with one seed
DETERMINISTIC = (
    "exact_poly.evals",
    "exact_poly.poly_muls",
    "exact_poly.sturm_chains",
    "exact_poly.bisection_steps",
    "exact_poly.max_coeff_bits",
    "param_search.probes",
    "param_search.probes_degenerate",
    "calabi_lab.harmonic_points",
    "report_cli.report_bytes",
    "report_cli.certificates",
)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def _traced(workload: str, seed: int):
    done = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "report digest" in line)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload):
    first, first_digest = _traced(workload, 7)
    second, second_digest = _traced(workload, 7)
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    # reports, wall_time_ms stripped, are byte-identical across runs
    assert first_digest == second_digest


def test_traced_run_reports_every_layer_where_it_runs():
    result, _ = _traced("certify", 3)
    metrics = result["metrics"]
    assert metrics["exact_poly.evals"]["value"] > 0
    assert metrics["pinching_bounds.poly_builds"]["value"] > 0
    assert metrics["report_cli.certificates"]["value"] == 7
    assert metrics["shrinker_bridge.classify_calls"]["value"] == workloads.CLASSIFY_QUERIES_PER_OP
    assert metrics["calabi_lab.samples"]["value"] == 0
    assert metrics["param_search.probes"]["value"] == 0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer_names = [name for name, _, _ in tracing.LAYER_METRICS]
    layer_names += ["trace.overhead_ms", "trace.spans"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb",
    }


def test_result_line_carries_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0


def test_fails_without_pinchcert_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 101)]
    value, pct = run.tail(latencies)
    assert pct == 90
    assert sum(x > value for x in latencies) == 10
    value, pct = run.tail([float(i) for i in range(1, 73)])
    assert sum(x > value for x in range(1, 73)) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_tracer_restores_every_original():
    before = {name: getattr(ps, name) for name in dir(ps)}
    call = ep.Polynomial.__call__
    tracer = tracing.Tracer()
    with tracer.op(0):
        assert ps.count_roots is not before["count_roots"]
        ps.right_threshold(F(1, 4))
    assert {name: getattr(ps, name) for name in dir(ps)} == before
    assert ep.Polynomial.__call__ is call
    assert tracer.counts["exact_poly.evals"] > 0


def test_oracle_thresholds_match_the_paper_brackets():
    lo, hi = oracles.THETA2_QUARTER_BRACKET
    assert float(lo) < oracles.right_threshold(F(1, 4)) < float(hi)
    lo, hi = oracles.THETA1_BRACKET
    (left,) = oracles.left_thresholds([F(1, 2)], [F(5, 3)])
    assert float(lo) < left < float(hi)
    assert oracles.left_thresholds([F(1, 2)], [F(9, 5)])[0] == float(oracles.DOMAIN_LO)
    assert oracles.right_threshold(F(1, 2)) == float(oracles.DOMAIN_HI)
    assert oracles.calabi_S(3) == pytest.approx(5 / 3)
    assert oracles.calabi_S(4) == pytest.approx(9 / 5)


def test_classify_table_rows_hold():
    import random

    rng = random.Random(0)
    for label, make, verdict in oracles.CLASSIFY_TABLE:
        for _ in range(20):
            lo, hi, nonvanishing, parallel = make(rng)
            data = sb.ShrinkerPinchData(lo, hi, nonvanishing, parallel)
            assert sb.classify(data).verdict == verdict, label
