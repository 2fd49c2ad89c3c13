"""Lab reports are byte-identical to those of the frozen per-field statistics.

``lab_reference.summary`` and ``lab_reference.verify_identities`` take each
statistic and each residual maximum as its own numpy reduction over one
field.  The library stacks the fields and the residuals and reduces each
statistic once along the sample axis.  A stacked row is a contiguous copy of
its field, so every statistic sums the same values in the same pairwise
order.  ``cmd_lab``'s JSON, without ``wall_time_ms`` and without the
identities' ``worst_sample`` (which the frozen path does not compute), and its
markdown must equal the frozen path's for every degree, at sample counts on
both sides of numpy's 8-term pairwise-summation unroll and of the scan's
128-sample block, the last of them with a ragged tail block.
"""

import json

import numpy as np
import pytest

from pinchcert import calabi_lab as cl
from pinchcert import report_cli as rc

import lab_reference

SAMPLE_COUNTS = (1, 7, 8, 9, 127, 128, 129, 300)
SEEDS = (0, 5, 2024)


def _without_worst_sample(report: rc.CertificationReport) -> dict:
    data = json.loads(report.to_json_str(strip_wall_time=True))
    for scan in data["scans"]:
        for row in scan["identities"]["residuals"]:
            row.pop("worst_sample")
    return data


def _frozen_lab(monkeypatch, s: int, n: int, seed: int) -> rc.CertificationReport:
    with monkeypatch.context() as m:
        m.setattr(cl.GeometryScan, "summary", lab_reference.summary)
        m.setattr(cl, "verify_identities", lab_reference.verify_identities)
        return rc.cmd_lab(s, n, seed)


def test_sample_counts_cover_the_summation_and_scan_blocks():
    assert {7, 8, 9} <= set(SAMPLE_COUNTS)
    assert {cl.SCAN_BLOCK - 1, cl.SCAN_BLOCK, cl.SCAN_BLOCK + 1} <= set(SAMPLE_COUNTS)
    assert any(n > 2 * cl.SCAN_BLOCK and n % cl.SCAN_BLOCK for n in SAMPLE_COUNTS)


@pytest.mark.parametrize("s", range(1, 7))
def test_lab_reports_match_the_frozen_statistics(monkeypatch, s):
    for n in SAMPLE_COUNTS:
        for seed in SEEDS:
            got = rc.cmd_lab(s, n, seed)
            want = _frozen_lab(monkeypatch, s, n, seed)
            assert _without_worst_sample(got) == _without_worst_sample(want), (s, n, seed)
            assert got.render_markdown() == want.render_markdown(), (s, n, seed)


def test_summary_and_identities_match_the_frozen_statistics_with_b1():
    scan = cl.geometry_scan(cl.build_calabi_immersion(3), 129, seed=7)
    assert scan.summary() == lab_reference.summary(scan)
    got = cl.verify_identities(scan)
    want = lab_reference.verify_identities(scan)
    assert [(r.name, r.max_residual, r.tolerance, r.passed, r.absent) for r in got.residuals] == \
        [(r.name, r.max_residual, r.tolerance, r.passed, r.absent) for r in want.residuals]
    assert got.passed == want.passed and got.render_table() == want.render_table()


def test_a_corrupted_scan_is_judged_as_the_frozen_statistics_judge_it():
    scan = cl.geometry_scan(cl.build_calabi_immersion(4), 40, seed=3)
    scan.S[17] += 1e-3
    scan.B1[5] = np.nan
    got = cl.verify_identities(scan)
    want = lab_reference.verify_identities(scan)
    assert got.to_json()["passed"] is want.to_json()["passed"] is False
    assert json.dumps(scan.summary()) == json.dumps(lab_reference.summary(scan))
    for row, ref in zip(got.to_json()["residuals"], want.to_json()["residuals"]):
        assert row.pop("worst_sample") in range(40)
        ref.pop("worst_sample")
        assert row == ref
