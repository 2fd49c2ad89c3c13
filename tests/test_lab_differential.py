"""Lab scans and reports are byte-identical to those of frozen references.

Every ``GeometryScan`` array equals, by ``tobytes()``, what the frozen
batched kernel ``lab_reference._scan_block`` computes block by block, for
every degree, plain and rotated, at the sample counts below; the kernel's
one-point entries ``fundamental_forms`` and ``covariant_derivative_h`` equal
it too.  The library sums its small axes by one reduction each and only the
Gram matrix's upper triangle, where the reference sums in Python loops; a
change of any summation order moves a bit and fails here.

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


def _frozen_fields(imm: cl.Immersion, points: np.ndarray) -> dict:
    """The frozen kernel's fields over the points, run block by block."""
    blocks = [lab_reference._scan_block(imm, points[i:i + cl.SCAN_BLOCK], i)
              for i in range(0, len(points), cl.SCAN_BLOCK)]
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s", range(1, 7))
def test_scan_fields_are_the_frozen_kernels_bit_for_bit(s):
    plain = cl.build_calabi_immersion(s)
    for imm in (plain, plain.rotated(cl.random_rotation(2 * s + 1, s))):
        for seed in SEEDS:
            for n in SAMPLE_COUNTS:
                scan = cl.geometry_scan(imm, n, seed)
                points = cl.fibonacci_sphere_points(n, seed)
                want = {"sample_points": points, **_frozen_fields(imm, points)}
                arrays = {k: v for k, v in vars(scan).items() if isinstance(v, np.ndarray)}
                assert arrays.keys() == want.keys()
                for name, value in want.items():
                    assert _same_bits(arrays[name], value), (s, imm.rotation is None, seed, n, name)
        for point in cl.fibonacci_sphere_points(3, seed=s):
            frozen = lab_reference._scan_block(imm, point[None])
            first_form, a_matrix = cl.fundamental_forms(imm, point)
            assert _same_bits(first_form, frozen["first_form"][0])
            assert _same_bits(a_matrix, frozen["A_matrix"][0])
            b1 = cl.covariant_derivative_h(imm, point)
            assert type(b1) is float and _same_bits(np.array(b1), frozen["B1"][0])
