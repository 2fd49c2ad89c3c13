"""Tests for the spherical-harmonic immersion lab."""

import io
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lab_reference
from pinchcert import calabi_lab as cl
from pinchcert.pinching_bounds import calabi_value


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


SAMPLE_POINT = unit([0.31, -0.52, 0.80])


# ---------------------------------------------------------------------------
# immersion construction
# ---------------------------------------------------------------------------


def test_build_rejects_out_of_range_degree():
    for bad in (0, 7, -2):
        with pytest.raises(ValueError):
            cl.build_calabi_immersion(bad)


def test_image_lies_on_unit_sphere():
    pts = cl.fibonacci_sphere_points(200, seed=1)
    for s in range(1, 7):
        imm = cl.build_calabi_immersion(s)
        norms = np.linalg.norm(imm.evaluate(pts), axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert imm.n_components == 2 * s + 1
        assert imm.sphere_dim == 2 * s


def test_degree_one_is_a_rigid_rotation_of_the_identity():
    imm = cl.build_calabi_immersion(1)
    pts = cl.fibonacci_sphere_points(30, seed=2)
    vals = imm.evaluate(pts)
    gram_domain = pts @ pts.T
    gram_image = vals @ vals.T
    assert np.max(np.abs(gram_domain - gram_image)) < 1e-12


def test_veronese_maps_into_the_four_sphere():
    imm = cl.build_calabi_immersion(2)
    assert imm.n_components == 5
    assert imm.sphere_dim == 4
    _, gram = cl.fundamental_forms(imm, SAMPLE_POINT)
    assert abs(np.trace(gram) - 4.0 / 3.0) < 1e-12


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("s", range(1, 7))
def test_legendre_table_satisfies_the_exact_addition_theorem(s):
    # sum_m w_m (1 - z^2)^m (P_s^(m))^2 = 1 as polynomials in z, with w_0 = 1
    # and w_m = 2 (s-m)!/(s+m)!, in exact arithmetic on the table's rows
    table = cl._legendre_table(s)
    assert len(table) == s + 1
    total = [F(0)]
    for m, row in enumerate(table):
        assert len(row) == s - m + 1
        assert all(isinstance(c, int) for c in row)
        assert all(c == 0 for power, c in enumerate(row) if (s - m - power) % 2)
        derivative = [F(c, 2**s) for c in row]
        term = _poly_mul(derivative, derivative)
        for _ in range(m):
            term = _poly_mul(term, [F(1), F(0), F(-1)])
        weight = 1 if m == 0 else F(2 * math.factorial(s - m), math.factorial(s + m))
        total += [F(0)] * (len(term) - len(total))
        total = [a + weight * b for a, b in zip(total, term)]
    assert total == [1] + [0] * (len(total) - 1)


def test_table_harmonics_match_the_frozen_recursion():
    # the poles and the equator, where the radial sums cancel most, and
    # seeded points, through the plain and a rotated immersion
    pts = np.vstack([np.eye(3), -np.eye(3), cl.fibonacci_sphere_points(300, seed=30)])
    charts, theta, phi = cl._charted(pts)
    eps = 1e-150
    for s in range(1, 7):
        for imm in (cl.build_calabi_immersion(s),
                    cl.build_calabi_immersion(s).rotated(cl.random_rotation(2 * s + 1, seed=s))):
            assert np.max(np.abs(imm.evaluate(pts) - lab_reference.evaluate(imm, pts))) <= 1e-14
            # the kernel's value and first chart derivatives against complex
            # steps of the frozen harmonics through the chart map
            jets = cl._immersion_jets(imm, charts, theta, phi)
            assert np.max(np.abs(jets[0].T - lab_reference.evaluate(imm, pts))) <= 1e-14
            for row, (d_theta, d_phi) in ((1, (eps, 0.0)), (2, (0.0, eps))):
                stepped = cl.chart_point(charts, theta + 1j * d_theta, phi + 1j * d_phi)
                want = lab_reference.evaluate(imm, stepped).imag / eps
                # chart derivatives reach ~19 at s = 6; the sums round to
                # ~1e-15 of that scale, the bound is ten times wider
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(jets[row].T - want)) <= 1e-14 * scale, (s, row)


def test_dual_number_first_derivatives_match_stencils():
    # the jet's first chart derivatives at one point against complex steps of
    # the frozen harmonics through the chart map
    imm = cl.build_calabi_immersion(4)
    ch = cl.chart_for_point(SAMPLE_POINT)
    th, ph = cl.chart_coords(ch, SAMPLE_POINT)
    charts, theta, phi = np.array([ch]), np.array([th]), np.array([ph])
    jets = cl._immersion_jets(imm, charts, theta, phi)
    assert jets.shape == (10, imm.n_components, 1)
    eps = 1e-150
    du = lab_reference.evaluate(imm, cl.chart_point(charts, theta + 1j * eps, phi)).imag / eps
    dv = lab_reference.evaluate(imm, cl.chart_point(charts, theta, phi + 1j * eps)).imag / eps
    assert np.max(np.abs(jets[1].T - du)) < 1e-12
    assert np.max(np.abs(jets[2].T - dv)) < 1e-12


# ---------------------------------------------------------------------------
# fundamental forms
# ---------------------------------------------------------------------------


def test_degree_one_is_totally_geodesic():
    imm = cl.build_calabi_immersion(1)
    _, gram = cl.fundamental_forms(imm, SAMPLE_POINT)
    assert gram.shape == (4, 4)
    assert np.max(np.abs(gram)) < 1e-14


def test_first_form_is_scaled_round_metric_at_degree_three():
    imm = cl.build_calabi_immersion(3)
    first, _ = cl.fundamental_forms(imm, SAMPLE_POINT)
    theta, _ = cl.chart_coords(cl.chart_for_point(SAMPLE_POINT), SAMPLE_POINT)
    expected = 6.0 * np.diag([1.0, math.sin(theta) ** 2])
    assert np.max(np.abs(first - expected)) < 1e-12
    # seven components into the 6-sphere with induced curvature 1/6
    assert imm.n_components == 7 and imm.sphere_dim == 6
    k = cl._scan_block(imm, SAMPLE_POINT[None])["K_induced"][0]
    assert abs(k - 1.0 / 6.0) < 1e-12


def test_gram_matrix_is_symmetric_positive_semidefinite():
    imm = cl.build_calabi_immersion(4)
    scan = cl.geometry_scan(imm, 25, seed=23)
    for a_mat in scan.A_matrix:
        assert np.max(np.abs(a_mat - a_mat.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(a_mat)) > -1e-12


def test_frames_are_orthonormal():
    # the frame e1 = a d_u, e2 = b d_u + c d_v, as the first-order frame
    # transform L, makes the first form the identity: L g L^T = 1; the
    # second-order transform is L's symmetric square
    imm = cl.build_calabi_immersion(4)
    for seed in (3, 4):
        for pt in cl.fibonacci_sphere_points(10, seed=seed):
            first, _ = cl.fundamental_forms(imm, pt)
            (e, f), (_, g) = first
            abc = [np.array([x]) for x in cl._frame(e, f, e * g - f * f)]
            frame = cl._frame_transform(*abc, 1)[..., 0]
            assert np.max(np.abs(frame @ first @ frame.T - np.eye(2))) < 1e-12
            # rows 11, 12, 22 over the chart columns uu, uv, vv
            square = np.array([[frame[p, 0] * frame[q, 0],
                                frame[p, 0] * frame[q, 1] + frame[p, 1] * frame[q, 0],
                                frame[p, 1] * frame[q, 1]] for p, q in ((0, 0), (0, 1), (1, 1))])
            assert np.max(np.abs(cl._frame_transform(*abc, 2)[..., 0] - square)) < 1e-15


def test_second_form_symmetric_and_trace_free():
    imm = cl.build_calabi_immersion(3)
    _, gram = cl.fundamental_forms(imm, SAMPLE_POINT)
    # h_12 and h_21 have the same inner products; |h_11 + h_22|^2 vanishes
    assert np.array_equal(gram[1], gram[2]) and np.array_equal(gram[:, 1], gram[:, 2])
    assert abs(gram[0, 0] + 2.0 * gram[0, 3] + gram[3, 3]) < 1e-13


# ---------------------------------------------------------------------------
# scans and identities
# ---------------------------------------------------------------------------


def test_scan_veronese_normal_curvature():
    imm = cl.build_calabi_immersion(2)
    scan = cl.geometry_scan(imm, 60, seed=5)
    assert np.max(np.abs(scan.rho_perp - 16.0 / 9.0)) < 1e-6
    assert np.max(np.abs(scan.S - 4.0 / 3.0)) < 1e-6


def test_scan_degree_three_fundamental_matrix_norm():
    imm = cl.build_calabi_immersion(3)
    scan = cl.geometry_scan(imm, 60, seed=6)
    assert np.max(np.abs(scan.A_norm_sq - 25.0 / 18.0)) < 1e-6


def test_scan_degree_one_flat_quantities():
    imm = cl.build_calabi_immersion(1)
    scan = cl.geometry_scan(imm, 40, seed=7)
    for arr in (scan.S, scan.rho_perp, scan.H_norm_sq, scan.A_norm_sq):
        assert np.max(np.abs(arr)) < 1e-12
    assert np.max(np.abs(scan.K_induced - 1.0)) < 1e-7


def test_scan_homogeneity_of_S():
    for s in (2, 3, 4):
        imm = cl.build_calabi_immersion(s)
        scan = cl.geometry_scan(imm, 80, seed=8)
        assert np.std(scan.S) < 1e-7


def test_cross_oracle_trace_of_gram_matrix():
    imm = cl.build_calabi_immersion(4)
    scan = cl.geometry_scan(imm, 40, seed=9)
    traces = np.trace(scan.A_matrix, axis1=1, axis2=2)
    assert np.max(np.abs(traces - scan.S)) < 1e-9


def test_intrinsic_and_gauss_equation_curvatures_agree():
    imm = cl.build_calabi_immersion(3)
    scan = cl.geometry_scan(imm, 40, seed=10)
    assert np.max(np.abs(scan.K_induced - scan.K_gauss)) < 1e-7


def test_verify_identities_degree_four():
    imm = cl.build_calabi_immersion(4)
    scan = cl.geometry_scan(imm, 120, seed=11)
    report = cl.verify_identities(scan)
    assert report.passed
    assert np.max(np.abs(scan.S - 9.0 / 5.0)) < 1e-6
    assert np.max(np.abs(scan.K_induced - 0.1)) < 1e-6


@pytest.mark.parametrize("s", range(1, 7))
def test_every_scan_carries_b1_and_checks_all_seven_identities(s):
    scan = cl.geometry_scan(cl.build_calabi_immersion(s), 20, 12)
    assert scan.B1.shape == (20,)
    report = cl.verify_identities(scan)
    assert [r.name for r in report.residuals] == list(cl.DEFAULT_TOLERANCES)
    assert len(report.residuals) == 7 and report.passed
    assert not any(r.absent for r in report.residuals)
    assert all(r.worst_sample in range(20) for r in report.residuals)


def test_verify_identities_second_form_vectors_degree_three():
    imm = cl.build_calabi_immersion(3)
    scan = cl.geometry_scan(imm, 60, seed=13)
    row = {r.name: r for r in cl.verify_identities(scan).residuals}["second_form_vectors"]
    assert row.max_residual <= 1e-6


@pytest.mark.parametrize("s", (3, 4))
def test_each_identity_names_a_sample_at_its_worst_residual(s):
    scan = cl.geometry_scan(cl.build_calabi_immersion(s), 100, seed=s)
    s_exact = float(calabi_value(s).S)
    residuals = {
        "mean_curvature": np.abs(scan.H_norm_sq),
        "S_constant": np.abs(scan.S - s_exact),
        "gauss_relation": np.abs(2.0 * scan.K_induced + scan.S - 2.0),
        "A_norm": np.abs(scan.A_norm_sq - scan.S**2 / 2.0),
        "normal_curvature": np.abs(scan.rho_perp - scan.S**2),
        "second_form_vectors": np.maximum.reduce([np.abs(scan.a_dot_b),
                                                  np.abs(scan.a_norm_sq - scan.S / 4.0),
                                                  np.abs(scan.b_norm_sq - scan.S / 4.0)]),
        "grad_h_norm": np.abs(scan.B1 - scan.S * (3.0 * scan.S - 4.0) / 2.0),
    }
    report = cl.verify_identities(scan)
    assert [r.name for r in report.residuals] == list(residuals)
    for row, json_row in zip(report.residuals, report.to_json()["residuals"]):
        residual = residuals[row.name]
        i = row.worst_sample
        assert type(i) is int and 0 <= i < scan.n_samples and json_row["worst_sample"] == i
        assert residual[i] == row.max_residual == residual.max()
        assert not np.any(residual[:i] == row.max_residual), "not the first worst sample"


def test_a_corrupted_sample_is_named_as_the_worst():
    scan = cl.geometry_scan(cl.build_calabi_immersion(3), 50, seed=14)
    scan.S[31] += 1e-3
    rows = {r.name: r for r in cl.verify_identities(scan).residuals}
    assert rows["S_constant"].worst_sample == 31 and not rows["S_constant"].passed


def test_verify_identities_flags_genuine_failures():
    imm = cl.build_calabi_immersion(3)
    scan = cl.geometry_scan(imm, 10, seed=14)
    scan.S[0] += 1e-3  # corrupt one sample
    report = cl.verify_identities(scan)
    assert not report.passed


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------


def test_covariant_derivative_vanishes_for_veronese():
    imm = cl.build_calabi_immersion(2)
    assert abs(cl.covariant_derivative_h(imm, SAMPLE_POINT)) < 1e-12


def test_covariant_derivative_degree_three_value():
    # constant-S surfaces satisfy B1 = S(3S-4)/2; at S = 5/3 that is 5/6
    imm = cl.build_calabi_immersion(3)
    assert abs(cl.covariant_derivative_h(imm, SAMPLE_POINT) - 5.0 / 6.0) < 1e-12


def test_covariant_derivative_degree_one_zero():
    # the normal parts of a totally geodesic sphere are rounding noise
    imm = cl.build_calabi_immersion(1)
    assert abs(cl.covariant_derivative_h(imm, SAMPLE_POINT)) < 1e-12


# ---------------------------------------------------------------------------
# invariance and convergence properties
# ---------------------------------------------------------------------------


def test_rotation_invariance_of_scan_scalars():
    imm = cl.build_calabi_immersion(3)
    rot = cl.random_rotation(7, seed=99)
    scan_a = cl.geometry_scan(imm, 40, seed=15)
    scan_b = cl.geometry_scan(imm.rotated(rot), 40, seed=15)
    for name in ("S", "rho_perp", "H_norm_sq", "K_induced", "A_norm_sq",
                 "a_dot_b", "a_norm_sq", "b_norm_sq"):
        diff = np.max(np.abs(getattr(scan_a, name) - getattr(scan_b, name)))
        assert diff < 1e-9, f"{name} moved by {diff}"


def test_random_rotation_is_orthogonal():
    rot = cl.random_rotation(9, seed=4)
    assert np.max(np.abs(rot @ rot.T - np.eye(9))) < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12


# the identities of the Calabi spheres hold at every sample up to rounding:
# the kernel differentiates exactly and truncates nothing
EXACT_IDENTITY_TOLERANCE = 1e-11


@pytest.mark.parametrize("s", range(1, 7))
def test_scan_meets_the_exact_identity_values(s):
    imm = cl.build_calabi_immersion(s)
    s_value = float(calabi_value(s).S)
    for seed in (41, 42):
        scan = cl.geometry_scan(imm, 100, seed)
        residuals = {
            "S": scan.S - s_value,
            "H_norm_sq": scan.H_norm_sq,
            "A_norm_sq": scan.A_norm_sq - scan.S**2 / 2,
            "rho_perp": scan.rho_perp - scan.S**2,
            "gauss": 2.0 * scan.K_induced + scan.S - 2.0,
            "K_induced - K_gauss": scan.K_induced - scan.K_gauss,
            "B1": scan.B1 - scan.S * (3.0 * scan.S - 4.0) / 2.0,
        }
        for name, residual in residuals.items():
            worst = np.max(np.abs(residual))
            assert worst <= EXACT_IDENTITY_TOLERANCE, f"s={s} seed={seed} {name}: {worst:.2e}"


def test_scan_block_is_one_jet_evaluation(monkeypatch):
    # a block of samples makes one jet evaluation at its n points and no
    # harmonic evaluation through Immersion.evaluate
    imm = cl.build_calabi_immersion(4).rotated(cl.random_rotation(9, seed=3))
    calls = []
    jets = cl._immersion_jets

    def counted(imm, charts, theta, phi):
        calls.append(len(theta))
        return jets(imm, charts, theta, phi)

    def fail(self, points):
        raise AssertionError("a scan evaluated the harmonics pointwise")

    monkeypatch.setattr(cl, "_immersion_jets", counted)
    monkeypatch.setattr(cl.Immersion, "evaluate", fail)
    cl.geometry_scan(imm, 30, seed=8)
    assert calls == [30]
    calls.clear()
    cl.geometry_scan(imm, 300, seed=8)
    assert calls == [cl.SCAN_BLOCK, cl.SCAN_BLOCK, 300 - 2 * cl.SCAN_BLOCK]


# ---------------------------------------------------------------------------
# charts, sampling, serialization
# ---------------------------------------------------------------------------


def test_chart_jets_start_from_chart_point():
    # the chart jets' values are chart_point's, bit for bit, for either
    # chart, and their first derivatives are complex steps of chart_point
    points = cl.fibonacci_sphere_points(60, seed=9)
    own_charts, theta, phi = cl._charted(points)
    assert set(own_charts.tolist()) == {0, 1}
    eps = 1e-150
    for charts in (own_charts, np.zeros(60, dtype=int), np.ones(60, dtype=int)):
        w, z = cl._chart_jets(charts, theta, phi)
        xyz = cl.chart_point(charts, theta, phi)
        assert np.array_equal(w[0], xyz[:, 0] + 1j * xyz[:, 1]) and np.array_equal(z[0], xyz[:, 2])
        for row, (d_theta, d_phi) in ((1, (eps, 0.0)), (2, (0.0, eps))):
            d_xyz = cl.chart_point(charts, theta + 1j * d_theta, phi + 1j * d_phi).imag / eps
            assert np.max(np.abs(w[row] - (d_xyz[:, 0] + 1j * d_xyz[:, 1]))) <= 1e-15
            assert np.max(np.abs(z[row] - d_xyz[:, 2])) <= 1e-15


def test_chart_selection_avoids_poles():
    for pt in ([0, 0, 1], [0, 0, -1], [0.1, 0.0, 0.99]):
        assert cl.chart_for_point(unit(pt)) == 1
    assert cl.chart_for_point(unit([1, 0, 0])) == 0
    assert cl.chart_for_point(unit([0.5, 0.5, 0.3])) == 0


def test_chart_roundtrip():
    for chart in (0, 1):
        for pt in cl.fibonacci_sphere_points(20, seed=16):
            theta, phi = cl.chart_coords(chart, pt)
            back = cl.chart_point(chart, theta, phi)
            assert np.max(np.abs(back - pt)) < 1e-12


def test_fibonacci_points_are_deterministic_and_unit():
    a = cl.fibonacci_sphere_points(64, seed=17)
    b = cl.fibonacci_sphere_points(64, seed=17)
    c = cl.fibonacci_sphere_points(64, seed=18)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12


# each integer input of random_rotation and fibonacci_sphere_points, as a
# function of its value, and the name its refusal gives
ROTATION_AND_POINT_INPUTS = {
    "rotation dimension": (lambda v: cl.random_rotation(v, 4), "dimension"),
    "rotation seed": (lambda v: cl.random_rotation(9, v), "seed"),
    "point count": (lambda v: cl.fibonacci_sphere_points(v, 17), "sample count"),
    "point seed": (lambda v: cl.fibonacci_sphere_points(64, v), "seed"),
}


@pytest.mark.parametrize("make, what", ROTATION_AND_POINT_INPUTS.values(),
                         ids=ROTATION_AND_POINT_INPUTS.keys())
def test_rotation_and_points_refuse_a_bool_naming_it(make, what):
    # a bool was read as 0 or 1: random_rotation(3, True) was seed 1's
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got {bad}$"):
            make(bad)


@pytest.mark.parametrize("make, what", ROTATION_AND_POINT_INPUTS.values(),
                         ids=ROTATION_AND_POINT_INPUTS.keys())
def test_rotation_and_points_read_a_numpy_integer_as_an_int(make, what):
    for value in (np.int64(5), np.uint8(5), np.int32(5)):
        got, want = make(value), make(5)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("make, what", [ROTATION_AND_POINT_INPUTS["rotation dimension"],
                                        ROTATION_AND_POINT_INPUTS["point count"]],
                         ids=["rotation dimension", "point count"])
def test_rotation_and_points_refuse_a_size_below_one_naming_it(make, what):
    # zero points divided by zero, a negative size reached numpy, whose
    # refusal named no input, and a 0 x 0 rotation was returned
    for bad in (0, -1, -7):
        with pytest.raises(ValueError, match=f"^{what} must be at least 1, got {bad}$"):
            make(bad)
    assert make(1).shape in ((1, 1), (1, 3))


@pytest.mark.parametrize("make", [lambda v: cl.random_rotation(9, v),
                                  lambda v: cl.fibonacci_sphere_points(64, v)],
                         ids=["rotation", "points"])
def test_rotation_and_points_refuse_a_negative_seed(make):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        make(-1)


def test_scan_csv_and_summary():
    imm = cl.build_calabi_immersion(2)
    scan = cl.geometry_scan(imm, 8, seed=19)
    buf = io.StringIO()
    scan.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("index,x,y,z,chart,S,")
    assert lines[0].endswith("B1")
    summary = scan.summary()
    assert summary["s"] == 2 and summary["n_samples"] == 8
    assert scan.to_json_str() == scan.to_json_str()


def test_the_csv_is_written_in_blocks():
    # 5,000 samples make about 1.3 MB of CSV; the writer holds one block of
    # rows, not the whole text
    scan = cl.geometry_scan(cl.build_calabi_immersion(6), 5000, seed=19)

    class Sink:
        length = 0

        def write(self, text):
            self.length += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        scan.write_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 10**6
    assert peak < sink.length / 4


SCAN_FIELDS = ("charts", "first_form", "S", "A_matrix", "A_norm_sq", "rho_perp",
               "H_norm_sq", "K_induced", "K_gauss", "a_dot_b", "a_norm_sq", "b_norm_sq", "B1")


def test_batched_scan_matches_one_sample_scans():
    # 300 samples span two full blocks and a ragged tail
    assert 300 > 2 * cl.SCAN_BLOCK and 300 % cl.SCAN_BLOCK
    rotated = cl.build_calabi_immersion(4).rotated(cl.random_rotation(9, seed=21))
    for imm in (*(cl.build_calabi_immersion(s) for s in (1, 3, 6)), rotated):
        s = imm.s
        scan = cl.geometry_scan(imm, 300, seed=20)
        assert set(scan.charts.tolist()) == {0, 1}
        for i, point in enumerate(scan.sample_points):
            single = cl._scan_block(imm, point[None], i)
            for name in SCAN_FIELDS:
                assert np.array_equal(getattr(scan, name)[i], single[name][0]), (s, i, name)



def test_scan_peak_memory_stays_near_its_arrays():
    # a scan fills its arrays block by block; keeping every block until the
    # end, each pinning its 10 x 10 Gram matrix, peaked at ~4.7x the arrays
    imm = cl.build_calabi_immersion(6)
    cl.geometry_scan(imm, 10, seed=1)  # tables built once
    tracemalloc.start()
    try:
        scan = cl.geometry_scan(imm, 5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(v.nbytes for v in vars(scan).values() if isinstance(v, np.ndarray))
    assert peak <= 2 * arrays


def test_scan_statistics_peak_memory_stays_near_the_scan_arrays():
    # the summary and the identity check stack only the scan's scalar
    # fields and residuals; stacking a whole-scan array such as A_matrix
    # (16 values a sample) would break this bound
    imm = cl.build_calabi_immersion(6)
    small = cl.geometry_scan(imm, 10, seed=1)
    small.summary(), cl.verify_identities(small)  # tables and imports built once
    tracemalloc.start()
    try:
        scan = cl.geometry_scan(imm, 5000, seed=1)
        scan.summary()
        cl.verify_identities(scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(v.nbytes for v in vars(scan).values() if isinstance(v, np.ndarray))
    assert peak <= 2 * arrays


# Bounds on the frozen reference's own error, not on observed differences:
# its 4th-order stencils of step h = 1e-3 truncate at ~h^4 times sixth
# derivatives and round at eps * sum|D2| / h^2 ~ 2.2e-16 * 5.3 / 1e-6 ~
# 1.2e-9 for the second-form quantities, and B1 takes one more central
# difference over 2 * deriv_step; the scan under test differentiates exactly.
REFERENCE_TOLERANCES = {
    "S": 1e-8, "A_norm_sq": 1e-8, "rho_perp": 1e-8, "H_norm_sq": 1e-8,
    "K_gauss": 1e-8, "K_induced": 1e-8, "a_dot_b": 1e-8, "a_norm_sq": 1e-8,
    "b_norm_sq": 1e-8, "B1": 1e-6,
}


@pytest.mark.parametrize("s", range(1, 7))
def test_batched_scan_agrees_with_frozen_per_point_reference(s):
    imm = cl.build_calabi_immersion(s)
    for seed in (41, 42):
        scan = cl.geometry_scan(imm, 100, seed)
        ref = lab_reference.reference_scan(imm, 100, seed, with_derivatives=True)
        assert np.array_equal(scan.charts, ref.charts)
        for name, tol in REFERENCE_TOLERANCES.items():
            diff = np.max(np.abs(getattr(scan, name) - getattr(ref, name)))
            assert diff <= tol, f"s={s} seed={seed} {name} moved by {diff:.2e}"
        verdicts = [(r.name, r.passed) for r in cl.verify_identities(scan).residuals]
        ref_verdicts = [(r.name, r.passed) for r in cl.verify_identities(ref).residuals]
        assert verdicts == ref_verdicts


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda p: arrays(np.float64, (2, p), elements=st.floats(-10.0, 10.0))
    )
)
def test_norm_and_normal_curvature_follow_from_second_form_vectors(ab):
    # trace-free h^alpha = [[a_alpha, b_alpha], [b_alpha, -a_alpha]]
    a, b = ab
    h = np.stack([np.stack([a, b], -1), np.stack([b, -a], -1)], -2)
    gram = np.einsum("aij,akl->ijkl", h, h).reshape(4, 4)[..., None]
    inv = cl._second_form_invariants(gram)
    s_val, a_sq, rho = inv["S"][0], inv["A_norm_sq"][0], inv["rho_perp"][0]
    # against the definitions, on the components themselves
    commutators = np.einsum("aij,bjk->abik", h, h)
    assert abs(s_val - np.sum(h**2)) <= 1e-12 * max(1.0, s_val)
    assert abs(a_sq - np.sum(np.einsum("aij,bij->ab", h, h) ** 2)) <= 1e-12 * max(1.0, s_val**2)
    assert abs(rho - np.sum((commutators - commutators.swapaxes(0, 1)) ** 2)) \
        <= 1e-12 * max(1.0, s_val**2)
    assume(s_val > 1e-100)
    scale = s_val**2
    a_defect = a_sq - s_val**2 / 2
    expected = 2 * (a @ a - b @ b) ** 2 + 8 * (a @ b) ** 2
    assert abs(a_defect - expected) <= 1e-12 * scale
    assert abs((rho - s_val**2) + 2 * a_defect) <= 1e-12 * scale


def test_scan_rejects_a_bad_sample_count_before_allocating(monkeypatch):
    def fail(*args):
        raise AssertionError("sampled before the count was checked")

    monkeypatch.setattr(cl, "fibonacci_sphere_points", fail)
    imm = cl.build_calabi_immersion(2)
    for bad in (0, -3, cl.MAX_SAMPLES + 1, 10**13):
        with pytest.raises(ValueError, match="sample count"):
            cl.geometry_scan(imm, bad, seed=0)


def test_scan_rejects_a_bad_seed_before_evaluating(monkeypatch):
    def fail(*args):
        raise AssertionError("evaluated before the seed was checked")

    monkeypatch.setattr(cl, "_immersion_jets", fail)
    imm = cl.build_calabi_immersion(2)
    for bad in (-1, -2**70, 1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            cl.geometry_scan(imm, 5, seed=bad)


def test_degenerate_sample_names_degree_and_first_index():
    imm = cl.build_calabi_immersion(3)
    flat = imm.rotated(np.zeros((7, 7)))
    with pytest.raises(cl.FrameDegeneracyError, match=r"degree 3: .* at sample 0$"):
        cl.geometry_scan(flat, 5, seed=0)
    # a block later in the scan reports its scan-wide index
    with pytest.raises(cl.FrameDegeneracyError, match=r"at sample 128$"):
        cl._scan_block(flat, cl.fibonacci_sphere_points(3, seed=0), 128)


def test_scan_requires_samples():
    with pytest.raises(ValueError):
        cl.geometry_scan(cl.build_calabi_immersion(2), 0, seed=0)
