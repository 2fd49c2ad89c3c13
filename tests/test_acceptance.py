"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable: exact checks use
rational equality, numerical checks use the stated bounds.
"""

import random
import time
from fractions import Fraction

import numpy as np

from pinchcert import calabi_lab as cl
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb
from pinchcert.exact_poly import (
    IntervalQ,
    Polynomial,
    certify_sign_on_interval,
    count_roots,
    isolate_root,
    rat,
)

F = Fraction


def announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_theta1_certification():
    started = time.perf_counter()
    theta1 = pb.theta1()
    n, count_cert = count_roots(theta1, pb.PINCH_DOMAIN)
    assert n == 1
    assert count_cert.replay()
    enclosure, enc_cert = isolate_root(theta1, pb.PINCH_DOMAIN, F(1, 10**6))
    assert rat("1.7075") < enclosure.lo and enclosure.hi < rat("1.7076")
    assert enc_cert.replay()
    assert theta1(rat("1.7075")) < 0
    assert theta1(rat("1.7076")) > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(1, f"theta1 unique root enclosed in "
                f"({float(enclosure.lo):.7f}, {float(enclosure.hi):.7f}) "
                f"within (1.7075, 1.7076) in {elapsed:.3f}s")


def test_criterion_2_theta2_certification():
    started = time.perf_counter()
    theta2 = pb.theta2(F(1, 4))
    n, count_cert = count_roots(theta2, pb.PINCH_DOMAIN)
    assert n == 1
    assert count_cert.replay()
    enclosure, enc_cert = isolate_root(theta2, pb.PINCH_DOMAIN, F(1, 10**6))
    assert rat("1.7852") < enclosure.lo and enclosure.hi < rat("1.7853")
    assert enc_cert.replay()
    assert theta2(rat("1.7852")) > 0
    assert theta2(rat("1.7853")) < 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(2, f"theta2(1/4) unique root enclosed in "
                f"({float(enclosure.lo):.7f}, {float(enclosure.hi):.7f}) "
                f"within (1.7852, 1.7853) in {elapsed:.3f}s")


def test_criterion_3_gap_function():
    cert = certify_sign_on_interval(
        pb.gap_derivative_numerator(), pb.PINCH_DOMAIN, "negative"
    )
    assert cert.replay()
    y = pb.gap_lower_bound(F(17853, 10000))
    assert y > F(4565, 1000000) > F(1, 220)
    rng = random.Random(1220)
    lo, hi = pb.PINCH_DOMAIN.lo, pb.PINCH_DOMAIN.hi
    for _ in range(100):
        w = lo + (hi - lo) * F(rng.randint(0, 10**6), 10**6)
        assert pb.smax_threshold(w) - w - pb.gap_lower_bound(w) == 0
    announce(3, "gap bound certified strictly decreasing; "
                "y(17853/10000) > 4565/1000000 > 1/220 exactly; "
                "threshold identity holds at 100 seeded rationals with zero residual")


def test_criterion_4_endpoint_non_degeneracy():
    at_lo = pb.legacy_gap_bound(F(5, 3))
    at_hi = pb.legacy_gap_bound(F(9, 5))
    assert at_lo.is_zero() and at_hi.is_zero()
    new_at_lo = pb.gap_lower_bound(F(5, 3))
    assert new_at_lo == F(150, 4261)
    assert new_at_lo > 0
    announce(4, "legacy bound degenerates to 0 at both 5/3 and 9/5 exactly; "
                "new bound at 5/3 equals 150/4261 > 0 exactly")


def test_criterion_5_optimizer_dominance():
    paper_left = ps.left_threshold(F(1, 2), F(5, 3), F(1, 10**6))
    paper_right = ps.right_threshold(F(1, 4), F(1, 10**6))

    cfg_left = ps.default_config("left")
    a_left = ps.optimize("left", cfg_left)
    b_left = ps.optimize("left", cfg_left)
    assert a_left.to_json_str() == b_left.to_json_str() and a_left.table == b_left.table
    assert a_left.threshold.lo >= paper_left.enclosure.lo
    assert a_left.threshold.lo > rat("1.7075")

    cfg_right = ps.default_config("right")
    a_right = ps.optimize("right", cfg_right)
    b_right = ps.optimize("right", cfg_right)
    assert a_right.to_json_str() == b_right.to_json_str() and a_right.table == b_right.table
    assert a_right.threshold.hi <= paper_right.enclosure.hi
    assert a_right.threshold.hi < rat("1.7853")

    assert ps.replay_threshold(a_left.best)
    assert ps.replay_threshold(a_right.best)
    announce(5, f"default sweeps dominate the fixed parameter choices: "
                f"left {float(a_left.threshold.lo):.7f} >= 1.7075, "
                f"right {float(a_right.threshold.hi):.7f} <= 1.7853; "
                f"reruns byte-identical")


def test_criterion_6_calabi_lab_residuals():
    started = time.perf_counter()
    worst = {}
    for s in (1, 2, 3, 4):
        imm = cl.build_calabi_immersion(s)
        scan = cl.geometry_scan(imm, 500, seed=20240817)
        cv = pb.calabi_value(s)
        checks = {
            "S": (np.max(np.abs(scan.S - float(cv.S))), 1e-6),
            "H^2": (np.max(np.abs(scan.H_norm_sq)), 1e-8),
            "|A|^2": (np.max(np.abs(scan.A_norm_sq - scan.S**2 / 2)), 1e-6),
            "rho": (np.max(np.abs(scan.rho_perp - scan.S**2)), 1e-6),
            "2K+S-2": (np.max(np.abs(2 * scan.K_induced + scan.S - 2)), 1e-6),
            "B1": (np.max(np.abs(scan.B1 - scan.S * (3 * scan.S - 4) / 2)), 1e-3),
        }
        for name, (residual, tolerance) in checks.items():
            assert residual <= tolerance, f"s={s} {name}: {residual:.2e} > {tolerance}"
            key = name
            worst[key] = max(worst.get(key, 0.0), float(residual))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    summary = ", ".join(f"{k}<={v:.1e}" for k, v in worst.items())
    announce(6, f"s=1..4 x 500 samples in {elapsed:.1f}s; max residuals {summary}")


def test_criterion_7_shrinker_truth_table():
    third = F(1, 3)
    rows = [
        # (min, max, h_nonzero, h_parallel, verdict, case in applicable set)
        (F(0), F(0), True, True, "round-sphere", "1a"),
        (third, third, True, True, "veronese", "1b"),
        (third, F(2, 5), True, True, "veronese", "2a"),
        (F(41, 100), F(5, 12), True, True, "calabi-s3", "2b"),
        (F(5, 12), rat("0.426875"), True, True, "calabi-s3", "3a"),
        (rat("0.446325"), F(9, 20), True, True, "calabi-s4", "3b"),
        (F(5, 12), F(5, 12) + F(1, 1000), True, True, "calabi-s3", "3c"),
        (F(9, 20) - F(1, 1000), F(9, 20), True, True, "calabi-s4", "3c"),
    ]
    for lo, hi, nz, par, verdict, case in rows:
        c = sb.classify(sb.ShrinkerPinchData(lo, hi, nz, par))
        assert c.verdict == verdict, f"[{lo},{hi}] -> {c.verdict}, wanted {verdict}"
        assert case in c.applicable_cases, f"[{lo},{hi}] missing case {case}"
        if case == "3c":
            assert hi - lo <= F(1, 880)
    c = sb.classify(sb.ShrinkerPinchData(F(0), F(0), False, True))
    assert c.verdict == "hypotheses-not-met"
    assert 4 * rat("0.426875") == rat("1.7075")
    assert 4 * rat("0.446325") == rat("1.7853")
    assert 4 * F(1, 880) == F(1, 220)
    announce(7, "eight-row rigidity table reproduced, oscillation branch at "
                "1/880 included; 4*0.426875 = 1.7075 and 4*0.446325 = 1.7853 exactly")


def test_criterion_8_property_suite():
    # certificate replay across a full report
    report = rc.cmd_certify()
    assert report.all_passed and report.replay_certificates()

    # Sturm counts vs the brute-force scan oracle on 200 random polynomials
    from test_exact_poly import count_roots_by_scan

    rng = random.Random(1848)
    checked = 0
    while checked < 200:
        degree = rng.randint(1, 6)
        p = Polynomial([F(rng.randint(-6, 6)) for _ in range(degree + 1)])
        if p.is_zero or p.degree < 1 or p(F(-4)) == 0 or p(F(4)) == 0:
            continue
        got, _ = count_roots(p, IntervalQ(F(-4), F(4)))
        assert got == count_roots_by_scan(p, F(-4), F(4))
        checked += 1

    # rotation invariance of scan scalars to 1e-9
    imm = cl.build_calabi_immersion(3)
    rot = cl.random_rotation(7, seed=77)
    scan_a = cl.geometry_scan(imm, 60, seed=6)
    scan_b = cl.geometry_scan(imm.rotated(rot), 60, seed=6)
    for name in ("S", "rho_perp", "H_norm_sq", "K_induced", "A_norm_sq"):
        assert np.max(np.abs(getattr(scan_a, name) - getattr(scan_b, name))) < 1e-9

    # the pointwise identities at their exact values, to rounding, at s = 4
    imm4 = cl.build_calabi_immersion(4)
    point = np.array([0.2, 0.55, 0.65])
    point /= np.linalg.norm(point)
    fields = cl._scan_block(imm4, point[None])
    s_val = float(fields["S"][0])
    residuals = {
        "S": s_val - 1.8,
        "H^2": fields["H_norm_sq"][0],
        "A": fields["A_norm_sq"][0] - s_val**2 / 2,
        "rho": fields["rho_perp"][0] - s_val**2,
        "ab": max(abs(fields["a_dot_b"][0]), abs(fields["a_norm_sq"][0] - s_val / 4),
                  abs(fields["b_norm_sq"][0] - s_val / 4)),
        "B1": fields["B1"][0] - s_val * (3 * s_val - 4) / 2,
    }
    for name, residual in residuals.items():
        assert abs(residual) <= 1e-11, f"{name}: {residual}"

    announce(8, "certificate replay, 200-polynomial oracle agreement, "
                "rotation invariance at 1e-9, and the pointwise identities to 1e-11 all hold")
