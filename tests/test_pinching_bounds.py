"""Tests for the exact pinching bounds and certificate polynomials."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from pinchcert.exact_poly import (
    CLAIM_NO_ROOT,
    IntervalQ,
    Polynomial,
    certify_sign_on_interval,
    count_roots,
    rat,
)
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc

import phi_reference as phi_ref

F = Fraction


def middleref_value(x, w) -> Fraction:
    """The t = 1/2 endpoint certificate in closed form, an independent oracle.

    x(3x-4)(3x-5)(5x-9) + (5/4)(w-x)^2 ((11/4)x + (19/4)w - 27/5)^2.
    """
    x, w = rat(x), rat(w)
    first = x * (3 * x - 4) * (3 * x - 5) * (5 * x - 9)
    inner = F(11, 4) * x + F(19, 4) * w - F(27, 5)
    return first + F(5, 4) * (w - x) ** 2 * inner**2


# ---------------------------------------------------------------------------
# Calabi curvature values
# ---------------------------------------------------------------------------


def test_calabi_values_at_small_degrees():
    assert pb.calabi_value(1).S == 0 and pb.calabi_value(1).K == 1
    assert pb.calabi_value(2).S == F(4, 3) and pb.calabi_value(2).K == F(1, 3)
    assert pb.calabi_value(3).S == F(5, 3) and pb.calabi_value(3).K == F(1, 6)
    assert pb.calabi_value(4).S == F(9, 5) and pb.calabi_value(4).K == F(1, 10)
    assert pb.calabi_value(3).ambient_dim == 6


def test_calabi_value_rejects_zero():
    with pytest.raises(ValueError):
        pb.calabi_value(0)


def test_calabi_gauss_relation_and_monotonicity():
    prev = None
    for s in range(1, 51):
        cv = pb.calabi_value(s)
        assert 2 * cv.K + cv.S == 2
        assert cv.S == 2 - F(4, s * (s + 1))  # exact closed form, limit 2
        if prev is not None:
            assert cv.S > prev
        prev = cv.S


# ---------------------------------------------------------------------------
# theta1: lower-endpoint certificate cubic
# ---------------------------------------------------------------------------


def theta1_factored(x: Fraction) -> Fraction:
    """Independent term-by-term evaluation of the factored form."""
    return x * (3 * x - 4) * (5 * x - 9) + F(5, 36) * (3 * x - 5) * (
        F(11, 4) * x + F(151, 60)
    ) ** 2


def test_theta1_frozen_values():
    p = pb.theta1()
    assert p(F(5, 3)) == F(-10, 9)       # second term vanishes at 5/3
    assert p(F(9, 5)) == F(6272, 2025)   # first term vanishes at 9/5


def test_theta1_signs_bracket_the_threshold():
    p = pb.theta1()
    assert p(rat("1.7075")) < 0
    assert p(rat("1.7076")) > 0


def test_theta1_expanded_matches_factored_at_random_rationals():
    p = pb.theta1()
    rng = random.Random(314159)
    for _ in range(20):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert p(x) == theta1_factored(x)


def test_theta1_is_cubic():
    assert pb.theta1().degree == 3


# ---------------------------------------------------------------------------
# theta2: upper-endpoint certificate cubic
# ---------------------------------------------------------------------------


def test_theta2_quarter_signs_bracket_the_threshold():
    p = pb.theta2(F(1, 4))
    assert p(rat("1.7852")) > 0
    assert p(rat("1.7853")) < 0


def test_theta2_at_half_collapses_to_linear():
    p = pb.theta2(F(1, 2))
    amp = (F(9, 10) + F(36, 5)) ** 2
    assert p == Polynomial([9 * amp, -5 * amp])
    # positive strictly below 9/5, zero at 9/5
    assert p(F(9, 5)) == 0
    assert p(rat("1.79")) > 0


def test_theta2_domain_validation():
    for bad in (F(0), F(-1, 4), F(3, 5), F(1)):
        with pytest.raises(ValueError):
            pb.theta2(bad)


def test_theta2_factored_agreement_at_random_points():
    rng = random.Random(2718)
    for _ in range(10):
        t = F(rng.randint(1, 500), 1000)
        p = pb.theta2(t)
        for _ in range(5):
            x = F(rng.randint(-10**4, 10**4), rng.randint(1, 100))
            direct = 40 * t * (2 * t - 1) * x * (3 * x - 4) * (3 * x - 5) + (
                F(9, 5) * t + F(36, 5)
            ) ** 2 * (9 - 5 * x)
            assert p(x) == direct


# ---------------------------------------------------------------------------
# gap bound, legacy bound, supremum threshold
# ---------------------------------------------------------------------------


def test_gap_polynomials_match_stated_coefficients():
    assert pb.gap_numerator() == Polynomial([0, -432, 564, -180])
    assert pb.gap_denominator() == Polynomial([F(81, 80), F(-2091, 8), F(4685, 16)])


def test_gap_lower_bound_frozen_values():
    assert pb.gap_lower_bound(F(9, 5)) == 0
    assert pb.gap_lower_bound(F(5, 3)) == F(150, 4261)
    y = pb.gap_lower_bound(F(17853, 10000))
    assert y > F(4565, 1000000) > F(1, 220)


def test_gap_lower_bound_domain_check():
    with pytest.raises(ValueError):
        pb.gap_lower_bound(F(3, 2))
    with pytest.raises(ValueError):
        pb.gap_lower_bound(F(2))


def test_gap_denominator_positive_certificate_replays():
    cert = pb.denominator_positive_certificate()
    assert cert.claim == "sign-constant-positive"
    assert cert.replay()


def test_gap_derivative_numerator_negative_certificate():
    cert = certify_sign_on_interval(
        pb.gap_derivative_numerator(), pb.PINCH_DOMAIN, "negative"
    )
    assert cert.replay()


def test_gap_derivative_numerator_brute_force_scan():
    # independent oracle: the derivative numerator is negative at 1000
    # rational sample points across the domain
    p = pb.gap_derivative_numerator()
    lo, hi = pb.PINCH_DOMAIN.lo, pb.PINCH_DOMAIN.hi
    for k in range(1001):
        x = lo + (hi - lo) * F(k, 1000)
        assert p(x) < 0


def test_gap_bound_positive_up_to_the_far_endpoint():
    # numerator certified positive on [5/3, 9/5 - delta], exactly zero at 9/5;
    # with the positive-denominator certificate this pins the sign everywhere
    delta = F(1, 10**6)
    iv = IntervalQ(F(5, 3), F(9, 5) - delta)
    cert = certify_sign_on_interval(pb.gap_numerator(), iv, "positive")
    assert cert.replay()
    assert pb.gap_numerator()(F(9, 5)) == 0
    assert pb.denominator_positive_certificate().replay()


def test_gap_bound_strictly_decreasing_pairs():
    rng = random.Random(4261)
    lo, hi = pb.PINCH_DOMAIN.lo, pb.PINCH_DOMAIN.hi
    for _ in range(50):
        a, b = sorted(rng.randint(0, 10**6) for _ in range(2))
        if a == b:
            continue
        w1 = lo + (hi - lo) * F(a, 10**6)
        w2 = lo + (hi - lo) * F(b, 10**6)
        assert pb.gap_lower_bound(w1) > pb.gap_lower_bound(w2)


def test_legacy_bound_degenerates_at_endpoints():
    at_lo = pb.legacy_gap_bound(F(5, 3))
    assert at_lo.radicand_unscaled == 3136  # 56^2: perfect square
    assert at_lo.is_zero()
    at_hi = pb.legacy_gap_bound(F(9, 5))
    assert at_hi.is_zero()


def test_legacy_bound_vs_new_bound_at_interior_point():
    # at 7/4 the new bound strictly exceeds the legacy bound
    assert pb.compare_legacy_to_new(F(7, 4)) == -1
    legacy = pb.legacy_gap_bound(F(7, 4))
    assert legacy.radicand_unscaled == F(17377, 4)
    assert legacy.compare_to(0) == 1  # still strictly positive in the interior


def test_legacy_radicand_certificate_replays():
    assert pb.legacy_radicand_certificate().replay()


def test_legacy_bound_exact_comparisons():
    zero_bound = pb.legacy_gap_bound(F(5, 3))
    assert zero_bound.compare_to(0) == 0
    assert zero_bound.compare_to(F(-1, 100)) == 1
    assert zero_bound.compare_to(F(1, 100)) == -1
    interior = pb.legacy_gap_bound(F(7, 4))
    approx = interior.approx()
    assert interior.compare_to(F(1, 1000)) == 1 and approx > 0.001
    assert interior.compare_to(F(1, 100)) == -1 and approx < 0.01


def _legacy_reference(s) -> int:
    """The comparison through the square-root-free legacy bound's fields."""
    return pb.legacy_gap_bound(s).compare_to(pb.gap_lower_bound(s))


# the nine points of certify's legacy-bound-dominated-9pts check, and both ends
LEGACY_POINTS = [F(5, 3) + F(k, 10) * F(2, 15) for k in range(1, 10)] + [F(5, 3), F(9, 5)]


@pytest.mark.parametrize("s", LEGACY_POINTS, ids=str)
def test_legacy_comparison_on_integer_forms_matches_the_legacy_bound(s):
    assert pb.compare_legacy_to_new(s) == _legacy_reference(s)


def test_legacy_comparison_signs_at_the_ends():
    # the new bound is the larger at 5/3 and ties the legacy one at 9/5,
    # where both vanish
    assert pb.compare_legacy_to_new(F(5, 3)) == -1
    assert pb.compare_legacy_to_new(F(9, 5)) == 0


@settings(max_examples=300, deadline=None)
@given(s=st.fractions(min_value=F(5, 3), max_value=F(9, 5), max_denominator=10**12))
def test_legacy_comparison_matches_the_legacy_bound_on_sampled_rationals(s):
    assert pb.compare_legacy_to_new(s) == _legacy_reference(s)


@pytest.mark.parametrize("s", [F(8, 5), F(19, 10), "1.6666"])
def test_legacy_comparison_refuses_points_outside_the_domain(s):
    with pytest.raises(ValueError, match="outside the pinching domain"):
        pb.compare_legacy_to_new(s)


def test_legacy_dominance_polynomials_are_the_scaled_differences():
    # A/(108 D) is the new bound less the legacy rational part, and B is
    # (108 D)^2 times its square less the legacy radicand
    a, b = pb.legacy_dominance_polynomials()
    d = pb.gap_denominator()
    for s in LEGACY_POINTS:
        legacy = pb.legacy_gap_bound(s)
        diff = pb.gap_lower_bound(s) - legacy.rational_part
        assert a(s) == 108 * d(s) * diff
        assert b(s) == (108 * d(s)) ** 2 * (diff * diff - legacy.radicand)


def test_legacy_dominance_holds_on_the_whole_domain_by_its_algebra():
    # 5x - 9 divides B, and neither A nor B / (5x - 9) has a root on the
    # closed domain: A > 0 and B > 0 on [5/3, 9/5), with B = 0 at 9/5
    a, b = pb.legacy_dominance_polynomials()
    quotient, remainder = b.divmod(Polynomial.linear(-9, 5))
    assert remainder.is_zero
    for p in (a, quotient):
        n, cert = count_roots(p, pb.PINCH_DOMAIN)
        assert n == 0 and cert.claim == CLAIM_NO_ROOT and cert.interval == pb.PINCH_DOMAIN
        assert cert.replay()
    assert a(F(5, 3)) > 0 and quotient(F(5, 3)) < 0


def test_smax_threshold_frozen_values():
    assert pb.smax_threshold(F(5, 3)) == F(5, 3) + F(150, 4261)
    assert pb.smax_threshold(F(9, 5)) == F(9, 5)


def test_smax_threshold_identity_with_gap_bound():
    rng = random.Random(1220)
    lo, hi = pb.PINCH_DOMAIN.lo, pb.PINCH_DOMAIN.hi
    for _ in range(100):
        w = lo + (hi - lo) * F(rng.randint(0, 10**6), 10**6)
        assert pb.smax_threshold(w) - w - pb.gap_lower_bound(w) == 0


def test_smax_numerator_is_n_plus_x_d_as_a_polynomial():
    # smax(w) = S(w)/D(w) with S = N + x*D coefficient for coefficient, so
    # smax(w) - w - N(w)/D(w) vanishes at every w where D != 0, not only at
    # sampled points; certify's smax-threshold-identity check states the same
    lhs = pb.smax_numerator()
    rhs = pb.gap_numerator() + Polynomial.x() * pb.gap_denominator()
    assert lhs.coeffs == rhs.coeffs


CONSTANT_POLYNOMIALS = (
    pb.theta1,
    pb.gap_numerator,
    pb.gap_denominator,
    pb.gap_derivative_numerator,
    pb._legacy_radicand_poly,
    pb.legacy_dominance_polynomials,
    pb.smax_numerator,
    pb.theta2_form,
    pb.left_branch_forms,
)


@pytest.mark.parametrize("build", CONSTANT_POLYNOMIALS, ids=lambda f: f.__name__)
def test_constant_polynomials_are_built_once(build):
    first = build()
    assert build() is first
    # a cold rebuild gives an equal polynomial, so the shared one is not stale
    build.cache_clear()
    fresh = build()
    assert fresh == first
    assert build() is fresh


# ---------------------------------------------------------------------------
# generalized left certificate, on phi_reference's frozen copy of the
# domain-checked wrapper, which left the library with no caller there
# ---------------------------------------------------------------------------


def test_left_certificate_signs_at_paper_anchors():
    w = F(5, 3)
    assert phi_ref.left_certificate(rat("1.7075"), w, F(1, 2)) < 0
    assert phi_ref.left_certificate(rat("1.7076"), w, F(1, 2)) > 0


def test_left_certificate_zero_at_degenerate_corner():
    assert phi_ref.left_certificate(F(9, 5), F(9, 5), F(1, 2)) == 0


def test_left_certificate_equals_four_times_middleref_at_half():
    # at t = 1/2 the supremum sits at S = x throughout the domain of
    # interest, so the generalized certificate is exactly 4x the closed form
    rng = random.Random(17)
    for _ in range(40):
        w = F(5, 3)
        x = w + (F(9, 5) - w) * F(rng.randint(0, 10**5), 10**5)
        cert = phi_ref.left_certificate(x, w, F(1, 2))
        assert cert == 4 * middleref_value(x, w)


def test_left_certificate_never_below_four_times_middleref():
    rng = random.Random(71)
    for _ in range(40):
        a, b = sorted(rng.randint(0, 10**5) for _ in range(2))
        w = F(5, 3) + F(2, 15) * F(a, 10**5)
        x = F(5, 3) + F(2, 15) * F(b, 10**5)
        assert phi_ref.left_certificate(x, w, F(1, 2)) >= 4 * middleref_value(x, w)


def test_left_certificate_domain_validation():
    with pytest.raises(ValueError):
        phi_ref.left_certificate(F(17, 10), F(5, 3), F(3, 4))  # t too large
    with pytest.raises(ValueError):
        phi_ref.left_certificate(F(17, 10), F(18, 10), F(1, 2))  # w > x
    with pytest.raises(ValueError):
        phi_ref.left_certificate(F(19, 10), F(5, 3), F(1, 2))  # x beyond domain


def test_middleref_factorization_through_theta1():
    # with w = 5/3 the closed form is (3x-5) * theta1(x)
    p = pb.theta1()
    rng = random.Random(5)
    for _ in range(25):
        x = F(5, 3) + F(2, 15) * F(rng.randint(0, 10**5), 10**5)
        assert middleref_value(x, F(5, 3)) == (3 * x - 5) * p(x)


def test_theta1_is_the_sup_at_x_quotient_at_one_half():
    # the paper's θ1 is the lower-endpoint certificate's winning branch at
    # t = 1/2, divided by x - 5/3 and scaled by 1/12
    quotients = {label: quotient for label, _, quotient in pb.left_branch_forms()}
    g = quotients["sup-at-x"].at(F(1, 2))
    assert 12 * pb.theta1() == g
    # sup-at-x wins: it changes sign in the threshold's enclosure
    width = F(1, 10**6)
    cell = ps._left_cell(F(1, 2), width, ps._grids("left", width))
    assert list(quotients)[0] == "sup-at-x" and ps._at_t("left", F(1, 2))[0] == g
    assert g(cell.enclosure.lo) < 0 < g(cell.enclosure.hi)
    th = ps.left_threshold(F(1, 2), F(5, 3))
    assert th.enclosure == cell.enclosure
    # the winner's certificate is on that quotient, with θ1's integer coefficients
    assert th.certificate.polynomial == g
    assert th.certificate.polynomial.integer_form()[0] == pb.theta1().integer_form()[0]
    # and its enclosure meets the one certify gives θ1's root
    report = rc.cmd_certify()
    (theta1_root,) = [IntervalQ.from_json(e["interval"]) for e in report.enclosures
                      if e["label"] == "theta1-root"]
    assert max(th.enclosure.lo, theta1_root.lo) <= min(th.enclosure.hi, theta1_root.hi)


def test_weight_sup_is_a_true_supremum():
    # dense scan never exceeds the reported supremum, and the supremum is hit
    rng = random.Random(23)
    for _ in range(20):
        t = F(rng.randint(1, 500), 1000)
        w = F(5, 3)
        x = F(5, 3) + F(2, 15) * F(rng.randint(1, 10**5), 10**5)
        sup = pb.weight_sup_over_s(x, w, t)
        c1, c0 = phi_ref.weight_linear_coeffs(x, w, t)
        hit = False
        for k in range(201):
            s = F(5, 3) + (x - F(5, 3)) * F(k, 200)
            g = (c1 * s + c0) ** 2 * x / s
            assert g <= sup
            hit = hit or g == sup
        assert hit


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def test_threshold_report_json_and_markdown():
    report = pb.ThresholdReport(
        name="gap-denominator-positive",
        certificate_labels=("gap-denominator-positive",),
        root_enclosure=None,
        parameters={"w": F(5, 3)},
        conclusion="denominator never vanishes on the domain",
    )
    data = report.to_json()
    assert data["parameters"] == {"w": "5/3"}
    assert data["certificates"] == ["gap-denominator-positive"]
    table = pb.render_markdown_table([report])
    assert "gap-denominator-positive" in table
    assert table.count("|") >= 12
