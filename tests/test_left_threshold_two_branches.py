"""The lower-endpoint threshold needs only the two end branches of phi.

q(S)^2 / S is convex for S > 0, so the weight supremum M sits at S = 5/3 or
at S = x and the interior critical branch is never the maximum of phi.
``left_threshold_reference`` holds the three-branch code that also built
that branch; the two-branch threshold must match it in its enclosure and
values, and its certificates must be the reference's restated on the
quotients g = p / (x - 5/3): where the reference had, per endpoint branch,
g's sliver [5/3, u] and p's no-root count on [u, x], each g is negative on
exactly [5/3, enclosure.lo], which [5/3, x] holds, in the branches' fixed
order; the reference winner's is its merged certificate itself.  The
critical branch's certificates leave the support.  The lemmas below are
exact polynomial identities.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import (
    CLAIM_NEGATIVE,
    CLAIM_NO_ROOT,
    IntervalQ,
    Polynomial,
    certify_sign_on_interval,
)

import left_threshold_reference as ref
import phi_reference as phi_ref

F = Fraction

LO, HI = F(5, 3), F(9, 5)
_X = Polynomial.x()

T_VALUES = st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6)


def _critical_polynomials(t) -> set:
    """The reference's critical branch at t and its deflation at its segment start."""
    return {
        poly
        for label, p, seg in ref.left_branch_polynomials(t) if label == "sup-at-critical"
        for poly in (p, ref._deflate_root(p, seg.lo))
    }


def _merged(reference_support) -> tuple:
    """The reference's support restated on the quotients: each branch's
    sliver certificate of g on [5/3, u], with the no-root count of p on
    [u, x] that may follow it, becomes g's negative certificate on [5/3, x]."""
    merged = []
    for c in reference_support:
        if c.claim == CLAIM_NO_ROOT:
            g, sliver = merged.pop()
            assert c.polynomial == g * (_X - LO) and c.interval.lo == sliver.hi
            merged.append((g, IntervalQ(LO, c.interval.hi)))
        else:
            assert c.claim == CLAIM_NEGATIVE and c.interval.lo == LO
            merged.append((c.polynomial, c.interval))
    return tuple(certify_sign_on_interval(g, iv, "negative") for g, iv in merged)


def _assert_restated_on_quotients(mine, theirs, merged):
    """Each certificate is the negative certificate of a merged one's
    quotient, in the merged order, on exactly [5/3, enclosure.lo], which the
    merged interval holds; that of the reference winner's quotient is its
    merged certificate itself."""
    below = IntervalQ(LO, mine.enclosure.lo)
    certificates = (mine.certificate, *mine.support)
    assert [c.polynomial for c in certificates] == [c.polynomial for c in merged]
    assert all(c.claim == CLAIM_NEGATIVE and c.interval == below for c in certificates)
    assert all(c.interval.lo == LO and c.interval.hi >= below.hi for c in merged)
    winner, = [c for c in certificates
               if c.polynomial * (_X - LO) == theirs.certificate.polynomial]
    assert winner in merged


@settings(max_examples=60, deadline=None)
@given(t=T_VALUES)
@example(t=F(1, 200))
@example(t=F(27, 200))
@example(t=F(7, 50))
@example(t=F(29, 200))
@example(t=F(3, 20))
@example(t=F(1, 2))
def test_two_branch_threshold_matches_the_three_branch_reference(t):
    mine = ps.left_threshold(t, LO)
    theirs = ref.left_threshold(t, LO)
    assert mine.enclosure == theirs.enclosure
    critical = _critical_polynomials(t)
    _assert_restated_on_quotients(
        mine, theirs, _merged(c for c in theirs.support if c.polynomial not in critical))
    assert (mine.phi_lo, mine.phi_hi) == (theirs.phi_lo, theirs.phi_hi)
    assert ps.replay_threshold(mine)


def test_critical_crossing_certificates_leave_the_support():
    # at t = 3/20 the critical branch crosses inside its segment
    mine = ps.left_threshold(F(3, 20), LO)
    theirs = ref.left_threshold(F(3, 20), LO)
    assert (len(theirs.support), len(mine.support)) == (6, 1)
    # the two endpoint branches' sliver and count pairs come first
    _assert_restated_on_quotients(mine, theirs, _merged(theirs.support[:4]))
    assert [c.claim for c in theirs.support[:4]] == [CLAIM_NEGATIVE, CLAIM_NO_ROOT] * 2


@settings(max_examples=40, deadline=None)
@given(t=T_VALUES)
@example(t=F(27, 200))
@example(t=F(7, 50))
@example(t=F(3, 20))
def test_the_critical_branch_is_below_both_end_branches(t):
    # end branch - critical branch is (w - x)^2 times a square, times x > 0
    # for sup-at-5/3: q(s)^2 / s - 4 c1 c0 = (c1 s - c0)^2 / s
    c1, k0 = phi_ref.weight_linear_coeffs(0, LO, t)
    c0 = k0 - 2 * _X
    w_minus_x = Polynomial.linear(LO, -1)
    branches = {label: p for label, p, _ in ref.left_branch_polynomials(t)}
    critical = ref.left_branch_forms()[2][1]
    p3 = ref.at_t(critical, t)  # built on the whole domain, not only its segment
    assert branches.get("sup-at-critical", p3) == p3
    assert branches["sup-at-x"] - p3 == 5 * w_minus_x**2 * (c1 * _X - c0) ** 2
    assert branches["sup-at-5/3"] - p3 == 3 * _X * w_minus_x**2 * (F(5, 3) * c1 - c0) ** 2


def _in_t(form, x) -> tuple:
    """A form's coefficients in t at the point x."""
    return tuple(row(x) for row in form.rows)


def test_end_branches_vanish_to_first_order_at_five_thirds():
    # p(5/3) = 0 and p'(5/3) = -160 t (1 - t) / 3 < 0 for every t in (0, 1/2]
    for _, form, _ in pb.left_branch_forms():
        assert _in_t(form, LO) == (0, 0, 0)
        assert _in_t(form.derivative(), LO) == (
            0, F(-160, 3), F(160, 3))


def test_end_branches_at_nine_fifths_are_positive_squares():
    # sup-at-x: 5 (2/15)^2 (106/15 + 4t/5)^2; sup-at-5/3: (27/5) (2/15)^2 (104/15 - t/5)^2
    def square(scale, a, b):  # scale (a + b t)^2 as coefficients in t
        return (scale * a * a, 2 * scale * a * b, scale * b * b)

    forms = {label: form for label, form, _ in pb.left_branch_forms()}
    assert list(forms) == ["sup-at-x", "sup-at-5/3"]
    assert _in_t(forms["sup-at-x"], HI) == square(5 * F(2, 15) ** 2, F(106, 15), F(4, 5))
    assert _in_t(forms["sup-at-5/3"], HI) == square(
        F(27, 5) * F(2, 15) ** 2, F(104, 15), F(-1, 5))
    # both bases stay positive on t in [0, 1/2]: they are affine in t
    for t in (F(0), F(1, 2)):
        assert F(106, 15) + F(4, 5) * t > 0 and F(104, 15) - t / 5 > 0


@settings(max_examples=300, deadline=None)
@given(
    x=st.fractions(min_value=LO, max_value=HI, max_denominator=10**4),
    w=st.fractions(min_value=LO, max_value=HI, max_denominator=10**4),
    t=T_VALUES,
)
@example(x=HI, w=LO, t=F(7, 50))  # critical point c0/c1 inside (5/3, x)
@example(x=F(10633, 6075), w=LO, t=F(7, 50))  # c0/c1 = x
@example(x=F(171, 100), w=LO, t=F(3, 20))  # c0/c1 = 5/3
def test_weight_sup_equals_the_three_candidate_reference(x, w, t):
    assert pb.weight_sup_over_s(x, w, t) == ref.weight_sup_over_s(x, w, t)
