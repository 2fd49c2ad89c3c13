"""θ2 and the left branches are specializations of forms in t built once.

``left_certificate_reference`` holds frozen copies of the builders that
expanded every polynomial per call; the specializations must equal them
coefficient for coefficient, with the same labels.  phi at general w, which
the library no longer builds, is checked on the frozen copies alone.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import Polynomial, sign_at

import left_certificate_reference as ref
import phi_reference as phi_ref

F = Fraction

LO, HI = F(5, 3), F(9, 5)

# (0, 1/2]; the reference builds its critical branch only for t between
# about 27/200 and 3/20
T_VALUES = st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(t=T_VALUES)
@example(t=F(1, 2))
@example(t=F(1, 200))
@example(t=F(7, 50))
def test_specializations_equal_the_per_call_builders(t):
    assert pb.theta2(t).coeffs == ref.theta2(t).coeffs
    mine = [(label, form.at(t).coeffs) for label, form, _ in pb.left_branch_forms()]
    # the two full-domain branches; the critical one is below both (see
    # test_left_threshold_two_branches)
    theirs = [(label, p.coeffs) for label, p, seg in ref.left_branch_polynomials(LO, t)
              if seg == pb.PINCH_DOMAIN]
    assert mine == theirs
    # every branch is positive at 9/5, so a left threshold always finds a
    # crossing and never sits at the far edge
    assert all(sign_at(form.at(t), HI) > 0 for _, form, _ in pb.left_branch_forms())


def test_the_critical_branch_is_covered():
    # at t = 7/50 the reference builds the critical branch; on its segment
    # the larger of the two end branches is phi, and the critical one is no larger
    branches = {label: (p, seg) for label, p, seg in ref.left_branch_polynomials(LO, F(7, 50))}
    assert list(branches) == ["sup-at-x", "sup-at-5/3", "sup-at-critical"]
    critical, seg = branches.pop("sup-at-critical")
    for k in range(101):
        x = seg.lo + seg.width * F(k, 100)
        top = max(p(x) for p, _ in branches.values())
        assert critical(x) <= top == ref.left_certificate_value(F(7, 50), LO, x)


@settings(max_examples=100, deadline=None)
@given(
    t=T_VALUES,
    w=st.fractions(min_value=LO, max_value=HI, max_denominator=10**4),
    x=st.fractions(min_value=LO, max_value=HI, max_denominator=10**4),
)
def test_left_certificate_value_equals_the_reference(t, w, x):
    # phi, the frozen supremum formula, is the larger of the frozen per-call
    # branches at w; at w = 5/3 it is the larger of the library's branches
    phi = ref.left_certificate_value(t, w, x)
    branches = [p(x) for _, p, seg in ref.left_branch_polynomials(w, t) if seg == pb.PINCH_DOMAIN]
    assert max(branches) == phi_ref.left_certificate_value(x, w, t) == phi
    if w <= x:
        assert phi_ref.left_certificate(x, w, t) == phi
    assert (max(form.at(t)(x) for _, form, _ in pb.left_branch_forms())
            == ref.left_certificate_value(t, LO, x))


def fraction_horner(rows, t):
    """Frozen copy of the Fraction Horner in t that the integer
    specialization replaced, on a form's rows."""
    out = rows[-1]
    for coeff in reversed(rows[:-1]):
        out = out * t + coeff
    return out


@settings(max_examples=200, deadline=None)
@given(t=st.fractions(min_value=F(1, 10**12), max_value=F(1, 2), max_denominator=10**12))
@example(t=F(1, 2))
@example(t=F(1, 10**12))
@example(t=F(999999999999, 2 * 10**12))
def test_integer_specialization_equals_fraction_horner(t):
    forms = [pb.theta2_form()] + [form for _, form, _ in pb.left_branch_forms()]
    for form in forms:
        assert form.at(t).coeffs == fraction_horner(form.rows, t).coeffs
    x = Polynomial.x()
    literal = (40 * t * (2 * t - 1) * x * (3 * x - 4) * (3 * x - 5)
               + (F(9, 5) * t + F(36, 5)) ** 2 * Polynomial.linear(9, -5))
    assert pb.theta2(t) == literal
