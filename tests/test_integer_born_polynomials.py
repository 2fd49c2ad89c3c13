"""Polynomials made from integers agree with Fraction-built ones.

A polynomial holds only its canonical integer form ``(ints, den)``.
``Form.at`` and the Sturm members make it from integers, and
the constructor from Fraction coefficients; both reduce through one helper.
Against a polynomial built from Fractions of the same value, every
observable must agree: ``coeffs``, ``integer_form()``, ``==`` both ways,
``hash`` and ``to_json``.  ``rat``'s ASCII fast path must agree
with ``Fraction(str)``, value or exception type, on every string.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import Form, Polynomial, rat, sturm_sequence

import exact_reference as ref

F = Fraction


def fraction_horner(form: Form, t) -> Polynomial:
    """The form at t by Fraction Horner in t, through Polynomial arithmetic."""
    out = form.rows[-1]
    for coeff in reversed(form.rows[:-1]):
        out = out * t + coeff
    return out


def all_forms():
    return ([("theta2", pb.theta2_form())]
            + [(label, form) for label, form, _ in pb.left_branch_forms()]
            + [(f"{label} quotient", quotient) for label, _, quotient in pb.left_branch_forms()])


def assert_canonical(p: Polynomial) -> None:
    ints, den = p.integer_form()
    assert type(den) is int and all(type(c) is int for c in ints)
    assert den > 0 and gcd(*ints, den) == 1
    assert not ints or ints[-1] != 0


def assert_same_value(born: Polynomial, built: Polynomial) -> None:
    """Every observable of a polynomial made from integers against a
    Fraction-built one."""
    assert born.integer_form() == built.integer_form()
    assert born.degree == built.degree and born.is_zero == built.is_zero
    assert born == built and built == born
    assert hash(born) == hash(built)
    assert born.to_json() == built.to_json()
    assert born.coeffs == built.coeffs
    assert_canonical(born)
    assert_canonical(built)


T_VALUES = st.fractions(min_value=F(1, 10**9), max_value=F(1, 2), max_denominator=10**9)


@settings(max_examples=150, deadline=None)
@given(t=T_VALUES)
@example(t=F(1, 2))
@example(t=F(3, 20))
@example(t=F(893, 1800))
@example(t=F(1, 200))
def test_at_t_equals_the_fraction_horner_reference(t):
    for _, form in all_forms():
        assert_same_value(form.at(t), fraction_horner(form, t))


def test_at_t_strips_trailing_zeros_and_reduces():
    # θ2(1/2) loses its cubic and quadratic terms: 40t(2t - 1) vanishes
    assert pb.theta2(F(1, 2)).integer_form() == ((59049, -32805), 100)  # 59049/100 - (6561/20) x
    # an all-zero specialization is the zero polynomial, ((), 1), and so is
    # the zero form at any t
    x = Polynomial.x()
    zero_at_half = Form((x, -2 * x)).at(F(1, 2))
    assert zero_at_half.is_zero and zero_at_half.integer_form() == ((), 1)
    assert zero_at_half == Polynomial.zero() and hash(zero_at_half) == hash(Polynomial.zero())
    assert zero_at_half.to_json() == [] and zero_at_half.coeffs == ()
    assert Form((0, Polynomial.zero())).rows == () and Form(()).at(F(3, 7)) == Polynomial.zero()


def test_an_integer_born_polynomial_is_immutable():
    assert "_coeffs" not in Polynomial.__slots__  # one form only
    p = pb.theta2(F(1, 4))
    with pytest.raises(AttributeError):
        p.coeffs = (F(1),)
    with pytest.raises(AttributeError):
        p._form = ((1,), 1)
    assert p.coeffs == fraction_horner(pb.theta2_form(), F(1, 4)).coeffs


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=60)
polys = st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(
    lambda p: not p.is_zero)


@settings(max_examples=200, deadline=None)
@given(p=polys)
@example(p=Polynomial((F(-9, 4), 0, 1)) * Polynomial((F(-9, 4), 0, 1)))
@example(p=pb.theta2(F(1, 4)))
def test_sturm_members_equal_the_reference(p):
    mine = sturm_sequence(p)
    theirs = ref.sturm_sequence(Polynomial(p.coeffs))
    assert len(mine) == len(theirs) and mine[0] is p
    for born, built in zip(mine[1:], theirs[1:]):
        assert_same_value(born, built)


# rat's fast path takes exactly -?[0-9]+(/[0-9]+)?; rat refuses with a
# ValueError any string that is not ASCII or holds an underscore or an
# exponent, which Fraction(str) would accept; everything else, signs,
# spaces and decimals, must fall through to Fraction(str) with the same
# outcome, except that rat reports a zero denominator as a ValueError where
# Fraction raises ZeroDivisionError.
ALPHABET = list("0123456789-+ _./e") + ["٣", "５", "१", " "]


def outcome(fn, s):
    try:
        value = fn(s)
    except Exception as err:  # the exception type is the outcome
        return type(err)
    assert type(value) is Fraction
    return value


def fraction_outcome(s):
    """What rat must do with ``s``: a ValueError for non-ASCII, ``_``, ``e``
    or ``E``, else Fraction(s)'s outcome, with a zero denominator's
    ZeroDivisionError turned into a ValueError."""
    if not s.isascii() or any(c in s for c in "_eE"):
        return ValueError
    expected = outcome(Fraction, s)
    return ValueError if expected is ZeroDivisionError else expected


@settings(max_examples=1000, deadline=None)
@given(s=st.text(alphabet=st.sampled_from(ALPHABET), max_size=8))
@example(s="1/0")
@example(s="")
@example(s="-")
@example(s="3/")
@example(s="/3")
def test_rat_agrees_with_fraction_on_strings(s):
    assert outcome(rat, s) == fraction_outcome(s)


@pytest.mark.parametrize("s", ["1/0", "", "-", "3/", "/3", "-0/7", "007/014", "12/-3", "1/2/3",
                               "--1", "+1", " 1", "1 ", "1_0", "1.5", "1e3", "٣/4", "5/３",
                               "1_0/3", "1E3", "1e-10000000", ".5", "5.", "-1.25"])
def test_rat_agrees_with_fraction_on_edge_strings(s):
    assert outcome(rat, s) == fraction_outcome(s)
