"""The exact core and the lab's jets against sympy, an oracle that shares no code.

Every other reference in ``tests/`` is a copy of this repo's earlier code,
so a mistake made before the copy would be pinned, not caught.  Here sympy
checks the canonical-integer-form core directly, over degrees 1..6 with
coefficients of about 100 bits:

- ``+``, ``-``, ``*``, ``derivative`` and ``divmod`` agree with sympy's
  expansion, and each result is in canonical form;
- so do a ``Form``'s (a polynomial in t and x) ``+``, ``-``, ``*``, ``**``,
  ``at``, ``derivative`` and ``bernstein``, on forms of t-degree 0..3, and
  every certificate form's ``at``;
- ``count_roots``'s count is ``sympy.Poly.count_roots`` on the certificate's
  own closed interval, whose ends are never roots, for polynomials with
  roots drawn at the interval's ends and just inside and outside them;
- each ``isolate_root`` enclosure holds exactly one root of ``real_roots``;
- θ1, θ2(t), N, D, N'D - ND', the S_max numerator and both left branches
  are the expansions of the formulas their docstrings state, each left
  quotient is its branch divided by x - 5/3, and the legacy-dominance B is
  (5x - 9) times a polynomial that, like A, has no root on [5/3, 9/5];
- θ2 and both left quotients are quadratics in t whose t^2 coefficient a
  is certified positive on the domain and whose t-discriminant is sympy's
  and factors over an irreducible cubic with one domain root, and
  θ2(4/17, x) is a rational multiple of θ2's cubic.

The lab's jet kernel is checked the same way: the degree-s immersion built
from ``sympy.legendre`` and the chart map, differentiated symbolically, has
the ten chart derivatives the kernel computes from its own table.

sympy stays out of ``src``; these tests skip where it is not installed.
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import (Form, IntervalQ, Polynomial, certify_sign_on_interval,
                                  count_roots, isolate_root)

sympy = pytest.importorskip("sympy")

F = Fraction
X = sympy.Symbol("x")
T = sympy.Symbol("t")

# rationals with numerators and denominators of up to about 100 bits
BIG = 2**100
big_rationals = st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG))
nonzero_big = big_rationals.filter(bool)
# degrees 1..6, and the zero polynomial and constants for the operands
polys = st.lists(big_rationals, min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0).map(
    Polynomial)
operands = st.one_of(polys, st.lists(big_rationals, max_size=1).map(Polynomial))


def to_sympy(p: Polynomial, var=X):
    return sum((sympy.Rational(c.numerator, c.denominator) * var**k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def coefficients(expr) -> list[Fraction]:
    """The rational coefficients of a sympy polynomial in x, lowest first,
    without trailing zeros."""
    cs = [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, X, domain="QQ").all_coeffs())]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def assert_is(p: Polynomial, expr) -> None:
    """p is the polynomial sympy expanded, held in canonical form."""
    assert list(p.coeffs) == coefficients(sympy.expand(expr))
    ints, den = p.integer_form()
    assert den > 0 and gcd(*ints, den) == 1 and (not ints or ints[-1])


# ---------------------------------------------------------------------------
# arithmetic


@settings(max_examples=150, deadline=None)
@given(p=operands, q=operands)
@example(p=Polynomial((F(2, 3), F(-1, 6))), q=Polynomial((F(-2, 3), F(1, 6))))
def test_sum_difference_and_product_are_sympys(p, q):
    a, b = to_sympy(p), to_sympy(q)
    assert_is(p + q, a + b)
    assert_is(p - q, a - b)
    assert_is(p * q, a * b)
    assert_is(-p, -a)


@settings(max_examples=150, deadline=None)
@given(p=operands, c=big_rationals)
def test_arithmetic_with_a_rational_is_sympys(p, c):
    a, k = to_sympy(p), sympy.Rational(c.numerator, c.denominator)
    assert_is(p + c, a + k)
    assert_is(c - p, k - a)
    assert_is(c * p, k * a)


@settings(max_examples=150, deadline=None)
@given(p=operands)
def test_derivative_is_sympys(p):
    assert_is(p.derivative(), sympy.diff(to_sympy(p), X))


@settings(max_examples=100, deadline=None)
@given(p=operands, q=polys)
def test_divmod_is_sympys(p, q):
    quotient, remainder = p.divmod(q)
    want_q, want_r = sympy.div(to_sympy(p), to_sympy(q), X, domain="QQ")
    assert_is(quotient, want_q)
    assert_is(remainder, want_r)


# ---------------------------------------------------------------------------
# forms in t

# forms of t-degree 0..3 (and the zero form), rows as the operands above
forms = st.lists(operands, max_size=4).map(Form)


def all_forms():
    return [pb.theta2_form()] + [f for _, form, quotient in pb.left_branch_forms()
                                 for f in (form, quotient)]


def form_to_sympy(form: Form):
    return sum((to_sympy(row) * T**k for k, row in enumerate(form.rows)), sympy.Integer(0))


def form_at(form: Form, t):
    """The form as a sympy polynomial in x and t, with t substituted."""
    return form_to_sympy(form).subs(T, sympy.Rational(t.numerator, t.denominator))


def assert_form_is(form: Form, expr) -> None:
    """form is the polynomial in t and x sympy expanded: row k is the
    coefficient of t^k, each in canonical form, and no trailing row is zero."""
    rows = list(reversed(sympy.Poly(sympy.expand(expr), T).all_coeffs()))
    while rows and rows[-1] == 0:
        rows.pop()
    assert len(form.rows) == len(rows)
    for row, want in zip(form.rows, rows):
        assert_is(row, want)


T_VALUES = st.one_of(st.fractions(min_value=F(1, 10**9), max_value=F(1, 2),
                                  max_denominator=10**9), big_rationals)


@settings(max_examples=60, deadline=None)
@given(t=T_VALUES)
@example(t=F(1, 2))
def test_at_t_of_every_form_is_sympys_substitution(t):
    for form in all_forms():
        assert_is(form.at(t), form_at(form, t))


@settings(max_examples=60, deadline=None)
@given(form=forms, t=T_VALUES)
@example(form=Form(()), t=F(1, 3))
def test_at_t_of_a_drawn_form_is_sympys_substitution(form, t):
    assert_is(form.at(t), form_at(form, t))


@settings(max_examples=60, deadline=None)
@given(f=forms, g=forms, p=operands, c=big_rationals, n=st.integers(0, 3))
def test_form_arithmetic_is_sympys(f, g, p, c, n):
    a, b = form_to_sympy(f), form_to_sympy(g)
    k, poly = sympy.Rational(c.numerator, c.denominator), to_sympy(p)
    assert_form_is(f + g, a + b)
    assert_form_is(f - g, a - b)
    assert_form_is(f * g, a * b)
    assert_form_is(-f, -a)
    assert_form_is(f**n, a**n)
    # rationals and polynomials in x lift to forms constant in t
    assert_form_is(f + p, a + poly)
    assert_form_is(c - f, k - a)
    assert_form_is(c * f, k * a)
    assert_form_is(f * p, a * poly)
    assert_form_is(f.derivative(), sympy.diff(a, X))


@settings(max_examples=60, deadline=None)
@given(form=forms, h=big_rationals)
@example(form=Form(()), h=F(1, 2))
def test_bernstein_coefficients_are_sympys(form, h):
    # sum_j b_j C(n, j) s^j (1 - s)^(n - j) is the form at t = h s
    s = sympy.Symbol("s")
    coefficients = form.bernstein(h)
    n = len(coefficients) - 1
    assert n == max(len(form.rows) - 1, 0)
    combination = sum((to_sympy(b) * sympy.binomial(n, j) * s**j * (1 - s) ** (n - j)
                       for j, b in enumerate(coefficients)), sympy.Integer(0))
    at_hs = form_to_sympy(form).subs(T, sympy.Rational(h.numerator, h.denominator) * s)
    assert sympy.expand(combination - at_hs) == 0


# ---------------------------------------------------------------------------
# root counting and isolation

ends = st.fractions(min_value=-3, max_value=3, max_denominator=1000)
# offsets from an end, as fractions of the interval's width: inside or
# outside the first nudge of 10^-6 and the last of 10^-12
EPSILONS = st.sampled_from([F(1, 10**k) for k in (2, 5, 6, 7, 9, 12, 15)])


@st.composite
def rooted_on_interval(draw):
    """A polynomial of degree 1..6 with roots drawn at the ends of an
    interval [a, b], just inside and just outside them and anywhere in it,
    times a ~100-bit constant and at times a quadratic without real roots,
    and the interval."""
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    span = b - a
    spots = st.one_of(
        st.sampled_from([a, b]),
        st.tuples(st.sampled_from([a, b]), st.sampled_from([1, -1]), EPSILONS).map(
            lambda e: e[0] + e[1] * e[2] * span),
        st.fractions(min_value=a, max_value=b, max_denominator=10**6),
    )
    roots = draw(st.lists(st.tuples(spots, st.integers(1, 2)), max_size=4))
    p = Polynomial.constant(draw(nonzero_big))
    for r, multiplicity in roots:
        p = p * Polynomial.linear(-r, 1) ** multiplicity
    if draw(st.booleans()):  # (x - m)^2 + c, c > 0
        m, c = draw(big_rationals), abs(draw(nonzero_big))
        p = p * Polynomial((m * m + c, -2 * m, 1))
    return p, IntervalQ(a, b)


def sympy_value(p: Polynomial, x: Fraction):
    return to_sympy(p).subs(X, sympy.Rational(x.numerator, x.denominator))


@settings(max_examples=200, deadline=None)
@given(case=rooted_on_interval().filter(lambda case: 1 <= case[0].degree <= 6))
@example(case=(Polynomial((1, -1)) * Polynomial.linear(-1 - F(1, 10**7), 1),
               IntervalQ(F(1), F(2))))
def test_count_is_sympys_on_the_certificate_interval(case):
    p, iv = case
    n, cert = count_roots(p, iv)
    lo, hi = cert.interval.lo, cert.interval.hi
    assert iv.lo <= lo <= hi <= iv.hi
    assert sympy_value(p, lo) != 0 and sympy_value(p, hi) != 0
    want = sympy.Poly(to_sympy(p), X, domain="QQ").count_roots(
        sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator))
    assert n == want
    assert cert.replay()


@settings(max_examples=150, deadline=None)
@given(p=polys, iv=st.lists(ends, min_size=2, max_size=2, unique=True).map(
    lambda e: IntervalQ(*sorted(e))))
def test_count_of_a_drawn_polynomial_is_sympys(p, iv):
    n, cert = count_roots(p, iv)
    lo, hi = cert.interval.lo, cert.interval.hi
    assert n == sympy.Poly(to_sympy(p), X, domain="QQ").count_roots(
        sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator))


@st.composite
def one_root_on_interval(draw):
    """A polynomial of degree 1..6 with one root of odd multiplicity in
    [a, b], at times just inside an end, and other roots on the ends and
    just outside them, and the interval."""
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    span = b - a
    # beyond the first nudge of an end root, so the count finds it
    inside = st.one_of(
        st.tuples(st.sampled_from([a, b]), st.sampled_from([F(1, 10**k) for k in (2, 3, 5)]))
        .map(lambda e: e[0] + (span if e[0] == a else -span) * e[1]),
        st.fractions(min_value=F(1, 1000), max_value=F(999, 1000),
                     max_denominator=10**6).map(lambda f: a + f * span),
    )
    others = st.one_of(
        st.sampled_from([a, b]),
        st.tuples(st.sampled_from([a, b]), EPSILONS).map(
            lambda e: e[0] + (-span if e[0] == a else span) * e[1]),
    )
    p = (Polynomial.constant(draw(nonzero_big))
         * Polynomial.linear(-draw(inside), 1) ** draw(st.sampled_from([1, 3])))
    for r in draw(st.lists(others, max_size=2, unique=True)):
        p = p * Polynomial.linear(-r, 1) ** draw(st.integers(1, 2))
    if p.degree <= 4 and draw(st.booleans()):
        m, c = draw(big_rationals), abs(draw(nonzero_big))
        p = p * Polynomial((m * m + c, -2 * m, 1))
    return p, IntervalQ(a, b)


@settings(max_examples=120, deadline=None)
@given(case=one_root_on_interval().filter(lambda case: case[0].degree <= 6),
       width=st.sampled_from([F(1, 10), F(1, 10**6), F(1, 10**15)]))
def test_each_enclosure_holds_exactly_one_real_root(case, width):
    p, iv = case
    enclosure, cert = isolate_root(p, iv, width)
    lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in (enclosure.lo, enclosure.hi))
    roots = set(sympy.real_roots(sympy.Poly(to_sympy(p), X, domain="QQ")))
    assert sum(1 for r in roots if lo <= r <= hi) == 1
    assert enclosure.width <= width and cert.replay()


# ---------------------------------------------------------------------------
# closed forms of the exact core

def q(a: int, b: int = 1):
    return sympy.Rational(a, b)


def test_constant_polynomials_are_their_docstring_formulas():
    x = X
    assert_is(pb.theta1(), x * (3 * x - 4) * (5 * x - 9)
              + q(5, 36) * (3 * x - 5) * (q(11, 4) * x + q(151, 60)) ** 2)
    n = 12 * x * (9 - 5 * x) * (3 * x - 4)
    d = 60 * x * (3 * x - 4) + 5 * (q(19, 4) * x - q(9, 20)) ** 2
    assert_is(pb.gap_numerator(), n)
    assert_is(pb.gap_numerator(), -180 * x**3 + 564 * x**2 - 432 * x)
    assert_is(pb.gap_denominator(), d)
    assert_is(pb.gap_derivative_numerator(), sympy.diff(n, x) * d - n * sympy.diff(d, x))
    assert_is(pb.smax_numerator(), 108 * x * (3 * x - 4) + 5 * x * (q(19, 4) * x - q(9, 20)) ** 2)


@pytest.mark.parametrize("t", [F(1, 4), F(4, 17), F(1, 2)])
def test_theta2_is_its_docstring_formula(t):
    x, tt = X, q(t.numerator, t.denominator)
    assert_is(pb.theta2(t), 40 * tt * (2 * tt - 1) * x * (3 * x - 4) * (3 * x - 5)
              + (q(9, 5) * tt + q(36, 5)) ** 2 * (9 - 5 * x))


def test_left_branches_are_their_docstring_formulas():
    x, t = X, T
    c1 = 1 + q(15, 2) * t
    c0 = c1 * q(5, 3) + q(36, 5) - 2 * x - q(126, 5) * t
    common = 16 * t * (1 - t) * x * (3 * x - 4) * (3 * x - 5) * (5 * x - 9)
    gap = (q(5, 3) - x) ** 2
    formulas = {"sup-at-x": common + 5 * gap * (c1 * x + c0) ** 2,
                "sup-at-5/3": common + 3 * x * gap * (c1 * q(5, 3) + c0) ** 2}
    assert [label for label, _, _ in pb.left_branch_forms()] == list(formulas)
    for label, form, quotient in pb.left_branch_forms():
        assert_form_is(form, formulas[label])
        want, remainder = sympy.div(sympy.expand(formulas[label]), x - q(5, 3), x)
        assert sympy.expand(remainder) == 0
        assert_form_is(quotient, want)


def test_legacy_dominance_b_factors_through_the_upper_end():
    # B = (5x - 9) q with no remainder, and neither A nor q has a root on
    # the closed pinching domain [5/3, 9/5]
    a, b = pb.legacy_dominance_polynomials()
    quotient, remainder = sympy.div(to_sympy(b), 5 * X - 9, X, domain="QQ")
    assert remainder == 0
    for poly in (to_sympy(a), quotient):
        assert sympy.Poly(poly, X).count_roots(q(5, 3), q(9, 5)) == 0


# ---------------------------------------------------------------------------
# each threshold form is a quadratic in t

CUBIC_C = 1125 * X**3 - 3375 * X**2 + 9790 * X - 13122
CUBIC_L = 7965 * X**3 - 10935 * X**2 - 13509 * X + 15295
CUBIC_5_3 = 270 * X**3 + 783 * X**2 - 648 * X - 2525
# per form Q = a t^2 + b t + c: its t^2 coefficient a and its t-discriminant
# Delta = b^2 - 4ac, factored over the cubics above
QUADRATICS = {
    "theta2": ((18000 * X**3 - 54000 * X**2 + 39595 * X + 729) / 25,
               64 * X * (3 * X - 5) * (3 * X - 4) * CUBIC_C / 5),
    "sup-at-x": (-(26325 * X**3 - 50085 * X**2 - 39957 * X + 80645) / 60,
                 32 * X * (3 * X - 4) * (5 * X - 9) * CUBIC_L / 9),
    "sup-at-5/3": (-X * (18000 * X**2 - 56403 * X + 43205) / 25,
                   128 * X**2 * (3 * X - 4) * (5 * X - 9) * CUBIC_5_3 / 15),
}


def quadratic_forms() -> dict:
    """θ2 and both left quotients, by label."""
    return {"theta2": pb.theta2_form(),
            **{label: quotient for label, _, quotient in pb.left_branch_forms()}}


def test_each_threshold_form_is_a_quadratic_in_t_with_its_quoted_discriminant():
    # rows (c, b, a): 4aQ = (2at + b)^2 - Delta, and Delta is sympy's
    # discriminant in t, a times the quoted factors
    forms = quadratic_forms()
    assert forms.keys() == QUADRATICS.keys()
    for label, form in forms.items():
        assert len(form.rows) == 3, label
        c, b, a = (to_sympy(row) for row in form.rows)
        quadratic, delta = a * T**2 + b * T + c, b**2 - 4 * a * c
        assert sympy.expand(4 * a * quadratic - (2 * a * T + b) ** 2 + delta) == 0, label
        assert sympy.expand(delta - sympy.discriminant(quadratic, T)) == 0, label
        want_a, want_delta = QUADRATICS[label]
        assert sympy.expand(a - want_a) == 0, label
        assert sympy.expand(delta - want_delta) == 0, label


def test_the_discriminant_cubics_are_irreducible_with_one_domain_root():
    for cubic in (CUBIC_C, CUBIC_L, CUBIC_5_3):
        poly = sympy.Poly(cubic, X)
        assert poly.is_irreducible
        assert poly.count_roots(q(5, 3), q(9, 5)) == 1


def test_theta2_at_4_17_is_a_multiple_of_c():
    assert_is(pb.theta2(F(4, 17)), -q(288, 7225) * CUBIC_C)


def test_each_t_squared_coefficient_is_certified_positive_on_the_domain():
    for label, form in quadratic_forms().items():
        certificate = certify_sign_on_interval(form.rows[2], pb.PINCH_DOMAIN, "positive")
        assert certificate.replay() is True, label


# ---------------------------------------------------------------------------
# the lab's 3-jets

U, V = sympy.symbols("u v", real=True)


def immersion_in_chart(s: int, chart: int) -> list:
    """The degree-s immersion's 2s+1 components, ordered m = -s..s, as
    sympy expressions in the chart coordinates (u, v) = (theta, phi), built
    from sympy's Legendre polynomial and the chart map alone."""
    xs, ys, zs = sympy.symbols("x y z", real=True)
    legendre = sympy.legendre(s, zs)
    components = {0: legendre}
    for m in range(1, s + 1):
        norm = sympy.sqrt(2 * sympy.factorial(s - m) / sympy.factorial(s + m))
        re, im = sympy.expand((xs + sympy.I * ys) ** m).as_real_imag()
        radial = norm * sympy.diff(legendre, zs, m)
        components[m], components[-m] = radial * re, radial * im
    st, ct, sp, cp = sympy.sin(U), sympy.cos(U), sympy.sin(V), sympy.cos(V)
    point = (st * cp, st * sp, ct) if chart == 0 else (ct, st * cp, st * sp)
    return [components[m].subs(dict(zip((xs, ys, zs), point))) for m in range(-s, s + 1)]


@pytest.mark.parametrize("s", range(1, 7))
def test_jets_are_sympys_chart_derivatives(s):
    from pinchcert import calabi_lab as cl

    points = {0: [(0.9, 0.3), (2.1, -2.6)], 1: [(0.7, 1.9), (2.3, -0.4)]}
    imm = cl.build_calabi_immersion(s)
    for chart, uv in points.items():
        theta, phi = (np.array(column) for column in zip(*uv))
        got = cl._immersion_jets(imm, np.full(len(uv), chart), theta, phi)
        # each jet differentiates the one without its last direction
        exprs = {(): immersion_in_chart(s, chart)}
        for jet in cl.JETS[1:]:
            exprs[jet] = [sympy.diff(c, (U, V)[jet[-1]]) for c in exprs[jet[:-1]]]
        evaluate = sympy.lambdify((U, V), [exprs[jet] for jet in cl.JETS], "math")
        want = np.moveaxis(np.array([evaluate(u, v) for u, v in uv], dtype=float), 0, -1)
        for row, jet in enumerate(cl.JETS):
            scale = max(1.0, np.max(np.abs(want[row])))
            assert np.max(np.abs(got[row] - want[row])) <= 1e-12 * scale, (s, chart, jet)
