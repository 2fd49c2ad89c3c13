"""The exact core and the lab's jets against sympy, an oracle that shares no code.

Every other reference in ``tests/`` is a copy of this repo's earlier code,
so a mistake made before the copy would be pinned, not caught.  Here sympy
checks the canonical-integer-form core directly, over degrees 1..6 with
coefficients of about 100 bits:

- ``+``, ``-``, ``*``, ``derivative``, ``divmod`` and ``pinching_bounds.at_t``
  agree with sympy's expansion, and each result is in canonical form;
- ``count_roots``'s count is ``sympy.Poly.count_roots`` on the certificate's
  own closed interval, whose ends are never roots, for polynomials with
  roots drawn at the interval's ends and just inside and outside them;
- each ``isolate_root`` enclosure holds exactly one root of ``real_roots``;
- θ1, θ2(t), N, D, N'D - ND' and the S_max numerator are the expansions of
  the formulas their docstrings state, and the legacy-dominance B is
  (5x - 9) times a polynomial that, like A, has no root on [5/3, 9/5].

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
from pinchcert.exact_poly import IntervalQ, Polynomial, count_roots, isolate_root

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


def all_forms():
    return ([pb.theta2_form()] + [form for _, form in pb.left_branch_forms()]
            + list(pb.left_quotient_forms()))


def form_at(form, t):
    """The form as a sympy polynomial in x and t, with t substituted."""
    expr = sum((to_sympy(entry) * T**k for k, entry in enumerate(form)), sympy.Integer(0))
    return expr.subs(T, sympy.Rational(t.numerator, t.denominator))


T_VALUES = st.one_of(st.fractions(min_value=F(1, 10**9), max_value=F(1, 2),
                                  max_denominator=10**9), big_rationals)


@settings(max_examples=60, deadline=None)
@given(t=T_VALUES)
@example(t=F(1, 2))
def test_at_t_of_every_form_is_sympys_substitution(t):
    for form in all_forms():
        assert_is(pb.at_t(form, t), form_at(form, t))


@settings(max_examples=60, deadline=None)
@given(form=st.lists(operands, min_size=1, max_size=4).map(tuple), t=T_VALUES)
def test_at_t_of_a_drawn_form_is_sympys_substitution(form, t):
    assert_is(pb.at_t(form, t), form_at(form, t))


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


def test_legacy_dominance_b_factors_through_the_upper_end():
    # B = (5x - 9) q with no remainder, and neither A nor q has a root on
    # the closed pinching domain [5/3, 9/5]
    a, b = pb.legacy_dominance_polynomials()
    quotient, remainder = sympy.div(to_sympy(b), 5 * X - 9, X, domain="QQ")
    assert remainder == 0
    for poly in (to_sympy(a), quotient):
        assert sympy.Poly(poly, X).count_roots(q(5, 3), q(9, 5)) == 0


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
