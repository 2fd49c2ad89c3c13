"""Closed-form pinching bounds and certificate polynomials, all exact.

The pinching domain for the third gap is the closed interval
[5/3, 9/5] of values of S, the squared norm of the second fundamental
form.  Every constructor here returns exact rationals or rational-coefficient
polynomials; callers certify sign facts about them with
:mod:`pinchcert.exact_poly`.  The constant polynomials (those without a
parameter) are built once per process and shared: a :class:`Polynomial` is
immutable and holds only its canonical integer form.  θ2, the weight q
and the two branches of the lower-endpoint certificate phi are each
written once, as a form in t (:class:`~pinchcert.exact_poly.Form`) from
its formula in the generators t and x, the branches at w = 5/3, where
every left probe runs; the weight's supremum and θ1 are read from them.
Whether the new gap bound beats the legacy one is decided by the integer
signs of two constant polynomials (:func:`legacy_dominance_polynomials`),
with no Fraction built.  The module holds formulas and certificate
constructors only; :mod:`pinchcert.report_cli` writes the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_poly import (
    ExactPolyError,
    Form,
    IntervalQ,
    Polynomial,
    SignCertificate,
    certify_sign_on_interval,
    rat,
    sign_at,
)

F = Fraction

#: Domain of the third-gap pinching hypotheses: S(3) <= S <= S(4).
PINCH_DOMAIN = IntervalQ(F(5, 3), F(9, 5))

_X = Polynomial.x()


@dataclass(frozen=True)
class CalabiValue:
    """Curvature data of the constant-curvature minimal 2-sphere of degree s."""

    s: int
    K: Fraction
    S: Fraction
    ambient_dim: int


def calabi_value(s: int) -> CalabiValue:
    """Exact K(s) = 2/(s(s+1)) and S(s) = 2(s-1)(s+2)/(s(s+1)) with 2K = 2 - S."""
    if s < 1:
        raise ValueError(f"harmonic degree must be >= 1, got {s}")
    K = F(2, s * (s + 1))
    S = F(2 * (s - 1) * (s + 2), s * (s + 1))
    return CalabiValue(s=s, K=K, S=S, ambient_dim=2 * s)


@lru_cache(maxsize=None)
def theta1() -> Polynomial:
    """Expanded cubic certificate for the lower pinching endpoint.

    x(3x-4)(5x-9) + (5/36)(3x-5)((11/4)x + 151/60)^2; its unique root in the
    pinching domain is the threshold 1.7075... below which the lower-endpoint
    rigidity holds.  It is the "sup-at-x" quotient of
    :func:`left_branch_forms` at t = 1/2, divided by 12.
    """
    quotient = next(q for label, _, q in left_branch_forms() if label == "sup-at-x")
    return F(1, 12) * quotient.at(F(1, 2))


@lru_cache(maxsize=None)
def theta2_form() -> Form:
    """:func:`theta2` as a form in t: its formula in the generators t and x."""
    T, X = Form((0, 1)), Form((_X,))
    return (40 * T * (2 * T - 1) * X * (3 * X - 4) * (3 * X - 5)
            + (F(9, 5) * T + F(36, 5)) ** 2 * (9 - 5 * X))


def theta2(t) -> Polynomial:
    """Cubic certificate for the upper pinching endpoint, parameter t in (0, 1/2].

    40t(2t-1) x(3x-4)(3x-5) + ((9/5)t + 36/5)^2 (9 - 5x); for t < 1/2 it is
    strictly decreasing on the pinching domain with one sign change, and its
    root is the threshold above which the upper-endpoint rigidity holds.
    Sweep probes specialize :func:`theta2_form` directly, the form whose
    monotonicity they rest on; replay, ``certify`` and the benchmark's
    tracer, which wraps this name, use this checked entry point.
    """
    t = rat(t)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    return theta2_form().at(t)


@lru_cache(maxsize=None)
def gap_numerator() -> Polynomial:
    """N(x) = 12x(9-5x)(3x-4) = -180x^3 + 564x^2 - 432x."""
    return 12 * _X * Polynomial.linear(9, -5) * (3 * _X - 4)


@lru_cache(maxsize=None)
def gap_denominator() -> Polynomial:
    """D(x) = 60x(3x-4) + 5((19/4)x - 9/20)^2."""
    sq = Polynomial.linear(F(-9, 20), F(19, 4))
    return 60 * _X * (3 * _X - 4) + 5 * sq * sq


@lru_cache(maxsize=None)
def gap_derivative_numerator() -> Polynomial:
    """N'D - N D', the numerator of the derivative of the gap bound.

    Certified negative on the pinching domain, so the gap bound is strictly
    decreasing there.
    """
    n = gap_numerator()
    d = gap_denominator()
    return n.derivative() * d - n * d.derivative()


def _require_domain(x: Fraction, name: str) -> Fraction:
    if not PINCH_DOMAIN.contains(x):
        raise ValueError(f"{name} = {x} outside the pinching domain [5/3, 9/5]")
    return x


@lru_cache(maxsize=None)
def denominator_positive_certificate() -> SignCertificate:
    """One-time certificate that the gap denominator never vanishes on the domain."""
    return certify_sign_on_interval(gap_denominator(), PINCH_DOMAIN, "positive")


def gap_lower_bound(s_min) -> Fraction:
    """Certified lower bound for the oscillation of S when the pinching holds.

    12 s(9-5s)(3s-4) / (60 s(3s-4) + 5((19/4)s - 9/20)^2), exact.
    """
    s_min = _require_domain(rat(s_min), "S_min")
    denominator_positive_certificate()
    return gap_numerator()(s_min) / gap_denominator()(s_min)


@lru_cache(maxsize=None)
def legacy_radicand_certificate() -> SignCertificate:
    """One-time certificate that the legacy radicand stays positive on the domain."""
    return certify_sign_on_interval(_legacy_radicand_poly(), PINCH_DOMAIN, "positive")


@lru_cache(maxsize=None)
def _legacy_radicand_poly() -> Polynomial:
    base = Polynomial.linear(134, -114)
    return base * base + 864 * (3 * _X - 5) * Polynomial.linear(9, -5)


@dataclass(frozen=True)
class LegacyGapBound:
    """Earlier oscillation bound (134 - 114s + sqrt(F))/108, kept square-root free.

    The value is ``rational_part + sqrt(radicand)``; both fields are exact,
    so comparisons against rational quantities square instead of taking roots.
    """

    rational_part: Fraction
    radicand: Fraction
    radicand_unscaled: Fraction  # the quantity under the radical before /108^2

    def is_zero(self) -> bool:
        return self.rational_part <= 0 and self.radicand == self.rational_part**2

    def compare_to(self, other) -> int:
        """Sign of (self - other) for rational ``other``; exact via squaring."""
        other = rat(other)
        # self - other = sqrt(radicand) - d with d = other - rational_part
        d = other - self.rational_part
        if d < 0:
            return 1
        if self.radicand > d * d:
            return 1
        if self.radicand == d * d:
            return 0
        return -1

    def approx(self) -> float:
        return float(self.rational_part) + float(self.radicand) ** 0.5


def legacy_gap_bound(s_min) -> LegacyGapBound:
    """Legacy oscillation bound, exact; degenerates to 0 at both endpoints."""
    s_min = _require_domain(rat(s_min), "S_min")
    radicand_unscaled = _legacy_radicand_poly()(s_min)
    if radicand_unscaled < 0:
        raise ValueError(f"negative radicand {radicand_unscaled} (outside certified domain)")
    legacy_radicand_certificate()
    a = (134 - 114 * s_min) / 108
    return LegacyGapBound(
        rational_part=a,
        radicand=radicand_unscaled / 108**2,
        radicand_unscaled=radicand_unscaled,
    )


@lru_cache(maxsize=None)
def legacy_dominance_polynomials() -> tuple[Polynomial, Polynomial]:
    """``(A, B)`` with A = 108N - (134 - 114x)D and B = A^2 - R D^2.

    N/D is the new gap bound and (134 - 114x + sqrt(R))/108 the legacy one,
    R the legacy radicand.  With D > 0 the new bound minus the legacy rational
    part is A/(108D), so the new bound is the larger exactly when A > 0 and
    B > 0, and the two are equal exactly when A >= 0 and B = 0.
    """
    n, d = gap_numerator(), gap_denominator()
    a = 108 * n - Polynomial.linear(134, -114) * d
    return a, a * a - _legacy_radicand_poly() * d * d


def compare_legacy_to_new(s_min) -> int:
    """-1 when the new gap bound beats the legacy one, 0 on ties, +1 otherwise.

    Decided by the signs of :func:`legacy_dominance_polynomials` at s_min,
    by integer Horner, given D > 0 and R > 0 on the domain (their
    certificates); equals ``legacy_gap_bound(s_min).compare_to(
    gap_lower_bound(s_min))`` without building a Fraction.
    """
    s_min = _require_domain(rat(s_min), "S_min")
    denominator_positive_certificate()
    legacy_radicand_certificate()
    a, b = legacy_dominance_polynomials()
    if sign_at(a, s_min) < 0:
        return 1
    return -sign_at(b, s_min)


@lru_cache(maxsize=None)
def smax_numerator() -> Polynomial:
    """108x(3x-4) + 5x((19/4)x - 9/20)^2, the numerator of :func:`smax_threshold`.

    Built from its own formula rather than as N + x*D, so that the identity
    smax(w) = w + N(w)/D(w) is a fact to check, not a definition: every
    ``certify`` report checks it as a polynomial identity
    (``smax-threshold-identity``).
    """
    sq = Polynomial.linear(F(-9, 20), F(19, 4))
    return 108 * _X * (3 * _X - 4) + 5 * _X * sq * sq


def smax_threshold(w) -> Fraction:
    """Supremum threshold: no pinched immersion has S_max below this value.

    (108 w(3w-4) + 5w((19/4)w - 9/20)^2) / (60 w(3w-4) + 5((19/4)w - 9/20)^2),
    evaluated directly; equals w + gap_lower_bound(w) identically.
    """
    w = _require_domain(rat(w), "w")
    denominator_positive_certificate()
    return smax_numerator()(w) / gap_denominator()(w)


def weight_forms(w) -> tuple[Form, Form]:
    """(c1, c0) of the linear weight q(S) = c1*S + c0 at rational w, as forms in (t, x).

    q is the factor whose square, divided by S, is maximized when bounding
    the Laplacian term; c1 = 1 + 15t/2 and c0 = c1*w + 36/5 - 2x - 126t/5.
    """
    T, X = Form((0, 1)), Form((_X,))
    c1 = 1 + F(15, 2) * T
    return c1, c1 * rat(w) + F(36, 5) - 2 * X - F(126, 5) * T


def _sup_candidates(c1, c0, x):
    """q(S)^2 x / S at S = x and at S = 5/3, the two candidates for the
    supremum M, from Fractions or forms alike."""
    return (c1 * x + c0) ** 2, F(3, 5) * x * (c1 * F(5, 3) + c0) ** 2


def weight_sup_over_s(x, w, t) -> Fraction:
    """Exact supremum of q(S)^2 * x / S over S in [5/3, x], for x > 0.

    For S > 0, q(S)^2 / S = c1^2 S + 2 c1 c0 + c0^2 / S is convex, so its
    only interior critical point, S = c0/c1, is a minimum: the supremum sits
    at S = 5/3 or at S = x.  It is the larger of q(x)^2 and (3x/5) q(5/3)^2,
    with the weight of :func:`weight_forms` at (t, x).
    """
    x = rat(x)
    c1, c0 = (form.at(t)(x) for form in weight_forms(w))
    return max(_sup_candidates(c1, c0, x))


@lru_cache(maxsize=None)
def left_branch_forms() -> tuple[tuple[str, Form, Form], ...]:
    """The two branches of phi at w = 5/3 as (label, form, quotient) triples,
    forms in (t, x), with q(S) = c1 S + c0 from :func:`weight_forms` at 5/3:

        "sup-at-x":   16t(1-t) x(3x-4)(3x-5)(5x-9) + 5 (5/3 - x)^2 q(x)^2,
        "sup-at-5/3": 16t(1-t) x(3x-4)(3x-5)(5x-9) + 3x (5/3 - x)^2 q(5/3)^2.

    phi, whose M is the supremum of :func:`weight_sup_over_s`, is the larger.
    Each branch vanishes at 5/3 to first order, with slope -160t(1-t)/3, and
    is positive at 9/5, where "sup-at-x" is 5 (2/15)^2 (106/15 + 4t/5)^2 and
    "sup-at-5/3" is (27/5) (2/15)^2 (104/15 - t/5)^2.  The quotient is the
    branch divided by x - 5/3 row by row, so at t it is the branch at t
    divided; a row that leaves a remainder raises :class:`ExactPolyError`.
    """
    T, X, w = Form((0, 1)), Form((_X,)), F(5, 3)
    common = 16 * T * (1 - T) * X * (3 * X - 4) * (3 * X - 5) * (5 * X - 9)
    gap = 5 * (w - X) ** 2
    at_x, at_53 = _sup_candidates(*weight_forms(w), X)
    divisor = Polynomial.linear(-PINCH_DOMAIN.lo, 1)
    triples = []
    for label, form in (("sup-at-x", common + gap * at_x), ("sup-at-5/3", common + gap * at_53)):
        rows = [row.divmod(divisor) for row in form.rows]
        if any(not r.is_zero for _, r in rows):
            raise ExactPolyError(f"left branch {label} does not vanish at {PINCH_DOMAIN.lo}")
        triples.append((label, form, Form(q for q, _ in rows)))
    return tuple(triples)
