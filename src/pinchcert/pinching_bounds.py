"""Closed-form pinching bounds and certificate polynomials, all exact.

The pinching domain for the third gap is the closed interval
[5/3, 9/5] of values of S, the squared norm of the second fundamental
form.  Every constructor here returns exact rationals or rational-coefficient
polynomials; callers certify sign facts about them with
:mod:`pinchcert.exact_poly`.  The constant polynomials (those without a
parameter) are built once per process and shared: a :class:`Polynomial` is
immutable and holds only its canonical integer form.  θ2, the
lower-endpoint branches and their quotients by x - 5/3 are built once as
forms in t (:func:`at_t`).  Whether the new gap bound beats the legacy one
is decided by the integer signs of two such constant polynomials
(:func:`legacy_dominance_polynomials`), with no Fraction built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact_poly import (
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignCertificate,
    _homogeneous,
    certify_sign_on_interval,
    rat,
    rat_str,
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
    rigidity holds.
    """
    first = _X * (3 * _X - 4) * (5 * _X - 9)
    inner = Polynomial.linear(F(151, 60), F(11, 4))
    second = F(5, 36) * (3 * _X - 5) * inner * inner
    return first + second


def at_t(form: tuple[Polynomial, ...], t) -> Polynomial:
    """A form (entry k is the polynomial in x at t^k) specialized at t.

    Coefficient i at t = a/b is column i of :func:`_integer_columns` at a/b,
    by the integer Horner of :func:`exact_poly._homogeneous`, over the
    scale den * b^(len(form) - 1); the polynomial is made canonical from
    those integers like any other, and no Fraction is built.
    """
    t = rat(t)
    columns, den = _integer_columns(form)
    a, b = t.numerator, t.denominator
    return Polynomial._from_integer_form([_homogeneous(column, a, b) for column in columns],
                                         den * b ** (len(form) - 1))


@lru_cache(maxsize=None)
def _integer_columns(form: tuple[Polynomial, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(columns, den)``: column i holds den times the coefficients of x^i
    in t, lowest power first; den is the lcm of every entry's denominator."""
    entries = [p.integer_form() for p in form]
    den = lcm(*(d for _, d in entries))
    n = max(len(ints) for ints, _ in entries)
    return tuple(
        tuple(ints[i] * (den // d) if i < len(ints) else 0 for ints, d in entries)
        for i in range(n)
    ), den


def _affine_product(a, b) -> tuple:
    """(a0 + a1 t)(b0 + b1 t) as its coefficients in t."""
    (a0, a1), (b0, b1) = a, b
    return (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)


@lru_cache(maxsize=None)
def theta2_form() -> tuple[Polynomial, ...]:
    """:func:`theta2` as a form in t."""
    first = _affine_product((0, 40), (-1, 2))  # 40t(2t - 1)
    amp = (F(36, 5), F(9, 5))  # (9/5)t + 36/5
    cubic = _X * (3 * _X - 4) * (3 * _X - 5)
    return tuple(a * cubic + b * Polynomial.linear(9, -5)
                 for a, b in zip(first, _affine_product(amp, amp)))


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
    return at_t(theta2_form(), t)


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


def _weight_ints(x: Fraction, w: Fraction, t: Fraction) -> tuple[int, int, int]:
    """``(C1, C0, den)`` with c1 = C1/den and c0 = C0/den (see
    :func:`weight_linear_coeffs`), over den = 10 t_d w_d x_d for
    x = x_n/x_d, w = w_n/w_d, t = t_n/t_d."""
    xn, xd = x.numerator, x.denominator
    wn, wd = w.numerator, w.denominator
    tn, td = t.numerator, t.denominator
    c1 = 5 * (2 * td + 15 * tn) * xd  # 10 t_d x_d (2 + 15t)/2, before the factor w_d
    c0 = c1 * wn + 4 * wd * (18 * td * xd - 5 * td * xn - 63 * tn * xd)
    return c1 * wd, c0, 10 * td * wd * xd


def weight_linear_coeffs(x, w, t) -> tuple[Fraction, Fraction]:
    """Coefficients (c1, c0) of the linear weight q(S) = c1*S + c0.

    q is the factor whose square, divided by S, is maximized when bounding
    the Laplacian term; c1 = (2+15t)/2 and c0 = c1*w + 36/5 - 2x - (126/5)t.
    """
    c1, c0, den = _weight_ints(rat(x), rat(w), rat(t))
    return F(c1, den), F(c0, den)


def weight_sup_over_s(x, w, t) -> Fraction:
    """Exact supremum of q(S)^2 * x / S over S in [5/3, x], for x > 0.

    For S > 0, q(S)^2 / S = c1^2 S + 2 c1 c0 + c0^2 / S is convex, so its
    only interior critical point, S = c0/c1, is a minimum: the supremum sits
    at S = 5/3 or at S = x.  With q = (C1 S + C0)/den the two candidates are
    (5 C1 + 3 C0)^2 x_n / (15 x_d den^2) and (C1 x_n + C0 x_d)^2 / (x_d den)^2;
    they are compared on integers, and only the larger becomes a Fraction.
    """
    x = rat(x)
    c1, c0, den = _weight_ints(x, rat(w), rat(t))
    xn, xd = x.numerator, x.denominator
    at_53 = (5 * c1 + 3 * c0) ** 2 * xn  # over 15 x_d den^2
    at_x = (c1 * xn + c0 * xd) ** 2  # over x_d^2 den^2
    if at_53 * xd > 15 * at_x:
        return F(at_53, 15 * xd * den * den)
    return F(at_x, (xd * den) ** 2)


def left_certificate(x, w, t) -> Fraction:
    """Generalized lower-endpoint certificate with free parameters (w, t).

    16t(1-t) x(3x-4)(3x-5)(5x-9) + 5(w-x)^2 * M(x,w,t) where M is the exact
    supremum of q(S)^2 x/S over S in [5/3, x].  A negative value proves x is
    not attainable as the supremum of S under the pinching hypothesis.
    """
    x, w, t = rat(x), rat(w), rat(t)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if not F(5, 3) <= w <= x <= F(9, 5):
        raise ValueError(f"need 5/3 <= w <= x <= 9/5, got w={w}, x={x}")
    return left_certificate_value(x, w, t)


def left_certificate_value(x, w, t) -> Fraction:
    """:func:`left_certificate` without its domain checks; replay needs x = 5/3 < w.

    The common term 16t(1-t) x(3x-4)(3x-5)(5x-9) and 5(w-x)^2 M are summed
    over one integer denominator, with M from :func:`weight_sup_over_s`.
    """
    x, w, t = rat(x), rat(w), rat(t)
    xn, xd = x.numerator, x.denominator
    wn, wd = w.numerator, w.denominator
    tn, td = t.numerator, t.denominator
    # common = c / (t_d x_d^2)^2
    c = 16 * tn * (td - tn) * xn * (3 * xn - 4 * xd) * (3 * xn - 5 * xd) * (5 * xn - 9 * xd)
    m = weight_sup_over_s(x, w, t)
    # 5 (w - x)^2 M = 5 (w_n x_d - x_n w_d)^2 m_n / ((w_d x_d)^2 m_d)
    gap = wn * xd - xn * wd
    common_den = td * xd * xd
    return F(c * (wd * wd * m.denominator) + 5 * gap * gap * m.numerator * common_den * td,
             common_den * common_den * wd * wd * m.denominator)


@lru_cache(maxsize=None)
def left_branch_forms() -> tuple[tuple[str, tuple[Polynomial, ...]], ...]:
    """The two branches of phi at w = 5/3 as (label, form in t) pairs, quadratic in t.

    The supremum M sits at S = x or at S = 5/3 (:func:`weight_sup_over_s`),
    giving 5(w-x)^2 q(x)^2 or 3x (w-x)^2 q(5/3)^2 plus the common term, so
    phi is the larger branch on the whole domain; c1 and c0(x) = k0 - 2x are
    affine in t.  Each branch vanishes at 5/3 to first order, with slope
    -160t(1-t)/3, and is positive at 9/5, where "sup-at-x" is
    5 (2/15)^2 (106/15 + 4t/5)^2 and "sup-at-5/3" is
    (27/5) (2/15)^2 (104/15 - t/5)^2.
    """
    (c1, k0), (c1_at_1, k0_at_1) = (weight_linear_coeffs(0, F(5, 3), t) for t in (0, 1))
    dc1, c0 = c1_at_1 - c1, (k0 - 2 * _X, Polynomial.constant(k0_at_1 - k0))

    def q(s):  # the weight c1 S + c0(x) at S = s
        return (c0[0] + c1 * s, c0[1] + dc1 * s)

    quartic = _X * (3 * _X - 4) * (3 * _X - 5) * (5 * _X - 9)
    common = [c * quartic for c in _affine_product((0, 16), (1, -1))]

    def branch(factor, s):  # common + factor (w - x)^2 q(s)^2
        factor = factor * Polynomial.linear(F(5, 3), -1) ** 2
        return tuple(c + factor * p for c, p in zip(common, _affine_product(q(s), q(s))))

    return (("sup-at-x", branch(5, _X)), ("sup-at-5/3", branch(3 * _X, F(5, 3))))


@lru_cache(maxsize=None)
def left_quotient_forms() -> tuple[tuple[Polynomial, ...], ...]:
    """Each form of :func:`left_branch_forms`, in order, divided by x - 5/3.

    Every entry of both forms vanishes at 5/3, so each is divided once,
    with a zero-remainder check; division is linear in t, so a quotient
    form at t (:func:`at_t`) is the branch at t divided by x - 5/3.  Raises
    :class:`ExactPolyError` if an entry leaves a remainder.
    """
    divisor = Polynomial.linear(-PINCH_DOMAIN.lo, 1)
    quotients = []
    for label, form in left_branch_forms():
        entries = []
        for entry in form:
            q, r = entry.divmod(divisor)
            if not r.is_zero:
                raise ExactPolyError(f"left branch {label} does not vanish at {PINCH_DOMAIN.lo}")
            entries.append(q)
        quotients.append(tuple(entries))
    return tuple(quotients)


@dataclass(frozen=True)
class ThresholdReport:
    """Human- and machine-readable record of one certified threshold.

    It cites its certificates by the labels of the report's top-level
    entries, which hold each certificate once; :meth:`to_json` writes those
    labels as the row's ``certificates``.
    """

    name: str
    certificate_labels: tuple[str, ...]
    root_enclosure: IntervalQ | None
    parameters: dict = field(default_factory=dict)
    conclusion: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "certificates": list(self.certificate_labels),
            "root_enclosure": self.root_enclosure.to_json() if self.root_enclosure else None,
            "parameters": {k: rat_str(rat(v)) for k, v in self.parameters.items()},
            "conclusion": self.conclusion,
        }


def render_markdown_table(reports: list[ThresholdReport]) -> str:
    """Markdown certification table, one row per threshold report."""
    lines = [
        "| threshold | parameters | enclosure | conclusion |",
        "|---|---|---|---|",
    ]
    for r in reports:
        params = ", ".join(f"{k}={rat_str(rat(v))}" for k, v in sorted(r.parameters.items()))
        if r.root_enclosure is not None:
            enc = f"[{rat_str(r.root_enclosure.lo)}, {rat_str(r.root_enclosure.hi)}]"
            enc += f" ~ [{float(r.root_enclosure.lo):.6f}, {float(r.root_enclosure.hi):.6f}] (approx)"
        else:
            enc = "-"
        lines.append(f"| {r.name} | {params or '-'} | {enc} | {r.conclusion} |")
    return "\n".join(lines)
