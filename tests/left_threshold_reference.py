"""Frozen copy of the three-branch lower-endpoint threshold.

``weight_sup_over_s``, ``left_branch_forms``, ``left_branch_polynomials``,
``_Crossing``, ``_nonzero_point_above``, ``_deflate_root``,
``_first_nonneg`` and ``left_threshold`` below are verbatim copies of the
code that also built the interior critical branch ("sup-at-critical",
the supremum of q(S)^2 x / S at S = c0/c1) and handled the crossing kinds
only that branch could reach.  The edits: ``left_branch_polynomials``
reads the three-branch forms defined here rather than those of
``pinching_bounds``, which dropped the critical branch, and the weight
coefficients and phi come from the frozen Fraction copies of
``phi_reference`` rather than from ``pinching_bounds``.  The forms are
tuples of polynomials, entry k at t^k; ``_affine_product``, ``at_t`` and
``_integer_columns`` are verbatim copies of the ``pinching_bounds``
helpers that served them, made here when ``pinching_bounds`` replaced
them by ``exact_poly.Form``.  They are kept as
a test oracle: the two-branch threshold must give the same enclosure,
certificate and values, and the same support less the critical branch's
certificates.  Do not edit them to track the library; nothing in ``src``
imports this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import phi_reference as phi_ref
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import (
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignCertificate,
    _RootCounter,
    _homogeneous,
    certify_sign_on_interval,
    count_roots,
    rat,
    sign_at,
)
from pinchcert.param_search import (
    DOMAIN_HI,
    DOMAIN_LO,
    ThresholdEnclosure,
    _isolate_smallest_root,
    edge_weight,
)

F = Fraction

_X = Polynomial.x()
weight_linear_coeffs = phi_ref.weight_linear_coeffs


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


def weight_sup_over_s(x, w, t) -> Fraction:
    """Exact supremum of q(S)^2 * x / S over S in [5/3, x].

    The derivative numerator factors as (c1 S + c0)(c1 S - c0), so the only
    interior critical points are S = +-c0/c1; the supremum is attained at a
    rational candidate and is returned exactly.
    """
    x, w, t = rat(x), rat(w), rat(t)
    c1, c0 = weight_linear_coeffs(x, w, t)
    candidates = [F(5, 3), x]
    if c1 != 0:
        crit = c0 / c1
        if F(5, 3) <= crit <= x:
            candidates.append(crit)
    best = None
    for s in candidates:
        q = c1 * s + c0
        g = q * q * x / s
        if best is None or g > best:
            best = g
    return best


@lru_cache(maxsize=None)
def left_branch_forms() -> tuple[tuple[str, tuple[Polynomial, ...]], ...]:
    """The branches of phi at w = 5/3 as (label, form in t) pairs, quadratic in t.

    The supremum M sits at S = x, at S = 5/3 or at S = c0(x)/c1 (where
    q = 2 c0), giving 5(w-x)^2 q(x)^2, 3x (w-x)^2 q(5/3)^2 or
    20 c1 c0(x) x (w-x)^2 plus the common term; c1 and c0(x) = k0 - 2x are
    affine in t.
    """
    (c1, k0), (c1_at_1, k0_at_1) = (weight_linear_coeffs(0, F(5, 3), t) for t in (0, 1))
    dc1, c0 = c1_at_1 - c1, (k0 - 2 * _X, Polynomial.constant(k0_at_1 - k0))

    def q(s):  # the weight c1 S + c0(x) at S = s
        return (c0[0] + c1 * s, c0[1] + dc1 * s)

    quartic = _X * (3 * _X - 4) * (3 * _X - 5) * (5 * _X - 9)
    common = [c * quartic for c in _affine_product((0, 16), (1, -1))]

    def branch(factor, a, b):  # common + factor (w - x)^2 a b
        factor = factor * Polynomial.linear(F(5, 3), -1) ** 2
        return tuple(c + factor * p for c, p in zip(common, _affine_product(a, b)))

    return (
        ("sup-at-x", branch(5, q(_X), q(_X))),
        ("sup-at-5/3", branch(3 * _X, q(F(5, 3)), q(F(5, 3)))),
        ("sup-at-critical", branch(20 * _X, (c1, dc1), c0)),
    )


def left_branch_polynomials(t) -> list[tuple[str, Polynomial, IntervalQ]]:
    """:func:`pinching_bounds.left_branch_forms` at t, with their segments.

    Returns (label, polynomial, applicability interval) triples; the
    certificate value at x is the max of the applicable branch values.
    The two endpoint branches (supremum at S = 5/3 and at S = x) cover the
    whole domain; the interior critical branch exists only where the
    stationary point c0(x)/c1 falls inside [5/3, x].
    """
    t = rat(t)
    c1, k0 = phi_ref.weight_linear_coeffs(0, DOMAIN_LO, t)  # c0(x) = k0 - 2x
    segments = dict.fromkeys(("sup-at-x", "sup-at-5/3"), pb.PINCH_DOMAIN)
    # critical branch applicability: 5/3 <= (k0 - 2x)/c1 <= x
    seg_lo = max(DOMAIN_LO, k0 / (2 + c1))
    seg_hi = min(DOMAIN_HI, (k0 - F(5, 3) * c1) / 2)
    if seg_lo <= seg_hi:
        segments["sup-at-critical"] = IntervalQ(seg_lo, seg_hi)
    return [(label, at_t(form, t), segments[label])
            for label, form in left_branch_forms() if label in segments]


@dataclass
class _Crossing:
    """First point along a branch where the branch value becomes >= 0."""

    kind: str                 # "none" | "at-start" | "root"
    lo: Fraction | None = None
    hi: Fraction | None = None
    certificate: SignCertificate | None = None
    dossier: tuple[SignCertificate, ...] = ()


def _nonzero_point_above(p: Polynomial, u: Fraction, v: Fraction) -> Fraction:
    """Point u' slightly above u with p(u') != 0."""
    delta = (v - u) / 10**6
    for _ in range(10):
        candidate = u + delta
        if candidate < v and sign_at(p, candidate) != 0:
            return candidate
        delta /= 10
    raise ExactPolyError(f"no nonzero point just above {u}")


def _deflate_root(p: Polynomial, u: Fraction) -> Polynomial:
    """Divide out every (x - u) factor; requires p(u) == 0."""
    g = p
    factor = Polynomial.linear(-u, 1)
    while not g.is_zero:
        q, r = g.divmod(factor)
        if not r.is_zero:
            break
        g = q
    return g


def _first_nonneg(p: Polynomial, u: Fraction, v: Fraction, width: Fraction) -> _Crossing:
    """Locate the first x in (u, v) where p(x) >= 0.

    The returned data is backed by exact certificates: "none" carries a
    no-root certificate over the whole segment, "root" carries an
    exactly-one-root certificate for the enclosure of the branch's smallest
    root (endpoints of opposite sign).  When the segment starts at a root of
    p, the root factor is divided out exactly so that strict negativity of
    the quotient certifies the sign of p on the initial sliver.  p builds
    its Sturm chain at its first count, after the cheap sign tests, and
    keeps it for the rest.
    """
    if sign_at(p, u) > 0:
        return _Crossing(kind="at-start", lo=u, hi=u)
    u_in = _nonzero_point_above(p, u, v)
    if sign_at(p, u_in) > 0:
        return _Crossing(kind="at-start", lo=u, hi=u_in)
    dossier = []
    # certify p < 0 on the sliver (u, u_in]
    if sign_at(p, u) == 0:
        g = _deflate_root(p, u)
        if sign_at(g, u) > 0:
            # p = (x-u)^k g turns positive immediately above u
            return _Crossing(kind="at-start", lo=u, hi=u_in)
        # p = (x-u)^k g with (x-u)^k > 0 above u, so sign(p) = sign(g) there
        dossier.append(certify_sign_on_interval(g, IntervalQ(u, u_in), "negative"))
    else:
        n_gap, cert_gap = count_roots(p, IntervalQ(u, u_in))
        if n_gap != 0:
            enclosure, cert = _isolate_smallest_root(p, u, u_in, width)
            return _Crossing(kind="root", lo=enclosure.lo, hi=enclosure.hi,
                             certificate=cert, dossier=(cert_gap,))
        dossier.append(cert_gap)
    v_in = v
    if sign_at(p, v_in) == 0:
        v_in = v - (v - u) / 10**6
        while sign_at(p, v_in) == 0:
            v_in = (u_in + v_in) / 2
    # no end below is a root of p, so count_roots certifies at exactly these points
    if _RootCounter(p).count(u_in, v_in) == 0:
        dossier.append(count_roots(p, IntervalQ(u_in, v_in))[1])
        return _Crossing(kind="none", dossier=tuple(dossier))
    enclosure, cert = _isolate_smallest_root(p, u_in, v_in, width)
    # dossier: no roots strictly below the enclosure, so p < 0 there
    if enclosure.lo > u_in:
        dossier.append(count_roots(p, IntervalQ(u_in, enclosure.lo))[1])
    return _Crossing(kind="root", lo=enclosure.lo, hi=enclosure.hi,
                     certificate=cert, dossier=tuple(dossier))


def left_threshold(t, w, width=F(1, 10**6)) -> ThresholdEnclosure:
    """Certified enclosure of the lower-endpoint threshold at parameters (t, w).

    The threshold is the largest x such that the certificate stays negative
    on (5/3, x); pinching below it forces S to sit at the lower endpoint.
    For w > 5/3 (see :func:`edge_lemma`) the certificate is positive at the
    domain edge, and the degenerate enclosure [5/3, 5/3] is returned.
    """
    t, w, width = rat(t), rat(w), rat(width)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if not DOMAIN_LO <= w <= DOMAIN_HI:
        raise ValueError(f"w = {w} outside [5/3, 9/5]")
    if width <= 0:
        raise ValueError("width must be positive")

    if w > DOMAIN_LO:
        # phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2 > 0 by the edge lemma, so it is
        # nonnegative at (and hence just above) the domain edge: no usable
        # region; a sign certificate for the linear weight factor q
        # witnesses the degeneracy cheaply.
        enclosure = IntervalQ(DOMAIN_LO, DOMAIN_LO)
        cert = certify_sign_on_interval(edge_weight(t, w), enclosure, "positive")
        phi = phi_ref.left_certificate_value(DOMAIN_LO, w, t)
        return ThresholdEnclosure(
            side="left", t=t, w=w, enclosure=enclosure, certificate=cert,
            degenerate=True, phi_lo=phi, phi_hi=phi,
        )

    crossings: list[tuple[Fraction, Fraction, _Crossing]] = []
    dossier: list[SignCertificate] = []
    for label, p, seg in left_branch_polynomials(t):
        if p.is_zero:
            raise ExactPolyError(f"branch {label} degenerated to the zero polynomial")
        crossing = _first_nonneg(p, seg.lo, seg.hi, width / 2)
        dossier.extend(crossing.dossier)
        if crossing.kind != "none":
            crossings.append((crossing.lo, crossing.hi, crossing))

    # never empty: at 9/5 sup-at-x or sup-at-5/3 is positive, as q(9/5) != q(5/3)
    crossings.sort(key=lambda item: (item[0], item[1]))
    lo, hi, winner = crossings[0]
    if winner.kind == "at-start" or winner.certificate is None:
        raise ExactPolyError(
            "certificate becomes nonnegative at a branch segment boundary; "
            "no sign-change enclosure exists for these parameters"
        )
    phi_lo = phi_ref.left_certificate_value(lo, w, t)
    phi_hi = phi_ref.left_certificate_value(hi, w, t)
    if not (phi_lo < 0 < phi_hi):
        raise ExactPolyError(
            f"threshold enclosure failed the exact endpoint check: "
            f"phi({lo}) = {phi_lo}, phi({hi}) = {phi_hi}"
        )
    return ThresholdEnclosure(
        side="left", t=t, w=w, enclosure=IntervalQ(lo, hi),
        certificate=winner.certificate, degenerate=False,
        support=tuple(dossier), phi_lo=phi_lo, phi_hi=phi_hi,
    )
