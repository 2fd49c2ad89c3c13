"""Frozen Fraction-only exact core, kept as the reference for the integer one.

These are ``Polynomial.__call__``, ``sturm_sequence``, ``isolate_root`` and
``param_search._isolate_smallest_root`` with the helpers they call, exactly
as they were before evaluation and Sturm counting moved to integers and
isolation learned to jump to the final dyadic cell.  The only edits are
that every ``p(x)`` reads ``horner(p, x)`` and ``d.primitive()`` reads
``primitive(d)`` (the method went with the Fraction chain), so nothing here
runs through the code under test.  Tests compare the library with these
functions for equality; nothing in ``src`` imports this.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from pinchcert.exact_poly import (
    CLAIM_NO_ROOT,
    CLAIM_ONE_ROOT,
    CLAIM_ROOT_COUNT,
    DegenerateEndpointError,
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignCertificate,
    rat,
    rat_str,
)


def horner(p: Polynomial, x) -> Fraction:
    """Exact evaluation by Horner's scheme."""
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def primitive(p: Polynomial) -> Polynomial:
    """Scale by a positive rational so coefficients are coprime integers.

    The scale factor is strictly positive, so sign data (all Sturm
    evidence) is unchanged while coefficient growth along remainder
    chains stays bounded.
    """
    if p.is_zero:
        return p
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    nums = [c.numerator * (den_lcm // c.denominator) for c in p.coeffs]
    g = 0
    for n in nums:
        g = gcd(g, abs(n))
    return Polynomial(Fraction(n // g) for n in nums)


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical Sturm chain of ``p``.

    p0 = p, p1 = p', then p_{i+1} = -rem(p_{i-1}, p_i) until the remainder
    vanishes.  Each member after p0 is reduced to its positive-primitive
    integer form, which preserves every sign and keeps coefficients small.
    A repeated root shows up as a final element of positive degree (the gcd
    of p and p').
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    chain = [p]
    d = p.derivative()
    if d.is_zero:
        return chain
    chain.append(primitive(d))
    while True:
        r = chain[-2].rem(chain[-1])
        if r.is_zero:
            break
        chain.append(primitive(-r))
    return chain


def sign_variations(values: Sequence[Fraction]) -> int:
    """Sign changes in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: Sequence[Polynomial], x: Fraction) -> int:
    return sign_variations([horner(q, x) for q in chain])


def _nudge_endpoint(p: Polynomial, x: Fraction, span: Fraction, inward: int) -> tuple[Fraction, bool]:
    if horner(p, x) != 0:
        return x, False
    for k in range(6, 13):
        candidate = x + inward * span / 10**k
        if horner(p, candidate) != 0:
            return candidate, True
    raise DegenerateEndpointError(
        f"endpoint {x} is a root and all nudges 10^-6..10^-12 of the span hit roots"
    )


def _count_evidence(p: Polynomial, lo: Fraction, hi: Fraction) -> tuple[int, dict]:
    chain = sturm_sequence(p)
    v_lo = _variations_at(chain, lo)
    v_hi = _variations_at(chain, hi)
    count = v_lo - v_hi
    evidence = {
        "lo": rat_str(lo),
        "hi": rat_str(hi),
        "variations_lo": v_lo,
        "variations_hi": v_hi,
        "root_count": count,
        "value_lo": rat_str(horner(p, lo)),
        "value_hi": rat_str(horner(p, hi)),
    }
    return count, evidence


def count_roots(p: Polynomial, iv: IntervalQ) -> tuple[int, SignCertificate]:
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if p.degree == 0:
        evidence = {
            "lo": rat_str(iv.lo),
            "hi": rat_str(iv.hi),
            "variations_lo": 0,
            "variations_hi": 0,
            "root_count": 0,
            "value_lo": rat_str(horner(p, iv.lo)),
            "value_hi": rat_str(horner(p, iv.hi)),
        }
        return 0, SignCertificate(p, iv, CLAIM_NO_ROOT, evidence)
    span = iv.width if iv.width > 0 else Fraction(1)
    lo, _ = _nudge_endpoint(p, iv.lo, span, +1)
    hi, _ = _nudge_endpoint(p, iv.hi, span, -1)
    if lo > hi:
        raise DegenerateEndpointError("nudged endpoints crossed; interval too thin")
    count, evidence = _count_evidence(p, lo, hi)
    if count == 0:
        claim = CLAIM_NO_ROOT
    elif count == 1:
        claim = CLAIM_ONE_ROOT
    else:
        claim = CLAIM_ROOT_COUNT
    return count, SignCertificate(p, iv, claim, evidence)


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _offset_midpoint(p: Polynomial, lo: Fraction, hi: Fraction) -> Fraction:
    span = hi - lo
    for k in range(1, 64):
        for num, den in ((1, 2), (2**k + 1, 2**(k + 1)), (2**k - 1, 2**(k + 1))):
            m = lo + span * Fraction(num, den)
            if lo < m < hi and horner(p, m) != 0:
                return m
    raise ExactPolyError("could not find a non-root interior point")


def isolate_root(p: Polynomial, iv: IntervalQ, width) -> tuple[IntervalQ, SignCertificate]:
    """Shrink an interval known to contain exactly one root of ``p``.

    Exact bisection down to the requested width; the returned enclosure has
    endpoints of exactly opposite sign, so p(lo)*p(hi) < 0 as rationals.
    """
    width = rat(width)
    if width <= 0:
        raise ValueError("isolation width must be positive")
    count, _ = count_roots(p, iv)
    if count != 1:
        raise ValueError(f"isolate_root requires exactly one root in the interval, found {count}")
    span = iv.width if iv.width > 0 else Fraction(1)
    lo, _ = _nudge_endpoint(p, iv.lo, span, +1)
    hi, _ = _nudge_endpoint(p, iv.hi, span, -1)
    s_lo, s_hi = _sign(horner(p, lo)), _sign(horner(p, hi))
    if s_lo == s_hi:
        raise ExactPolyError(
            "single root without endpoint sign change (even multiplicity); "
            "cannot certify an enclosure by signs"
        )
    while hi - lo > width:
        mid = (lo + hi) / 2
        if horner(p, mid) == 0:
            mid = _offset_midpoint(p, lo, hi)
        if _sign(horner(p, mid)) == s_lo:
            lo = mid
        else:
            hi = mid
    count, evidence = _count_evidence(p, lo, hi)
    if count != 1:
        raise ExactPolyError("bisection lost the root (inconsistent Sturm data)")
    enclosure = IntervalQ(lo, hi)
    return enclosure, SignCertificate(p, enclosure, CLAIM_ONE_ROOT, evidence)


class _RootCounter:
    """Sturm chain cached once per polynomial, for repeated range counts."""

    def __init__(self, p: Polynomial):
        self.p = p
        self.chain = sturm_sequence(p)

    def variations(self, x: Fraction) -> int:
        return sign_variations([horner(q, x) for q in self.chain])

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi); endpoints must not be roots."""
        return self.variations(lo) - self.variations(hi)


def isolate_smallest_root(
    p: Polynomial,
    a: Fraction,
    b: Fraction,
    width: Fraction,
    counter: _RootCounter | None = None,
) -> tuple[IntervalQ, SignCertificate]:
    """``param_search._isolate_smallest_root``: enclose the smallest root in (a, b).

    Requires p(a) != 0 != p(b).  Count-driven bisection keeps the leftmost
    root bracketed until exactly one remains, then sign bisection tightens
    to the requested width.
    """
    counter = counter or _RootCounter(p)
    if counter.count(a, b) < 1:
        raise ValueError("no root to isolate")
    while counter.count(a, b) > 1 or b - a > width:
        mid = (a + b) / 2
        if horner(p, mid) == 0:
            mid = _offset_midpoint(p, a, b)
        if counter.count(a, mid) >= 1:
            b = mid
        else:
            a = mid
    if horner(p, a) * horner(p, b) >= 0:
        # a single root without a sign change is an even-multiplicity touch
        raise ExactPolyError(
            "branch root has even multiplicity; no sign-change enclosure exists"
        )
    _, evidence = _count_evidence(p, a, b)
    enclosure = IntervalQ(a, b)
    return enclosure, SignCertificate(p, enclosure, CLAIM_ONE_ROOT, evidence)
