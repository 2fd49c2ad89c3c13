"""Exact rational polynomial algebra with replayable sign certificates.

Polynomials have arbitrary-precision rational coefficients
(`fractions.Fraction`).  Evaluation, Sturm chains and sign counting run on
integers: a polynomial carries its coefficients scaled to integers, values at
a/b come from homogeneous Horner, and chains are primitive integer
pseudo-remainder sequences.  Root counts and sign claims are established by
Sturm's theorem and packaged as :class:`SignCertificate` records whose
evidence can be re-derived bit-for-bit from the stored polynomial and
interval.  Floating point enters at one place only: a numpy root estimate
proposes the final cell of a root isolation, and exact sign and Sturm checks
confirm it (or bisection runs as if there had been no proposal), so no
result depends on a float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

CLAIM_NO_ROOT = "no-root"
CLAIM_ONE_ROOT = "exactly-one-root"
CLAIM_POSITIVE = "sign-constant-positive"
CLAIM_NEGATIVE = "sign-constant-negative"
# Used by count_roots when the Sturm count exceeds one, or is one without a
# sign change (an even-multiplicity root); none of the four claims above can
# express either.
CLAIM_ROOT_COUNT = "root-count"

_COUNT_CLAIMS = (CLAIM_NO_ROOT, CLAIM_ONE_ROOT, CLAIM_ROOT_COUNT)
_SIGN_CLAIMS = (CLAIM_POSITIVE, CLAIM_NEGATIVE)


class ExactPolyError(Exception):
    """Base class for certification failures in this module."""


class DegenerateEndpointError(ExactPolyError):
    """An interval endpoint is a root and nudging could not clear it."""


class SignClaimError(ExactPolyError):
    """A requested sign claim is false; carries a rational counterexample."""

    def __init__(self, message: str, counterexample: Fraction):
        super().__init__(message)
        self.counterexample = counterexample


def rat(value) -> Fraction:
    """Parse ``value`` into an exact Fraction.

    Decimal strings such as ``"1.7075"`` become exact power-of-ten rationals
    (6830/4000 -> 683/400); ``"p/q"`` strings, ints and Fractions pass through
    exactly.  Binary floats are rejected: accepting them would contaminate
    certificates with rounding already performed by the caller.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def rat_str(q: Fraction) -> str:
    """Canonical ``p/q`` serialization (denominator always explicit)."""
    return f"{q.numerator}/{q.denominator}"


class Polynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Immutable.  The zero polynomial has an empty coefficient tuple and,
    by convention here, degree -1.  The integer form used for evaluation is
    derived from ``coeffs`` on first use and takes no part in equality.
    """

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((rat(c),))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def linear(cls, a0, a1) -> "Polynomial":
        """a0 + a1*x."""
        return cls((rat(a0), rat(a1)))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"({c})*x")
            else:
                terms.append(f"({c})*x^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial(x + y for x, y in zip(a, b))

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(rat(value))

    # -- calculus and evaluation ---------------------------------------

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """``(ints, den)``: den is the lcm of the coefficient denominators and
        ``ints[i] = den * coeffs[i]``.  Computed once, on first use."""
        form = self._ints
        if form is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            form = (tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den)
            object.__setattr__(self, "_ints", form)
        return form

    def __call__(self, x) -> Fraction:
        """Exact value at x = a/b: ``_homogeneous(ints, a, b) / (den * b^n)``."""
        x = rat(x)
        ints, den = self.integer_form()
        if not ints:
            return Fraction(0)
        b = x.denominator
        return Fraction(_homogeneous(ints, x.numerator, b), den * b ** (len(ints) - 1))

    def derivative(self) -> "Polynomial":
        if self.degree < 1:
            return Polynomial.zero()
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return Polynomial(quo), Polynomial(rem)

    def rem(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Polynomial":
        return cls(rat(c) for c in data)


def _homogeneous(ints: Sequence[int], a: int, b: int) -> int:
    """``sum(ints[i] * a^i * b^(n-i))`` with n = len(ints) - 1, by Horner.

    For b > 0 this is p(a/b) times the positive integer den * b^n, so its
    sign is the sign of p(a/b); only integers are multiplied.
    """
    acc = ints[-1]
    bp = 1
    for c in reversed(ints[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return acc


def _sign_at_ratio(p: Polynomial, a: int, b: int) -> int:
    """Sign of p(a/b) for integers a and b > 0, not necessarily coprime."""
    ints, _ = p.integer_form()
    if not ints:
        return 0
    n = _homogeneous(ints, a, b)
    return (n > 0) - (n < 0)


def sign_at(p: Polynomial, x: Fraction) -> int:
    """Sign of p(x) (-1, 0 or 1), without building the value."""
    return _sign_at_ratio(p, x.numerator, x.denominator)


def poly_eval(p: Polynomial, x) -> Fraction:
    """Exact value of ``p`` at a rational point."""
    return p(x)


@dataclass(frozen=True)
class IntervalQ:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def to_json(self) -> list[str]:
        return [rat_str(self.lo), rat_str(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "IntervalQ":
        return cls(rat(data[0]), rat(data[1]))


def _primitive_ints(cs: Sequence[int]) -> Polynomial:
    """The polynomial with coefficients ``cs`` divided by their positive gcd."""
    g = gcd(*cs)
    ints = tuple(c // g for c in cs)
    q = Polynomial(ints)
    object.__setattr__(q, "_ints", (ints, 1))
    return q


def _negated_pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of -rem(a, b), on integers; [] when b divides a.

    Each reduction step multiplies the running remainder by lc = b[-1], so
    the result is lc^k * rem(a, b) for the k steps taken; multiplying by
    -sign(lc)^k makes it a positive multiple of -rem(a, b).
    """
    r = list(a)
    lc = b[-1]
    db = len(b) - 1
    negate = True
    while len(r) > db:
        lead = r.pop()
        if lead == 0:
            continue
        shift = len(r) - db
        r = [lc * c for c in r]
        if lc < 0:
            negate = not negate
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= lead * c
    while r and r[-1] == 0:
        r.pop()
    return [-c for c in r] if negate else r


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical Sturm chain of ``p``.

    p0 = p, p1 = p', then p_{i+1} = -rem(p_{i-1}, p_i) until the remainder
    vanishes.  Each member after p0 is reduced to its positive-primitive
    integer form, which preserves every sign and keeps coefficients small.
    The members are computed as integer pseudo-remainders of those forms,
    which differ from the rational remainders by positive factors only, so
    the primitive members are the same.  A repeated root shows up as a final
    element of positive degree (the gcd of p and p').
    """
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    chain = [p]
    ints, _ = p.integer_form()
    if len(ints) < 2:
        return chain
    chain.append(_primitive_ints([k * c for k, c in enumerate(ints) if k]))
    prev = ints
    while True:
        cur = chain[-1].integer_form()[0]
        r = _negated_pseudo_remainder(prev, cur)
        if not r:
            break
        chain.append(_primitive_ints(r))
        prev = cur
    return chain


def sign_variations(values: Sequence) -> int:
    """Sign changes in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: Sequence[Polynomial], x: Fraction) -> int:
    return sign_variations([sign_at(q, x) for q in chain])


class _RootCounter:
    """Sturm chain of one polynomial, built once, for repeated range counts."""

    def __init__(self, p: Polynomial, chain: list[Polynomial] | None = None):
        self.p = p
        self.chain = sturm_sequence(p) if chain is None else chain

    def variations(self, x: Fraction) -> int:
        return _variations_at(self.chain, x)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi); endpoints must not be roots."""
        return self.variations(lo) - self.variations(hi)


def _nudge_endpoint(p: Polynomial, x: Fraction, span: Fraction, inward: int) -> tuple[Fraction, bool]:
    """Move an endpoint off a root by shrinking rational steps.

    Steps are ``span / 10**k`` for k = 6..12, taken toward the interior
    (``inward`` is +1 for the lower endpoint, -1 for the upper).  Returns
    (possibly moved point, whether a move happened).
    """
    if sign_at(p, x) != 0:
        return x, False
    for k in range(6, 13):
        candidate = x + inward * span / 10**k
        if sign_at(p, candidate) != 0:
            return candidate, True
    raise DegenerateEndpointError(
        f"endpoint {x} is a root and all nudges 10^-6..10^-12 of the span hit roots"
    )


@dataclass(frozen=True)
class SignCertificate:
    """Exact-arithmetic proof record for a root-count or sign claim.

    ``evidence`` holds only ints and ``p/q`` strings, so the record is
    JSON-stable and :meth:`replay` can recompute every entry from the
    polynomial and interval and compare bit-for-bit.
    """

    polynomial: Polynomial
    interval: IntervalQ
    claim: str
    evidence: dict

    def to_json(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json(),
            "interval": self.interval.to_json(),
            "claim": self.claim,
            "evidence": dict(self.evidence),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, data: dict) -> "SignCertificate":
        return cls(
            polynomial=Polynomial.from_json(data["polynomial"]),
            interval=IntervalQ.from_json(data["interval"]),
            claim=data["claim"],
            evidence=dict(data["evidence"]),
        )

    def replay(self) -> bool:
        """Recompute the evidence from scratch and check it verbatim.

        The recomputed values must also prove the claim: a ``no-root`` claim
        needs nonzero values at both closed endpoints, and an
        ``exactly-one-root`` claim needs endpoint values of opposite sign.
        Evidence that is missing, mistyped (a float, ``None``) or not in
        canonical form replays ``False``; it never raises.
        """
        try:
            expected = _recompute_evidence(self.polynomial, self.claim, self.evidence)
        except (ExactPolyError, ValueError, ZeroDivisionError, KeyError, TypeError):
            return False
        # types too: a float 2.0 or a bool True compares equal to an int
        if expected != self.evidence or any(
            type(self.evidence[k]) is not type(v) for k, v in expected.items()
        ):
            return False
        lo = rat(self.evidence["lo"])
        hi = rat(self.evidence["hi"])
        return self.interval.lo <= lo <= hi <= self.interval.hi


def _recompute_evidence(p: Polynomial, claim: str, evidence: dict) -> dict:
    """Rebuild the canonical evidence dict for ``claim`` at the recorded points."""
    count, out = _count_evidence(p, rat(evidence["lo"]), rat(evidence["hi"]))
    value_lo, value_hi = rat(out["value_lo"]), rat(out["value_hi"])
    if claim in _SIGN_CLAIMS:
        witness = rat(evidence["witness"])
        out["witness"] = rat_str(witness)
        out["witness_value"] = rat_str(p(witness))
        want_positive = claim == CLAIM_POSITIVE
        ok = count == 0 and value_lo != 0 and value_hi != 0
        for v in (value_lo, value_hi, p(witness)):
            ok = ok and ((v > 0) == want_positive)
        if not ok:
            raise SignClaimError("stored sign claim does not replay", witness)
    elif claim == CLAIM_NO_ROOT:
        # a root on a closed endpoint is a root of the interval too
        if count != 0 or value_lo == 0 or value_hi == 0:
            raise ExactPolyError("no-root claim does not replay")
    elif claim == CLAIM_ONE_ROOT:
        # one distinct root and a strict sign change: an odd-multiplicity
        # root inside, which no even-multiplicity touch can fake
        if count != 1 or value_lo * value_hi >= 0:
            raise ExactPolyError("exactly-one-root claim does not replay")
    elif claim == CLAIM_ROOT_COUNT:
        pass
    else:
        raise ValueError(f"unknown claim {claim!r}")
    return out


def _count_evidence(
    p: Polynomial, lo: Fraction, hi: Fraction, chain: list[Polynomial] | None = None
) -> tuple[int, dict]:
    """Sturm count of p on (lo, hi) with its evidence; ``chain`` is p's own
    Sturm chain when the caller already holds it."""
    if chain is None:
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
        "value_lo": rat_str(p(lo)),
        "value_hi": rat_str(p(hi)),
    }
    return count, evidence


def count_roots(
    p: Polynomial, iv: IntervalQ, chain: list[Polynomial] | None = None
) -> tuple[int, SignCertificate]:
    """Exact number of distinct real roots of ``p`` in the open interval.

    Endpoints that happen to be roots are nudged inward by shrinking
    rational steps (recorded in the evidence); if twelve decades of nudging
    cannot clear them the input is reported as degenerate.  The claim is
    ``exactly-one-root`` only when the single root changes p's sign between
    the endpoints, ``root-count`` for any other nonzero count.  ``chain`` is
    p's Sturm chain when the caller already holds it.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    span = iv.width if iv.width > 0 else Fraction(1)
    lo, _ = _nudge_endpoint(p, iv.lo, span, +1)
    hi, _ = _nudge_endpoint(p, iv.hi, span, -1)
    if lo > hi:
        raise DegenerateEndpointError("nudged endpoints crossed; interval too thin")
    count, evidence = _count_evidence(p, lo, hi, chain)
    if count == 0:
        claim = CLAIM_NO_ROOT
    elif count == 1 and sign_at(p, lo) != sign_at(p, hi):
        claim = CLAIM_ONE_ROOT
    else:
        claim = CLAIM_ROOT_COUNT
    return count, SignCertificate(p, iv, claim, evidence)


def _offset_midpoint(p: Polynomial, lo: Fraction, hi: Fraction) -> Fraction:
    """Point near the middle of (lo, hi) where p does not vanish.

    A polynomial has finitely many roots, so some dyadic offset works.
    """
    span = hi - lo
    for k in range(1, 64):
        for num, den in ((1, 2), (2**k + 1, 2**(k + 1)), (2**k - 1, 2**(k + 1))):
            m = lo + span * Fraction(num, den)
            if lo < m < hi and sign_at(p, m) != 0:
                return m
    raise ExactPolyError("could not find a non-root interior point")


def _bisection_depth(span: Fraction, width: Fraction) -> int:
    """Fewest halvings d with span / 2^d <= width."""
    ratio = span / width
    n, m = ratio.numerator, ratio.denominator
    d = max(n.bit_length() - m.bit_length() - 1, 0)
    while (m << d) < n:
        d += 1
    return d


def _float_smallest_root(p: Polynomial, a: Fraction, b: Fraction) -> float | None:
    """Float estimate of the first sign change of p in [a, b], if numpy sees one.

    Each pass samples the bracket at 256 points and keeps the first sign
    change; five passes shrink it by 2^40.  A root of even multiplicity, or
    two roots between neighbouring samples, is passed over.
    """
    try:
        coeffs = [float(c) for c in reversed(p.coeffs)]
        lo, hi = float(a), float(b)
    except OverflowError:
        return None
    for _ in range(5):
        xs = np.linspace(lo, hi, 257)
        signs = np.sign(np.polyval(coeffs, xs))
        change = np.flatnonzero(signs[:-1] * signs[1:] <= 0)
        if not change.size:
            return None
        lo, hi = xs[change[0]], xs[change[0] + 1]
    return (lo + hi) / 2


def _jump_cell(counter: _RootCounter, a: Fraction, b: Fraction,
               width: Fraction) -> tuple[Fraction, Fraction] | None:
    """The cell of :func:`_smallest_root_cell`'s bisection, guessed and confirmed.

    A float estimate of the smallest root picks the dyadic cell (lo, hi) of
    (a, b) at the depth the width demands.  Bisection stops in that cell
    exactly when its endpoints have opposite signs, (a, hi) holds one root,
    and no midpoint where bisection moved b down is a root (midpoints left
    of the cell lie in (a, lo], which then holds no root).  Returns None
    when any of this fails.
    """
    p = counter.p
    guess = _float_smallest_root(p, a, b)
    if guess is None:
        return None
    span = b - a
    depth = _bisection_depth(span, width)
    j = min(max(floor((guess - float(a)) / float(span) * (1 << depth)), 0), (1 << depth) - 1)
    # grid point i of the bisection at this depth is (base + i * step) / den
    den = a.denominator * span.denominator << depth
    base = a.numerator * span.denominator << depth
    step = span.numerator * a.denominator
    lo_num = base + j * step
    if _sign_at_ratio(p, lo_num, den) * _sign_at_ratio(p, lo_num + step, den) >= 0:
        return None
    lo, hi = Fraction(lo_num, den), Fraction(lo_num + step, den)
    # the sign change puts a root in (lo, hi); if it is the only one in
    # (a, hi), it is the smallest and the cell holds no other
    if counter.count(a, hi) != 1:
        return None
    for shift in range(depth - 1, -1, -1):
        prefix = j >> shift
        if not prefix & 1 and _sign_at_ratio(p, base + ((prefix + 1) << shift) * step, den) == 0:
            return None
    return lo, hi


def _smallest_root_cell(counter: _RootCounter, a: Fraction, b: Fraction,
                        width: Fraction) -> tuple[Fraction, Fraction]:
    """Where bisection toward the smallest root of p in (a, b) stops.

    Bisection keeps the half of the current cell that holds the smallest
    root (a midpoint that is itself a root is replaced by a nearby
    non-root), until the cell is at most ``width`` wide and holds one root.
    The cell is first taken from :func:`_jump_cell`; bisection runs only
    when that cannot be confirmed.  Requires p(a) != 0 != p(b) and a root
    in (a, b).
    """
    cell = _jump_cell(counter, a, b, width)
    if cell is not None:
        return cell
    p = counter.p
    while counter.count(a, b) > 1 or b - a > width:
        mid = (a + b) / 2
        if sign_at(p, mid) == 0:
            mid = _offset_midpoint(p, a, b)
        if counter.count(a, mid) >= 1:
            b = mid
        else:
            a = mid
    return a, b


def isolate_root(
    p: Polynomial, iv: IntervalQ, width, chain: list[Polynomial] | None = None
) -> tuple[IntervalQ, SignCertificate]:
    """Shrink an interval known to contain exactly one root of ``p``.

    Exact bisection down to the requested width; the returned enclosure has
    endpoints of exactly opposite sign, so p(lo)*p(hi) < 0 as rationals.
    With one root of odd multiplicity in the interval, keeping the half
    that holds it is keeping the half whose ends differ in sign, so the
    shared smallest-root kernel gives this bisection's cell.  ``chain`` is
    p's Sturm chain when the caller already holds it.
    """
    width = rat(width)
    if width <= 0:
        raise ValueError("isolation width must be positive")
    if chain is None and p.degree > 0:
        chain = sturm_sequence(p)
    count, _ = count_roots(p, iv, chain)
    if count != 1:
        raise ValueError(f"isolate_root requires exactly one root in the interval, found {count}")
    span = iv.width if iv.width > 0 else Fraction(1)
    lo, _ = _nudge_endpoint(p, iv.lo, span, +1)
    hi, _ = _nudge_endpoint(p, iv.hi, span, -1)
    if sign_at(p, lo) == sign_at(p, hi):
        raise ExactPolyError(
            "single root without endpoint sign change (even multiplicity); "
            "cannot certify an enclosure by signs"
        )
    lo, hi = _smallest_root_cell(_RootCounter(p, chain), lo, hi, width)
    count, evidence = _count_evidence(p, lo, hi, chain)
    if count != 1:
        raise ExactPolyError("bisection lost the root (inconsistent Sturm data)")
    enclosure = IntervalQ(lo, hi)
    return enclosure, SignCertificate(p, enclosure, CLAIM_ONE_ROOT, evidence)


def _find_counterexample(p: Polynomial, iv: IntervalQ, want_positive: bool) -> Fraction:
    """Locate a rational point in [lo, hi] violating the requested sign."""
    for n in (2, 16, 128, 1024, 8192):
        for k in range(n + 1):
            x = iv.lo + iv.width * Fraction(k, n)
            v = sign_at(p, x)
            if v == 0 or (v > 0) != want_positive:
                return x
    raise ExactPolyError("sign claim is false but no counterexample was located")


def certify_sign_on_interval(p: Polynomial, iv: IntervalQ, sign: str) -> SignCertificate:
    """Certificate that ``p`` keeps a strict sign on the whole closed interval.

    Evidence: zero roots in the interior by Sturm count, plus exact
    evaluations of the stated sign at both endpoints and one interior point.
    Raises :class:`SignClaimError` carrying a rational counterexample when
    the claim is false.
    """
    if sign not in ("positive", "negative"):
        raise ValueError("sign must be 'positive' or 'negative'")
    want_positive = sign == "positive"
    claim = CLAIM_POSITIVE if want_positive else CLAIM_NEGATIVE

    def _check(v: Fraction) -> bool:
        return v != 0 and (v > 0) == want_positive

    if p.is_zero:
        raise SignClaimError("zero polynomial has no strict sign", iv.lo)
    value_lo, value_hi = p(iv.lo), p(iv.hi)
    if not _check(value_lo):
        raise SignClaimError(f"claimed {sign} but p({iv.lo}) = {value_lo}", iv.lo)
    if not _check(value_hi):
        raise SignClaimError(f"claimed {sign} but p({iv.hi}) = {value_hi}", iv.hi)
    if iv.width == 0:
        witness = iv.lo
    else:
        witness = _offset_midpoint(p, iv.lo, iv.hi)
    value_witness = p(witness)
    if not _check(value_witness):
        raise SignClaimError(f"claimed {sign} but p({witness}) = {value_witness}", witness)
    count, evidence = _count_evidence(p, iv.lo, iv.hi)
    if count != 0:
        raise SignClaimError(
            f"claimed {sign} but Sturm finds {count} interior root(s)",
            _find_counterexample(p, iv, want_positive),
        )
    evidence["witness"] = rat_str(witness)
    evidence["witness_value"] = rat_str(value_witness)
    return SignCertificate(p, iv, claim, evidence)
