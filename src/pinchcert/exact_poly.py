"""Exact rational polynomial algebra with replayable sign certificates.

Polynomials have exact rational coefficients and hold one form of them:
the canonical integer form ``(ints, den)``, primitive together with its
positive denominator, to which every constructor reduces at once.
Arithmetic, evaluation, Sturm chains and sign counting run on those
integers: values at a/b come from homogeneous Horner, and chains are
primitive integer pseudo-remainder sequences of integer tuples, memoized
by integer form (:func:`_sturm_ints`).  Fraction coefficients are derived
only when something reads them.  Root counts and sign claims are
established by Sturm's theorem and packaged as :class:`SignCertificate`
records, each evidenced at its own closed interval's ends; a root count is
taken only where those ends are no roots.  One integer kernel,
:func:`_prove`, proves every certificate when it is built and again when
it is replayed, so it alone says which evidence proves which claim.  It
works on integer forms only: points are reduced ``(p, q)`` pairs, the
Sturm chain is integer tuples from the one chain builder, and values are
reduced ``p/q`` strings of integer Horner values; a certificate read back
from JSON holds the polynomial of its coefficient strings' integer form,
and its replay builds no Fraction.  No float enters this module: an
isolation whose count certificate claims exactly one root reads p at
neither of its ends again and proposes its final dyadic cell by Illinois
regula falsi on exact integer values, on one integer grid per interval and
width (:func:`_grid`, memoized); the proposal's end signs alone confirm
it, and Sturm-counted bisection, whose cell it is, runs where the proposal
fails or more roots are counted.  The one grid builder, :func:`_on_grid`,
prescales a :class:`Form`'s integer columns once for the grid's
denominator (a polynomial is the form of one row, :func:`_grid_search`),
so a search at t builds no polynomial and each value is one plain Horner
pass at an integer grid point.  An isolation refuses, before it searches, a
width whose certificate Python could not write as text.  A form is a
polynomial in (t, x), held as its polynomials in x at each power of t.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm, log10
from typing import Callable, Iterable, NamedTuple, Sequence

CLAIM_NO_ROOT = "no-root"
CLAIM_ONE_ROOT = "exactly-one-root"
CLAIM_POSITIVE = "sign-constant-positive"
CLAIM_NEGATIVE = "sign-constant-negative"
# Used by count_roots when the Sturm count exceeds one, or is one without a
# sign change (an even-multiplicity root); none of the four claims above can
# express either.
CLAIM_ROOT_COUNT = "root-count"

_COUNT_CLAIMS = (CLAIM_NO_ROOT, CLAIM_ONE_ROOT, CLAIM_ROOT_COUNT)
# each sign claim with the strict sign it asserts
_SIGN_CLAIMS = {CLAIM_POSITIVE: 1, CLAIM_NEGATIVE: -1}
# chains kept: a CLI command needs at most 5, a 100-op perfbench sweep cycle 115
_CHAIN_CACHE_SIZE = 256
# isolation grids kept: the probes of one sweep side share one grid
_GRID_CACHE_SIZE = 64


class ExactPolyError(Exception):
    """Base class for certification failures in this module."""


class DegenerateEndpointError(ExactPolyError):
    """An interval endpoint is a root."""


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
    certificates with rounding already performed by the caller.  So are
    bools: ``True`` is an int to Python but never a number a user meant.
    A string of the exact ASCII shape ``-?[0-9]+(/[0-9]+)?``, the form
    :func:`rat_str` writes, is parsed by ``int`` (:func:`_split_ratio`)
    without ``Fraction``'s regular expression; every other string goes to
    ``Fraction(str)``, but only once it is ASCII without ``_``, ``e`` or
    ``E``: ``Fraction`` would read ``"1_0/3"`` as 10/3, ``"٣/4"`` as 3/4,
    and build the huge integers of ``"1e-10000000"``.  Such a string, and
    a zero denominator, raise ``ValueError`` naming the string.
    """
    if isinstance(value, str):
        if "_" in value or "e" in value or "E" in value:
            raise ValueError(f"not a p/q or decimal rational: {value!r}")
        try:
            if value.isascii():
                pq = _split_ratio(value)
                return Fraction(*pq) if pq else Fraction(value)
            Fraction(value)  # only so that a zero denominator is named as one
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        raise ValueError(f"not a p/q or decimal rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot build an exact rational from bool")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def _split_ratio(value: str) -> tuple[int, int] | None:
    """``(p, q)`` read by ``int`` from an ASCII string of the exact shape
    ``-?[0-9]+(/[0-9]+)?`` (q = 1 without a slash, and q may be 0), else
    None."""
    num, slash, den = value.partition("/")
    # on ASCII, isdigit() accepts exactly [0-9]+
    if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
        return int(num), int(den) if slash else 1
    return None


def _ratio(value) -> tuple[int, int]:
    """``(p, q)`` with q > 0 and p/q = ``rat(value)``, not necessarily
    reduced: read by ``int`` without a Fraction when ``value`` is a string of
    :func:`_split_ratio`'s shape with a nonzero denominator; every other
    value goes through :func:`rat`, so exactly what it refuses is refused."""
    pq = _split_ratio(value) if isinstance(value, str) and value.isascii() else None
    if pq and pq[1]:
        return pq
    q = rat(value)
    return q.numerator, q.denominator


def rat_str(q: Fraction) -> str:
    """Canonical ``p/q`` serialization (denominator always explicit)."""
    return f"{q.numerator}/{q.denominator}"


def _ratio_str(n: int, d: int) -> str:
    """``rat_str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def _canonical(values: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical integer form of ``sum(values[i] x^i) / den``, den > 0:
    trailing zeros stripped, then the values and den divided by their gcd.
    Every polynomial's form is made here."""
    values = list(values)
    while values and not values[-1]:
        values.pop()
    g = gcd(den, *values)
    if g == 1:
        return tuple(values), den
    return tuple(v // g for v in values), den // g


class Polynomial:
    """Dense univariate polynomial with rational coefficients, lowest degree first.

    Immutable.  A polynomial holds one form of its value, the canonical
    integer form ``(ints, den)`` (:meth:`integer_form`): coefficient i is
    ``ints[i] / den``, den > 0, ``ints`` has no trailing zeros and
    gcd(*ints, den) == 1, so den is the lcm of the coefficient denominators.
    The zero polynomial is ``((), 1)`` and, by convention here, has degree
    -1.  Every constructor reduces to this form at once (:func:`_canonical`),
    arithmetic runs on the integers, and ``coeffs`` and ``leading`` are
    Fractions derived from it on each read.  Equality and the hash are
    those of the form.  A polynomial holds no Sturm chain: :meth:`_sturm`
    reads the memoized builder :func:`_sturm_ints`.
    """

    __slots__ = ("_form", "_hash")

    def __init__(self, coeffs: Iterable):
        cs = [rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        object.__setattr__(
            self, "_form", _canonical([c.numerator * (den // c.denominator) for c in cs], den))

    @classmethod
    def _from_integer_form(cls, values: Sequence[int], den: int) -> "Polynomial":
        """The polynomial ``sum(values[i] x^i) / den`` for den > 0, in the
        canonical form of :func:`_canonical`."""
        p = object.__new__(cls)
        object.__setattr__(p, "_form", _canonical(values, den))
        return p

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

    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """``(ints, den)``, the canonical integer form (see the class)."""
        return self._form

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fraction coefficients, derived from the integer form."""
        ints, den = self._form
        return tuple(Fraction(c, den) for c in ints)

    @property
    def degree(self) -> int:
        return len(self._form[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._form[0]

    @property
    def leading(self) -> Fraction:
        ints, den = self._form
        if not ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(ints[-1], den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._form == other._form

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._form)
            object.__setattr__(self, "_hash", h)
            return h

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
    # an operand of another type, such as a Form, gets NotImplemented, so
    # that Python tries its reflected method

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        (a, da), (b, db) = self._form, self._coerce(other)._form
        den = lcm(da, db)
        values = [c * (den // da) for c in a] + [0] * (len(b) - len(a))
        scale = den // db
        for i, c in enumerate(b):
            values[i] += c * scale
        return Polynomial._from_integer_form(values, den)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self + (-self._coerce(other))

    def __neg__(self) -> "Polynomial":
        ints, den = self._form
        return Polynomial._from_integer_form([-c for c in ints], den)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        (a, da), (b, db) = self._form, self._coerce(other)._form
        if not a or not b:
            return Polynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial._from_integer_form(out, da * db)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Polynomial":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
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

    def _sturm(self) -> tuple[tuple[int, ...], ...]:
        """The Sturm chain of the integer form, from :func:`_sturm_ints`."""
        return _sturm_ints(self._form[0])

    def __call__(self, x) -> Fraction:
        """Exact value at x = a/b: ``_homogeneous(ints, a, b) / (den * b^n)``."""
        x = rat(x)
        ints, den = self._form
        if not ints:
            return Fraction(0)
        b = x.denominator
        return Fraction(_homogeneous(ints, x.numerator, b), den * b ** (len(ints) - 1))

    def derivative(self) -> "Polynomial":
        ints, den = self._form
        return Polynomial._from_integer_form([k * c for k, c in enumerate(ints) if k], den)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        divisor = other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(divisor) + 1, 1)
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
            for i, c in enumerate(divisor):
                rem[shift + i] -= factor * c
            rem.pop()
        return Polynomial(quo), Polynomial(rem)

    # -- serialization --------------------------------------------------

    def to_json(self) -> list[str]:
        """The coefficients as :func:`rat_str` strings, written from the
        integer form."""
        ints, den = self._form
        return [_ratio_str(c, den) for c in ints]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Polynomial":
        """The polynomial of :meth:`to_json`'s coefficient strings: each entry
        is read once by :func:`_ratio`, and entries :func:`rat` refuses are
        refused; one lcm and :func:`_canonical`'s gcd reduce the pairs.
        Raises ``ValueError`` naming ``data`` unless it is a list or tuple."""
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"a polynomial must be a list of coefficients, got {data!r}")
        pairs = [_ratio(c) for c in data]
        den = lcm(*(d for _, d in pairs))
        return cls._from_integer_form([n * (den // d) for n, d in pairs], den)


#: what Polynomial arithmetic takes: polynomials and what :func:`rat` reads
_OPERANDS = (Polynomial, Fraction, int, str)


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
    ints = p._form[0]
    if not ints:
        return 0
    n = _homogeneous(ints, a, b)
    return (n > 0) - (n < 0)


def sign_at(p: Polynomial, x: Fraction) -> int:
    """Sign of p(x) (-1, 0 or 1), without building the value."""
    return _sign_at_ratio(p, x.numerator, x.denominator)


@dataclass(frozen=True)
class Form:
    """Polynomial in (t, x): ``rows[k]`` is the :class:`Polynomial` in x at
    t^k, and the last row is nonzero.  In ``+``, ``-`` and ``*`` a rational
    or a polynomial in x, on either side of the form, lifts to a form.  The
    integer columns :meth:`at` and :meth:`on_grid` read are made with it."""

    rows: tuple[Polynomial, ...] = ()
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [Polynomial._coerce(r) for r in self.rows]
        while rows and rows[-1].is_zero:
            rows.pop()
        forms = [r.integer_form() for r in rows]
        den = lcm(*(d for _, d in forms))
        # column i: den times the coefficients of x^i, lowest power of t first
        columns = zip_longest(*(tuple(c * (den // d) for c in ints) for ints, d in forms),
                              fillvalue=0)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_columns", (tuple(columns), den))

    @staticmethod
    def _lift(value) -> "Form":
        return value if isinstance(value, Form) else Form((value,))

    def __add__(self, other) -> "Form":
        return Form(p + q for p, q in zip_longest(self.rows, self._lift(other).rows, fillvalue=0))

    def __neg__(self) -> "Form":
        return Form(-p for p in self.rows)

    def __sub__(self, other) -> "Form":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "Form":
        return self._lift(other) - self

    def __mul__(self, other) -> "Form":
        a, b = self.rows, self._lift(other).rows
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, p in enumerate(a):
            for j, q in enumerate(b):
                out[i + j] = p * q + out[i + j]
        return Form(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Form":
        if n < 0:
            raise ValueError("negative form power")
        result = Form((1,))
        for _ in range(n):
            result = result * self
        return result

    def at(self, t) -> Polynomial:
        """The polynomial in x at t = a/b: each column at a/b by the integer
        Horner of :func:`_homogeneous`, over den * b^(len(rows) - 1), made
        canonical from those integers; no Fraction is built."""
        t = rat(t)
        columns, den = self._columns
        if not columns:
            return Polynomial.zero()
        a, b = t.numerator, t.denominator
        return Polynomial._from_integer_form([_homogeneous(c, a, b) for c in columns],
                                             den * b ** (len(self.rows) - 1))

    def on_grid(self, a, b, width) -> Callable[[int, int], "_GridSearch"]:
        """The form's search at t on one isolation grid (:func:`_on_grid`)."""
        return _on_grid(self._columns[0], a, b, width)

    def derivative(self) -> "Form":
        """The x-derivative, row by row."""
        return Form(p.derivative() for p in self.rows)

    def bernstein(self, h) -> tuple[Polynomial, ...]:
        """The Bernstein coefficients b_0..b_n in t over [0, h], n the t-degree:
        b_j is the sum over k <= j of C(j, k) / C(n, k) h^k rows[k], and the
        form at t = h s is the sum of C(n, j) s^j (1 - s)^(n - j) b_j.  The zero
        form has the one coefficient 0."""
        h = rat(h)
        rows = self.rows or (Polynomial.zero(),)
        n = len(rows) - 1
        return tuple(sum((comb(j, k) * h**k / comb(n, k) * rows[k] for k in range(j + 1)),
                         Polynomial.zero()) for j in range(n + 1))


@dataclass(frozen=True)
class IntervalQ:
    """Closed rational interval [lo, hi].  An end that is not a Fraction is
    read by :func:`rat`; the ends are ordered, and :meth:`contains` decides,
    by integer cross-multiplication (denominators are positive)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction):
            lo = rat(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, Fraction):
            hi = rat(hi)
            object.__setattr__(self, "hi", hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = rat(x)
        lo, hi = self.lo, self.hi
        a, b = x.numerator, x.denominator
        return lo.numerator * b <= a * lo.denominator and a * hi.denominator <= hi.numerator * b

    def to_json(self) -> list[str]:
        return [rat_str(self.lo), rat_str(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "IntervalQ":
        """The interval of :meth:`to_json`'s two strings, each read once by
        :func:`_ratio` (what :func:`rat` refuses is refused) and ordered on
        integers.  Raises ``ValueError`` naming ``data`` unless it is a list
        or tuple of exactly two entries."""
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ValueError(f"an interval must be a list of two entries, got {data!r}")
        (a, b), (c, d) = _ratio(data[0]), _ratio(data[1])
        if a * d > c * b:
            raise ValueError(
                f"interval endpoints out of order: {Fraction(a, b)} > {Fraction(c, d)}")
        iv = object.__new__(cls)
        object.__setattr__(iv, "lo", Fraction(a, b))
        object.__setattr__(iv, "hi", Fraction(c, d))
        return iv


def _primitive_ints(cs: Sequence[int]) -> tuple[int, ...]:
    """``cs`` divided by their positive gcd."""
    g = gcd(*cs)
    return tuple(c // g for c in cs)


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


@lru_cache(maxsize=_CHAIN_CACHE_SIZE)
def _sturm_ints(ints: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Sturm chain of the polynomial with integer coefficients ``ints``,
    as integer tuples, ``ints`` first: the one chain builder and the one
    place a chain is kept, memoized by ``ints`` (a chain is a function of
    it alone; shared, hence tuples), so a replay reads its builder's chain.

    p0 = p, p1 = p', then p_{i+1} = -rem(p_{i-1}, p_i) until the remainder
    vanishes.  Each member after p0 is reduced to its positive-primitive
    integer form, which preserves every sign and keeps coefficients small.
    The members are computed as integer pseudo-remainders of those forms,
    which differ from the rational remainders by positive factors only, so
    the primitive members are the same.  A repeated root shows up as a final
    element of positive degree (the gcd of p and p').
    """
    if not ints:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    chain = [ints]
    if len(ints) < 2:
        return tuple(chain)
    prev, cur = ints, _primitive_ints([k * c for k, c in enumerate(ints) if k])
    while True:
        chain.append(cur)
        r = _negated_pseudo_remainder(prev, cur)
        if not r:
            return tuple(chain)
        prev, cur = cur, _primitive_ints(r)


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical Sturm chain of ``p`` (:func:`_sturm_ints`): p itself, then
    the members of integer forms ``(ints, 1)``."""
    chain = _sturm_ints(p._form[0])
    return [p, *(Polynomial._from_integer_form(ints, 1) for ints in chain[1:])]


def _variations_and_value(chain: Sequence[Sequence[int]], a: int, b: int) -> tuple[int, int]:
    """Sign changes of a Sturm chain's integer members at a/b (b > 0),
    zeros skipped, and the first member's homogeneous value there, whose
    sign is the sign of p(a/b), in one pass."""
    members = iter(chain)
    first = last = _homogeneous(next(members), a, b)
    changes = 0
    for ints in members:
        v = _homogeneous(ints, a, b)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes, first


def _variations_at(p: Polynomial, x: Fraction) -> int:
    """Sign changes of p's Sturm chain at x, zeros skipped."""
    return _variations_and_value(p._sturm(), x.numerator, x.denominator)[0]


class _RootCounter:
    """Repeated range counts of one polynomial's distinct roots."""

    def __init__(self, p: Polynomial):
        self.p = p

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in (lo, hi); endpoints must not be roots."""
        return _variations_at(self.p, lo) - _variations_at(self.p, hi)


@dataclass(frozen=True)
class SignCertificate:
    """Exact-arithmetic proof record for a root-count or sign claim.

    Built by :func:`_certificate` (or read back by :meth:`from_json`).
    ``evidence`` holds only ints and ``p/q`` strings, so the record is
    JSON-stable and :meth:`replay` can recompute every entry from the
    polynomial and interval, through the same kernel :func:`_prove`, and
    compare bit-for-bit.
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
        """Inverse of :meth:`to_json`.  Raises ``ValueError`` naming the field
        unless ``data`` is an object with exactly the keys ``polynomial`` (a
        list of strings), ``interval`` (a list of two strings), ``claim`` (a
        string) and ``evidence`` (an object): a string or an object would
        otherwise be read entry by entry as if it were a list."""
        keys = {"polynomial", "interval", "claim", "evidence"}
        if not isinstance(data, dict):
            raise ValueError(f"a certificate must be an object, got {data!r}")
        if set(data) != keys:
            raise ValueError(f"a certificate must have exactly the keys {sorted(keys)}, "
                             f"got {list(data)}")
        polynomial, interval = data["polynomial"], data["interval"]
        if not (isinstance(polynomial, list) and all(isinstance(c, str) for c in polynomial)):
            raise ValueError(
                f"certificate polynomial must be a list of strings, got {polynomial!r}")
        if not (isinstance(interval, list) and len(interval) == 2
                and all(isinstance(c, str) for c in interval)):
            raise ValueError(
                f"certificate interval must be a list of two strings, got {interval!r}")
        if not isinstance(data["claim"], str):
            raise ValueError(f"certificate claim must be a string, got {data['claim']!r}")
        if not isinstance(data["evidence"], dict):
            raise ValueError(f"certificate evidence must be an object, got {data['evidence']!r}")
        return cls(
            polynomial=Polynomial.from_json(data["polynomial"]),
            interval=IntervalQ.from_json(data["interval"]),
            claim=data["claim"],
            evidence=dict(data["evidence"]),
        )

    def replay(self) -> bool:
        """Prove the claim again on the stored interval and compare the
        evidence key by key, types included.

        The proof is :func:`_prove`'s, at the interval's own ends, so the
        evidence must also prove the label, and its ``lo`` and ``hi`` must
        be those ends as canonical ``p/q`` strings.  It starts from the
        stored polynomial's integer form and the chain that the memoized
        builder :func:`_sturm_ints` gives for that form; no polynomial holds
        a chain to trust.  A sign claim's ``witness`` is read first, and must
        be a canonical ``p/q`` string (:func:`_canonical_ratio`) in the
        interval.  Evidence that is missing, extra, mistyped (a float, a
        bool, ``None``) or not in canonical form replays ``False``; it never
        raises.  No Fraction, interval or certificate is built.
        """
        evidence = self.evidence
        ints, den = self.polynomial._form
        try:
            witness = (_canonical_ratio(evidence["witness"])
                       if self.claim in _SIGN_CLAIMS else None)
            fresh, claim = _prove(_sturm_ints(ints), den, self.interval, self.claim, witness)
        except (ExactPolyError, ValueError, ZeroDivisionError, KeyError, TypeError):
            return False
        # types too: a float 2.0 or a bool True compares equal to an int
        return claim == self.claim and len(evidence) == len(fresh) and all(
            type(evidence.get(k)) is type(v) and evidence[k] == v for k, v in fresh.items()
        )


def _canonical_ratio(value) -> tuple[int, int]:
    """``(p, q)`` of a string that is exactly :func:`rat_str` of p/q: ASCII
    ``-?[0-9]+/[0-9]+`` with q > 0, p/q reduced, and no leading zero or
    ``-0``, checked on the digits.  Anything else raises ``ValueError``."""
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        # on ASCII, isdigit() accepts exactly [0-9]+; a leading "0" is the
        # whole numerator "0", and never starts the denominator, so q > 0
        if (slash and digits.isdigit() and den.isdigit() and den[0] != "0"
                and (digits[0] != "0" or num == "0")):
            p, q = int(num), int(den)
            if gcd(p, q) == 1:
                return p, q
    raise ValueError(f"not a canonical p/q string: {value!r}")


def _pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def _certificate(p: Polynomial, iv: IntervalQ, claim: str | None,
                 witness: Fraction | None = None) -> SignCertificate:
    """The certificate that ``p`` satisfies ``claim`` on ``iv``, evidenced at
    iv's ends (and ``witness``): :func:`_prove` on p's Sturm chain, which
    raises unless the evidence proves the claim."""
    evidence, claim = _prove(p._sturm(), p._form[1], iv, claim,
                             None if witness is None else _pair(witness))
    return SignCertificate(p, iv, claim, evidence)


def _prove(chain: Sequence[tuple[int, ...]], den: int, iv: IntervalQ, claim: str | None,
           witness: tuple[int, int] | None = None) -> tuple[dict, str]:
    """The evidence that a polynomial satisfies ``claim`` on the closed
    interval ``iv``, evidenced at iv's own ends, and the claim it proves;
    the one place that says which evidence proves which claim, for building
    and replay.

    The polynomial is ``chain[0] / den``, its integer form, and ``chain`` its
    Sturm chain as integer tuples (:func:`_sturm_ints`); ``witness`` is a
    reduced pair ``(a, b)`` with b > 0.  A count claim refuses an end of iv
    that is a root with :class:`DegenerateEndpointError` naming it, so its
    count is the number of distinct roots on the closed interval: then
    ``no-root`` needs a count of 0; ``exactly-one-root`` one distinct root
    and end values of strictly opposite sign, an odd root that no
    even-multiplicity touch can fake; ``root-count`` nothing more than the
    count.  ``sign-constant-*`` needs a ``witness`` in iv, no root, and the
    stated strict sign at both ends and the witness.  ``claim=None`` takes
    the one of the first two that holds, else ``root-count``.  Raises
    :class:`ExactPolyError` (:class:`SignClaimError`, with a
    counterexample, for a sign claim) when the evidence does not prove the
    claim; only then is a Fraction built.
    """
    lo, hi = _pair(iv.lo), _pair(iv.hi)
    evidence, y_lo, y_hi = _counted(chain, den, lo, hi)
    count = evidence["root_count"]
    if claim in _SIGN_CLAIMS:
        want = _SIGN_CLAIMS[claim]
        ints, n = chain[0], len(chain[0]) - 1
        a, b = witness
        if not (lo[0] * b <= a * lo[1] and a * hi[1] <= hi[0] * b):
            raise ValueError(f"witness {Fraction(a, b)} not in [{iv.lo}, {iv.hi}]")
        y_witness = _homogeneous(ints, a, b)
        for (a, b), y in ((lo, y_lo), (hi, y_hi), (witness, y_witness)):
            if (y > 0) - (y < 0) != want:
                x = Fraction(a, b)
                raise SignClaimError(f"claimed {claim} but p({x}) = {Fraction(y, den * b**n)}", x)
        if count != 0:
            raise SignClaimError(
                f"claimed {claim} but Sturm finds {count} interior root(s)",
                _find_counterexample(Polynomial._from_integer_form(ints, den),
                                     iv.lo, iv.hi, want),
            )
        evidence["witness"] = f"{witness[0]}/{witness[1]}"
        evidence["witness_value"] = _ratio_str(y_witness, den * witness[1] ** n)
        return evidence, claim
    if claim is not None and claim not in _COUNT_CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    for end, y in ((iv.lo, y_lo), (iv.hi, y_hi)):
        if not y:
            raise DegenerateEndpointError(f"interval end {end} is a root of p")
    if count == 0:
        proven = CLAIM_NO_ROOT
    elif count == 1 and (y_lo > 0) != (y_hi > 0):
        proven = CLAIM_ONE_ROOT
    else:
        proven = CLAIM_ROOT_COUNT
    if claim is None:
        claim = proven
    elif claim not in (proven, CLAIM_ROOT_COUNT):
        raise ExactPolyError(f"{claim} claim fails on [{iv.lo}, {iv.hi}]: {count} root(s), "
                             f"end signs {(y_lo > 0) - (y_lo < 0)} and {(y_hi > 0) - (y_hi < 0)}")
    return evidence, claim


def _counted(chain: Sequence[tuple[int, ...]], den: int, lo: tuple[int, int],
             hi: tuple[int, int]) -> tuple[dict, int, int]:
    """The count evidence of :func:`_prove` at reduced pairs lo and hi, and
    the polynomial's homogeneous values there, from one pass over the chain
    per point."""
    (a_lo, b_lo), (a_hi, b_hi) = lo, hi
    v_lo, y_lo = _variations_and_value(chain, a_lo, b_lo)
    v_hi, y_hi = _variations_and_value(chain, a_hi, b_hi)
    n = len(chain[0]) - 1
    evidence = {
        "lo": f"{a_lo}/{b_lo}",
        "hi": f"{a_hi}/{b_hi}",
        "variations_lo": v_lo,
        "variations_hi": v_hi,
        "root_count": v_lo - v_hi,
        "value_lo": _ratio_str(y_lo, den * b_lo ** n),
        "value_hi": _ratio_str(y_hi, den * b_hi ** n),
    }
    return evidence, y_lo, y_hi


def _count_evidence(p: Polynomial, lo: Fraction, hi: Fraction) -> tuple[int, dict, tuple[int, int]]:
    """Sturm count of p on (lo, hi), its evidence, and the signs of p at lo
    and hi (:func:`_counted` on p's chain)."""
    evidence, y_lo, y_hi = _counted(p._sturm(), p._form[1], _pair(lo), _pair(hi))
    return evidence["root_count"], evidence, ((y_lo > 0) - (y_lo < 0), (y_hi > 0) - (y_hi < 0))


def count_roots(p: Polynomial, iv: IntervalQ) -> tuple[int, SignCertificate]:
    """Exact number of distinct real roots of ``p`` on ``iv``, and its
    certificate on ``iv``.

    :func:`_prove` refuses an end of ``iv`` that is a root of p with
    :class:`DegenerateEndpointError` naming it, so the count is the same on
    iv open or closed.  The certificate carries the strongest count claim
    its evidence proves: ``no-root``, ``exactly-one-root`` when the single
    root changes p's sign between the ends, ``root-count`` for any other
    nonzero count.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    cert = _certificate(p, iv, None)
    return cert.evidence["root_count"], cert


def _offset_midpoint(p: Polynomial, lo: Fraction, hi: Fraction) -> Fraction:
    """Point near the middle of (lo, hi) where p does not vanish.

    The candidates are lo + span * c for c = 1/2, then 1/2 +- 1/2^(k + 1)
    for k = 1, 2, ...; a polynomial has finitely many roots, so some dyadic
    offset works.
    """
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if a * d < c * b:
        # the first candidate, the midpoint, built from the ends' integers
        m = Fraction(a * d + c * b, 2 * b * d)
        if sign_at(p, m):
            return m
    span = hi - lo
    for k in range(1, 64):
        for num, den in ((2**k + 1, 2**(k + 1)), (2**k - 1, 2**(k + 1))):
            m = lo + span * Fraction(num, den)
            if lo < m < hi and sign_at(p, m) != 0:
                return m
    raise ExactPolyError("could not find a non-root interior point")


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid(a_num: int, a_den: int, b_num: int, b_den: int,
          w_num: int, w_den: int) -> tuple[int, int, int, int]:
    """The bisection grid of (a, b) at the depth width w demands.

    Takes a and b as reduced pairs, w as a pair with a positive
    denominator, not necessarily reduced, and returns ``(base, step, den,
    depth)``: grid point i is (base + i * step) / den for i = 0 .. 2^depth,
    and depth is the fewest halvings that leave cells of (a, b) at most w
    wide.  The span b - a is reduced, as its Fraction would be, so the grid
    is the one bisection from a and b meets.  Integers only; the probes of
    a sweep share their interval and width, so they share one grid.
    """
    span_num = b_num * a_den - a_num * b_den
    span_den = a_den * b_den
    g = gcd(span_num, span_den)
    span_num, span_den = span_num // g, span_den // g
    # the fewest d with span / 2^d <= w, i.e. n <= m * 2^d
    n, m = span_num * w_den, span_den * w_num
    depth = max(n.bit_length() - m.bit_length() - 1, 0)
    while (m << depth) < n:
        depth += 1
    return (a_num * span_den << depth, span_num * a_den, a_den * span_den << depth, depth)


def _horner(scaled: Sequence[int], x: int) -> int:
    """``sum(scaled[i] * x^(n-i))``, coefficients highest first, by Horner."""
    acc = 0
    for c in scaled:
        acc = acc * x + c
    return acc


def _propose_cell(scaled: Sequence[int], base: int, step: int,
                  j_lo: int, f_lo: int, j_hi: int, f_hi: int) -> int | None:
    """Index j in [j_lo, j_hi) of the grid cell where p changes sign, found
    by exact signs.

    The grid has points (base + i * step) / den, and ``scaled`` is p's
    coefficients prescaled for den (:func:`_on_grid`), so a value at a grid
    point is one :func:`_horner` pass at base + i * step: every grid point
    shares the denominator den, so the values are p's values times one
    positive constant, and the secant through them is p's secant.  The
    caller gives the values ``f_lo`` and ``f_hi`` at the bracket's ends j_lo
    and j_hi, read once with the facts it checks there, and knows one root
    between them.  Illinois regula falsi (Dowell & Jarratt 1971) narrows the
    bracket to one cell (j, j + 1); a bisection step replaces the secant
    whenever two steps in a row have not halved the bracket.  Returns None when the ends have no
    strict sign change or the search meets a grid point that is a root.
    The pick is confirmed by :meth:`_GridSearch.cell`, not here.
    """
    if not f_lo or not f_hi or (f_lo > 0) == (f_hi > 0):
        return None
    positive = f_lo > 0  # the sign at the bracket's lower end
    # moved: the end the last step replaced (-1 lower, 1 upper); mark: the
    # bracket's length when it last halved; steps: secant steps since then
    moved, mark, steps = 0, j_hi - j_lo, 0
    while j_hi - j_lo > 1:
        if steps == 2:
            j = (j_lo + j_hi) >> 1
        else:
            j = j_lo + f_lo * (j_hi - j_lo) // (f_lo - f_hi)
            j = min(max(j, j_lo + 1), j_hi - 1)
        v = _horner(scaled, base + j * step)
        if not v:
            return None
        # Illinois: an end that stays twice has its value halved (never to 0)
        if (v > 0) == positive:
            if moved < 0:
                f_hi = f_hi // 2 or f_hi
            j_lo, f_lo, moved = j, v, -1
        else:
            if moved > 0:
                f_lo = f_lo // 2 or f_lo
            j_hi, f_hi, moved = j, v, 1
        steps += 1
        if 2 * (j_hi - j_lo) <= mark or steps == 3:
            mark, steps = j_hi - j_lo, 0
    return j_lo


class _GridSearch(NamedTuple):
    """p on the integer :func:`_grid` of (a, b) at a width, made by a
    search of :func:`_on_grid`: grid point i is (base + i * step) / den for
    i = 0 .. ``cells``, and ``f_lo`` and ``f_hi`` are p's prescaled values
    at its ends a and b, read once, whose signs are p's signs there."""

    scaled: tuple[int, ...]
    base: int
    step: int
    den: int
    cells: int
    f_lo: int
    f_hi: int

    def value(self, j: int) -> int:
        """p's prescaled value at grid point j, of p's sign there."""
        return _horner(self.scaled, self.base + j * self.step)

    def cell(self, j_lo: int, f_lo: int, j_hi: int, f_hi: int) -> int | None:
        """The cell :func:`_propose_cell` picks between grid points j_lo and
        j_hi, whose values are f_lo and f_hi, confirmed by its own end check:
        it lies in [j_lo, j_hi) and p's values at its two ends, read afresh,
        have strictly f_lo's sign at its lower end and f_hi's at its upper
        end, so it holds a root of odd multiplicity, no grid point is a root,
        and a caller knows p's signs at the cell's ends without reading them
        again.  None when the search or the check fails."""
        scaled, base, step = self.scaled, self.base, self.step
        j = _propose_cell(scaled, base, step, j_lo, f_lo, j_hi, f_hi)
        if j is None or not j_lo <= j < j_hi:
            return None
        lo = base + j * step
        v_lo, v_hi = _horner(scaled, lo), _horner(scaled, lo + step)
        # _propose_cell found f_lo and f_hi nonzero and of opposite sign
        oriented = v_lo and v_hi and (v_lo > 0) == (f_lo > 0) and (v_hi > 0) == (f_hi > 0)
        return j if oriented else None

    def ends(self, j: int) -> tuple[int, int, int]:
        """``(lo_num, hi_num, den)`` of cell j: (lo_num / den, hi_num / den),
        not reduced."""
        lo = self.base + j * self.step
        return lo, lo + self.step, self.den


def _on_grid(columns: Sequence[Sequence[int]], a: tuple[int, int], b: tuple[int, int],
             width: tuple[int, int]) -> Callable[[int, int], _GridSearch]:
    """The one grid builder: a form's integer ``columns`` (:class:`Form`'s)
    on the :func:`_grid` of (a, b) at ``width``, given as :func:`_grid`'s
    integer pairs, column k of x^(n-k) times den^k.  Returns the search at
    t = t_num / t_den: one :func:`_homogeneous` pass per column gives the
    form at t's prescaled coefficients times one positive integer, so every
    sign and secant is the form at t's own."""
    base, step, den, depth = _grid(*a, *b, *width)
    cells, power, scaled = 1 << depth, 1, []
    for column in reversed(columns):
        scaled.append(tuple([c * power for c in column]))
        power *= den

    def search(t_num: int, t_den: int) -> _GridSearch:
        values = tuple([_homogeneous(c, t_num, t_den) for c in scaled])
        return _GridSearch(values, base, step, den, cells, _horner(values, base),
                           _horner(values, base + cells * step))
    return search


def _grid_search(p: Polynomial, a: tuple[int, int], b: tuple[int, int],
                 width: tuple[int, int]) -> _GridSearch:
    """The search of a single root of p in (a, b) on the :func:`_grid` of
    (a, b) at ``width``: p as the form of one row, read at t = 0/1.  The
    bisection cells of a single root are the grid's cells, so the cell
    found is the one bisection would reach."""
    return _on_grid([(c,) for c in p._form[0]], a, b, width)(0, 1)


def _smallest_root_cell(p: Polynomial, a: Fraction, b: Fraction,
                        width: Fraction) -> tuple[Fraction, Fraction]:
    """Where Sturm-counted bisection toward p's smallest root in (a, b) stops.

    Bisection keeps the half of the current cell that holds the smallest
    root (a midpoint that is itself a root is replaced by a nearby
    non-root), until the cell is at most ``width`` wide and holds one root.
    Requires p(a) != 0 != p(b) and a root in (a, b).  A single root's
    bisection cells are the cells of (a, b)'s :func:`_grid` at the width,
    so where a grid search (:func:`_grid_search`) confirms a cell, it is
    the one this returns.
    """
    counter = _RootCounter(p)
    while counter.count(a, b) > 1 or b - a > width:
        mid = (a + b) / 2
        if sign_at(p, mid) == 0:
            mid = _offset_midpoint(p, a, b)
        if counter.count(a, mid) >= 1:
            b = mid
        else:
            a = mid
    return a, b


def one_root_certificate(p: Polynomial, enclosure: IntervalQ) -> SignCertificate:
    """The ``exactly-one-root`` certificate of p on an isolating cell."""
    return _certificate(p, enclosure, CLAIM_ONE_ROOT)


def isolate_root(p: Polynomial, iv: IntervalQ, width) -> tuple[IntervalQ, SignCertificate]:
    """Shrink the one root of ``p`` that :func:`count_roots` counts on ``iv``.

    :func:`isolate_counted_root` of the interval's :func:`count_roots`
    certificate, so an end of ``iv`` that is a root of p is refused with
    :class:`DegenerateEndpointError` naming it.
    """
    return isolate_counted_root(count_roots(p, iv)[1], width)


def isolate_counted_root(count_cert: SignCertificate, width) -> tuple[IntervalQ, SignCertificate]:
    """Shrink the one root that a :func:`count_roots` certificate counts.

    The search starts from the certificate's ends, so a caller that
    needs the count certificate anyway counts only once.  Its claim must be
    ``exactly-one-root``, which :func:`count_roots` gives a count of one
    exactly when p's values at the ends differ in sign (a lone root without
    a sign change has even multiplicity), so p is not read there again.  The
    grid search of the ends (:func:`_grid_search`) finds the root's cell by
    exact signs; Sturm-counted bisection (:func:`_smallest_root_cell`),
    whose cell it is, runs only when the search fails.  The enclosure has
    ends of exactly opposite sign, is at most ``width`` wide, and comes with
    its exactly-one-root certificate.  A width so narrow that the
    certificate could not be written is refused first
    (:func:`_refuse_unwritable_width`).
    """
    width = rat(width)
    if width <= 0:
        raise ValueError("isolation width must be positive")
    count = count_cert.evidence["root_count"]
    if count != 1:
        raise ValueError(f"isolate_root requires exactly one root in the interval, found {count}")
    if count_cert.claim != CLAIM_ONE_ROOT:
        raise ExactPolyError(
            "single root without endpoint sign change (even multiplicity); "
            "cannot certify an enclosure by signs"
        )
    p, lo, hi = count_cert.polynomial, count_cert.interval.lo, count_cert.interval.hi
    _refuse_unwritable_width(p, lo, hi, width)
    search = _grid_search(p, _pair(lo), _pair(hi), _pair(width))
    j = search.cell(0, search.f_lo, search.cells, search.f_hi)
    if j is None:
        enclosure = IntervalQ(*_smallest_root_cell(p, lo, hi, width))
    else:
        lo_num, hi_num, den = search.ends(j)
        enclosure = IntervalQ(Fraction(lo_num, den), Fraction(hi_num, den))
    return enclosure, one_root_certificate(p, enclosure)


def _refuse_unwritable_width(p: Polynomial, lo: Fraction, hi: Fraction,
                             width: Fraction) -> None:
    """Raise ``ValueError`` naming ``width`` when the certificate of p's root
    isolated in (lo, hi) at that width could hold an integer of more digits
    than Python writes as a string (``sys.get_int_max_str_digits()``; 0, or
    a Python before 3.10.7 without that limit, is no limit).

    The certificate's points are cell ends on the :func:`_grid` of (lo, hi)
    at the width, whose denominators divide its D; D * 2^64 also covers the
    Sturm-counted fallback's, which moves a midpoint that is the root off
    it by :func:`_offset_midpoint`.  So with b dividing D * 2^64 and
    M = max(|lo|, |hi|, 1), a value p(a/b), _homogeneous(ints, a, b) over
    den * b^n, has a denominator at most den * (D 2^64)^n and a numerator
    at most sum(|ints|) * (M D 2^64)^n, bounded by bit lengths alone.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    ints, den = p._form
    if not limit or not ints:
        return
    d = _grid(lo.numerator, lo.denominator, hi.numerator, hi.denominator,
              width.numerator, width.denominator)[2] << 64
    n = len(ints) - 1
    m = max(abs(lo.numerator) // lo.denominator, abs(hi.numerator) // hi.denominator) + 1
    bits = max(den.bit_length() + n * d.bit_length(),
               sum(map(abs, ints)).bit_length() + n * (m * d).bit_length())
    # 0.30103 > log10(2): a value below 2^bits has at most bits * 0.30103 digits
    if bits * 30103 >= limit * 100000:
        num, wden = width.numerator, width.denominator
        name = (rat_str(width) if max(num, wden).bit_length() <= 128
                else f"of about 10^{round(log10(num) - log10(wden))}")
        raise ValueError(f"isolation width {name} is too narrow: the certificate's values "
                         f"could pass Python's {limit}-digit int-to-string limit")


def _find_counterexample(p: Polynomial, lo: Fraction, hi: Fraction, want: int) -> Fraction:
    """A rational point of [lo, hi] where p does not have the strict sign ``want``.

    Requires p(lo) and p(hi) of sign ``want`` and a root in (lo, hi).  The
    roots are taken left to right by the shared smallest-root kernel.  A
    root of odd multiplicity flips p's sign, so the right end of its cell is
    a counterexample.  An even-multiplicity touch keeps the sign; if it is
    rational, its denominator divides p's integer leading coefficient L, so
    in a cell narrower than 1/L^2 it is the only fraction of denominator at
    most L, and it is the counterexample.  Raises :class:`ExactPolyError`
    when every root is a touch at an irrational point, such as (x^2 - 2)^2
    on [1, 2]: then no rational point violates the claim.
    """
    lead = abs(p._form[0][-1])
    fine = Fraction(1, 2 * lead * lead)
    counter = _RootCounter(p)
    a = lo
    while counter.count(a, hi):
        c_lo, c_hi = _smallest_root_cell(p, a, hi, hi - a)
        if sign_at(p, c_hi) != want:
            return c_hi
        c_lo, c_hi = _smallest_root_cell(p, c_lo, c_hi, fine)
        touch = ((c_lo + c_hi) / 2).limit_denominator(lead)
        if c_lo < touch < c_hi and sign_at(p, touch) == 0:
            return touch
        a = c_hi
    raise ExactPolyError(
        "sign claim is false only at even-multiplicity touches at irrational "
        "points, so no rational counterexample exists"
    )


def certify_sign_on_interval(p: Polynomial, iv: IntervalQ, sign: str) -> SignCertificate:
    """Certificate that ``p`` keeps a strict sign on the whole closed interval.

    Evidence: zero roots in the interior by Sturm count, plus exact
    evaluations of the stated sign at both endpoints and one interior point.
    Raises :class:`SignClaimError` carrying a rational counterexample when
    the claim is false, and :class:`ExactPolyError` in the one case without
    a rational counterexample: p vanishes in the interval only at
    even-multiplicity touches at irrational points.
    """
    if sign not in ("positive", "negative"):
        raise ValueError("sign must be 'positive' or 'negative'")
    if p.is_zero:
        raise SignClaimError("zero polynomial has no strict sign", iv.lo)
    witness = iv.lo if iv.lo == iv.hi else _offset_midpoint(p, iv.lo, iv.hi)
    claim = CLAIM_POSITIVE if sign == "positive" else CLAIM_NEGATIVE
    return _certificate(p, iv, claim, witness)
