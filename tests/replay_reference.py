"""Frozen certificate constructor and replay, the reference for the integer
evidence kernel.

These are ``SignCertificate.replay`` (here the function :func:`replay`) and
``_certificate`` with the helpers they call, exactly as they were before one
integer kernel came to prove and replay every certificate.  The only edits:
the Sturm chain is built here, as integer tuples, once per count instead of
being kept on the polynomial (replay always started from a fresh polynomial,
so nothing kept was ever read); ``_certificate`` returns a
``SignCertificate`` built from this module's parts; and :func:`replay`
makes its fresh polynomial from the stored one's integer form, the only
form a polynomial now holds, where it once chose between that form and
built Fraction coefficients.  Nothing of the code
under test runs here but ``Polynomial``'s constructors and integer form,
``IntervalQ``, ``SignCertificate`` as a record, ``rat``, ``rat_str`` and
the counterexample search of a false sign claim.  Tests compare the library
with these functions; nothing in ``src`` imports this.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from pinchcert.exact_poly import (
    CLAIM_NEGATIVE,
    CLAIM_NO_ROOT,
    CLAIM_ONE_ROOT,
    CLAIM_POSITIVE,
    CLAIM_ROOT_COUNT,
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignCertificate,
    SignClaimError,
    _find_counterexample,
    rat,
    rat_str,
)

_COUNT_CLAIMS = (CLAIM_NO_ROOT, CLAIM_ONE_ROOT, CLAIM_ROOT_COUNT)
_SIGN_CLAIMS = {CLAIM_POSITIVE: 1, CLAIM_NEGATIVE: -1}


def _homogeneous(ints: Sequence[int], a: int, b: int) -> int:
    acc = ints[-1]
    bp = 1
    for c in reversed(ints[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return acc


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def _value_at(p: Polynomial, x: Fraction) -> tuple[str, int]:
    ints, den = p.integer_form()
    if not ints:
        return "0/1", 0
    b = x.denominator
    v = _homogeneous(ints, x.numerator, b)
    return _ratio_str(v, den * b ** (len(ints) - 1)), (v > 0) - (v < 0)


def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*cs)
    return tuple(c // g for c in cs)


def _negated_pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def sturm_ints(p: Polynomial) -> list[tuple[int, ...]]:
    """The integer coefficient tuples of ``sturm_sequence(p)``, p's first."""
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial is undefined")
    ints, _ = p.integer_form()
    chain = [ints]
    if len(ints) < 2:
        return chain
    chain.append(_primitive([k * c for k, c in enumerate(ints) if k]))
    prev = ints
    while True:
        cur = chain[-1]
        r = _negated_pseudo_remainder(prev, cur)
        if not r:
            break
        chain.append(_primitive(r))
        prev = cur
    return chain


def _variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    changes, last = 0, 0
    for ints in chain:
        v = _homogeneous(ints, a, b)
        if v:
            if (v > 0) != (last > 0) and last:
                changes += 1
            last = v
    return changes


def _count_evidence(p: Polynomial, lo: Fraction, hi: Fraction) -> tuple[int, dict, tuple[int, int]]:
    chain = sturm_ints(p)
    v_lo = _variations_at(chain, lo)
    v_hi = _variations_at(chain, hi)
    count = v_lo - v_hi
    value_lo, s_lo = _value_at(p, lo)
    value_hi, s_hi = _value_at(p, hi)
    evidence = {
        "lo": rat_str(lo),
        "hi": rat_str(hi),
        "variations_lo": v_lo,
        "variations_hi": v_hi,
        "root_count": count,
        "value_lo": value_lo,
        "value_hi": value_hi,
    }
    return count, evidence, (s_lo, s_hi)


def _certificate(p: Polynomial, iv: IntervalQ, claim: str | None, lo: Fraction,
                 hi: Fraction, witness: Fraction | None = None) -> SignCertificate:
    if not iv.lo <= lo <= hi <= iv.hi:
        raise ValueError(f"evidence points {lo}, {hi} not in order inside [{iv.lo}, {iv.hi}]")
    at_ends = lo == iv.lo and hi == iv.hi
    count, evidence, (s_lo, s_hi) = _count_evidence(p, lo, hi)
    if claim in _SIGN_CLAIMS:
        if not at_ends:
            raise ExactPolyError(f"{claim} claim on [{iv.lo}, {iv.hi}] evidenced at "
                                 f"{lo} and {hi}, not at its ends")
        want = _SIGN_CLAIMS[claim]
        witness_value, s_witness = _value_at(p, witness)
        for x, s in zip((lo, hi, witness), (s_lo, s_hi, s_witness)):
            if s != want:
                raise SignClaimError(f"claimed {claim} but p({x}) = {p(x)}", x)
        if count != 0:
            raise SignClaimError(
                f"claimed {claim} but Sturm finds {count} interior root(s)",
                _find_counterexample(p, lo, hi, want),
            )
        evidence["witness"] = rat_str(witness)
        evidence["witness_value"] = witness_value
    else:
        if not at_ends:
            proven = CLAIM_ROOT_COUNT
        elif count == 0 and s_lo != 0 and s_hi != 0:
            proven = CLAIM_NO_ROOT
        elif count == 1 and s_lo * s_hi < 0:
            proven = CLAIM_ONE_ROOT
        else:
            proven = CLAIM_ROOT_COUNT
        if claim is None:
            claim = proven
        elif claim not in _COUNT_CLAIMS:
            raise ValueError(f"unknown claim {claim!r}")
        elif claim not in (proven, CLAIM_ROOT_COUNT):
            raise ExactPolyError(f"{claim} claim fails on [{lo}, {hi}]: {count} root(s), "
                                 f"end signs {s_lo} and {s_hi}")
    return SignCertificate(p, iv, claim, evidence)


def replay(cert: SignCertificate) -> bool:
    """``cert.replay()`` as it was: rebuild at the stored points, compare verbatim."""
    evidence = cert.evidence
    p = Polynomial._from_integer_form(*cert.polynomial.integer_form())
    try:
        witness = rat(evidence["witness"]) if cert.claim in _SIGN_CLAIMS else None
        fresh = _certificate(p, cert.interval, cert.claim,
                             rat(evidence["lo"]), rat(evidence["hi"]), witness)
    except (ExactPolyError, ValueError, ZeroDivisionError, KeyError, TypeError):
        return False
    # types too: a float 2.0 or a bool True compares equal to an int
    return fresh == cert and all(
        type(evidence[k]) is type(v) for k, v in fresh.evidence.items()
    )
