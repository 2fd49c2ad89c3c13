"""Tests for exact rational polynomial algebra and sign certificates."""

from fractions import Fraction
import random

import pytest

from pinchcert.exact_poly import (
    CLAIM_NO_ROOT,
    CLAIM_ONE_ROOT,
    CLAIM_POSITIVE,
    CLAIM_ROOT_COUNT,
    DegenerateEndpointError,
    ExactPolyError,
    Form,
    IntervalQ,
    Polynomial,
    SignCertificate,
    SignClaimError,
    _count_evidence,
    _sturm_ints,
    certify_sign_on_interval,
    count_roots,
    isolate_root,
    rat,
    rat_str,
    sturm_sequence,
)

import exact_reference as ref

F = Fraction


def poly(*coeffs) -> Polynomial:
    """Lowest degree first."""
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# oracles (independent of the library code paths they check)
# ---------------------------------------------------------------------------


def eval_naive(p: Polynomial, x: Fraction) -> Fraction:
    """Power-expansion evaluation, the independent counterpart of Horner."""
    return sum((c * x**k for k, c in enumerate(p.coeffs)), F(0))


def gcd_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    """Euclidean gcd over Q, for square-free reduction in the scan oracle."""
    while not b.is_zero:
        a, b = b, a.rem(b)
    return a


def count_roots_by_scan(p: Polynomial, lo: Fraction, hi: Fraction, n: int = 4000) -> int:
    """Brute-force oracle: distinct roots of p in (lo, hi).

    Square-free reduction (gcd with the derivative) turns every root into a
    sign change, then a dense exact sign scan counts crossings; grid points
    that are exact roots are counted directly.
    """
    g = gcd_poly(p, p.derivative())
    sf = p.divmod(g)[0] if g.degree >= 1 else p
    values = []
    step = (hi - lo) / n
    for k in range(n + 1):
        values.append(sf(lo + k * step))
    roots = 0
    prev_sign = None
    for k, v in enumerate(values):
        interior = 0 < k < n
        if v == 0:
            if interior:
                roots += 1
            prev_sign = None
            continue
        s = v > 0
        if prev_sign is not None and s != prev_sign:
            roots += 1
        prev_sign = s
    return roots


# ---------------------------------------------------------------------------
# arithmetic and evaluation
# ---------------------------------------------------------------------------


def test_rat_parses_decimal_strings_exactly():
    assert rat("1.7075") == F(683, 400)
    assert rat("0.426875") == F(683, 1600)
    assert rat("292.8125") == F(4685, 16)
    assert rat("3/7") == F(3, 7)
    assert rat(5) == F(5)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.1)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", " 1/0", "\u0663/0"])
def test_rat_names_a_zero_denominator(text):
    # a ValueError, which the CLI maps to a usage error, not ZeroDivisionError
    with pytest.raises(ValueError, match="zero denominator") as info:
        rat(text)
    assert repr(text) in str(info.value)


def test_mul_and_cancellation():
    x = Polynomial.x()
    assert x * x == poly(0, 0, 1)
    p = poly(1, -2, 3)
    assert (p + (-p)).is_zero
    assert (p - p).is_zero


@pytest.mark.parametrize("form", [
    Form((0, 1)),
    Form((poly(1, -2), poly(F(1, 3)), poly(0, 0, 5))),
    Form((poly(F(-7, 2), 0, 1),)),
])
def test_a_polynomial_left_of_a_form_defers_to_it(form):
    # Polynomial's operators return NotImplemented for a Form, so Python
    # takes the form's reflected method
    for p in (Polynomial.x(), poly(F(2, 9), -3, 0, 1), Polynomial.zero()):
        assert p + form == form + p
        assert p - form == -(form - p)
        assert p * form == form * p
        assert isinstance(p * form, Form)


@pytest.mark.parametrize("other", [object(), 1.5, True])
def test_a_polynomial_refuses_what_is_neither_rational_nor_form(other):
    for op in (lambda p: p + other, lambda p: p - other, lambda p: p * other,
               lambda p: other - p):
        with pytest.raises(TypeError):
            op(Polynomial.x())


def test_expand_product_matches_hand_expansion():
    x = Polynomial.x()
    p = x * (3 * x - 4) * (5 * x - 9)
    assert p == poly(0, 36, -47, 15)


def test_degree_of_product():
    p = poly(1, 2, 3)
    q = poly(-1, 0, 0, 4)
    assert (p * q).degree == p.degree + q.degree


def test_zero_polynomial_eval():
    z = Polynomial.zero()
    assert z(F(22, 7)) == 0
    assert z.is_zero and z.degree == -1


def test_horner_matches_naive_expansion():
    rng = random.Random(20240817)
    for _ in range(50):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
        p = Polynomial(coeffs)
        x = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert p(x) == eval_naive(p, x)


def test_derivative_of_gap_numerator():
    n = poly(0, -432, 564, -180)
    assert n.derivative() == poly(-432, 1128, -540)


def test_derivative_of_constant_is_zero():
    assert poly(7).derivative().is_zero


def test_derivative_of_gap_denominator():
    d = Polynomial([rat("1.0125"), rat("-261.375"), rat("292.8125")])
    assert d == Polynomial([F(81, 80), F(-2091, 8), F(4685, 16)])
    assert d.derivative() == Polynomial([F(-2091, 8), F(4685, 8)])


def test_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        a = Polynomial([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        b = Polynomial([F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


def up_to_positive_scale(a: Polynomial, b: Polynomial) -> bool:
    if a.degree != b.degree:
        return False
    if a.is_zero:
        return True
    scale = b.leading / a.leading
    return scale > 0 and Polynomial(scale * c for c in a.coeffs) == b


def test_sturm_chain_x_squared_minus_two():
    chain = sturm_sequence(poly(-2, 0, 1))
    hand = [poly(-2, 0, 1), poly(0, 2), poly(2)]
    assert len(chain) == 3
    for got, want in zip(chain, hand):
        assert up_to_positive_scale(want, got)


def test_sturm_chain_linear():
    chain = sturm_sequence(Polynomial.x())
    assert len(chain) == 2
    assert chain[0] == Polynomial.x()
    assert up_to_positive_scale(poly(1), chain[1])


def test_sturm_chain_repeated_root_ends_with_gcd():
    chain = sturm_sequence(poly(1, -2, 1))  # (x-1)^2
    assert chain[-1].degree == 1  # gcd(p, p') = x - 1, the degree drop
    assert up_to_positive_scale(poly(-1, 1), chain[-1])


def test_sturm_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        sturm_sequence(Polynomial.zero())


# ---------------------------------------------------------------------------
# root counting and isolation
# ---------------------------------------------------------------------------


def test_count_roots_no_real_roots():
    n, cert = count_roots(poly(1, 0, 1), IntervalQ(F(-10), F(10)))
    assert n == 0
    assert cert.claim == CLAIM_NO_ROOT
    assert cert.replay()


def test_count_roots_quadratic():
    p = poly(-2, 0, 1)
    n, cert = count_roots(p, IntervalQ(F(0), F(2)))
    assert n == 1 and cert.claim == CLAIM_ONE_ROOT
    n, _ = count_roots(p, IntervalQ(F(-2), F(2)))
    assert n == 2


def test_count_roots_in_tight_threshold_bracket():
    from pinchcert.pinching_bounds import theta1

    n, cert = count_roots(theta1(), IntervalQ(F(17075, 10000), F(17076, 10000)))
    assert n == 1
    assert cert.replay()


def test_count_roots_nudges_endpoint_roots():
    p = Polynomial.x() * (Polynomial.x() - 1)
    n, cert = count_roots(p, IntervalQ(F(0), F(1)))
    # both endpoints are roots of p; the open interval holds none
    assert n == 0
    assert rat(cert.evidence["lo"]) > 0
    assert rat(cert.evidence["hi"]) < 1
    # the certificate is on the nudged interval, which holds no root
    assert cert.interval == IntervalQ(rat(cert.evidence["lo"]), rat(cert.evidence["hi"]))
    assert cert.claim == CLAIM_NO_ROOT
    assert cert.replay()


def test_a_root_on_a_closed_end_is_never_certified_away():
    # x - 1 has its root on the lower end of [1, 2]: the closed interval
    # holds one root, so no certificate may say no-root on [1, 2]
    p = poly(-1, 1)
    n, cert = count_roots(p, IntervalQ(F(1), F(2)))
    assert n == 0 and cert.claim == CLAIM_NO_ROOT
    assert cert.evidence["lo"] == "1000001/1000000"
    assert cert.interval == IntervalQ(F(1000001, 1000000), F(2))
    assert cert.replay()
    # the same evidence relabelled onto [1, 2]: its points are not the
    # interval's ends, so it proves only a root count there
    forged = SignCertificate(p, IntervalQ(F(1), F(2)), CLAIM_NO_ROOT, cert.evidence)
    assert not forged.replay()
    assert SignCertificate(p, forged.interval, CLAIM_ROOT_COUNT, cert.evidence).replay()


def test_count_roots_counts_on_the_certificate_interval_not_the_open_one():
    # (x - 1)(x - 1 - 10^-7) on [1, 2]: the open interval (1, 2) holds the
    # root 1 + 10^-7, but the lower end is a root and its first nudge, to
    # 1 + 10^-6, passes that root; the count is the one on the nudged
    # interval, which the certificate names
    p = poly(-1, 1) * Polynomial.linear(-1 - F(1, 10**7), 1)
    n, cert = count_roots(p, IntervalQ(F(1), F(2)))
    assert n == 0 and cert.claim == CLAIM_NO_ROOT
    assert cert.interval == IntervalQ(F(1000001, 1000000), F(2))
    assert cert.replay()


def test_a_sign_claim_needs_its_evidence_at_the_interval_ends():
    # x is positive on [1/2, 1] but not on [0, 1]
    p = poly(0, 1)
    inner = certify_sign_on_interval(p, IntervalQ(F(1, 2), F(1)), "positive")
    assert inner.replay()
    forged = SignCertificate(p, IntervalQ(F(0), F(1)), CLAIM_POSITIVE, inner.evidence)
    assert not forged.replay()


def test_count_roots_degenerate_error():
    # every nudge of the lower endpoint by 10^-k lands on a root again
    # is impossible for a nonzero polynomial, so force the crossed-endpoint
    # case with a zero-width interval at a root instead
    with pytest.raises(DegenerateEndpointError):
        count_roots(Polynomial.x(), IntervalQ(F(0), F(0)))


@pytest.mark.parametrize("c", [F(3), F(-2, 7)])
@pytest.mark.parametrize("iv", [IntervalQ(F(5, 3), F(5, 3)), IntervalQ(F(-1), F(9, 5))])
def test_count_roots_of_a_constant_matches_the_reference(c, iv):
    # the general path needs no constant case: a nonzero constant is never
    # nudged, its chain is [p] and its count is 0
    p = Polynomial.constant(c)
    n, cert = count_roots(p, iv)
    assert (n, cert) == ref.count_roots(p, iv)
    assert n == 0 and cert.claim == CLAIM_NO_ROOT
    assert cert.replay()


def test_count_roots_agrees_with_scan_oracle_on_random_polynomials():
    rng = random.Random(1848)
    checked = 0
    while checked < 200:
        degree = rng.randint(1, 6)
        coeffs = [F(rng.randint(-6, 6)) for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        if p.is_zero or p.degree < 1:
            continue
        lo, hi = F(-4), F(4)
        if p(lo) == 0 or p(hi) == 0:
            continue
        expected = count_roots_by_scan(p, lo, hi)
        got, cert = count_roots(p, IntervalQ(lo, hi))
        assert got == expected, f"{p!r}: sturm {got} vs scan {expected}"
        assert cert.replay()
        checked += 1


def test_isolate_root_simple():
    enclosure, cert = isolate_root(
        Polynomial.x() - F(1, 2), IntervalQ(F(0), F(1)), F(1, 1024)
    )
    assert enclosure.contains(F(1, 2))
    assert enclosure.width <= F(1, 1024)
    assert cert.replay()


def test_isolate_root_endpoint_signs_strictly_opposite():
    rng = random.Random(99)
    for _ in range(25):
        r1 = F(rng.randint(-8, 8), rng.randint(1, 8))
        p = (Polynomial.x() - r1) * poly(1, 0, 1)
        iv = IntervalQ(r1 - 1, r1 + F(5, 7))
        enclosure, cert = isolate_root(p, iv, F(1, 10**6))
        assert p(enclosure.lo) * p(enclosure.hi) < 0
        assert enclosure.contains(r1)
        assert cert.replay()


def test_isolate_root_requires_exactly_one_root():
    p = poly(-2, 0, 1)
    with pytest.raises(ValueError):
        isolate_root(p, IntervalQ(F(-2), F(2)), F(1, 100))


def test_isolate_root_even_multiplicity_rejected():
    p = poly(1, -2, 1)  # (x-1)^2: one distinct root, no sign change
    with pytest.raises(ExactPolyError):
        isolate_root(p, IntervalQ(F(0), F(2)), F(1, 100))


# ---------------------------------------------------------------------------
# sign certificates
# ---------------------------------------------------------------------------


def test_certify_constant_positive():
    cert = certify_sign_on_interval(poly(1), IntervalQ(F(-5), F(5)), "positive")
    assert cert.claim == CLAIM_POSITIVE
    assert cert.replay()


def test_certify_linear_positive():
    p = poly(-5, 3)  # 3x - 5
    iv = IntervalQ(F(5, 3) + F(1, 100), F(9, 5))
    cert = certify_sign_on_interval(p, iv, "positive")
    assert cert.claim == CLAIM_POSITIVE
    assert cert.replay()


def test_certify_negative_false_claim_carries_counterexample():
    with pytest.raises(SignClaimError) as err:
        certify_sign_on_interval(poly(0, 1), IntervalQ(F(-1), F(1)), "negative")
    x = err.value.counterexample
    assert -1 <= x <= 1


def test_certify_sign_detects_interior_crossing():
    # positive at both endpoints but dips negative inside
    p = (Polynomial.x() - F(1, 3)) * (Polynomial.x() - F(2, 3)) * F(4)
    with pytest.raises(SignClaimError) as err:
        certify_sign_on_interval(p, IntervalQ(F(0), F(1)), "positive")
    x = err.value.counterexample
    assert p(x) <= 0


def test_certificate_json_roundtrip_and_replay():
    p = poly(-2, 0, 1)
    _, cert = count_roots(p, IntervalQ(F(0), F(2)))
    data = cert.to_json()
    back = SignCertificate.from_json(data)
    assert back == cert
    assert back.replay()
    assert back.to_json_str() == cert.to_json_str()


def test_tampered_certificate_fails_replay():
    p = poly(-2, 0, 1)
    _, cert = count_roots(p, IntervalQ(F(0), F(2)))
    bad = SignCertificate(cert.polynomial, cert.interval, CLAIM_NO_ROOT, cert.evidence)
    assert not bad.replay()
    evidence = dict(cert.evidence)
    evidence["variations_lo"] += 1
    bad2 = SignCertificate(cert.polynomial, cert.interval, cert.claim, evidence)
    assert not bad2.replay()


def _forged_count_certificate(p: Polynomial, claim: str) -> SignCertificate:
    # Sturm data recomputed honestly at the endpoints 1 and 2; only the
    # claim is chosen by hand
    iv = IntervalQ(F(1), F(2))
    _, evidence, _ = _count_evidence(p, iv.lo, iv.hi)
    return SignCertificate(p, iv, claim, evidence)


def test_no_root_claim_fails_replay_with_a_root_on_the_closed_endpoint():
    cert = _forged_count_certificate(poly(-1, 1), CLAIM_NO_ROOT)
    assert cert.evidence["root_count"] == 0 and cert.evidence["value_lo"] == "0/1"
    assert not cert.replay()


def test_one_root_claim_fails_replay_without_a_sign_change():
    double = poly(F(-3, 2), 1) * poly(F(-3, 2), 1)
    cert = _forged_count_certificate(double, CLAIM_ONE_ROOT)
    assert cert.evidence["root_count"] == 1
    assert cert.evidence["value_lo"] == cert.evidence["value_hi"] == "1/4"
    assert not cert.replay()


def test_count_roots_labels_a_lone_double_root_root_count():
    double = poly(F(-3, 2), 1) * poly(F(-3, 2), 1)
    n, cert = count_roots(double, IntervalQ(F(1), F(2)))
    assert n == 1
    assert cert.claim == CLAIM_ROOT_COUNT
    assert cert.replay()
    # with a sign change the same count keeps the one-root label
    n, cert = count_roots(poly(F(-3, 2), 1), IntervalQ(F(1), F(2)))
    assert n == 1 and cert.claim == CLAIM_ONE_ROOT and cert.replay()


@pytest.mark.parametrize("key", ["lo", "hi", "witness"])
@pytest.mark.parametrize("value", [1.7, None], ids=["float", "none"])
def test_replay_rejects_mistyped_evidence_without_raising(key, value):
    # rat() refuses floats and None with TypeError; replay must turn that
    # into a rejection, for a sign certificate and for a count certificate
    sign_cert = certify_sign_on_interval(poly(-1, 0, 0, 2), IntervalQ(F(1), F(3)), "positive")
    _, count_cert = count_roots(poly(-2, 0, 1), IntervalQ(F(0), F(2)))
    for cert in (sign_cert, count_cert):
        assert cert.replay()
        evidence = dict(cert.evidence, **{key: value})
        assert SignCertificate(cert.polynomial, cert.interval, cert.claim, evidence).replay() is False


def test_replay_rejects_an_int_field_given_as_float_or_bool():
    _, cert = count_roots(poly(-2, 0, 1), IntervalQ(F(0), F(2)))
    assert cert.evidence["root_count"] == 1
    for value in (1.0, True):
        evidence = dict(cert.evidence, root_count=value)
        assert evidence == cert.evidence  # equal as Python values, not as evidence
        assert SignCertificate(cert.polynomial, cert.interval, cert.claim, evidence).replay() is False


def test_replay_trusts_no_form_cached_on_the_stored_polynomial():
    # a polynomial cannot hold a Sturm chain, and the chain cache is keyed
    # by integer form, so with a decoy's chain (x^2 + 1) cached, replay still
    # reads the stored form's chain, the one the uncached builder makes
    p = poly(-2, 0, 1)
    _, cert = count_roots(p, IntervalQ(F(0), F(2)))
    decoy = poly(1, 0, 1)
    with pytest.raises(AttributeError):
        object.__setattr__(p, "_chain", decoy._sturm())
    assert p._sturm() == _sturm_ints.__wrapped__(p.integer_form()[0]) != decoy._sturm()
    assert cert.replay()


def test_replay_is_bit_for_bit_on_serialized_form():
    p = poly(-1, 0, 0, 2)
    cert = certify_sign_on_interval(p, IntervalQ(F(1), F(3)), "positive")
    rehydrated = SignCertificate.from_json(cert.to_json())
    assert rehydrated.to_json_str() == cert.to_json_str()
    assert rehydrated.replay()


def test_rat_str_canonical():
    assert rat_str(F(5, 3)) == "5/3"
    assert rat_str(F(4)) == "4/1"
    assert rat_str(F(-1, 220)) == "-1/220"


def test_a_narrow_violation_is_found_by_sturm():
    # negative only on (r, r + 10^-12), which no fixed sampling grid hits
    r = F(1, 3) + F(1, 10**9)
    p = (Polynomial.x() - r) * (Polynomial.x() - r - F(1, 10**12))
    with pytest.raises(SignClaimError) as err:
        certify_sign_on_interval(p, IntervalQ(F(0), F(2)), "positive")
    x = err.value.counterexample
    assert 0 <= x <= 2 and p(x) <= 0


def test_a_rational_touch_is_its_own_counterexample():
    p = poly(F(-1, 3), 1) ** 2 * poly(1, 0, 1)  # (x - 1/3)^2 (x^2 + 1)
    with pytest.raises(SignClaimError) as err:
        certify_sign_on_interval(p, IntervalQ(F(0), F(1)), "positive")
    assert err.value.counterexample == F(1, 3)
    with pytest.raises(SignClaimError) as err:
        certify_sign_on_interval(-p, IntervalQ(F(0), F(1)), "negative")
    assert err.value.counterexample == F(1, 3)


def test_an_irrational_touch_has_no_rational_counterexample():
    p = poly(-2, 0, 1) ** 2  # (x^2 - 2)^2 vanishes on [1, 2] only at sqrt(2)
    with pytest.raises(ExactPolyError, match="irrational") as err:
        certify_sign_on_interval(p, IntervalQ(F(1), F(2)), "positive")
    assert not isinstance(err.value, SignClaimError)
