"""The integer evidence kernel builds and replays exactly as the frozen code.

``replay_reference`` is ``SignCertificate.replay`` and ``_certificate`` as
they were before one integer kernel came to prove every certificate when it
is built and again when it is replayed.  Over certificates of all five
claims on polynomials of degrees 1..6, the library must build the same
certificate or raise the same error, and its replay must return the same
bool as the frozen replay, before and after one tampering: an evidence field
dropped, added, or swapped for a float, a bool, ``None`` or another spelling
of a rational, or an int field given as an equal float or bool; the claim
or the interval swapped; a decoy Sturm chain kept on the stored
polynomial; and each of these on a certificate read back from JSON
as well.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from pinchcert import exact_poly as ep
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
)

import replay_reference as ref

F = Fraction

CLAIMS = (CLAIM_NO_ROOT, CLAIM_ONE_ROOT, CLAIM_ROOT_COUNT, CLAIM_POSITIVE, CLAIM_NEGATIVE)
POINT_KEYS = ("lo", "hi", "witness")
KEYS = POINT_KEYS + ("variations_lo", "variations_hi", "root_count", "value_lo", "value_hi",
                     "witness_value")
#: stand-ins for any evidence field
SWAPS = (1.5, True, False, None, "2/4", "+1/2", " 1/2", "0.5", "٣/4", "1/٢", 0, 1)

small = st.fractions(min_value=-3, max_value=3, max_denominator=8)
# degrees 1..6
coefficients = st.lists(small, min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0)


def _outcome(build, *args):
    """The certificate, or the error's type, message and counterexample."""
    try:
        return build(*args)
    except (ExactPolyError, ValueError) as err:
        return type(err), str(err), getattr(err, "counterexample", None)


@st.composite
def certificates(draw):
    """A certificate of the frozen constructor: the drawn claim where the
    evidence proves it, else the count claim the evidence proves.  The
    library's constructor must agree on both outcomes."""
    claim = draw(st.sampled_from(CLAIMS + (None,)))
    if claim in (CLAIM_POSITIVE, CLAIM_NEGATIVE) and draw(st.booleans()):
        # ±(q^2 + c), c > 0, of degree 2..6: the claim holds everywhere
        q = Polynomial(draw(coefficients.filter(lambda cs: len(cs) <= 4)))
        p = q * q + draw(small.filter(lambda c: c > 0))
        p = p if claim == CLAIM_POSITIVE else -p
    else:
        p = Polynomial(draw(coefficients))
    a, b = sorted(draw(st.lists(small, min_size=2, max_size=2)))
    iv = IntervalQ(a, b)
    inside = st.builds(lambda s: a + (b - a) * s,
                       st.fractions(min_value=0, max_value=1, max_denominator=6))
    if claim == CLAIM_ROOT_COUNT and draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(inside, min_size=2, max_size=2)))
    else:
        lo, hi = a, b
    witness = draw(inside) if claim in (CLAIM_POSITIVE, CLAIM_NEGATIVE) else None
    got = _outcome(ep._certificate, p, iv, claim, lo, hi, witness)
    want = _outcome(ref._certificate, p, iv, claim, lo, hi, witness)
    assert got == want
    if not isinstance(want, SignCertificate):
        want = ref._certificate(p, iv, None, a, b)
        assert ep._certificate(p, iv, None, a, b) == want
    return want


def _respellings(value: str) -> list:
    """Other spellings of the rational a canonical ``p/q`` string holds."""
    q = F(value)
    n, d = q.numerator, q.denominator
    out = [f"{2 * n}/{2 * d}", f" {value}", f"{value} ", f"0{n}/{d}" if n >= 0 else f"-0{-n}/{d}",
           f"{n}/0{d}", str(q), float(q), q, value.replace("1", "١")]
    if n >= 0:
        out.append(f"+{value}")
    if d == 1:
        out += [n, f"{n}.0"]
    return [v for v in out if v != value]


@st.composite
def tamperings(draw, cert: SignCertificate):
    """``cert`` read back from JSON or not, then tampered with at most once."""
    if draw(st.booleans()):
        cert = SignCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    evidence = dict(cert.evidence)
    how = draw(st.sampled_from(["none", "drop", "add", "swap", "retype", "respell", "claim",
                                "interval", "decoy"]))
    claim, interval, polynomial = cert.claim, cert.interval, cert.polynomial
    if how == "drop":
        del evidence[draw(st.sampled_from(sorted(evidence)))]
    elif how == "add":
        key = draw(st.sampled_from([k for k in KEYS if k not in evidence] + ["extra"]))
        evidence[key] = draw(st.sampled_from(SWAPS + (evidence["lo"],)))
    elif how == "swap":
        evidence[draw(st.sampled_from(sorted(evidence)))] = draw(st.sampled_from(SWAPS))
    elif how == "retype":
        # an int field as an equal float or bool
        key = draw(st.sampled_from([k for k, v in evidence.items() if type(v) is int]))
        value = evidence[key]
        evidence[key] = draw(st.sampled_from([float(value)] + [bool(value)] * (value in (0, 1))))
    elif how == "respell":
        key = draw(st.sampled_from([k for k in POINT_KEYS if k in evidence]))
        evidence[key] = draw(st.sampled_from(_respellings(evidence[key])))
    elif how == "claim":
        claim = draw(st.sampled_from(CLAIMS + (None, "bogus")))
    elif how == "interval":
        a, b = sorted(draw(st.lists(small, min_size=2, max_size=2)))
        ends = [(a, b), (interval.lo, b), (a, interval.hi)]
        interval = IntervalQ(*draw(st.sampled_from([(lo, hi) for lo, hi in ends if lo <= hi])))
    elif how == "decoy":
        decoy = Polynomial(draw(coefficients))
        object.__setattr__(polynomial, "_chain", decoy._sturm())
    return SignCertificate(polynomial, interval, claim, evidence)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_replay_returns_what_the_frozen_replay_returns(data):
    cert = data.draw(certificates())
    assert cert.replay() and ref.replay(cert)
    tampered = data.draw(tamperings(cert))
    assert tampered.replay() is ref.replay(tampered)


def _one_of_each_claim() -> list[SignCertificate]:
    """A certificate of each claim on (x - 1)(x - 3), and a root count
    evidenced inside its interval."""
    x = Polynomial.x()
    p = (x - 1) * (x - 3)
    built = [
        ref._certificate(p, IntervalQ(F(3, 2), F(5, 2)), None, F(3, 2), F(5, 2)),
        ref._certificate(p, IntervalQ(0, 2), None, 0, 2),
        ref._certificate(p, IntervalQ(0, 4), None, 0, 4),
        ref._certificate(p, IntervalQ(0, F(1, 2)), CLAIM_POSITIVE, 0, F(1, 2), F(1, 4)),
        ref._certificate(p, IntervalQ(2, F(5, 2)), CLAIM_NEGATIVE, 2, F(5, 2), F(9, 4)),
        ref._certificate(p, IntervalQ(-1, 5), CLAIM_ROOT_COUNT, F(1, 2), F(7, 2)),
    ]
    assert [c.claim for c in built] == list(CLAIMS) + [CLAIM_ROOT_COUNT]
    return built


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_each_claim_builds_and_replays_as_frozen(data):
    # one certificate of each claim, then a drawn batch, each replaying True
    if data is None:
        built = _one_of_each_claim()
    else:
        built = data.draw(st.lists(certificates(), min_size=1, max_size=3))
    for cert in built:
        assert cert.replay() is ref.replay(cert) is True
        read = SignCertificate.from_json(cert.to_json())
        assert read.replay() is ref.replay(read) is True


def test_every_stand_in_and_respelling_replays_as_frozen():
    # each field of each claim's certificate given every stand-in, and each
    # point every other spelling of its rational
    for cert in _one_of_each_claim():
        for key, value in cert.evidence.items():
            stand_ins = list(SWAPS) + (_respellings(value) if key in POINT_KEYS else [])
            for stand_in in stand_ins:
                evidence = dict(cert.evidence, **{key: stand_in})
                tampered = SignCertificate(cert.polynomial, cert.interval, cert.claim, evidence)
                assert tampered.replay() is ref.replay(tampered), (cert.claim, key, stand_in)
