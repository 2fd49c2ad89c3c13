"""Certificates are computed on integer forms, byte for byte as on Fractions.

``exact_poly`` writes a certificate's ``value_lo``, ``value_hi`` and
``witness_value`` from the integer Horner value at each point, reduced,
without building ``p(x)``; ``Polynomial.from_json`` reads coefficient
strings straight into the canonical integer form, and ``to_json`` writes
every polynomial from that form.  Each must give exactly the strings and
values the Fraction route gives, and ``from_json`` must accept and refuse
exactly what ``rat`` does.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pinchcert import exact_poly as ep
from pinchcert.exact_poly import (
    CLAIM_ROOT_COUNT,
    IntervalQ,
    Polynomial,
    SignCertificate,
    certify_sign_on_interval,
    count_roots,
    rat,
    rat_str,
)

F = Fraction

# rationals with numerators and denominators of up to about 100 bits
big_rationals = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
points = st.one_of(big_rationals, st.fractions(min_value=-3, max_value=3, max_denominator=10**6))
# degrees 1..6
polys = st.lists(big_rationals, min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0).map(
    Polynomial)


def _born(p: Polynomial) -> Polynomial:
    """p made again by the integer constructor that ``from_json`` and
    ``Form.at`` use."""
    return Polynomial._from_integer_form(*p.integer_form())


@settings(max_examples=300, deadline=None)
@given(p=polys, x=points)
@example(p=Polynomial((F(-1, 2), 1)), x=F(1, 2))
@example(p=Polynomial((F(1, 3), 0, F(-7, 10**25))), x=F(-(10**20), 3))
def test_integer_values_are_the_fraction_values(p, x):
    value = p(x)
    for q in (p, _born(p)):
        _, evidence, (sign, _) = ep._count_evidence(q, x, x)
        assert (evidence["value_lo"], sign) == (rat_str(value), (value > 0) - (value < 0))


@settings(max_examples=200, deadline=None)
@given(p=polys, ends=st.lists(points, min_size=2, max_size=2, unique=True))
def test_certificate_values_are_the_fraction_values(p, ends):
    lo, hi = sorted(ends)
    for q in (p, _born(p)):
        if ep.sign_at(q, lo) == 0 or ep.sign_at(q, hi) == 0:
            continue
        cert = ep._certificate(q, IntervalQ(lo, hi), CLAIM_ROOT_COUNT, lo, hi)
        assert cert.evidence["value_lo"] == rat_str(p(lo))
        assert cert.evidence["value_hi"] == rat_str(p(hi))
        assert SignCertificate.from_json(cert.to_json()).replay()


@settings(max_examples=100, deadline=None)
@given(p=polys, ends=st.lists(points, min_size=2, max_size=2, unique=True))
def test_witness_values_are_the_fraction_values(p, ends):
    lo, hi = sorted(ends)
    square = p * p + 1  # positive everywhere
    cert = certify_sign_on_interval(square, IntervalQ(lo, hi), "positive")
    witness = rat(cert.evidence["witness"])
    assert cert.evidence["witness_value"] == rat_str(square(witness))
    assert SignCertificate.from_json(cert.to_json()).replay()


@settings(max_examples=300, deadline=None)
@given(p=polys)
@example(p=Polynomial((F(2, 4), 0, F(-6, 9))))
def test_json_round_trip_keeps_the_integer_form(p):
    data = p.to_json()
    back = Polynomial.from_json(data)
    assert back == p and back.integer_form() == p.integer_form()
    assert back.to_json() == data
    assert _born(p).to_json() == data


def _outcome(fn, value):
    try:
        return fn(value)
    except Exception as err:  # the exception type is the outcome
        return type(err)


EDGE_VALUES = ["2/4", "-0/7", "007/014", "1.25", 1.5, True, None, "1e3", "1_0/3", "٣/4",
               "1/0", "٣/0", "", "-", "3/", "/3", "12/-3", "+1/3", " 1/8", ".5", "7",
               "-5/10", F(3, 9), 4, [1], "1/2/3"]


def _same_outcome(value):
    """from_json of [value, 1] against rat(value): the polynomial
    value + x, or the same exception type."""
    want = _outcome(rat, value)
    got = _outcome(Polynomial.from_json, [value, "1/1"])
    if isinstance(want, F):
        assert got == Polynomial((want, 1)) and got.integer_form() == Polynomial(
            (want, 1)).integer_form()
    else:
        assert got is want


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_from_json_accepts_and_refuses_what_rat_does(value):
    _same_outcome(value)


@settings(max_examples=500, deadline=None)
@given(s=st.text(alphabet=st.sampled_from(list("0123456789-+ _./eE") + ["٣", "５"]),
                 max_size=8))
def test_from_json_agrees_with_rat_on_strings(s):
    _same_outcome(s)


def test_a_trailing_zero_string_is_stripped():
    p = Polynomial.from_json(["1/2", "0/1", "-0/3"])
    assert p.integer_form() == ((1,), 2) and p.degree == 0
    assert Polynomial.from_json([]).integer_form() == ((), 1)
    assert Polynomial.from_json(["-0/7"]) == Polynomial.zero()


def test_replay_of_a_read_certificate_takes_no_kept_chain():
    # the read polynomial cannot hold a Sturm chain, and replay reads the
    # chain cached for its integer form, so a chain cached first for another
    # form (that of x^2 + 1) changes nothing
    _, cert = count_roots(Polynomial((-2, 0, 1)), IntervalQ(F(0), F(2)))
    read = SignCertificate.from_json(cert.to_json())
    with pytest.raises(AttributeError):
        object.__setattr__(read.polynomial, "_chain", Polynomial((1, 0, 1))._sturm())
    ep._sturm_ints.cache_clear()
    Polynomial((1, 0, 1))._sturm()
    assert read.replay()
    assert read.polynomial._sturm() == ep._sturm_ints.__wrapped__((-2, 0, 1))



# count_roots' certificate of 1 + 2x on [0, 1] as JSON; read entry by entry,
# the strings "12" and "01" would be 1 + 2x and [0, 1], and an object's keys
# its entries, so each malformed shape below used to replay True
_CERTIFICATE = count_roots(Polynomial([1, 2]), IntervalQ(0, 1))[1].to_json()
#: per malformed shape, the certificate so changed and the field to be named
MALFORMED = {
    "strings": (dict(_CERTIFICATE, polynomial="12", interval="01"), "polynomial"),
    "polynomial object": (dict(_CERTIFICATE, polynomial={"1": 0, "2": 0}), "polynomial"),
    "polynomial of numbers": (dict(_CERTIFICATE, polynomial=[1, 2]), "polynomial"),
    "interval string": (dict(_CERTIFICATE, interval="01"), "interval"),
    "three interval ends": (dict(_CERTIFICATE, interval=["0/1", "1/1", "2/1"]), "interval"),
    "claim null": (dict(_CERTIFICATE, claim=None), "claim"),
    "evidence pairs": (dict(_CERTIFICATE, evidence=list(_CERTIFICATE["evidence"].items())),
                       "evidence"),
    "unknown key": (dict(_CERTIFICATE, note="x"), "keys"),
    "missing key": ({k: v for k, v in _CERTIFICATE.items() if k != "claim"}, "keys"),
    "a list": (list(_CERTIFICATE.items()), "object"),
}


@pytest.mark.parametrize("forged, field", MALFORMED.values(), ids=MALFORMED)
def test_from_json_refuses_a_certificate_of_the_wrong_shape(forged, field):
    assert SignCertificate.from_json(_CERTIFICATE).replay()
    with pytest.raises(ValueError, match=field):
        SignCertificate.from_json(forged)
