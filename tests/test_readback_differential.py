"""Certificates read back, and sweep configurations checked, on integers
exactly as the frozen Fraction code did.

``readback_reference`` holds ``IntervalQ.from_json``,
``Polynomial.from_json``, ``SignCertificate.from_json``, ``_canonical_ratio``
and ``SweepConfig``'s checks as they were before each ordered, reduced or
ranged on integers.  On honest certificate JSON mutated in one place (an
entry respelled: unreduced, padded, with ``_``, ``-0``, a leading zero, a
decimal, a bool, a float, ``None``, a non-ASCII digit or a zero
denominator; the interval's ends swapped; a field of the wrong shape; a key
dropped or added), before and after a JSON round trip, the library must
give the same result as the frozen copy, or raise the same exception type
with the same message.  The one intended difference is tested on its own:
a polynomial or interval that is not a list or tuple, or an interval that
is not two entries, is refused with a ``ValueError`` naming it, where the
frozen ``from_json`` read a string or a dict entry by entry.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import report_cli as rc
from pinchcert.exact_poly import IntervalQ, Polynomial, SignCertificate, count_roots

import readback_reference as ref

F = Fraction

#: spellings of an entry: the canonical form and every near miss
SPELLINGS = (
    "1/2", "-3/4", "0/1", "7/1", "2/4", "-6/8", "0/5", " 1/2", "1/2 ", "+1/2", "1_0/3",
    "-0/1", "-0/3", "01/2", "1/02", "00/1", "-01/2", "7", "-7", "0", "-0", "0.5", "-1.25",
    "1.", ".5", "1e3", "1E3", "٣/4", "1/٢", "½", "1/0", "0/0", "-1/0", "1/00", "1/-2",
    "--1/2", "1//2", "1/2/3", "/2", "1/", "", "/", "inf", "nan",
    True, False, 0, 1, -2, 1.5, 0.0, None, [], {}, F(1, 3),
)
_ENTRIES = st.one_of(
    st.sampled_from(SPELLINGS),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-2, 40)),
    st.text(alphabet="-+0123456789/ ._e٣", max_size=7),
)
#: what a polynomial or interval field may be replaced by whole
_SHAPES = st.sampled_from(("12", "01", "", {"1/2": "3/4"}, 5, None, 1.5, True,
                           ("1/2", "3/4"), ["1/2"], ["1/2", "3/4", "5/6"], []))


def _form(p: Polynomial):
    return p.integer_form()


def _ends(lo, hi):
    return (type(lo), lo), (type(hi), hi)


def _outcome(read, normal, *args):
    """The normalized result, or the exception's type and message."""
    try:
        return normal(read(*args))
    except Exception as err:  # any error must be the frozen code's
        return type(err), str(err)


def _library_certificate(data):
    return _outcome(SignCertificate.from_json, lambda c: (
        _form(c.polynomial), _ends(c.interval.lo, c.interval.hi), c.claim,
        [(k, type(v), v) for k, v in c.evidence.items()]), data)


def _frozen_certificate(data):
    return _outcome(ref.certificate_from_json, lambda c: (
        _form(c[0]), _ends(*c[1]), c[2], [(k, type(v), v) for k, v in c[3].items()]), data)


def _honest() -> list[dict]:
    """certify's seven certificates and one count certificate per degree 1..6."""
    report = json.loads(rc.cmd_certify().to_json_str())
    certs = [entry["certificate"] for entry in report["certificates"]]
    for degree in range(1, 7):
        p = Polynomial([F(k - 3, k + 1) for k in range(degree)] + [F(degree, 7)])
        certs.append(count_roots(p, IntervalQ(F(-5, 2), F(7, 3)))[1].to_json())
    return certs


HONEST = _honest()


@st.composite
def mutated_certificates(draw):
    data = json.loads(json.dumps(draw(st.sampled_from(HONEST))))
    how = draw(st.sampled_from(("coefficient", "end", "swap", "polynomial", "interval",
                                "drop", "add", "claim", "evidence", "none")))
    if how == "coefficient":
        data["polynomial"][draw(st.integers(0, len(data["polynomial"]) - 1))] = draw(_ENTRIES)
    elif how == "end":
        data["interval"][draw(st.integers(0, 1))] = draw(_ENTRIES)
    elif how == "swap":
        data["interval"].reverse()
    elif how in ("polynomial", "interval"):
        data[how] = draw(_SHAPES)
    elif how == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif how == "add":
        data[draw(st.sampled_from(("witness", "_ints", "polynomials")))] = draw(_ENTRIES)
    elif how == "claim":
        data["claim"] = draw(st.sampled_from((None, 1, ["no-root"], "no-root", "bogus")))
    elif how == "evidence":
        data["evidence"] = draw(st.sampled_from((None, [], "{}", {})))
    return data


@settings(max_examples=400, deadline=None)
@given(mutated_certificates(), st.booleans())
def test_a_mutated_certificate_reads_back_as_the_frozen_code_read_it(data, round_trip):
    if round_trip:
        try:
            data = json.loads(json.dumps(data))
        except (TypeError, ValueError):
            pass  # a Fraction entry has no JSON form
    assert _library_certificate(data) == _frozen_certificate(data)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTRIES, max_size=6), st.booleans())
def test_a_coefficient_list_reads_back_as_the_frozen_code_read_it(entries, as_tuple):
    data = tuple(entries) if as_tuple else entries
    assert (_outcome(Polynomial.from_json, _form, data)
            == _outcome(ref.polynomial_from_json, _form, data))


@settings(max_examples=400, deadline=None)
@given(_ENTRIES, _ENTRIES, st.booleans())
def test_an_interval_reads_back_as_the_frozen_code_read_it(lo, hi, as_tuple):
    data = (lo, hi) if as_tuple else [lo, hi]
    assert (_outcome(IntervalQ.from_json, lambda iv: _ends(iv.lo, iv.hi), data)
            == _outcome(ref.interval_from_json, lambda ends: _ends(*ends), data))


@settings(max_examples=400, deadline=None)
@given(_ENTRIES)
def test_a_point_is_canonical_exactly_when_the_frozen_code_said_so(value):
    assert (_outcome(ep._canonical_ratio, tuple, value)
            == _outcome(ref.canonical_ratio, tuple, value))


@pytest.mark.parametrize("value", SPELLINGS, ids=repr)
def test_every_spelling_reads_back_as_the_frozen_code_read_it(value):
    # each spelling as a point, a coefficient, either end of an interval,
    # and in a certificate's polynomial and interval
    assert _outcome(ep._canonical_ratio, tuple, value) == _outcome(ref.canonical_ratio, tuple,
                                                                   value)
    data = ["1/3", value, "-2/1"]
    assert (_outcome(Polynomial.from_json, _form, data)
            == _outcome(ref.polynomial_from_json, _form, data))
    for iv in ([value, "7/4"], ["-7/4", value], [value, value]):
        assert (_outcome(IntervalQ.from_json, lambda iv: _ends(iv.lo, iv.hi), iv)
                == _outcome(ref.interval_from_json, lambda ends: _ends(*ends), iv))
    for cert in HONEST[:3]:
        data = dict(cert, polynomial=[value, *cert["polynomial"][1:]])
        assert _library_certificate(data) == _frozen_certificate(data)
        data = dict(cert, interval=[cert["interval"][0], value])
        assert _library_certificate(data) == _frozen_certificate(data)


def test_out_of_order_ends_are_refused_with_the_frozen_message():
    for data in (["9/5", "5/3"], ["2/4", "1/4"], ["0.75", "1/2"], ["1/1", "-0/1"]):
        want = _outcome(ref.interval_from_json, lambda ends: _ends(*ends), data)
        assert want[0] is ValueError and "out of order" in want[1]
        assert _outcome(IntervalQ.from_json, lambda iv: _ends(iv.lo, iv.hi), data) == want


@pytest.mark.parametrize("data", ["123", "1/2", "", {"1/2": 0, "3/4": 1}, {}, 5, None],
                         ids=repr)
def test_a_polynomial_that_is_not_a_list_is_refused_naming_it(data):
    with pytest.raises(ValueError, match="polynomial must be a list") as err:
        Polynomial.from_json(data)
    assert repr(data) in str(err.value)


@pytest.mark.parametrize("data", ["12", "01", {"1/2": 0, "3/4": 1}, 5, None, [], ["1/2"],
                                  ["1/2", "3/4", "junk"], ("1/2", "3/4", "5/6")], ids=repr)
def test_an_interval_that_is_not_two_entries_is_refused_naming_it(data):
    with pytest.raises(ValueError, match="interval must be a list of two") as err:
        IntervalQ.from_json(data)
    assert repr(data) in str(err.value)


def test_tuples_still_read_back():
    assert Polynomial.from_json(("1/2", "0/1", "3/1")) == Polynomial([F(1, 2), 0, 3])
    assert IntervalQ.from_json(("1/2", "3/4")) == IntervalQ(F(1, 2), F(3, 4))


# ---------------------------------------------------------------------------
# SweepConfig
# ---------------------------------------------------------------------------

_T_VALUES = st.one_of(
    st.fractions(min_value=F(-1, 8), max_value=F(5, 8), max_denominator=12),
    st.sampled_from((F(0), F(1, 2), F(1, 200), F(-1, 200), F(101, 200))),
)
_W_VALUES = st.one_of(
    st.fractions(min_value=F(3, 2), max_value=2, max_denominator=30),
    st.sampled_from((F(5, 3), F(9, 5), F(166, 100), F(181, 100))),
)
#: entries rat reads or refuses, in no order a grid can be sorted by
_ODD_VALUES = st.sampled_from((0, 1, 2, "1/4", "5/3", "9/5", "0.25", "1.7", "1/0", "x",
                               0.25, True, None))


def _grids(values):
    return st.one_of(
        st.lists(values, max_size=6).map(sorted),
        st.lists(values, max_size=6),
        st.lists(st.one_of(values, _ODD_VALUES), max_size=4),
    )


@settings(max_examples=500, deadline=None)
@given(_grids(_T_VALUES), _grids(_W_VALUES),
       st.sampled_from((0, 1, 2, 64, 65, -1, True, 1.0, "2")),
       st.sampled_from((F(1, 10**6), "1/1000", 0, -1, F(-1, 10**6), True, 1.5, "x",
                        F(1, 10**600), F(999, 10**603), F(1001, 10**603), F(1, 10**601))))
def test_a_sweep_config_is_checked_as_the_frozen_code_checked_it(t_grid, w_grid, rounds, width):
    def typed(fields):
        return [[(type(v), v) for v in f] if isinstance(f, tuple) else (type(f), f)
                for f in fields]

    got = _outcome(ps.SweepConfig, lambda c: typed(
        (c.t_grid, c.w_grid, c.refinement_rounds, c.isolation_width)),
        list(t_grid), list(w_grid), rounds, width)
    want = _outcome(ref.sweep_config, typed, list(t_grid), list(w_grid), rounds, width)
    assert got == want
