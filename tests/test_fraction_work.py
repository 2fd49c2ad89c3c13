"""Warm sweeps hash no Fraction and build a pinned number of them.

Specializations of forms in t and Sturm members are born from their integer
forms, and ``optimize`` keeps its live cells in a list, so once the
monotonicity lemma is proved a default sweep hashes no ``Fraction`` and
builds only the ones something reads.  ``classify`` reads each bound's
breakpoint code on integers and looks its decision up, and the decision
itself runs on codes, so neither builds or compares a Fraction.  A certificate read back from JSON is
born from its integer form and replays on it without a Fraction, and the
legacy-dominance check decides on integer signs.  Constructions are counted
through ``Fraction.__new__`` and, on Python 3.12 and later, through
``Fraction._from_coprime_ints``, which builds arithmetic results there;
comparisons through the five rich-comparison methods.
"""

import json
import sys
from fractions import Fraction

import pytest

from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb
from pinchcert.exact_poly import IntervalQ, SignCertificate

#: Fractions built by one warm default right sweep (``optimize``), measured
#: on CPython 3.11.7 (918 while polynomials were built from Fractions, 476
#: while certificate values were Fractions); 3.12 converts the int operand of
#: mixed int/Fraction arithmetic to a Fraction first.  The 3.10 and 3.12
#: entries were measured on 3.10.13 and 3.12.1 at 476 and 490 and moved by the
#: same version-independent four: the certificate values now come as strings
#: from integers.  All three moved by the same five again, measured on the
#: same three versions, once the winner was certified from its own probe's
#: cell instead of a second isolation of its root.  All three moved by the
#: same 214, measured on the same three versions and on 3.13.0, once the
#: isolation grid came from integer pairs instead of Fraction subtraction
#: and division (467, 467, 481 and 481 before).  All four moved by the same
#: five, measured on 3.10.13, 3.11.7, 3.12.1 and 3.13.0, once the winner's
#: one certificate became θ2 negative on [enclosure.hi, 9/5]: that step
#: builds 7 Fractions instead of 2, the sign certificate's witness coming
#: from Fraction arithmetic in ``exact_poly._offset_midpoint`` (253, 253, 267
#: and 267 before).  They fell by 5 on 3.10.13 and 3.11.7 and by 7 on
#: 3.12.1 and 3.13.0 once probes read θ2(t)'s signs at the domain's exact
#: ends: the t = 1/2 probe, where θ2(t) vanishes at 9/5, no longer nudges
#: that end off the root in Fraction steps (258, 258, 272 and 272 before).
#: Measured again on the same four versions once a probe's cell stayed on
#: its grid's integers, ranked by cross-multiplication, and only the
#: winner's became an interval, its values one Fraction per end (253, 253,
#: 265 and 265 before).  All four fell by the same eight, measured on the
#: same four versions, once the sweep walked one list of cells in t order:
#: the range check of each refinement t built ``F(1, 2)`` (41, 41, 53 and
#: 53 before).  All four fell by the same four, measured on the same four
#: versions, once the winner's sign certificate tested its interval's ends
#: for equality instead of building its width, and built its midpoint
#: witness as one Fraction from the ends' integers (33, 33, 45 and 45
#: before).  Measured again on the same four versions once each trisection
#: point became one Fraction from the integers of t and its neighbour,
#: (2ps + rq) / (3qs), instead of a gap, its third and a sum, with no mixed
#: int/Fraction arithmetic left: 16 fewer on 3.10 and 3.11 and 28 fewer on
#: 3.12 and 3.13, now equal (29, 29, 41 and 41 before)
RIGHT_SWEEP_FRACTIONS = {(3, 10): 13, (3, 11): 13, (3, 12): 13, (3, 13): 13}

#: Fractions built by one warm default left sweep (``optimize``), measured on
#: CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 once a live probe read phi's end
#: signs from its quotients' integer signs and only the winner computed
#: phi's values (1792 on 3.10 and 3.11, 2026 on 3.12 and 3.13, while every
#: live probe computed phi at both ends of its enclosure), then by the same
#: 432 on all four once the isolation grid came from integer pairs (1372 on
#: 3.10 and 3.11, 1606 on 3.12 and 3.13 before).  Unchanged on all four
#: once the winner's certificate became its quotient's negative certificate
#: on [5/3, enclosure.lo]: that is the certificate the support held, and the
#: exactly-one-root certificate it replaces built no Fraction.  Unchanged on
#: all four once both quotients' certificates came to sit on [5/3,
#: enclosure.lo]: the support's interval holds the same number of Fractions
#: wherever it ends.  Measured again on the same four versions once a
#: probe's cell stayed on its grid's integers, ranked by cross-multiplication,
#: its grid read at width / 2 as an integer pair, and only the winner's
#: became an interval, phi's values one Fraction per end (940, 940, 1174 and
#: 1174 before).  All four fell by the same 20, measured on the same four
#: versions, once the sweep walked t alone and counted its dead pairs: the
#: eight ``F(1, 2)`` of the refinement t's range check and the six of each
#: round's w trisection are gone (58, 58, 76 and 76 before).  All four fell
#: by the same eight, measured on the same four versions, once a sign
#: certificate tested its interval's ends for equality instead of building
#: its width, and built its midpoint witness as one Fraction from the ends'
#: integers: four fewer for each of the winner's two sign certificates (38,
#: 38, 50 and 50 before).  Measured again on the same four versions once
#: each trisection point became one Fraction from the integers of t and its
#: neighbour: 16 fewer on 3.10 and 3.11 and 28 fewer on 3.12 and 3.13, now
#: equal (30, 30, 42 and 42 before)
LEFT_SWEEP_FRACTIONS = {(3, 10): 14, (3, 11): 14, (3, 12): 14, (3, 13): 14}

#: Fractions built by one warm ``cmd_certify()``, measured on CPython
#: 3.10.13, 3.11.7, 3.12.1 and 3.13.0 once its four decimal brackets were
#: parsed once per process and the gap-derivative sign certificate built its
#: midpoint witness as one Fraction (59, 59, 62 and 62 before, while each
#: call parsed six decimal strings).  All four fell by the same four,
#: measured on the same four versions, once the threshold table held its
#: parameters as ``p/q`` strings: the ``F(1, 2)``, ``F(5, 3)``, ``F(1, 4)``
#: and ``F(9, 5)`` it built are gone (49, 49, 52 and 52 before)
CERTIFY_FRACTIONS = {(3, 10): 45, (3, 11): 45, (3, 12): 48, (3, 13): 48}

#: Fractions built by a warm ``from_json(...).replay()`` of certify's seven
#: certificates: per certificate the interval's two ends, read by
#: ``IntervalQ.from_json``, each one ``Fraction(int, int)`` on every Python
#: version; replay itself builds none (31 while replay parsed the evidence
#: points lo, hi and witness into Fractions, 75 on CPython 3.11.7 while
#: coefficients and values were Fractions)
CERTIFY_REPLAY_FRACTIONS = 7 * 2


def _count_fractions(monkeypatch) -> dict:
    """Counts of Fraction constructions, hashes and comparisons from now on."""
    counts = {"built": 0, "hashed": 0, "compared": 0}
    real_new, real_hash = Fraction.__new__, Fraction.__hash__

    def new(cls, *args, **kwargs):
        counts["built"] += 1
        return real_new(cls, *args, **kwargs)

    def hashing(self):
        counts["hashed"] += 1
        return real_hash(self)

    monkeypatch.setattr(Fraction, "__new__", new)
    monkeypatch.setattr(Fraction, "__hash__", hashing)
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def from_coprime(cls, numerator, denominator):
            counts["built"] += 1
            return coprime.__func__(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(from_coprime))
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def compare(self, other, real=getattr(Fraction, name)):
            counts["compared"] += 1
            return real(self, other)

        monkeypatch.setattr(Fraction, name, compare)
    return counts


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_warm_default_sweep_hashes_no_fraction(monkeypatch, side):
    config = ps.default_config(side)
    rc.cmd_optimize(side, config)  # the lemmas proved, the forms' columns cached
    counts = _count_fractions(monkeypatch)
    report = rc.cmd_optimize(side, config)
    assert report.all_passed
    assert counts["hashed"] == 0
    assert counts["built"] > 0  # the counter sees constructions


@pytest.mark.parametrize("side, measured", [("left", LEFT_SWEEP_FRACTIONS),
                                             ("right", RIGHT_SWEEP_FRACTIONS)],
                         ids=["left", "right"])
def test_a_warm_default_sweep_builds_the_measured_number_of_fractions(
        monkeypatch, side, measured):
    want = measured.get(sys.version_info[:2])
    if want is None:
        pytest.skip(f"not measured on Python {sys.version_info[0]}.{sys.version_info[1]}")
    config = ps.default_config(side)
    ps.optimize(side, config)
    counts = _count_fractions(monkeypatch)
    ps.optimize(side, config)
    assert counts["built"] == want


def test_a_warm_certify_builds_the_measured_number_of_fractions(monkeypatch):
    want = CERTIFY_FRACTIONS.get(sys.version_info[:2])
    if want is None:
        pytest.skip(f"not measured on Python {sys.version_info[0]}.{sys.version_info[1]}")
    rc.cmd_certify()
    counts = _count_fractions(monkeypatch)
    assert rc.cmd_certify().all_passed
    assert counts["built"] == want


def test_a_warm_replay_of_certifys_certificates_builds_the_counted_fractions(monkeypatch):
    report = json.loads(rc.cmd_certify().to_json_str())
    entries = [entry["certificate"] for entry in report["certificates"]]
    assert len(entries) == 7
    assert all(SignCertificate.from_json(data).replay() for data in entries)
    counts = _count_fractions(monkeypatch)
    assert all(SignCertificate.from_json(data).replay() for data in entries)
    assert counts["built"] == CERTIFY_REPLAY_FRACTIONS
    assert counts["hashed"] == 0


@pytest.mark.parametrize("command", ["certify", "left", "right"])
def test_replay_builds_no_fraction_interval_or_certificate(monkeypatch, command):
    # a report's certificates read back from JSON and, for a sweep, the
    # winner's as built: replay proves on integers and compares evidence
    if command == "certify":
        report, certs = rc.cmd_certify(), []
    else:
        report = rc.cmd_optimize(command, ps.default_config(command))
        best = ps.optimize(command, ps.default_config(command)).best
        certs = [best.certificate, *best.support]
    certs += [SignCertificate.from_json(entry["certificate"])
              for entry in json.loads(report.to_json_str())["certificates"]]
    records = []
    for cls in (IntervalQ, SignCertificate):
        real_init = cls.__init__

        def init(self, *args, real_init=real_init, **kwargs):
            records.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    counts = _count_fractions(monkeypatch)
    assert all(cert.replay() for cert in certs)
    assert (counts["built"], records) == (0, [])


def test_a_warm_legacy_comparison_builds_no_fraction(monkeypatch):
    points = [Fraction(125 + k, 75) for k in range(1, 10)] + [Fraction(5, 3), Fraction(9, 5)]
    want = [pb.compare_legacy_to_new(s) for s in points]
    counts = _count_fractions(monkeypatch)
    assert [pb.compare_legacy_to_new(s) for s in points] == want
    assert counts["built"] == 0 and counts["hashed"] == 0


def _classify_queries() -> list:
    third, twelfth, ninth_20 = Fraction(1, 3), Fraction(5, 12), Fraction(9, 20)
    # every verdict: each model, two models, an excluded constant, no case,
    # hypotheses not met
    bounds = ((0, 0), (third, third), (0, third), (twelfth, twelfth + Fraction(1, 1000)),
              (twelfth, ninth_20), (Fraction(2, 5), Fraction(2, 5)), (ninth_20, Fraction(1, 2)),
              (sb.UPPER_THRESHOLD_SHRINKER, ninth_20))
    return [sb.ShrinkerPinchData(lo, hi, nonvanishing, True)
            for lo, hi in bounds for nonvanishing in (True, False)]


def test_a_warm_classify_builds_and_compares_no_fraction(monkeypatch):
    queries = _classify_queries()
    want = [sb.classify(data) for data in queries]
    counts = _count_fractions(monkeypatch)
    assert [sb.classify(data) for data in queries] == want
    assert counts == {"built": 0, "hashed": 0, "compared": 0}
    third, twelfth = queries[2].a_circ_max, queries[6].a_circ_min
    assert third < twelfth and counts["compared"] == 1  # the counter sees comparisons


def test_deciding_a_new_key_builds_and_compares_no_fraction(monkeypatch):
    # the memo emptied: every query's decision is made afresh, on codes
    queries = _classify_queries()
    want = [sb.classify(data).to_json() for data in queries]
    sb._decide.cache_clear()
    counts = _count_fractions(monkeypatch)
    assert [sb.classify(data).to_json() for data in queries] == want
    assert sb._decide.cache_info().misses > 0
    assert counts == {"built": 0, "hashed": 0, "compared": 0}
