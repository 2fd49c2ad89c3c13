"""Warm sweeps hash no Fraction and build a pinned number of them.

Specializations of forms in t and Sturm members are born from their integer
forms, and ``optimize`` keeps its live cells in a list, so once the
monotonicity lemma is proved a default sweep hashes no ``Fraction`` and
builds only the ones something reads.  ``classify`` decides on its integer
case table and builds or compares none.  Constructions are counted through
``Fraction.__new__`` and, on Python 3.12 and later, through
``Fraction._from_coprime_ints``, which builds arithmetic results there;
comparisons through the five rich-comparison methods.
"""

import sys
from fractions import Fraction

import pytest

from pinchcert import param_search as ps
from pinchcert import report_cli as rc
from pinchcert import shrinker_bridge as sb

#: Fractions built by one warm default right sweep (``optimize``), measured
#: on CPython 3.10.13, 3.11.7 and 3.12.1 (918 on 3.11 while polynomials were
#: built from Fractions); 3.12 converts the int operand of mixed int/Fraction
#: arithmetic to a Fraction first
RIGHT_SWEEP_FRACTIONS = {(3, 10): 476, (3, 11): 476, (3, 12): 490}


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


def test_a_warm_default_right_sweep_builds_the_measured_number_of_fractions(monkeypatch):
    want = RIGHT_SWEEP_FRACTIONS.get(sys.version_info[:2])
    if want is None:
        pytest.skip(f"not measured on Python {sys.version_info[0]}.{sys.version_info[1]}")
    config = ps.default_config("right")
    ps.optimize("right", config)
    counts = _count_fractions(monkeypatch)
    ps.optimize("right", config)
    assert counts["built"] == want


def test_a_warm_classify_builds_and_compares_no_fraction(monkeypatch):
    third, twelfth, ninth_20 = Fraction(1, 3), Fraction(5, 12), Fraction(9, 20)
    # every verdict: each model, two models, an excluded constant, no case,
    # hypotheses not met
    bounds = ((0, 0), (third, third), (0, third), (twelfth, twelfth + Fraction(1, 1000)),
              (twelfth, ninth_20), (Fraction(2, 5), Fraction(2, 5)), (ninth_20, Fraction(1, 2)),
              (sb.UPPER_THRESHOLD_SHRINKER, ninth_20))
    queries = [sb.ShrinkerPinchData(lo, hi, nonvanishing, True)
               for lo, hi in bounds for nonvanishing in (True, False)]
    want = [sb.classify(data) for data in queries]
    counts = _count_fractions(monkeypatch)
    assert [sb.classify(data) for data in queries] == want
    assert counts == {"built": 0, "hashed": 0, "compared": 0}
    assert third < twelfth and counts["compared"] == 1  # the counter sees comparisons
