"""Tests for the self-shrinker dictionary and rigidity classification."""

import copy
import pickle
from fractions import Fraction

import pytest

from pinchcert import shrinker_bridge as sb
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import rat

F = Fraction


def data(lo, hi, h_nonvanishing=True, h_parallel=True):
    return sb.ShrinkerPinchData(
        a_circ_min=rat(lo),
        a_circ_max=rat(hi),
        mean_curvature_nonvanishing=h_nonvanishing,
        normalized_H_parallel=h_parallel,
    )


# ---------------------------------------------------------------------------
# scale constants
# ---------------------------------------------------------------------------


def test_threshold_scale_consistency_with_spherical_constants():
    assert 4 * sb.LOWER_THRESHOLD_SHRINKER == rat("1.7075")
    assert 4 * sb.UPPER_THRESHOLD_SHRINKER == rat("1.7853")
    assert sb.LOWER_THRESHOLD_SHRINKER == rat("0.426875")
    assert sb.UPPER_THRESHOLD_SHRINKER == rat("0.446325")


# ---------------------------------------------------------------------------
# classification truth table
# ---------------------------------------------------------------------------


def test_case_1a_round_sphere():
    c = sb.classify(data(0, 0))
    assert c.verdict == "round-sphere" and c.theorem_case == "1a"


def test_case_1b_veronese_with_overlap_label():
    c = sb.classify(data(F(1, 3), F(1, 3)))
    assert c.verdict == "veronese"
    assert c.theorem_case == "1b"
    assert c.applicable_cases == ("1b", "2a")


def test_case_2a_veronese():
    c = sb.classify(data(F(1, 3), F(2, 5)))
    assert c.verdict == "veronese" and c.theorem_case == "2a"


def test_case_2b_calabi_s3():
    c = sb.classify(data(F(41, 100), F(5, 12)))
    assert c.verdict == "calabi-s3" and c.theorem_case == "2b"


def test_case_3a_calabi_s3():
    c = sb.classify(data(F(5, 12), rat("0.426875")))
    assert c.verdict == "calabi-s3" and c.theorem_case == "3a"
    assert "3c" not in c.applicable_cases  # oscillation too large for 3c


def test_case_3b_calabi_s4():
    c = sb.classify(data(rat("0.45"), rat("0.45")))
    assert c.verdict == "calabi-s4" and c.theorem_case == "3b"
    assert c.applicable_cases == ("3b", "3c")


def test_case_3c_oscillation_branch_low_constant():
    c = sb.classify(data(F(5, 12), F(5, 12) + F(1, 1000)))
    assert c.verdict == "calabi-s3"
    assert "3c" in c.applicable_cases
    assert c.possible_models == ("calabi-s3",)


def test_case_3c_oscillation_branch_high_constant():
    c = sb.classify(data(F(9, 20) - F(1, 1000), F(9, 20)))
    assert c.verdict == "calabi-s4"
    assert "3c" in c.applicable_cases


def test_oscillation_just_over_the_threshold_drops_3c():
    lo = F(43, 100)
    c = sb.classify(data(lo, lo + F(1, 880) + F(1, 10**6)))
    assert c.verdict == "inconclusive"
    assert c.applicable_cases == ()


def test_hypotheses_not_met():
    for flags in ((False, True), (True, False), (False, False)):
        c = sb.classify(data(0, 0, *flags))
        assert c.verdict == "hypotheses-not-met"
        assert c.theorem_case is None


def test_unconstrained_bounds_are_inconclusive():
    c = sb.classify(data(0, F(9, 20)))
    assert c.verdict == "inconclusive"


def test_two_candidate_case_reports_both_models():
    c = sb.classify(data(0, F(1, 3)))
    assert c.verdict == "inconclusive"
    assert c.possible_models == ("round-sphere", "veronese")
    assert c.theorem_case == "1"


def test_unrealizable_bounds_inside_a_case():
    # inside the 3c strip but excluding both constants: rigidity forces a
    # constant the bounds rule out
    c = sb.classify(data(rat("0.43"), rat("0.4305")))
    assert c.verdict == "inconclusive"
    assert c.possible_models == ()
    assert c.theorem_case == "3c"


def test_monotonicity_enlarging_bounds_never_rigidifies():
    rigid = {"round-sphere", "veronese", "calabi-s3", "calabi-s4"}
    base = data(F(5, 12), F(5, 12))
    assert sb.classify(base).verdict in rigid
    widened = data(F(5, 12), F(9, 20))  # larger interval, loses uniqueness
    assert sb.classify(widened).verdict == "inconclusive"
    widest = data(0, F(9, 20))
    assert sb.classify(widest).verdict == "inconclusive"


def test_pinch_data_validation():
    with pytest.raises(ValueError):
        data(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        data(F(-1, 10), F(1, 3))


@pytest.mark.parametrize("key", ["mean_curvature_nonvanishing", "normalized_H_parallel"])
@pytest.mark.parametrize("value", ["false", 1, None])
def test_hypotheses_must_be_booleans(key, value):
    # "false" and 1 are truthy: neither may count as the hypothesis holding
    fields = {"a_circ_min": "5/12", "a_circ_max": "5/12",
              "mean_curvature_nonvanishing": True, "normalized_H_parallel": True,
              key: value}
    with pytest.raises(TypeError, match=f"{key} must be a JSON boolean, got {value!r}"):
        sb.ShrinkerPinchData(**fields)
    with pytest.raises(TypeError, match=key):
        sb.ShrinkerPinchData.from_json(fields)


FIELDS = ("a_circ_min", "a_circ_max", "mean_curvature_nonvanishing", "normalized_H_parallel")


@pytest.mark.parametrize("name", [*FIELDS, "other"])
def test_pinch_data_refuses_assignment(name):
    d = data(F(5, 12), F(9, 20))
    with pytest.raises(AttributeError):
        setattr(d, name, F(1, 3))
    assert (d.a_circ_min, d.a_circ_max) == (F(5, 12), F(9, 20))


def test_pinch_data_is_equal_and_hashed_by_its_four_fields():
    d = data(F(5, 12), F(9, 20))
    fields = tuple(getattr(d, name) for name in FIELDS)
    assert fields == (F(5, 12), F(9, 20), True, True)
    same = sb.ShrinkerPinchData("5/12", "9/20", True, True)
    assert same == d and not same != d and hash(same) == hash(d) == hash(fields)
    assert d != data(F(5, 12), F(9, 20), h_parallel=False) and d != data(F(5, 12), F(1, 2))
    # a tuple of the same fields is not a record
    assert d != fields and fields != d and not d == fields
    assert copy.copy(d) == d and pickle.loads(pickle.dumps(d)) == d
    assert repr(d) == ("ShrinkerPinchData(a_circ_min=Fraction(5, 12), "
                       "a_circ_max=Fraction(9, 20), mean_curvature_nonvanishing=True, "
                       "normalized_H_parallel=True)")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_pinch_data_json_round_trip():
    d = data(F(5, 12), F(9, 20))
    assert sb.ShrinkerPinchData.from_json(d.to_json()) == d


@pytest.mark.parametrize("key", ["a_circ_min", "a_circ_max",
                                 "mean_curvature_nonvanishing", "normalized_H_parallel"])
def test_pinch_data_names_a_missing_field(key):
    payload = data(F(5, 12), F(9, 20)).to_json()
    del payload[key]
    with pytest.raises(ValueError, match=f"missing '{key}'"):
        sb.ShrinkerPinchData.from_json(payload)


# ---------------------------------------------------------------------------
# certified spherical scale
# ---------------------------------------------------------------------------


def test_shrinker_thresholds_match_certified_spherical_scale():
    # the classifier's constants are exactly the certified spherical ones / 4
    assert sb.LOWER_THRESHOLD_SHRINKER == rat("1.7075") / 4
    assert sb.UPPER_THRESHOLD_SHRINKER == rat("1.7853") / 4
    assert pb.calabi_value(3).S / 4 == F(5, 12)
    assert pb.calabi_value(4).S / 4 == F(9, 20)
