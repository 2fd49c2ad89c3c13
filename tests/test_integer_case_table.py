"""The coded case table classifies as the Fraction classifier did.

:func:`pinchcert.shrinker_bridge.classify` reads each bound as its
breakpoint code, which of the table's six distinct values it equals or
which two it lies between, tests the oscillation by one integer
cross-multiplication, and looks the outcome up in the memoized decision
over ``_CASES`` on codes.  ``classify_reference`` is the frozen Fraction
version; the two must agree on every input, above all at the breakpoints
of the table, a hair either side of them, at an oscillation of exactly
1/880, on denominators that share no factor with the scale, and at one
input for every key the decision can be asked for.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import classify_reference as ref
from pinchcert import shrinker_bridge as sb

F = Fraction

BREAKPOINTS = (F(0), F(1, 3), F(5, 12), F(683, 1600), F(17853, 40000), F(9, 20))
HAIR = F(1, 10**12)
NEAR_BREAKPOINTS = sorted({b + d for b in BREAKPOINTS for d in (-HAIR, 0, HAIR) if b + d >= 0})
OSCILLATIONS = (sb.OSCILLATION_SHRINKER - HAIR, sb.OSCILLATION_SHRINKER,
                sb.OSCILLATION_SHRINKER + HAIR)
HYPOTHESES = ((True, True), (True, False), (False, True), (False, False))
#: primes that divide no scaled table entry
COPRIME_DENOMINATORS = (7, 13, 17, 19, 23, 29, 31, 10**9 + 7)


def _agree(lo, hi, nonvanishing=True, parallel=True):
    data = sb.ShrinkerPinchData(lo, hi, nonvanishing, parallel)
    assert sb.classify(data).to_json() == ref.classify(data).to_json(), (lo, hi)


def test_the_scale_is_the_lcm_of_the_table_and_880():
    denominators = [880] + [q.denominator for case in ref._CASES
                            for q in (case[1], case[2], *case[4])]
    assert sb._SCALE == math.lcm(*denominators)
    assert all(math.gcd(d, sb._SCALE) == 1 for d in COPRIME_DENOMINATORS)


def test_every_pair_of_points_near_the_breakpoints():
    for i, lo in enumerate(NEAR_BREAKPOINTS):
        for hi in NEAR_BREAKPOINTS[i:]:
            for nonvanishing, parallel in HYPOTHESES:
                _agree(lo, hi, nonvanishing, parallel)


def test_oscillations_at_and_beside_1_880():
    for lo in NEAR_BREAKPOINTS:
        for width in OSCILLATIONS:
            _agree(lo, lo + width)
            if lo >= width:
                _agree(lo - width, lo)


def test_denominators_coprime_to_the_scale():
    for d in COPRIME_DENOMINATORS:
        for b in BREAKPOINTS:
            for k in (-1, 0, 1):
                lo = max(F(0), b + F(k, d))
                for hi in (lo, lo + F(1, d), lo + sb.OSCILLATION_SHRINKER,
                           b + F(1, 880 * d), F(9, 20) + F(1, d)):
                    _agree(lo, max(lo, hi))


_BOUNDS = st.one_of(
    st.fractions(min_value=0, max_value=F(1, 2)),
    st.builds(lambda b, k, d: max(F(0), b + F(k, d)),
              st.sampled_from(BREAKPOINTS), st.integers(-3, 3),
              st.one_of(st.sampled_from(COPRIME_DENOMINATORS),
                        st.integers(1, 10**15))),
)


@settings(max_examples=500, deadline=None)
@given(_BOUNDS, _BOUNDS, st.sampled_from(HYPOTHESES))
def test_hypothesis_bounds(a, b, hypotheses):
    _agree(min(a, b), max(a, b), *hypotheses)


@settings(max_examples=200, deadline=None)
@given(_BOUNDS, st.sampled_from(OSCILLATIONS))
def test_hypothesis_oscillation_windows(lo, width):
    _agree(lo, lo + width)


#: a point strictly between a breakpoint times ``_SCALE`` and the next integer
BESIDE = F(1, 7 * sb._SCALE)


def test_the_breakpoints_are_the_tables_distinct_values():
    assert sb._BREAKPOINTS == tuple(b * sb._SCALE for b in BREAKPOINTS)


def test_each_breakpoint_has_its_odd_code_and_the_even_codes_beside_it():
    for k, b in enumerate(BREAKPOINTS, start=1):
        beside = (sb._coded(b - BESIDE), sb._coded(b), sb._coded(b + BESIDE))
        assert beside == (2 * k - 2, 2 * k - 1, 2 * k)
    assert sb._coded(F(1, 2)) == sb._coded(F(10**9)) == 2 * len(BREAKPOINTS)


def _representatives() -> dict:
    """One (lo, hi) for each reachable key (lo code, hi code, hi - lo <= 1/880)
    of the decision, found among each code's extreme points: the breakpoint
    itself for an odd code, a point just inside each end of its gap for an
    even one (1/2 standing for the open end above 9/20)."""
    ends = list(BREAKPOINTS) + [F(1, 2) + BESIDE]
    points = {}
    for k, b in enumerate(BREAKPOINTS, start=1):
        points[2 * k - 1] = [b]
        points[2 * k] = [b + BESIDE, ends[k] - BESIDE]
    found = {}
    for lo_code, lows in points.items():
        for hi_code, highs in points.items():
            for lo in lows:
                for hi in highs:
                    if lo <= hi:
                        key = (lo_code, hi_code, hi - lo <= sb.OSCILLATION_SHRINKER)
                        found.setdefault(key, (lo, hi))
    return found


def test_every_reachable_key_decides_as_the_reference():
    # 78 code pairs lo <= hi from 1..12; all but the six equal odd pairs
    # (lo == hi, a breakpoint) reach an oscillation over 1/880, and within
    # 1/880 are reached the 12 equal pairs, the 11 adjacent ones and the 5
    # even pairs astride one breakpoint: every other pair spans a whole
    # gap, and the narrowest, 9/20 - 17853/40000, exceeds 1/880
    found = _representatives()
    assert len(found) == 72 + 12 + 11 + 5
    sb._decide.cache_clear()
    for (lo_code, hi_code, osc_ok), (lo, hi) in found.items():
        assert (sb._coded(lo), sb._coded(hi)) == (lo_code, hi_code)
        _agree(lo, hi)
        for hypotheses in HYPOTHESES[1:]:
            _agree(lo, hi, *hypotheses)
    # each key is decided once, and a failed hypothesis decides nothing
    assert sb._decide.cache_info().currsize == len(found)
