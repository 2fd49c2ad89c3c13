"""The integer case table classifies as the Fraction classifier did.

:func:`pinchcert.shrinker_bridge.classify` decides its range, oscillation
and admissibility tests by integer cross-multiplication against ``_CASES``
put on one common denominator.  ``classify_reference`` is the frozen
Fraction version; the two must agree on every input, above all at the
breakpoints of the table, a hair either side of them, at an oscillation of
exactly 1/880, and on denominators that share no factor with the scale.
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
