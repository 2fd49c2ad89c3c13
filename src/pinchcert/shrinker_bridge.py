"""Dictionary between closed self-shrinkers and spherical minimal surfaces.

A closed surface self-shrinker with nowhere-vanishing mean curvature and
parallel normalized mean curvature vector is a minimal surface of the
radius-2 sphere; rescaling to the unit sphere converts the traceless
second-form norm by S = 4 |A_ring|^2.  The classifier applies the certified
spherical thresholds (divided by 4) to user-supplied pinching bounds and
names the rigid model surface when the case table pins it down.

All thresholds are exact rationals, and so is every decision.  Each test
of the case table compares a bound with one of the table's six distinct
values, so :func:`classify` reads each bound as its breakpoint code (which
value it equals, or which two it lies between: one integer division and
one bisection) and looks the pair of codes and the oscillation bit up in
a memoized decision over the table on codes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .exact_poly import rat, rat_str

F = Fraction

#: spherical-scale oscillation threshold for rigidity
OSCILLATION_SPHERICAL = F(1, 220)
#: same threshold on the shrinker scale (spherical / 4)
OSCILLATION_SHRINKER = F(1, 880)

#: certified pinching constants on the shrinker scale (spherical / 4)
LOWER_THRESHOLD_SHRINKER = F(683, 1600)    # 0.426875 = 1.7075 / 4
UPPER_THRESHOLD_SHRINKER = F(17853, 40000)  # 0.446325 = 1.7853 / 4

_MODELS = {
    "round-sphere": "round sphere S^2(2) in R^3",
    "veronese": "Veronese surface S^2(2*sqrt(3)) -> S^4(2) in R^5",
    "calabi-s3": "Calabi sphere S^2(2*sqrt(6)) -> S^6(2) in R^7",
    "calabi-s4": "Calabi sphere S^2(2*sqrt(10)) -> S^8(2) in R^9",
}

#: every verdict :func:`classify` returns: a model name, or one of the two
#: outcomes that pin no model
VERDICTS = (*_MODELS, "inconclusive", "hypotheses-not-met")

# case table rows: (case id, range lo, range hi, needs-oscillation,
#                   {constant value: (verdict, sub-label)})
_CASES = (
    ("1", F(0), F(1, 3), False,
     {F(0): ("round-sphere", "1a"), F(1, 3): ("veronese", "1b")}),
    ("2", F(1, 3), F(5, 12), False,
     {F(1, 3): ("veronese", "2a"), F(5, 12): ("calabi-s3", "2b")}),
    ("3a", F(5, 12), LOWER_THRESHOLD_SHRINKER, False,
     {F(5, 12): ("calabi-s3", "3a")}),
    ("3b", UPPER_THRESHOLD_SHRINKER, F(9, 20), False,
     {F(9, 20): ("calabi-s4", "3b")}),
    ("3c", F(5, 12), F(9, 20), True,
     {F(5, 12): ("calabi-s3", "3c"), F(9, 20): ("calabi-s4", "3c")}),
)

#: common denominator of every range end and constant of ``_CASES`` and of
#: the oscillation threshold
_SCALE = math.lcm(
    OSCILLATION_SHRINKER.denominator,
    *(q.denominator for case in _CASES for q in (case[1], case[2], *case[4])),
)


def _scaled(q: Fraction) -> int:
    """``q * _SCALE``, an integer for every rational of the case table."""
    return q.numerator * (_SCALE // q.denominator)


_OSCILLATION_SCALED = _scaled(OSCILLATION_SHRINKER)

#: the table's distinct range ends and constants times ``_SCALE``, increasing
_BREAKPOINTS = tuple(sorted({_scaled(q) for case in _CASES for q in (case[1], case[2], *case[4])}))


def _code(num: int, den: int) -> int:
    """Breakpoint code of ``num / den`` (``den > 0``): ``2k - 1`` when it
    equals the k-th of ``_BREAKPOINTS`` (scaled back), ``2k`` when it lies
    strictly between the k-th and the next, and 0 below the first.

    The code is monotone and every breakpoint's is odd, so against a
    breakpoint ``b``: ``q <= b`` iff ``code(q) <= code(b)``, and likewise
    for ``>=``."""
    whole, rest = divmod(num * _SCALE, den)
    k = bisect_right(_BREAKPOINTS, whole)
    return 2 * k - (not rest and k > 0 and _BREAKPOINTS[k - 1] == whole)


def _coded(q: Fraction) -> int:
    """Breakpoint code of ``q``."""
    return _code(q.numerator, q.denominator)


#: ``_CASES`` on breakpoint codes: (case id, range lo, range hi,
#: needs-oscillation, ((constant, verdict, sub-label, constant as p/q), ...)
#: in increasing order of the constant)
_CODED_CASES = tuple(
    (case_id, _coded(range_lo), _coded(range_hi), needs_osc,
     tuple((_coded(value), verdict, sub_label, rat_str(value))
           for value, (verdict, sub_label) in sorted(constants.items())))
    for case_id, range_lo, range_hi, needs_osc, constants in _CASES
)

#: the fields of :class:`ShrinkerPinchData`, in order
_FIELDS = ("a_circ_min", "a_circ_max", "mean_curvature_nonvanishing", "normalized_H_parallel")


class ShrinkerPinchData(tuple):
    """Certified bounds on the traceless second-form norm of a self-shrinker.

    An immutable record of its four fields, checked in one pass when it is
    built; equal to a record of its class with equal fields, and hashed as
    the tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a_circ_min, a_circ_max, mean_curvature_nonvanishing, normalized_H_parallel):
        # a string such as "false" is truthy: it must not count as holding
        if not type(mean_curvature_nonvanishing) is bool is type(normalized_H_parallel):
            key, value = next((key, value) for key, value in zip(
                _FIELDS[2:], (mean_curvature_nonvanishing, normalized_H_parallel))
                if type(value) is not bool)
            raise TypeError(f"{key} must be a JSON boolean, got {value!r}")
        # a bound that is not yet a Fraction is read by rat
        lo = a_circ_min if isinstance(a_circ_min, Fraction) else rat(a_circ_min)
        hi = a_circ_max if isinstance(a_circ_max, Fraction) else rat(a_circ_max)
        # 0 <= lo <= hi, on integers: both denominators are positive
        if not 0 <= lo.numerator * hi.denominator <= hi.numerator * lo.denominator:
            raise ValueError(f"need 0 <= min <= max, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi, mean_curvature_nonvanishing, normalized_H_parallel))

    a_circ_min = property(itemgetter(0))
    a_circ_max = property(itemgetter(1))
    mean_curvature_nonvanishing = property(itemgetter(2))
    normalized_H_parallel = property(itemgetter(3))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, _FIELDS, self))})"

    def to_json(self) -> dict:
        return {
            "a_circ_min": rat_str(self.a_circ_min),
            "a_circ_max": rat_str(self.a_circ_max),
            "mean_curvature_nonvanishing": self.mean_curvature_nonvanishing,
            "normalized_H_parallel": self.normalized_H_parallel,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShrinkerPinchData":
        """Inverse of :meth:`to_json`; the two hypotheses must be JSON
        booleans, which the constructor checks.  The input must be an
        object, every field is required, and a key :meth:`to_json` does not
        write is refused."""
        if not isinstance(data, dict):
            raise ValueError(f"classify input must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown classify input key(s): {', '.join(map(repr, unknown))}")
        missing = [name for name in _FIELDS if name not in data]
        if missing:
            raise ValueError(f"classify input is missing {', '.join(map(repr, missing))}")
        return cls(*(data[name] for name in _FIELDS))


@dataclass(frozen=True)
class Classification:
    """Outcome of the rigidity case table for one set of pinching bounds."""

    verdict: str
    model: str
    theorem_case: str | None
    applicable_cases: tuple[str, ...]
    possible_models: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "model": self.model,
            "theorem_case": self.theorem_case,
            "applicable_cases": list(self.applicable_cases),
            "possible_models": list(self.possible_models),
        }


_HYPOTHESES_NOT_MET = Classification(
    verdict="hypotheses-not-met",
    model="mean curvature must be nowhere vanishing with parallel "
          "normalized direction",
    theorem_case=None,
    applicable_cases=(),
    possible_models=(),
)


def classify(data: ShrinkerPinchData) -> Classification:
    """Apply the rigidity case table to certified pinching bounds.

    Bounds are read as lo <= |A_ring|^2 <= hi pointwise.  A case applies
    when [lo, hi] sits inside its range (and, for the oscillation case,
    hi - lo stays within 1/880).  Within an applicable case the conclusion
    is |A_ring|^2 == c for one of the case's constants, which must then lie
    in [lo, hi]; a single surviving constant names the model.  Overlapping
    cases are all recorded; the verdict follows the lowest-numbered one.
    The outcome depends only on the two bounds' breakpoint codes
    (:func:`_code`) and on the oscillation test, so it is looked up in
    :func:`_decide`.
    """
    lo, hi, nonvanishing, parallel = data
    if not (nonvanishing and parallel):
        return _HYPOTHESES_NOT_MET
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    # hi - lo <= 1/880, both denominators positive
    osc_ok = ((hi_num * lo_den - lo_num * hi_den) * _SCALE
              <= _OSCILLATION_SCALED * lo_den * hi_den)
    return _decide(_code(lo_num, lo_den), _code(hi_num, hi_den), osc_ok)


@lru_cache(maxsize=None)
def _decide(lo_code: int, hi_code: int, osc_ok: bool) -> Classification:
    """:func:`classify`'s outcome for bounds with these breakpoint codes,
    whose oscillation is within 1/880 iff ``osc_ok``, decided on
    ``_CODED_CASES``; memoized, so each of the at most 13 * 13 * 2 keys is
    decided once."""
    applicable: list[tuple[str, list[tuple[str, str, str]]]] = []
    labels: list[str] = []
    for case_id, range_lo, range_hi, needs_osc, constants in _CODED_CASES:
        if not (range_lo <= lo_code and hi_code <= range_hi):
            continue
        if needs_osc and not osc_ok:
            continue
        admissible = [
            (text, verdict, sub_label)
            for value, verdict, sub_label, text in constants
            if lo_code <= value <= hi_code
        ]
        applicable.append((case_id, admissible))
        if admissible:
            labels.extend(sub_label for _, _, sub_label in admissible)
        else:
            labels.append(case_id)
    if not applicable:
        return Classification(
            verdict="inconclusive",
            model="bounds fall outside every rigidity case",
            theorem_case=None,
            applicable_cases=(),
            possible_models=(),
        )
    primary_case, admissible = applicable[0]
    # dedupe labels preserving order
    seen = set()
    all_labels = tuple(x for x in labels if not (x in seen or seen.add(x)))
    if len(admissible) == 1:
        text, verdict, sub_label = admissible[0]
        return Classification(
            verdict=verdict,
            model=f"|A_ring|^2 == {text}; {_MODELS[verdict]}",
            theorem_case=sub_label,
            applicable_cases=all_labels,
            possible_models=(verdict,),
        )
    if not admissible:
        return Classification(
            verdict="inconclusive",
            model="rigidity forces a constant the bounds exclude; "
                  "no such self-shrinker exists",
            theorem_case=primary_case,
            applicable_cases=all_labels,
            possible_models=(),
        )
    models = tuple(verdict for _, verdict, _ in admissible)
    prose = " or ".join(f"|A_ring|^2 == {t} ({_MODELS[m]})" for t, m, _ in admissible)
    return Classification(
        verdict="inconclusive",
        model=f"rigid but not pinned to one model: {prose}",
        theorem_case=primary_case,
        applicable_cases=all_labels,
        possible_models=models,
    )
