"""Frozen Fraction copy of the rigidity classifier.

``classify`` below is a verbatim copy of :func:`pinchcert.shrinker_bridge.classify`
as it decided every range, oscillation and admissibility test with
``Fraction`` comparisons and sorted each case's constants on every call,
before the case table was put on one integer denominator at import.  Its
case table and model names are copies too, so it calls nothing of the
library but ``rat_str`` and the ``Classification`` record.  It is kept as a
test oracle: the integer classifier must return equal classifications.  Do
not edit it to track the library; nothing in ``src`` imports this.
"""

from fractions import Fraction

from pinchcert.exact_poly import rat_str
from pinchcert.shrinker_bridge import Classification, ShrinkerPinchData

F = Fraction

OSCILLATION_SHRINKER = F(1, 880)
LOWER_THRESHOLD_SHRINKER = F(683, 1600)
UPPER_THRESHOLD_SHRINKER = F(17853, 40000)

_MODELS = {
    "round-sphere": "round sphere S^2(2) in R^3",
    "veronese": "Veronese surface S^2(2*sqrt(3)) -> S^4(2) in R^5",
    "calabi-s3": "Calabi sphere S^2(2*sqrt(6)) -> S^6(2) in R^7",
    "calabi-s4": "Calabi sphere S^2(2*sqrt(10)) -> S^8(2) in R^9",
}

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


def classify(data: ShrinkerPinchData) -> Classification:
    """Apply the rigidity case table to certified pinching bounds.

    Bounds are read as lo <= |A_ring|^2 <= hi pointwise.  A case applies
    when [lo, hi] sits inside its range (and, for the oscillation case,
    hi - lo stays within 1/880).  Within an applicable case the conclusion
    is |A_ring|^2 == c for one of the case's constants, which must then lie
    in [lo, hi]; a single surviving constant names the model.  Overlapping
    cases are all recorded; the verdict follows the lowest-numbered one.
    """
    if not (data.mean_curvature_nonvanishing and data.normalized_H_parallel):
        return Classification(
            verdict="hypotheses-not-met",
            model="mean curvature must be nowhere vanishing with parallel "
                  "normalized direction",
            theorem_case=None,
            applicable_cases=(),
            possible_models=(),
        )
    lo, hi = data.a_circ_min, data.a_circ_max
    applicable: list[tuple[str, list[tuple[Fraction, str, str]]]] = []
    labels: list[str] = []
    for case_id, range_lo, range_hi, needs_osc, constants in _CASES:
        if not (range_lo <= lo and hi <= range_hi):
            continue
        if needs_osc and hi - lo > OSCILLATION_SHRINKER:
            continue
        admissible = [
            (value, verdict, sub_label)
            for value, (verdict, sub_label) in sorted(constants.items())
            if lo <= value <= hi
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
        value, verdict, sub_label = admissible[0]
        return Classification(
            verdict=verdict,
            model=f"|A_ring|^2 == {rat_str(value)}; {_MODELS[verdict]}",
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
    prose = " or ".join(f"|A_ring|^2 == {rat_str(v)} ({_MODELS[m]})" for v, m, _ in admissible)
    return Classification(
        verdict="inconclusive",
        model=f"rigid but not pinned to one model: {prose}",
        theorem_case=primary_case,
        applicable_cases=all_labels,
        possible_models=models,
    )
