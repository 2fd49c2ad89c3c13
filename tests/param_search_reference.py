"""Frozen copy of the grid sweep that probed every (t, w) point in full.

``optimize`` and ``_evaluate`` below are verbatim copies of the sweep that
called ``left_threshold`` for every left probe, kept as a test oracle: the
sweep that skips the provably degenerate w > 5/3 probes must return the
same :class:`Optimum`.  ``_strength_key`` is a verbatim copy of the
Fraction sort key the library ranked by before it ranked cells by integer
cross-multiplication, and ``_trisect_candidates`` of the trisection step
the library took over its Fraction lists of probed values before its
sweeps walked t alone.  Its table rows hold the enclosure's ends as
Fractions.  ``left_threshold`` is the one edit, made when the library came
to refuse a left probe at w > 5/3: there it returns the frozen degenerate
enclosure of ``left_threshold_reference``, the enclosure the library
returned before.  Do not edit them to track the library.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

import left_threshold_reference as left_ref
from pinchcert.param_search import (
    DOMAIN_HI,
    DOMAIN_LO,
    Optimum,
    SweepConfig,
    ThresholdEnclosure,
    left_threshold as _live_left_threshold,
    right_threshold,
)

F = Fraction


def left_threshold(t, w, width) -> ThresholdEnclosure:
    """The library's probe at w = 5/3; at w > 5/3 the frozen degenerate
    enclosure [5/3, 5/3] with its edge-weight certificate."""
    if w == DOMAIN_LO:
        return _live_left_threshold(t, w, width)
    return left_ref.left_threshold(t, w, width)


def _strength_key(side: str, th) -> tuple:
    """Sort key: stronger thresholds first, then smallest t, then smallest w.

    The usable constant of a left enclosure is its lower end (larger is
    stronger); of a right enclosure its upper end (smaller is stronger).
    """
    if side == "left":
        return (-th.enclosure.lo, -th.enclosure.hi, th.t, th.w)
    return (th.enclosure.hi, th.enclosure.lo, th.t, th.w)


def _trisect_candidates(values: Sequence[Fraction], incumbent: Fraction) -> list[Fraction]:
    """Trisection probes of the gaps next to the incumbent among ``values``,
    which are sorted and distinct and hold the incumbent."""
    i = bisect_left(values, incumbent)
    out = []
    if i > 0:
        gap = incumbent - values[i - 1]
        out.extend([incumbent - gap / 3, incumbent - 2 * gap / 3])
    if i + 1 < len(values):
        gap = values[i + 1] - incumbent
        out.extend([incumbent + gap / 3, incumbent + 2 * gap / 3])
    return out


def _evaluate(side: str, t: Fraction, w: Fraction, width: Fraction,
              cache: dict) -> ThresholdEnclosure:
    key = (t, w)
    if key not in cache:
        if side == "left":
            cache[key] = left_threshold(t, w, width)
        else:
            cache[key] = right_threshold(t, width)
    return cache[key]


def optimize(side: str, config: SweepConfig) -> Optimum:
    """Grid sweep plus exact trisection refinement around the incumbent.

    Deterministic: probes are exact rationals, results are compared exactly,
    and ties break toward smaller t then smaller w.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    width = config.isolation_width
    cache: dict = {}
    w_values = list(config.w_grid) if side == "left" else [DOMAIN_HI]
    probes_t = list(config.t_grid)
    for t in probes_t:
        for w in w_values:
            _evaluate(side, t, w, width, cache)

    def incumbent() -> tuple[tuple[Fraction, Fraction], ThresholdEnclosure]:
        best_key = min(cache, key=lambda k: _strength_key(side, cache[k]))
        return best_key, cache[best_key]

    for _ in range(config.refinement_rounds):
        (t_best, w_best), _best = incumbent()
        t_probes = sorted({k[0] for k in cache})
        for t_new in _trisect_candidates(t_probes, t_best):
            if 0 < t_new <= F(1, 2):
                _evaluate(side, t_new, w_best, width, cache)
        if side == "left":
            (t_best, w_best), _best = incumbent()
            w_probes = sorted({k[1] for k in cache})
            for w_new in _trisect_candidates(w_probes, w_best):
                if DOMAIN_LO <= w_new <= DOMAIN_HI:
                    _evaluate(side, t_best, w_new, width, cache)

    (t_best, w_best), best = incumbent()
    rows = []
    degenerate_count = 0
    for (t, w) in sorted(cache):
        th = cache[(t, w)]
        if th.degenerate:
            degenerate_count += 1
            if side == "left":
                continue  # keep the table compact; count recorded instead
        rows.append((t, w, th.enclosure.lo, th.enclosure.hi, th.degenerate))
    return Optimum(
        side=side,
        best_t=t_best,
        best_w=w_best,
        threshold=best.enclosure,
        certificate=best.certificate,
        best=best,
        table=tuple(rows),
        degenerate_count=degenerate_count,
    )
