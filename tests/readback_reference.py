"""Frozen copies of certificate read-back and of the sweep configuration's
checks, from before they decided on integers.

``interval_from_json``, ``polynomial_from_json``, ``certificate_from_json``
and ``canonical_ratio`` are verbatim copies of ``IntervalQ.from_json``,
``Polynomial.from_json``, ``SignCertificate.from_json`` and
``_canonical_ratio`` as they were while an interval's ends were read by
``rat`` twice (once in ``from_json``, once in the interval's constructor)
and ordered as Fractions, each coefficient's pair was reduced by its own
gcd, and a canonical point was told by formatting its pair again; the
interval's constructor is inlined, so an interval comes back as its two
ends.  ``sweep_config`` is ``SweepConfig.__post_init__``, with the
``_isolation_width`` it called, as they were while grids were ordered by
``sorted`` and grids and width ranged by Fraction comparisons; it returns
the four fields it would store.  Do not edit them to track the
library.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from pinchcert.exact_poly import Polynomial, _split_ratio, rat
from pinchcert.param_search import (
    DOMAIN_HI,
    DOMAIN_LO,
    MAX_REFINEMENT_ROUNDS,
    MIN_ISOLATION_WIDTH,
)

F = Fraction


def _ratio(value) -> tuple[int, int]:
    pq = _split_ratio(value) if isinstance(value, str) and value.isascii() else None
    if pq and pq[1]:
        n, d = pq
        g = gcd(n, d)
        return n // g, d // g
    q = rat(value)
    return q.numerator, q.denominator


def polynomial_from_json(data: Sequence[str]) -> Polynomial:
    pairs = [_ratio(c) for c in data]
    den = lcm(*(d for _, d in pairs))
    return Polynomial._from_integer_form([n * (den // d) for n, d in pairs], den)


def interval_from_json(data: Sequence[str]) -> tuple[Fraction, Fraction]:
    lo, hi = rat(data[0]), rat(data[1])
    # IntervalQ.__post_init__
    lo, hi = rat(lo), rat(hi)
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
    return lo, hi


def certificate_from_json(data: dict) -> tuple:
    """(polynomial, interval ends, claim, evidence)."""
    keys = {"polynomial", "interval", "claim", "evidence"}
    if not isinstance(data, dict):
        raise ValueError(f"a certificate must be an object, got {data!r}")
    if set(data) != keys:
        raise ValueError(f"a certificate must have exactly the keys {sorted(keys)}, "
                         f"got {list(data)}")
    polynomial, interval = data["polynomial"], data["interval"]
    if not (isinstance(polynomial, list) and all(isinstance(c, str) for c in polynomial)):
        raise ValueError(
            f"certificate polynomial must be a list of strings, got {polynomial!r}")
    if not (isinstance(interval, list) and len(interval) == 2
            and all(isinstance(c, str) for c in interval)):
        raise ValueError(
            f"certificate interval must be a list of two strings, got {interval!r}")
    if not isinstance(data["claim"], str):
        raise ValueError(f"certificate claim must be a string, got {data['claim']!r}")
    if not isinstance(data["evidence"], dict):
        raise ValueError(f"certificate evidence must be an object, got {data['evidence']!r}")
    return (
        polynomial_from_json(data["polynomial"]),
        interval_from_json(data["interval"]),
        data["claim"],
        dict(data["evidence"]),
    )


def canonical_ratio(value) -> tuple[int, int]:
    pq = _split_ratio(value) if type(value) is str and value.isascii() else None
    if pq is None or pq[1] <= 0 or gcd(*pq) != 1 or f"{pq[0]}/{pq[1]}" != value:
        raise ValueError(f"not a canonical p/q string: {value!r}")
    return pq


def _isolation_width(width) -> Fraction:
    width = rat(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if width < MIN_ISOLATION_WIDTH:
        raise ValueError("isolation_width must be at least MIN_ISOLATION_WIDTH = 1/10**600")
    return width


def sweep_config(t_grid, w_grid, refinement_rounds, isolation_width) -> tuple:
    """(t_grid, w_grid, refinement_rounds, isolation_width) as stored."""
    t_grid = tuple(rat(t) for t in t_grid)
    w_grid = tuple(rat(w) for w in w_grid)
    if not t_grid or not w_grid:
        raise ValueError("grids must be nonempty")
    if list(t_grid) != sorted(t_grid) or list(w_grid) != sorted(w_grid):
        raise ValueError("grids must be sorted ascending")
    if not all(0 < t <= F(1, 2) for t in t_grid):
        raise ValueError("t grid must lie in (0, 1/2]")
    if not all(DOMAIN_LO <= w <= DOMAIN_HI for w in w_grid):
        raise ValueError("w grid must lie in [5/3, 9/5]")
    if type(refinement_rounds) is not int:
        raise ValueError(f"refinement_rounds must be an int, got {refinement_rounds!r}")
    if not 0 <= refinement_rounds <= MAX_REFINEMENT_ROUNDS:
        raise ValueError(f"refinement_rounds must lie in 0..{MAX_REFINEMENT_ROUNDS}, "
                         f"got {refinement_rounds}")
    return t_grid, w_grid, refinement_rounds, _isolation_width(isolation_width)
