"""Frozen copy of the sweep probes that specialized their forms at each t.

``_at_t``, ``_left_cell`` and ``_right_cell`` below are verbatim copies of
the probes that built each form at t as a canonical :class:`Polynomial`
(``Form.at``) and prescaled it onto its isolation grid for every probe;
``_prescaled`` and ``_grid_search`` are verbatim copies of the
``exact_poly`` helpers that served them, before a polynomial's grid search
became the one-row case of a form's.  The edits: each cell function
returns the table row ``(t, w, lo_num, hi_num, den, degenerate)`` in place
of the cell with its polynomials, every name it read from ``param_search``
is read through the module, and their docstrings keep their first
paragraph.  They are kept as a test oracle: the probes that read their
grid values off the forms' prescaled columns must give the same rows and
raise the same errors.  Do not edit them to track the library; nothing in
``src`` imports this.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import (
    ExactPolyError,
    Polynomial,
    SignClaimError,
    _grid,
    _GridSearch,
    _horner,
    _sign_at_ratio,
    _smallest_root_cell,
)

F = Fraction
DOMAIN_LO, DOMAIN_HI = ps.DOMAIN_LO, ps.DOMAIN_HI


def _prescaled(ints: Sequence[int], den: int) -> tuple[int, ...]:
    """p's integer coefficients, highest first, the k-th times den^(n-k).

    :func:`_horner` on them at x is ``_homogeneous(ints, x, den)``: p(x/den)
    times the positive integer den^n, for every integer x.
    """
    scaled, power = [], 1
    for c in reversed(ints):
        scaled.append(c * power)
        power *= den
    return tuple(scaled)


def _grid_search(p: Polynomial, a: tuple[int, int], b: tuple[int, int],
                 width: tuple[int, int]) -> _GridSearch:
    """The one search of a single root of p in (a, b) on the :func:`_grid` of
    (a, b) at ``width``, all three given as ``(numerator, denominator)``
    pairs as :func:`_grid` takes them: p's coefficients prescaled once for
    the grid's denominator, and its values at the grid's ends read once.
    The caller checks its facts on those values' signs and gives them to
    :meth:`_GridSearch.cell`; the bisection cells of a single root are the
    grid's cells, so the cell found is the one bisection would reach."""
    base, step, den, depth = _grid(*a, *b, *width)
    scaled = _prescaled(p._form[0], den)
    cells = 1 << depth
    return _GridSearch(scaled, base, step, den, cells, _horner(scaled, base),
                       _horner(scaled, base + cells * step))


def _at_t(side: str, t: Fraction) -> tuple[Polynomial, ...]:
    """The forms a live ``side`` enclosure rests on, specialized at t: θ2(t)
    on the right, the quotients of :func:`pinching_bounds.left_branch_forms`,
    in that order, on the left."""
    if side == "right":
        return (pb.theta2_form().at(t),)
    return tuple(quotient.at(t) for _, _, quotient in pb.left_branch_forms())


def _left_cell(t: Fraction, width: Fraction) -> tuple:
    """The bare enclosure at (t, 5/3), every fact it rests on checked, given
    the monotonicity lemma."""
    quotients = _at_t("left", t)
    half = (width.numerator, 2 * width.denominator)
    searches = []
    for (label, _, _), g in zip(pb.left_branch_forms(), quotients):
        search = _grid_search(g, ps._U, ps._HI, half)
        if search.f_lo >= 0:
            u = ps._SLIVER.hi
            raise SignClaimError(
                f"claimed sign-constant-negative on [{ps._SLIVER.lo}, {u}] but the {label} "
                f"quotient at t = {t} is {g(u)} at {u}", u)
        if search.f_hi <= 0:
            raise ExactPolyError(
                f"the {label} quotient at t = {t} is {g(DOMAIN_HI)} at {DOMAIN_HI}, not positive")
        searches.append(search)
    first, second = searches
    ends = None
    j = first.cell(0, first.f_lo, first.cells, first.f_hi)
    if j is not None:
        v = second.value(j)  # the sup-at-5/3 quotient at cell j's lower end
        if v < 0:  # its root lies above: cell j is the enclosure
            ends = first.ends(j)
        elif v > 0:  # its root lies below
            k = second.cell(0, second.f_lo, j, v)
            ends = None if k is None else second.ends(k)
    if ends is None:
        # min keeps the first of equal cells, so a tie goes to sup-at-x
        ends = ps._cell_ends(*min(_smallest_root_cell(g, ps._SLIVER.hi, DOMAIN_HI, width / 2,
                                                      one_root=True) for g in quotients))
    lo, hi, den = ends
    if not (all(_sign_at_ratio(g, lo, den) < 0 for g in quotients)
            and any(_sign_at_ratio(g, hi, den) > 0 for g in quotients)):
        raise ExactPolyError(
            f"threshold enclosure failed the exact endpoint check at t = {t}: "
            f"phi is not negative at {F(lo, den)} and positive at {F(hi, den)}"
        )
    return (t, DOMAIN_LO, lo, hi, den, False)


def _right_cell(t: Fraction, width: Fraction) -> tuple:
    """The bare enclosure of θ2(t)'s root in the domain, every fact it rests
    on checked given the monotonicity lemma."""
    polys = _at_t("right", t)
    p, = polys
    search = _grid_search(p, ps._LO, ps._HI, (width.numerator, width.denominator))
    if not search.f_lo or not search.f_hi or (search.f_lo > 0) == (search.f_hi > 0):
        return (t, DOMAIN_HI, *ps._TOP_ENDS, True)
    # the ends are no roots and of opposite sign: the one root is of odd
    # multiplicity, and bisection keeps the half that holds it
    j = search.cell(0, search.f_lo, search.cells, search.f_hi)
    ends = (ps._cell_ends(*_smallest_root_cell(p, DOMAIN_LO, DOMAIN_HI, width)) if j is None
            else search.ends(j))
    return (t, DOMAIN_HI, *ends, False)
