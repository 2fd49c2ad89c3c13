"""Sweep probes on their forms' grid columns against the Polynomial path.

A probe reads its grid values off the forms' integer columns, prescaled
once per request onto the isolation grid (:func:`param_search._grids`),
in place of specializing each form at t (``Form.at``) and prescaling the
polynomial.  Its values are the old ones times a positive integer, so it
must return the frozen probes' rows (``tests/probe_reference.py``) and
raise their errors, message for message, at every t in (0, 1/2]: small
denominators, the trisection points (2ps + rq) / (3qs) that refinement
probes, and t = 1/2, at three widths, on the real forms and on broken
ones that take each error and fallback path.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import probe_reference as ref
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import Form, Polynomial

F = Fraction
T = Form((0, 1))  # the form t
WIDTHS = (F(1, 10**6), F(1, 10**9), F(1, 2**20))

small_t = st.fractions(min_value=F(1, 200), max_value=F(1, 2), max_denominator=200)
# a refinement probe: a trisection point of two probed t, nearer the first
trisected = st.builds(ps._third, small_t, small_t)
t_values = st.one_of(small_t, trisected, st.builds(ps._third, trisected, small_t),
                     st.just(F(1, 2)))


def _outcome(cell, *args):
    """The row ``(t, w, lo_num, hi_num, den, degenerate)`` a cell function
    returns, or the type and message of what it raised."""
    try:
        row = cell(*args)
    except ep.ExactPolyError as err:
        return type(err), str(err)
    if isinstance(row, ps._Cell):
        return row.t, row.w, row.lo_num, row.hi_num, row.den, row.degenerate
    return row


def _grid_point(side, width, k):
    """A point of the side's isolation grid at width, k cells above its
    lower end."""
    if side == "right":
        base, step, den, depth = ep._grid(*ps._LO, *ps._HI, width.numerator, width.denominator)
    else:
        base, step, den, depth = ep._grid(*ps._U, *ps._HI, width.numerator,
                                          2 * width.denominator)
    return F(base + min(k, 1 << depth) * step, den)


# each break is (side, name, builds the forms from t's width): the real
# forms, a sup-at-x quotient shifted by c (1 - 2t), which leaves t = 1/2
# alone and breaks the sliver sign (c > 0) or the sign at 9/5 (c < 0), a
# sup-at-5/3 quotient x - r with its root r on a grid point or off it (a
# zero value or a failed search takes the Sturm-counted path), and θ2
# shifted by c (1 - 2t), whose end signs then agree (degenerate) or meet a
# root on a grid point
breaks = st.one_of(
    st.tuples(st.sampled_from(["left", "right"]), st.just("real"), st.just(0)),
    st.tuples(st.just("left"), st.just("shift"),
              st.sampled_from([10**6, -(10**6), 3, -3, F(1, 10)])),
    st.tuples(st.just("left"), st.sampled_from(["root on grid", "root off grid"]),
              st.integers(0, 2**22)),
    st.tuples(st.just("right"), st.just("shift"), st.sampled_from([10**3, -(10**3), 1])),
    st.tuples(st.just("right"), st.just("root on grid"), st.integers(0, 2**22)),
)


def _patched(side, kind, c, width):
    """The patches of ``pinching_bounds`` that make the broken forms."""
    if kind == "real":
        return []
    if side == "right":
        if kind == "shift":
            form = pb.theta2_form() + c * (1 - 2 * T)
        else:  # θ2 made decreasing through a grid point r
            r = _grid_point("right", width, c)
            form = Form((Polynomial.linear(r, -1),))
        return [mock.patch.object(pb, "theta2_form", lambda: form)]
    (label, branch, quotient), (label2, branch2, quotient2) = pb.left_branch_forms()
    if kind == "shift":
        forms = ((label, branch, quotient + c * (1 - 2 * T)), (label2, branch2, quotient2))
    else:
        r = _grid_point("left", width, c)
        if kind == "root off grid":
            r += F(1, 10**30)
        forms = ((label, branch, quotient), (label2, branch2, Form((Polynomial.linear(-r, 1),))))
    return [mock.patch.object(pb, "left_branch_forms", lambda: forms)]


@settings(max_examples=300, deadline=None)
@given(t_values, st.sampled_from(WIDTHS), breaks)
@example(F(1, 2), F(1, 10**6), ("right", "real", 0))
@example(F(1, 2), F(1, 10**6), ("left", "real", 0))
@example(F(1, 200), F(1, 10**6), ("left", "shift", 10**6))
@example(F(1, 200), F(1, 10**6), ("left", "shift", -(10**6)))
@example(F(1, 4), F(1, 10**6), ("left", "root on grid", 2**19))
@example(F(1, 4), F(1, 10**6), ("right", "root on grid", 2**15))
@example(F(1, 4), F(1, 10**9), ("right", "shift", 10**3))
def test_grid_column_probes_match_the_polynomial_path(t, width, broken):
    side, kind, c = broken
    patches = _patched(side, kind, c, width)
    for patch in patches:
        patch.start()
    try:
        cell = ps._left_cell if side == "left" else ps._right_cell
        want = _outcome(ref._left_cell if side == "left" else ref._right_cell, t, width)
        got = _outcome(cell, t, width, ps._grids(side, width))
    finally:
        for patch in patches:
            patch.stop()
    assert got == want
