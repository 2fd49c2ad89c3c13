"""Sweep probes stay on their isolation grid's integers.

A live cell is ``(lo_num, hi_num, den)`` on its grid's denominator, ranked
by integer cross-multiplication and certified only when it wins; each
grid search reads its grid's ends once, for the caller's facts and the
search alike; and the sup-at-5/3 quotient is searched only below the
sup-at-x quotient's cell, where the monotonicity lemma puts its root.
Each shortcut is checked here against what it replaces: the frozen
Fraction sort key, the Sturm-counted fallback, and the full search.
"""

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert.exact_poly import Form, Polynomial

import param_search_reference as ref

F = Fraction
LO, HI = F(5, 3), F(9, 5)

#: ``_homogeneous`` and ``_horner`` calls of one warm default sweep
#: (``optimize``), measured on CPython 3.11.7: 1555 on the right and 4312 on
#: the left while each search's grid ends were read twice and both left
#: quotients were searched over the whole grid; 1341 and 3076 while each
#: probe specialized its forms with ``Form.at``, whose columns now give the
#: probe's grid values directly, one ``_homogeneous`` pass each as before,
#: and the winner's certificate step specializes them once more: θ2's four
#: columns on the right, the two quotients' nine on the left; 3085 on the
#: left while a left probe's end check read again the signs that its
#: confirmed grid cells had already read
SWEEP_EVALUATIONS = {"right": 1345, "left": 2761}

# the grid every default probe of a side shares, and cells on it
_GRIDS = {"left": ep._grid(*ps._U, *ps._HI, 1, 2 * 10**6),
          "right": ep._grid(*ps._LO, *ps._HI, 1, 10**6)}
T_VALUES = st.fractions(min_value=F(1, 10**3), max_value=F(1, 2), max_denominator=1000)


@st.composite
def cells(draw, side):
    """A cell of ``side``, at the side's one w: on the side's default grid,
    off the grid on another denominator, or, on the right, the degenerate
    one; t drawn from few values, so that ties occur."""
    t = draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]) | T_VALUES)
    w = LO if side == "left" else HI
    kind = draw(st.sampled_from(["grid", "grid", "degenerate" if side == "right" else "grid",
                                 "off-grid"]))
    if kind == "degenerate":
        return ps._Cell(side, t, w, *ps._TOP_ENDS, True)
    if kind == "off-grid":
        den = draw(st.integers(min_value=1, max_value=10**9))
        lo = draw(st.integers(min_value=5 * den // 3, max_value=9 * den // 5))
        return ps._Cell(side, t, w, lo, lo + draw(st.integers(0, 3)), den, False)
    base, step, den, depth = _GRIDS[side]
    j = draw(st.integers(0, (1 << depth) - 1) | st.sampled_from([0, 1, 1000, 1 << 14]))
    return ps._Cell(side, t, w, base + j * step, base + (j + 1) * step, den, False)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(["left", "right"]))
@example(None, "left")
@example(None, "right")
def test_integer_ranking_orders_cells_as_the_fraction_key(data, side):
    if data is None:  # equal enclosures on two denominators: t decides
        base, step, den, _ = _GRIDS[side]
        w = LO if side == "left" else HI
        a = ps._Cell(side, F(1, 4), w, base, base + step, den, False)
        b = ps._Cell(side, F(1, 4), w, 3 * base, 3 * (base + step), 3 * den, False)
        c = ps._Cell(side, F(1, 3), w, base, base + step, den, False)
        group = [c, b, a]
    else:
        group = data.draw(st.lists(cells(side), min_size=2, max_size=8))
    for a in group:
        for b in group:
            assert ps._outranks(side, a, b) == (ref._strength_key(side, a)
                                                < ref._strength_key(side, b))
    by_key = sorted(group, key=lambda c: ref._strength_key(side, c))
    by_integers = sorted(group, key=cmp_to_key(
        lambda a, b: -1 if ps._outranks(side, a, b) else ps._outranks(side, b, a)))
    assert [ref._strength_key(side, c) for c in by_integers] == [
        ref._strength_key(side, c) for c in by_key]


def _report_bytes(side):
    report = rc.cmd_optimize(side, ps.default_config(side))
    assert report.all_passed
    return report.to_json_str(strip_wall_time=True)


def _fraction_table(opt):
    return [(t, w, F(lo, den), F(hi, den), deg) for t, w, lo, hi, den, deg in opt.table]


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_sturm_counted_fallback_gives_the_grid_paths_sweep(monkeypatch, side):
    # with every grid search failing, each probe's cell comes from the
    # Sturm-counted bisection, on its own denominators; it enters the
    # integer cells, the ranking and the table exactly
    grid = ps.optimize(side, ps.default_config(side))
    grid_bytes = _report_bytes(side)
    bisections = []
    real = ps._smallest_root_cell
    monkeypatch.setattr(ep, "_propose_cell", lambda *args: None)
    monkeypatch.setattr(ps, "_smallest_root_cell",
                        lambda *args, **kwargs: bisections.append(args) or real(*args, **kwargs))
    counted = ps.optimize(side, ps.default_config(side))
    assert bisections
    assert _fraction_table(counted) == _fraction_table(grid)
    assert (counted.best_t, counted.best_w, counted.best) == (grid.best_t, grid.best_w, grid.best)
    assert _report_bytes(side) == grid_bytes


@pytest.mark.parametrize("below", [0, 5], ids=["zero at the cell's lower end",
                                              "root on a grid point below it"])
def test_a_zero_value_or_a_failed_search_takes_the_sturm_counted_path(monkeypatch, below):
    # a sup-at-5/3 quotient with its root on a grid point: at the first
    # quotient's cell's lower end its value is 0, or the search below that
    # cell fails; each takes the Sturm-counted bisection, which moves a
    # midpoint off the root and ends off the grid
    t, width = F(1, 4), F(1, 10**6)
    first_cell = ps._left_cell(t, width, ps._grids("left", width))
    base, step, den, _ = _GRIDS["left"]
    assert first_cell.den == den  # the first quotient's grid cell
    root = F(first_cell.lo_num - below * step, den)
    g = Polynomial.linear(-root, 1)
    first, (label, form, _) = pb.left_branch_forms()
    monkeypatch.setattr(pb, "left_branch_forms", lambda: (first, (label, form, Form((g,)))))
    lo, hi = ep._smallest_root_cell(g, ps._SLIVER.hi, HI, width / 2)
    assert lo < root < hi and (hi - F(base, den)) % F(step, den) != 0
    assert ps._left_cell(t, width, ps._grids("left", width)).enclosure == ep.IntervalQ(lo, hi)


def test_the_second_quotients_own_cell_never_lies_below_the_enclosure():
    # the full isolation of the sup-at-5/3 quotient, which the left probe
    # skips where it is negative at the first cell's lower end, finds no
    # cell below the enclosure over the default t grid
    width = F(1, 10**6)
    skipped, grids = 0, ps._grids("left", width)
    for t in ps.default_config("left").t_grid:
        cell = ps._left_cell(t, width, grids)
        second = ps._at_t("left", t)[1]
        own, _ = ep.isolate_root(second, ep.IntervalQ(ps._SLIVER.hi, HI), width / 2)
        assert own.lo >= cell.enclosure.lo, t
        skipped += own.lo > cell.enclosure.lo
    assert skipped == 70


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("side, calls", [("left", 4), ("right", 2)])
def test_a_one_t_sweep_specializes_each_form_twice(monkeypatch, side, calls):
    # once for the winner's certificate step and once for enclosure_holds,
    # which binds the certificates to the claim table from t alone; the
    # probe reads its grid values off the forms' columns, and the labels are
    # read on the certificates' own polynomials (6 and 3 while they
    # specialized too)
    config = ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(LO if side == "left" else HI,))
    want = rc.cmd_optimize(side, config).to_json_str(strip_wall_time=True)
    at = _count_calls(monkeypatch, ep.Form, "at")
    report = rc.cmd_optimize(side, config)
    assert len(at) == calls
    assert report.to_json_str(strip_wall_time=True) == want


@pytest.mark.parametrize("side, forms", [("left", 2), ("right", 1)])
def test_a_warm_default_sweep_specializes_only_its_winners_forms(monkeypatch, side, forms):
    # no probe builds a polynomial: each reads its grid values off the
    # request's grids, and the winner's certificate step specializes each
    # of its forms once, θ2 on the right and each quotient on the left
    config = ps.default_config(side)
    want = ps.optimize(side, config)
    at = _count_calls(monkeypatch, ep.Form, "at")
    opt = ps.optimize(side, config)
    assert opt == want
    assert len(opt.table) == 108 and [t for _, t in at] == [opt.best_t] * forms
    assert [form for form, _ in at] == (
        [pb.theta2_form()] if side == "right" else [q for _, _, q in pb.left_branch_forms()])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("t, w", [(F(1, 8), HI), (F(1, 4), None)])
def test_labels_need_no_specialization(monkeypatch, side, t, w):
    # a left probe runs at w = 5/3 alone, and a right one at 9/5
    th = ps.left_threshold(t, LO) if side == "left" else ps.right_threshold(t)
    want = [label for label, *_ in ps._claims(th)]
    at = _count_calls(monkeypatch, ep.Form, "at")
    assert ps.certificate_labels(th) == want
    assert at == []


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_warm_default_sweep_takes_the_measured_integer_evaluations(monkeypatch, side):
    # every exact value of a sweep is a _homogeneous or a _horner pass; the
    # winner's stored values are read through param_search's own name
    config = ps.default_config(side)
    ps.optimize(side, config)
    calls = [_count_calls(monkeypatch, owner, name)
             for owner, name in ((ep, "_horner"), (ep, "_homogeneous"), (ps, "_homogeneous"))]
    ps.optimize(side, config)
    assert sum(map(len, calls)) == SWEEP_EVALUATIONS[side]
