"""Left sweeps skip the probes the edge lemma proves degenerate.

``param_search_reference`` is a frozen copy of the sweep that evaluated
every (t, w) probe in full; the sweep that walks t alone and counts the
w > 5/3 pairs it proves dead must return the same optimum, table and
degenerate count.  A left probe runs at w = 5/3 alone, so a left probe at
any other w, and a left config whose w grid lacks 5/3, are refused, naming
the input; a right sweep probes w = 9/5 alone, so a right config whose w
grid holds any other w is refused, naming the grid.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pinchcert import param_search as ps
from pinchcert.exact_poly import ExactPolyError, rat_str

import left_threshold_reference as left_ref
import param_search_reference as ref

F = Fraction

LO, HI = F(5, 3), F(9, 5)

T_VALUES = st.builds(F, st.integers(1, 60), st.just(120))          # (0, 1/2]
W_ABOVE_EDGE = st.builds(lambda k: LO + F(2, 15) * F(k, 48), st.integers(1, 48))


def _with_repeats(draw, values: list) -> tuple:
    """The values, sorted, with up to two of them drawn again: a grid may
    repeat a value, and the sweep counts each dead (t, w) pair once."""
    return tuple(sorted(values + draw(st.lists(st.sampled_from(values), max_size=2))))


@st.composite
def sweep_configs(draw):
    t_grid = draw(st.lists(T_VALUES, min_size=1, max_size=3))
    w_grid = draw(st.lists(W_ABOVE_EDGE, min_size=0, max_size=3))
    if draw(st.booleans()) or not w_grid:
        w_grid.append(LO)
    return ps.SweepConfig(
        t_grid=_with_repeats(draw, t_grid), w_grid=_with_repeats(draw, w_grid),
        refinement_rounds=draw(st.integers(0, 2)),
    )


def _fraction_rows(table):
    """The table's rows with each enclosure's ends as Fractions: the
    library's integer rows (t, w, lo_num, hi_num, den, degenerate) read on
    their denominator, the reference's Fraction rows as they are."""
    rows = []
    for row in table:
        if len(row) == 6:
            t, w, lo, hi, den, deg = row
            row = (t, w, F(lo, den), F(hi, den), deg)
        rows.append(row)
    return tuple(rows)


def _outcome(optimize, side, config):
    try:
        opt = optimize(side, config)
        return opt.to_json(), _fraction_rows(opt.table)
    except ExactPolyError as err:
        return ("ExactPolyError", str(err))


def _config(t_grid, w_grid, rounds):
    return ps.SweepConfig(t_grid=t_grid, w_grid=w_grid, refinement_rounds=rounds)


@settings(max_examples=60, deadline=None)
@given(config=sweep_configs(), side=st.sampled_from(["left", "left", "right"]))
# left grids without 5/3, of several t and of one; 5/3 live beside a
# repeated w > 5/3, counted once
@example(config=_config((F(1, 8), F(1, 4)), (F(7, 4), HI), 2), side="left")
@example(config=_config((F(1, 4),), (HI,), 3), side="left")
@example(config=_config((F(1, 10), F(1, 4)), (LO, F(7, 4), F(7, 4)), 2), side="left")
# a right sweep of 9/5, repeated, and one whose grid holds another w
@example(config=_config((F(1, 8), F(1, 4)), (HI, HI), 1), side="right")
@example(config=_config((F(1, 4),), (LO, HI), 0), side="right")
def test_sweep_matches_the_full_evaluation_reference(config, side):
    # the reference probed whatever the grid held; the sweep names the grid
    if side == "right" and set(config.w_grid) != {HI}:
        with pytest.raises(ValueError, match=r"w = 9/5 alone, got w_grid \["):
            ps.optimize(side, config)
        return
    if side == "left" and LO not in config.w_grid:
        with pytest.raises(ValueError, match=r"w = 5/3, which w_grid \[.*\] lacks"):
            ps.optimize(side, config)
        return
    assert _outcome(ps.optimize, side, config) == _outcome(ref.optimize, side, config)


def _q_at_edge(t, w):
    # the paper's form of the weight at S = x = 5/3
    return (1 + F(15, 2) * t) * (w + LO) + F(36, 5) - F(126, 5) * t - F(10, 3)


def test_edge_lemma_holds_exactly_at_the_four_corners():
    corners = ps.edge_lemma()
    assert [(t, w) for t, w, _ in corners] == [(0, LO), (0, HI), (F(1, 2), LO), (F(1, 2), HI)]
    for t, w, q in corners:
        assert q == _q_at_edge(t, w) > 0
    # bilinear in (t, w): the corner values pin it down on the rectangle
    (_, _, q00), (_, _, q01), (_, _, q10), (_, _, q11) = corners
    for t in (F(1, 7), F(1, 3), F(893, 1800)):
        for w in (F(17, 10), F(7, 4), LO + F(1, 1500)):
            s, u = 2 * t, (w - LO) / (HI - LO)
            blend = (1 - s) * (1 - u) * q00 + (1 - s) * u * q01 + s * (1 - u) * q10 + s * u * q11
            assert ps.edge_weight(t, w)(LO) == _q_at_edge(t, w) == blend


def test_a_failing_corner_stops_the_left_sweep(monkeypatch):
    real = ps.edge_weight
    monkeypatch.setattr(ps, "edge_weight", lambda t, w: real(t, w) - 100)
    ps.edge_lemma.cache_clear()  # proved once per process: prove it again
    with pytest.raises(ExactPolyError, match="edge lemma"):
        ps.optimize("left", ps.SweepConfig(t_grid=(F(1, 2),), w_grid=(LO,)))
    # the right sweep does not rest on the lemma, and a left probe at
    # w > 5/3 is refused before any certificate is read
    ps.optimize("right", ps.SweepConfig(t_grid=(F(1, 2),), w_grid=(HI,)))
    with pytest.raises(ValueError, match="got w = 9/5"):
        ps.left_threshold(F(1, 2), HI)


@settings(max_examples=40, deadline=None)
@given(t=T_VALUES, w=st.fractions(min_value=LO, max_value=HI, max_denominator=10**4))
def test_left_threshold_is_degenerate_at_the_edge_for_w_above_five_thirds(t, w):
    if w == LO:
        return
    # the frozen probe's enclosure is the edge, where phi is positive ...
    th = left_ref.left_threshold(t, w, F(1, 10**6))
    assert th.degenerate
    assert th.enclosure.lo == th.enclosure.hi == LO
    assert th.phi_lo == 5 * (w - LO) ** 2 * _q_at_edge(t, w) ** 2 > 0
    # ... so no claim rests on it: the probe is refused, naming w, and its
    # enclosure does not replay
    with pytest.raises(ValueError, match=f"got w = {rat_str(w)}$"):
        ps.left_threshold(t, w)
    assert not ps.replay_threshold(th)


def _count_left_threshold_calls(monkeypatch):
    calls = []
    real = ps.left_threshold

    def counting(t, w, width=F(1, 10**6)):
        calls.append((t, w))
        return real(t, w, width)

    monkeypatch.setattr(ps, "left_threshold", counting)
    return calls


def _count_left_probe_calls(monkeypatch):
    """The (t, w) of every left_threshold call and of every left cell, which
    is at w = 5/3; left_threshold computes its cell through the same name."""
    calls = _count_left_threshold_calls(monkeypatch)
    real = ps._left_cell

    def counting(t, width, grids):
        calls.append((t, LO))
        return real(t, width, grids)

    monkeypatch.setattr(ps, "_left_cell", counting)
    return calls


def test_left_threshold_runs_only_for_edge_probes(monkeypatch):
    # the sweep certifies its winner from the cell its probe found, so each
    # edge pair's cell is computed once
    calls = _count_left_probe_calls(monkeypatch)
    ref_calls = []
    real = ref.left_threshold
    monkeypatch.setattr(ref, "left_threshold",
                        lambda t, w, width: ref_calls.append((t, w)) or real(t, w, width))
    # the incumbent at the grid's top t, then between two grid points
    for t_grid in ((F(1, 10), F(1, 4), F(99, 200)), (F(1, 10), F(1, 4), F(99, 200), F(1, 2))):
        calls.clear()
        config = ps.SweepConfig(
            t_grid=t_grid, w_grid=(LO, F(17, 10), F(7, 4), HI), refinement_rounds=2,
        )
        opt = ps.optimize("left", config)
        assert opt.best_w == LO
        assert calls and all(w == LO for _, w in calls)
        assert len(calls) == len(set(calls))
        # the edge pairs are probed in the reference's order, so a probe
        # that raises names the same t
        probed = list(calls)
        ref_calls.clear()
        assert (opt.to_json(), _fraction_rows(opt.table)) == _outcome(ref.optimize, "left", config)
        assert [(t, w) for t, w in ref_calls if w == LO] == probed


def test_a_left_grid_without_five_thirds_is_refused_before_any_probe(monkeypatch):
    # every pair of this grid is dead: the sweep names the grid, and no
    # probe runs, no cell is certified and no lemma is proved
    calls = _count_left_probe_calls(monkeypatch)
    for name in ("_certify", "edge_lemma", "monotone_lemma"):
        monkeypatch.setattr(ps, name, lambda *args, name=name: calls.append(name))
    config = ps.SweepConfig(
        t_grid=(F(1, 10), F(3, 10)), w_grid=(F(17, 10), F(7, 4), HI), refinement_rounds=2,
    )
    with pytest.raises(ValueError) as refusal:
        ps.optimize("left", config)
    assert str(refusal.value) == (
        "a left sweep probes w = 5/3, which w_grid [17/10, 7/4, 9/5] lacks")
    assert calls == []


def test_the_default_left_sweep_counts_its_dead_pairs():
    # 100 t by the 100 w above 5/3, and two w trisection points per round
    opt = ps.optimize("left", ps.default_config("left"))
    assert opt.degenerate_count == 100 * 100 + 2 * 2 == 10004
    assert opt.best_w == LO and len(opt.table) == 100 + 2 * 4
