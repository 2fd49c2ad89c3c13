"""Tests for the deterministic certificate-parameter sweeps."""

from dataclasses import replace
from fractions import Fraction
import random

import pytest

from pinchcert.exact_poly import (
    CLAIM_ROOT_COUNT,
    Polynomial,
    _certificate,
    certify_sign_on_interval,
    count_roots,
    one_root_certificate,
    rat,
)
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb

F = Fraction

WIDTH = F(1, 10**6)


# ---------------------------------------------------------------------------
# left threshold
# ---------------------------------------------------------------------------


def test_left_threshold_reproduces_paper_enclosure():
    th = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    assert not th.degenerate
    assert rat("1.7075") < th.enclosure.lo
    assert th.enclosure.hi < rat("1.7076")
    assert th.enclosure.width <= WIDTH
    assert ps.replay_threshold(th)


def test_left_threshold_endpoint_signs():
    th = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    p = th.certificate.polynomial
    assert p(th.enclosure.lo) < 0 < p(th.enclosure.hi)
    assert th.phi_lo < 0 < th.phi_hi


def test_left_threshold_degenerate_for_large_w():
    th = ps.left_threshold(F(1, 2), F(9, 5), WIDTH)
    assert th.degenerate
    assert th.enclosure.lo == th.enclosure.hi == F(5, 3)
    assert th.phi_lo > 0
    assert ps.replay_threshold(th)


@pytest.mark.parametrize("t", [F(1, 200), F(1, 7), F(47, 200), F(893, 1800), F(1, 2)])
@pytest.mark.parametrize("w", [F(5, 3) + F(1, 1500), F(17, 10), F(7, 4), F(9, 5)])
def test_degenerate_phi_at_domain_edge_is_the_certificate_value(t, w):
    # left_threshold computes phi(5/3) as 5 (w - 5/3)^2 q(5/3)^2
    th = ps.left_threshold(t, w, WIDTH)
    assert th.degenerate
    assert th.phi_lo == th.phi_hi == pb.left_certificate_value(F(5, 3), w, t) > 0
    assert ps.replay_threshold(th)


def test_left_threshold_continuity_in_t():
    base = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    near = ps.left_threshold(F(499, 1000), F(5, 3), WIDTH)
    assert abs(near.enclosure.lo - base.enclosure.lo) < F(1, 1000)


def test_left_threshold_domain_validation():
    with pytest.raises(ValueError):
        ps.left_threshold(F(3, 4), F(5, 3), WIDTH)
    with pytest.raises(ValueError):
        ps.left_threshold(F(1, 2), F(3, 2), WIDTH)
    with pytest.raises(ValueError):
        ps.left_threshold(F(1, 2), F(5, 3), F(0))


def test_left_branch_max_equals_certificate_value():
    # the larger of the two branches must agree with the direct supremum
    # evaluation everywhere on the domain, including where the weight's
    # critical point c0/c1 lies in [5/3, x] (t = 7/50)
    rng = random.Random(42)
    w = F(5, 3)
    for t in (F(1, 2), F(1, 4), F(7, 50)):
        branches = [form.at(t) for _, form, _ in pb.left_branch_forms()]
        for _ in range(40):
            x = F(5, 3) + F(2, 15) * F(rng.randint(0, 10**5), 10**5)
            assert max(p(x) for p in branches) == pb.left_certificate_value(x, w, t)


def test_left_threshold_negativity_dossier_covers_initial_segment():
    # spot-check the certified claim: the certificate value is strictly
    # negative all the way from the domain edge to the enclosure
    th = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    lo = th.enclosure.lo
    for k in range(1, 50):
        x = F(5, 3) + (lo - F(5, 3)) * F(k, 50)
        assert pb.left_certificate_value(x, F(5, 3), F(1, 2)) < 0
    assert all(c.replay() for c in th.support)


# ---------------------------------------------------------------------------
# right threshold
# ---------------------------------------------------------------------------


def test_right_threshold_reproduces_paper_enclosure():
    th = ps.right_threshold(F(1, 4), WIDTH)
    assert not th.degenerate
    assert rat("1.7852") < th.enclosure.lo
    assert th.enclosure.hi < rat("1.7853")
    assert th.enclosure.width <= WIDTH
    assert ps.replay_threshold(th)


def test_right_threshold_endpoint_signs():
    th = ps.right_threshold(F(1, 4), WIDTH)
    p = pb.theta2(F(1, 4))
    assert p(th.enclosure.lo) > 0 > p(th.enclosure.hi)


def test_right_threshold_no_root_at_half():
    th = ps.right_threshold(F(1, 2), WIDTH)
    assert th.degenerate
    assert th.enclosure.lo == th.enclosure.hi == F(9, 5)
    assert th.certificate.claim == "no-root"
    assert th.certificate.replay()
    assert ps.replay_threshold(th)


def test_right_threshold_t_eighth_is_weaker_than_quarter():
    an_eighth = ps.right_threshold(F(1, 8), WIDTH)
    a_quarter = ps.right_threshold(F(1, 4), WIDTH)
    # smaller upper end = stronger; t = 1/4 wins against t = 1/8
    assert a_quarter.enclosure.hi < an_eighth.enclosure.lo


def test_right_threshold_rejects_bad_t():
    with pytest.raises(ValueError):
        ps.right_threshold(F(0), WIDTH)
    with pytest.raises(ValueError):
        ps.right_threshold(F(2, 3), WIDTH)


def test_replay_detects_tampered_enclosures():
    genuine = ps.right_threshold(F(1, 4), WIDTH)
    shifted = ps.ThresholdEnclosure(
        side=genuine.side,
        t=genuine.t,
        w=genuine.w,
        enclosure=ps.IntervalQ(genuine.enclosure.lo - F(1, 100),
                               genuine.enclosure.hi - F(1, 100)),
        certificate=genuine.certificate,
        degenerate=False,
        support=genuine.support,
    )
    assert not ps.replay_threshold(shifted)
    wrong_t = ps.ThresholdEnclosure(
        side=genuine.side,
        t=F(1, 8),
        w=genuine.w,
        enclosure=genuine.enclosure,
        certificate=genuine.certificate,
        degenerate=False,
        support=genuine.support,
    )
    assert not ps.replay_threshold(wrong_t)


def test_replay_rejects_forged_degenerate_enclosures():
    genuine = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    far_edge = ps.IntervalQ(F(9, 5), F(9, 5))
    phi_far = pb.left_certificate_value(F(9, 5), F(5, 3), F(1, 2))
    assert phi_far == F(50176, 10125) > 0
    # the strongest left claim, backed by the positive value phi(9/5)
    forged = replace(genuine, degenerate=True, enclosure=far_edge,
                     phi_lo=phi_far, phi_hi=phi_far)
    assert not ps.replay_threshold(forged)
    # the same claim with no values at all
    assert not ps.replay_threshold(replace(forged, phi_lo=None, phi_hi=None))
    # the strongest right claim
    quarter = ps.right_threshold(F(1, 4), WIDTH)
    flipped = replace(quarter, degenerate=True, enclosure=ps.IntervalQ(F(5, 3), F(5, 3)))
    assert not ps.replay_threshold(flipped)
    # a genuine left degenerate enclosure with a wrong or missing value
    degenerate = ps.left_threshold(F(1, 4), F(7, 4), WIDTH)
    assert ps.replay_threshold(degenerate)
    assert not ps.replay_threshold(replace(degenerate, phi_lo=degenerate.phi_lo + 1))
    assert not ps.replay_threshold(replace(degenerate, phi_hi=None))


def test_the_degenerate_right_certificate_is_on_the_nudged_domain():
    # θ2(1/2) is linear with its root at 9/5 itself, so the closed domain
    # holds a root: the no-root count is certified on the domain with its
    # upper end nudged inward, the interval its evidence is taken at
    p = pb.theta2(F(1, 2))
    assert p.degree == 1 and p(F(9, 5)) == 0
    th = ps.right_threshold(F(1, 2), WIDTH)
    nudged = ps.IntervalQ(F(5, 3), F(9, 5) - F(2, 15) / 10**6)
    assert th.degenerate and th.certificate.claim == "no-root"
    assert th.certificate.interval == nudged == ps.IntervalQ(F(5, 3), F(13499999, 7500000))
    assert (th.certificate.evidence["lo"], th.certificate.evidence["hi"]) == (
        "5/3", "13499999/7500000")
    assert ps.replay_threshold(th)
    # the parent's certificate, the same evidence on the closed domain
    on_domain = replace(th.certificate, interval=pb.PINCH_DOMAIN)
    assert not on_domain.replay()
    assert not ps.replay_threshold(replace(th, certificate=on_domain))
    assert not ps.enclosure_holds(replace(th, certificate=on_domain))


def test_replay_binds_a_degenerate_enclosure_to_its_certificate():
    right = ps.right_threshold(F(1, 2), WIDTH)
    left = ps.left_threshold(F(1, 4), F(7, 4), WIDTH)
    edge = ps.IntervalQ(F(5, 3), F(5, 3))
    assert right.degenerate and left.degenerate
    assert ps.replay_threshold(right) and ps.replay_threshold(left)
    quarter = ps.right_threshold(F(1, 4), WIDTH)
    forgeries = {
        "right, no-root count of x - 3": replace(
            right, certificate=count_roots(Polynomial.linear(-3, 1), pb.PINCH_DOMAIN)[1]),
        "right, one-root count of θ2(1/4)": replace(right, certificate=quarter.support[0]),
        "right, θ2(1/2) off the domain": replace(
            right, certificate=count_roots(pb.theta2(F(1, 2)), ps.IntervalQ(F(5, 3), F(7, 4)))[1]),
        "right, with support": replace(right, support=quarter.support),
        "right, with values": replace(right, phi_lo=F(1), phi_hi=F(1)),
        "left, positive constant 1": replace(
            left, certificate=certify_sign_on_interval(Polynomial.constant(1), edge, "positive")),
        "left, edge weight at t = 1/3": replace(
            left, certificate=ps.left_threshold(F(1, 3), F(7, 4), WIDTH).certificate),
        "left, edge weight on the domain": replace(left, certificate=certify_sign_on_interval(
            ps.edge_weight(F(1, 4), F(7, 4)), pb.PINCH_DOMAIN, "positive")),
        "left, with support": replace(left, support=quarter.support),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name
    # a relabelled certificate no longer replays, and its claim alone fails
    for th in (right, left):
        assert not ps.enclosure_holds(
            replace(th, certificate=replace(th.certificate, claim="root-count")))


def _decoy(enclosure: ps.IntervalQ):
    """A genuine exactly-one-root certificate on ``enclosure``, of x - mid."""
    mid = (enclosure.lo + enclosure.hi) / 2
    return count_roots(Polynomial.linear(-mid, 1), enclosure)[1]


def test_replay_binds_a_right_enclosure_to_its_evidence():
    genuine = ps.right_threshold(F(1, 4), WIDTH)
    other = ps.right_threshold(F(1, 8), WIDTH)
    p = pb.theta2(F(1, 4))
    part = count_roots(p, ps.IntervalQ(F(5, 3), F(179, 100)))[1]
    assert ps.replay_threshold(genuine) and part.claim == "exactly-one-root"
    forgeries = {
        "phi_lo": replace(genuine, phi_lo=genuine.phi_lo + 1),
        "phi_hi": replace(genuine, phi_hi=genuine.phi_hi - 1),
        "no values": replace(genuine, phi_lo=None, phi_hi=None),
        "w": replace(genuine, w=F(17, 10)),
        "other t": replace(genuine, certificate=other.certificate, support=other.support),
        "other polynomial": replace(genuine, certificate=_decoy(genuine.enclosure)),
        "no support": replace(genuine, support=()),
        "support off the domain": replace(genuine, support=(part,)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name


def test_replay_binds_a_left_enclosure_to_its_certificate():
    genuine = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    other = ps.left_threshold(F(1, 4), F(5, 3), WIDTH)
    assert ps.replay_threshold(genuine) and other.enclosure != genuine.enclosure
    forgeries = {
        "other t": replace(genuine, certificate=other.certificate, support=other.support),
        "other polynomial": replace(genuine, certificate=_decoy(genuine.enclosure)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name


@pytest.mark.parametrize("side", ["left", "right"])
def test_replay_binds_the_main_certificate_to_the_enclosure_and_its_claim(side):
    # each forgery replays and fails one half of the main certificate's
    # check alone: its claim is exactly-one-root, its interval the enclosure
    genuine = (ps.left_threshold(F(1, 4), F(5, 3), WIDTH) if side == "left"
               else ps.right_threshold(F(1, 4), WIDTH))
    assert ps.replay_threshold(genuine)
    p, enclosure = genuine.certificate.polynomial, genuine.enclosure
    lo, hi, step = enclosure.lo, enclosure.hi, F(1, 10**4)
    forgeries = {
        "one root on a wider interval": one_root_certificate(
            p, ps.IntervalQ(lo - step, hi + step)),
        "a root count on the enclosure, evidenced inside it": _certificate(
            p, enclosure, CLAIM_ROOT_COUNT, (3 * lo + hi) / 4, (lo + 3 * hi) / 4),
    }
    for name, cert in forgeries.items():
        assert cert.replay(), name
        forged = replace(genuine, certificate=cert)
        assert not ps.enclosure_holds(forged), name
        assert not ps.replay_threshold(forged), name


def test_replay_binds_a_left_enclosure_to_its_support():
    # the support is g < 0 on [5/3, x], x >= enclosure.lo, per branch quotient g
    genuine = ps.left_threshold(F(37, 200), F(5, 3), WIDTH)
    assert ps.replay_threshold(genuine)
    neg_x, neg_s = genuine.support
    lo, x = genuine.enclosure.lo, neg_x.interval.hi
    (_, form_x, quotient_x), (_, form_s, quotient_s) = pb.left_branch_forms()
    g_x, p_x = quotient_x.at(genuine.t), form_x.at(genuine.t)
    assert (neg_x.polynomial, neg_s.polynomial) == (g_x, quotient_s.at(genuine.t))
    winner = (form_x if genuine.certificate.polynomial == g_x else form_s).at(genuine.t)
    u = F(5, 3) + F(1, 10**4)

    def negative(p, a, b):
        return certify_sign_on_interval(p, ps.IntervalQ(a, b), "negative")

    forgeries = {
        "support of another t": replace(
            genuine, support=ps.left_threshold(F(90, 200), F(5, 3), WIDTH).support),
        "branches swapped": replace(genuine, support=(neg_s, neg_x)),
        "interval starting above 5/3": replace(
            genuine, support=(negative(g_x, u, x), neg_s)),
        "interval ending below the enclosure": replace(
            genuine, support=(negative(g_x, F(5, 3), lo - F(1, 10**4)), neg_s)),
        "the branch in place of its quotient": replace(
            genuine, support=(negative(p_x, u, x), neg_s)),
        "a positive claim": replace(genuine, support=(
            certify_sign_on_interval(-g_x, neg_x.interval, "positive"), neg_s)),
        "a count in place of the sign claim": replace(
            genuine, support=(count_roots(g_x, neg_x.interval)[1], neg_s)),
        "no support": replace(genuine, support=()),
        "a certificate missing": replace(genuine, support=(neg_x,)),
        "a certificate too many": replace(genuine, support=genuine.support + (neg_s,)),
        "the main certificate on the branch": replace(
            genuine, certificate=one_root_certificate(winner, genuine.enclosure)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.enclosure_holds(forged), name
        assert not ps.replay_threshold(forged), name


def test_every_default_left_enclosure_replays():
    for k in range(1, 101):
        assert ps.replay_threshold(ps.left_threshold(F(k, 200), F(5, 3), WIDTH)), k


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("t", [F(0), F(3, 5)])
def test_replay_rejects_a_parameter_or_side_outside_its_range(side, t):
    genuine = (ps.left_threshold(F(1, 4), F(5, 3), WIDTH) if side == "left"
               else ps.right_threshold(F(1, 4), WIDTH))
    assert ps.replay_threshold(genuine)
    assert ps.replay_threshold(replace(genuine, t=t)) is False
    assert ps.replay_threshold(replace(genuine, side="up")) is False


@pytest.mark.parametrize("t", [F(1, 2), F(1, 4)])
@pytest.mark.parametrize("width", [0, F(-1, 10)])
def test_right_threshold_checks_its_width_first(t, width):
    # at t = 1/2 there is no root to isolate, so the width was never read
    with pytest.raises(ValueError, match="width must be positive"):
        ps.right_threshold(t, width)


@pytest.mark.parametrize("t", [0, F(-1, 4), F(3, 5)])
def test_right_threshold_checks_its_parameter_first(t):
    with pytest.raises(ValueError, match="parameter t must satisfy"):
        ps.right_threshold(t, 0)


# ---------------------------------------------------------------------------
# sweep configuration
# ---------------------------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        ps.SweepConfig(t_grid=(), w_grid=(F(5, 3),))
    with pytest.raises(ValueError):
        ps.SweepConfig(t_grid=(F(1, 2), F(1, 4)), w_grid=(F(5, 3),))
    with pytest.raises(ValueError):
        ps.SweepConfig(t_grid=(F(3, 4),), w_grid=(F(5, 3),))
    with pytest.raises(ValueError):
        ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(F(1, 2),))
    with pytest.raises(ValueError):
        ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(F(5, 3),), refinement_rounds=-1)
    with pytest.raises(ValueError, match=r"refinement_rounds must lie in 0\.\.64, got 65"):
        ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(F(5, 3),), refinement_rounds=65)


def test_sweep_config_json_roundtrip():
    cfg = ps.SweepConfig(
        t_grid=(F(1, 4), F(1, 2)),
        w_grid=(F(5, 3), F(9, 5)),
        refinement_rounds=3,
        isolation_width=F(1, 10**4),
    )
    assert ps.SweepConfig.from_json(cfg.to_json()) == cfg


def test_sweep_config_refuses_unknown_keys():
    data = ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(F(9, 5),)).to_json()
    assert ps.SweepConfig.from_json(data).to_json() == data
    with pytest.raises(ValueError, match="'refinement_round'"):
        ps.SweepConfig.from_json({**data, "refinement_round": 5})
    with pytest.raises(ValueError, match="'a', 'z'"):
        ps.SweepConfig.from_json({**data, "z": 1, "a": 2})


@pytest.mark.parametrize("key", ["t_grid", "w_grid"])
def test_sweep_config_names_a_missing_grid(key):
    data = {"t_grid": ["1/4"], "w_grid": ["9/5"]}
    del data[key]
    with pytest.raises(ValueError, match=f"missing '{key}'"):
        ps.SweepConfig.from_json(data)


def test_default_config_contains_paper_parameters():
    left = ps.default_config("left")
    assert F(1, 2) in left.t_grid and F(5, 3) in left.w_grid
    right = ps.default_config("right")
    assert F(1, 4) in right.t_grid
    assert right.w_grid == (F(9, 5),)


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def small_left_config(rounds=0):
    return ps.SweepConfig(
        t_grid=(F(1, 4), F(2, 5), F(1, 2)),
        w_grid=(F(5, 3), F(26, 15), F(9, 5)),
        refinement_rounds=rounds,
    )


def small_right_config(rounds=0):
    return ps.SweepConfig(
        t_grid=tuple(F(k, 20) for k in range(1, 11)),
        w_grid=(F(9, 5),),
        refinement_rounds=rounds,
    )


def test_optimize_right_dominates_paper_choice():
    opt = ps.optimize("right", small_right_config())
    quarter = ps.right_threshold(F(1, 4), WIDTH)
    # t = 1/4 is in the grid, so the optimum is at least as strong
    assert opt.threshold.hi <= quarter.enclosure.hi
    assert ps.replay_threshold(opt.best)


def test_optimize_left_dominates_paper_choice():
    opt = ps.optimize("left", small_left_config())
    assert opt.best_w == F(5, 3)
    assert opt.threshold.lo >= rat("1.7075")
    assert ps.replay_threshold(opt.best)


def test_optimize_singleton_grid_matches_direct_call():
    cfg = ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(F(9, 5),), refinement_rounds=0)
    opt = ps.optimize("right", cfg)
    direct = ps.right_threshold(F(1, 4), cfg.isolation_width)
    assert opt.threshold == direct.enclosure
    assert opt.best_t == F(1, 4)
    assert opt.to_json()["best"] == direct.to_json()


def test_optimize_superset_grid_never_worse():
    subset = ps.SweepConfig(
        t_grid=(F(1, 8), F(1, 4)), w_grid=(F(9, 5),), refinement_rounds=0
    )
    superset = ps.SweepConfig(
        t_grid=(F(1, 8), F(1, 5), F(1, 4), F(3, 10)), w_grid=(F(9, 5),),
        refinement_rounds=0,
    )
    a = ps.optimize("right", subset)
    b = ps.optimize("right", superset)
    assert b.threshold.hi <= a.threshold.hi


def test_optimize_bit_identical_reruns():
    cfg = small_right_config(rounds=2)
    a = ps.optimize("right", cfg)
    b = ps.optimize("right", cfg)
    assert a.to_json_str() == b.to_json_str() and a.table == b.table


def test_optimize_refinement_never_hurts():
    base = ps.optimize("right", small_right_config(rounds=0))
    refined = ps.optimize("right", small_right_config(rounds=2))
    assert refined.threshold.hi <= base.threshold.hi


def test_optimize_rejects_bad_side():
    with pytest.raises(ValueError):
        ps.optimize("middle", small_right_config())


def test_optimum_table_rows_are_sorted_and_exact():
    opt = ps.optimize("right", small_right_config())
    ts = [row[0] for row in opt.table]
    assert ts == sorted(ts)
    for t, w, lo, hi, deg in opt.table:
        th = ps.right_threshold(t, F(1, 10**6))
        assert (th.enclosure.lo, th.enclosure.hi) == (lo, hi)


@pytest.mark.parametrize("side", ["left", "right"])
def test_repeated_grid_values_are_probed_once(side):
    # a sorted grid may repeat a value; each distinct (t, w) is one row
    w_grid = (F(5, 3), F(5, 3), F(7, 4)) if side == "left" else (F(9, 5), F(9, 5))
    repeated = ps.SweepConfig(t_grid=(F(1, 8), F(1, 4), F(1, 4), F(1, 2)), w_grid=w_grid,
                              refinement_rounds=2)
    distinct = ps.SweepConfig(t_grid=(F(1, 8), F(1, 4), F(1, 2)),
                              w_grid=tuple(sorted(set(w_grid))), refinement_rounds=2)
    a, b = ps.optimize(side, repeated), ps.optimize(side, distinct)
    assert a.table == b.table and a.degenerate_count == b.degenerate_count
    assert a.to_json() == b.to_json()
    assert len({(t, w) for t, w, *_ in a.table}) == len(a.table)
