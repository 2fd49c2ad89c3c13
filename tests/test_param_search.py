"""Tests for the deterministic certificate-parameter sweeps.

phi at general w is read from the frozen ``phi_reference``, and a left
enclosure at w > 5/3, which the library refuses to build, from the frozen
``left_threshold_reference``.
"""

from dataclasses import replace
from fractions import Fraction
import random
import re

import pytest

from pinchcert.exact_poly import (
    Polynomial,
    SignClaimError,
    _smallest_root_cell,
    certify_sign_on_interval,
    count_roots,
    one_root_certificate,
    rat,
    rat_str,
)
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb

import left_threshold_reference as left_ref
import phi_reference as phi_ref

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
    # phi(5/3) > 0 at w = 9/5, so no threshold exists there: the probe is
    # refused, naming w, with its width left unread
    assert phi_ref.left_certificate_value(F(5, 3), F(9, 5), F(1, 2)) > 0
    for width in (WIDTH, F(0)):
        with pytest.raises(ValueError) as refusal:
            ps.left_threshold(F(1, 2), F(9, 5), width)
        assert str(refusal.value) == "a left probe runs at w = 5/3 alone, got w = 9/5"


@pytest.mark.parametrize("t", [F(1, 200), F(1, 7), F(47, 200), F(893, 1800), F(1, 2)])
@pytest.mark.parametrize("w", [F(5, 3) + F(1, 1500), F(17, 10), F(7, 4), F(9, 5)])
def test_degenerate_phi_at_domain_edge_is_the_certificate_value(t, w):
    # phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2 > 0, q(5/3) the edge weight: the
    # frozen degenerate enclosure holds that value, and the library refuses
    # the probe and its enclosure
    q = ps.edge_weight(t, w)(F(5, 3))
    th = left_ref.left_threshold(t, w, WIDTH)
    assert th.degenerate and th.certificate.replay()
    assert (th.phi_lo == th.phi_hi == phi_ref.left_certificate_value(F(5, 3), w, t)
            == 5 * (w - F(5, 3)) ** 2 * q ** 2 > 0)
    with pytest.raises(ValueError, match=re.escape(f"got w = {rat_str(w)}")):
        ps.left_threshold(t, w, WIDTH)
    assert not ps.replay_threshold(th)


def test_left_threshold_continuity_in_t():
    base = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    near = ps.left_threshold(F(499, 1000), F(5, 3), WIDTH)
    assert abs(near.enclosure.lo - base.enclosure.lo) < F(1, 1000)


def test_left_threshold_domain_validation():
    with pytest.raises(ValueError):
        ps.left_threshold(F(3, 4), F(5, 3), WIDTH)
    with pytest.raises(ValueError, match="got w = 3/2"):
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
            assert max(p(x) for p in branches) == phi_ref.left_certificate_value(x, w, t)


def test_left_threshold_negativity_dossier_covers_initial_segment():
    # spot-check the certified claim: the certificate value is strictly
    # negative all the way from the domain edge to the enclosure
    th = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    lo = th.enclosure.lo
    for k in range(1, 50):
        x = F(5, 3) + (lo - F(5, 3)) * F(k, 50)
        assert phi_ref.left_certificate_value(x, F(5, 3), F(1, 2)) < 0
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
    # θ2(1/2) = (6561/100)(9 - 5x) has its one root at the domain's end
    # 9/5, so there is no interior root to enclose: t = 1/2 is refused
    assert pb.theta2(F(1, 2)) == Polynomial.linear(F(59049, 100), F(-6561, 20))
    for t in (F(1, 2), "1/2", F(3, 6)):
        with pytest.raises(ValueError, match=r"^right_threshold refuses t = 1/2: .*9/5$"):
            ps.right_threshold(t, WIDTH)


@pytest.mark.parametrize("t_grid", [(F(1, 2),), (F(1, 2), F(1, 2))])
def test_a_right_sweep_of_one_half_alone_is_refused(t_grid):
    config = ps.SweepConfig(t_grid=t_grid, w_grid=(F(9, 5),), refinement_rounds=2)
    with pytest.raises(ValueError, match=r"^a right sweep refuses a t grid of 1/2 alone"):
        ps.optimize("right", config)


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
    phi_far = phi_ref.left_certificate_value(F(9, 5), F(5, 3), F(1, 2))
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
    # no left enclosure is degenerate or at w != 5/3: the frozen degenerate
    # enclosure at w = 7/4, which replayed before left probes ran at 5/3
    # alone, and each of its shapes, are refused whatever they hold
    degenerate = left_ref.left_threshold(F(1, 4), F(7, 4), WIDTH)
    assert degenerate.certificate.replay()
    for forged in (degenerate, replace(degenerate, degenerate=False),
                   replace(degenerate, w=F(5, 3)), replace(genuine, degenerate=True),
                   replace(genuine, w=F(7, 4)), replace(genuine, w=F(9, 5))):
        assert not ps.enclosure_holds(forged)
        assert not ps.replay_threshold(forged)


#: ``right_threshold(1/2).to_json()`` as written before t = 1/2 was
#: refused: the degenerate [9/5, 9/5] with θ2(1/2)'s no-root count on the
#: domain with its upper end nudged off the root 9/5
DEGENERATE_RIGHT_JSON = {
    "certificate": {
        "claim": "no-root",
        "evidence": {"hi": "13499999/7500000", "lo": "5/3", "root_count": 0,
                     "value_hi": "2187/50000000", "value_lo": "2187/50",
                     "variations_hi": 1, "variations_lo": 1},
        "interval": ["5/3", "13499999/7500000"],
        "polynomial": ["59049/100", "-6561/20"],
    },
    "degenerate": True, "enclosure": ["9/5", "9/5"], "phi_hi": None, "phi_lo": None,
    "side": "right", "support": [], "t": "1/2", "w": "9/5",
}


def _degenerate_right() -> ps.ThresholdEnclosure:
    data = DEGENERATE_RIGHT_JSON
    return ps.ThresholdEnclosure(
        side=data["side"], t=rat(data["t"]), w=rat(data["w"]),
        enclosure=ps.IntervalQ.from_json(data["enclosure"]),
        certificate=ep.SignCertificate.from_json(data["certificate"]),
        degenerate=data["degenerate"])


def test_a_degenerate_right_enclosure_written_before_no_longer_holds():
    th = _degenerate_right()
    assert th.certificate.polynomial == pb.theta2(F(1, 2))
    # its count still replays, but nothing certifies [9/5, 9/5] any more
    assert th.certificate.replay()
    assert not ps.enclosure_holds(th) and not ps.replay_threshold(th)
    assert ps.certificate_labels(th) == ["theta2-negative-above-enclosure"]


def test_replay_binds_a_degenerate_enclosure_to_its_certificate():
    right = _degenerate_right()
    # the frozen degenerate left enclosure, refused whole, as each forgery of it
    left = left_ref.left_threshold(F(1, 4), F(7, 4), WIDTH)
    edge = ps.IntervalQ(F(5, 3), F(5, 3))
    assert right.degenerate and left.degenerate
    assert not ps.replay_threshold(right) and not ps.replay_threshold(left)
    quarter = ps.right_threshold(F(1, 4), WIDTH)
    forgeries = {
        "right, no-root count of x - 3": replace(
            right, certificate=count_roots(Polynomial.linear(-3, 1), pb.PINCH_DOMAIN)[1]),
        "right, one-root count of θ2(1/4)": replace(
            right, certificate=count_roots(pb.theta2(F(1, 4)), pb.PINCH_DOMAIN)[1]),
        "right, θ2(1/2) off the domain": replace(
            right, certificate=count_roots(pb.theta2(F(1, 2)), ps.IntervalQ(F(5, 3), F(7, 4)))[1]),
        "right, with support": replace(right, support=(quarter.certificate,)),
        "right, with values": replace(right, phi_lo=F(1), phi_hi=F(1)),
        "left, positive constant 1": replace(
            left, certificate=certify_sign_on_interval(Polynomial.constant(1), edge, "positive")),
        "left, edge weight at t = 1/3": replace(
            left, certificate=left_ref.left_threshold(F(1, 3), F(7, 4), WIDTH).certificate),
        "left, edge weight on the domain": replace(left, certificate=certify_sign_on_interval(
            ps.edge_weight(F(1, 4), F(7, 4)), pb.PINCH_DOMAIN, "positive")),
        "left, with support": replace(left, support=(quarter.certificate,)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name
    # a relabelled certificate no longer replays, and its claim alone fails
    for th in (right, left):
        assert not ps.enclosure_holds(
            replace(th, certificate=replace(th.certificate, claim="root-count")))


def _negative(p, a, b):
    return certify_sign_on_interval(p, ps.IntervalQ(a, b), "negative")


def test_replay_binds_a_right_enclosure_to_its_evidence():
    genuine = ps.right_threshold(F(1, 4), WIDTH)
    other = ps.right_threshold(F(1, 8), WIDTH)
    hi = genuine.enclosure.hi
    assert ps.replay_threshold(genuine) and genuine.support == ()
    forgeries = {
        "phi_lo": replace(genuine, phi_lo=genuine.phi_lo + 1),
        "phi_hi": replace(genuine, phi_hi=genuine.phi_hi - 1),
        "no values": replace(genuine, phi_lo=None, phi_hi=None),
        "w": replace(genuine, w=F(17, 10)),
        "other t": replace(genuine, certificate=other.certificate),
        "other polynomial": replace(
            genuine, certificate=_negative(Polynomial.linear(-2, 1), hi, F(9, 5))),
        "a positive claim": replace(genuine, certificate=certify_sign_on_interval(
            -pb.theta2(F(1, 4)), ps.IntervalQ(hi, F(9, 5)), "positive")),
        "with support": replace(genuine, support=(genuine.certificate,)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name
    # widened down to 5/3, with θ2(1/4)'s value there, the enclosure still holds
    wide = replace(genuine, enclosure=ps.IntervalQ(F(5, 3), hi),
                   phi_lo=pb.theta2(F(1, 4))(F(5, 3)))
    assert ps.replay_threshold(wide)


def test_replay_binds_a_left_enclosure_to_its_certificate():
    genuine = ps.left_threshold(F(1, 2), F(5, 3), WIDTH)
    other = ps.left_threshold(F(1, 4), F(5, 3), WIDTH)
    assert ps.replay_threshold(genuine) and other.enclosure != genuine.enclosure
    forgeries = {
        "other t": replace(genuine, certificate=other.certificate, support=other.support),
        "other polynomial": replace(genuine, certificate=_negative(
            Polynomial.linear(-2, 1), F(5, 3), genuine.enclosure.lo)),
    }
    for name, forged in forgeries.items():
        assert forged.certificate.replay() and all(c.replay() for c in forged.support)
        assert not ps.replay_threshold(forged), name


@pytest.mark.parametrize("side", ["left", "right"])
def test_replay_binds_the_main_certificate_to_the_enclosure_and_its_claim(side):
    # the main certificate is p negative on exactly [5/3, lo] (left, p the
    # sup-at-x quotient) or [hi, 9/5] (right, p = θ2(t)); each forgery
    # replays and fails that binding alone
    genuine = (ps.left_threshold(F(1, 4), F(5, 3), WIDTH) if side == "left"
               else ps.right_threshold(F(1, 4), WIDTH))
    assert ps.replay_threshold(genuine)
    p, enclosure = genuine.certificate.polynomial, genuine.enclosure
    lo, hi, step = enclosure.lo, enclosure.hi, F(1, 10**4)
    if side == "left":
        # the support's quotient is negative on the same interval, and
        # sup-at-x's at t = 1/4 + 10^-4 is negative up to lo
        other = genuine.support[0].polynomial
        near_t = ps.left_threshold(F(1, 4) + step, F(5, 3), WIDTH).certificate.polynomial
        assert near_t != p and other != p
        forgeries = {
            "ending 10^-4 short of the enclosure": _negative(p, F(5, 3), lo - step),
            "starting 10^-4 past the domain": _negative(p, F(5, 3) - step, lo),
            "the other branch": _negative(other, F(5, 3), lo),
            "another t": _negative(near_t, F(5, 3), lo),
            "one root on the enclosure": one_root_certificate(p, enclosure),
            "no root on the interval": count_roots(p, ps.IntervalQ(F(5, 3), lo))[1],
        }
        far = ps.IntervalQ(F(5, 3), lo + step)
    else:
        near_t = pb.theta2(F(1, 4) - step)
        forgeries = {
            "starting 10^-4 short of the enclosure": _negative(p, hi + step, F(9, 5)),
            "ending 10^-4 past the domain": _negative(p, hi, F(9, 5) + step),
            "another t": _negative(near_t, hi, F(9, 5)),
            "one root on the enclosure": one_root_certificate(p, enclosure),
            "no root on the interval": count_roots(p, ps.IntervalQ(hi, F(9, 5)))[1],
        }
        far = ps.IntervalQ(hi - step, F(9, 5))
    # 10^-4 past the enclosure end, p has changed sign: no such certificate
    with pytest.raises(SignClaimError):
        certify_sign_on_interval(p, far, "negative")
    assert forgeries["no root on the interval"].claim == "no-root"
    for name, cert in forgeries.items():
        assert cert.replay(), name
        forged = replace(genuine, certificate=cert)
        assert not ps.enclosure_holds(forged), name
        assert not ps.replay_threshold(forged), name
    if side == "left":
        # the two certificates swapped: each is a table row, out of order
        swapped = replace(genuine, certificate=genuine.support[0], support=(genuine.certificate,))
        assert swapped.certificate.replay() and not ps.replay_threshold(swapped)


def test_replay_binds_a_left_enclosure_to_its_support():
    # the support is the sup-at-5/3 quotient g < 0 on exactly [5/3, enclosure.lo]
    genuine = ps.left_threshold(F(37, 200), F(5, 3), WIDTH)
    assert ps.replay_threshold(genuine)
    other, = genuine.support
    lo, u = genuine.enclosure.lo, F(5, 3) + F(1, 10**4)
    g = other.polynomial
    assert other.interval == ps.IntervalQ(F(5, 3), lo)
    forms = {quotient.at(genuine.t): form.at(genuine.t)
             for _, form, quotient in pb.left_branch_forms()}
    # where the support ended before: the lower end of g's own cell
    own_lo, _ = _smallest_root_cell(g, ps._SLIVER.hi, F(9, 5), WIDTH / 2, one_root=True)
    near_t = ps.left_threshold(genuine.t + F(1, 10**4), F(5, 3), WIDTH).support[0].polynomial
    assert own_lo > lo and near_t != g
    forgeries = {
        "support on g's own cell's lower end": replace(
            genuine, support=(_negative(g, F(5, 3), own_lo),)),
        "support of another t": replace(
            genuine, support=ps.left_threshold(F(90, 200), F(5, 3), WIDTH).support),
        "g at another t": replace(genuine, support=(_negative(near_t, F(5, 3), lo),)),
        "the winner's quotient": replace(genuine, support=(genuine.certificate,)),
        "interval starting above 5/3": replace(genuine, support=(_negative(g, u, lo),)),
        "interval ending below the enclosure": replace(
            genuine, support=(_negative(g, F(5, 3), lo - F(1, 10**4)),)),
        "the branch in place of its quotient": replace(
            genuine, support=(_negative(forms[g], u, lo),)),
        "a positive claim": replace(genuine, support=(
            certify_sign_on_interval(-g, other.interval, "positive"),)),
        "a count in place of the sign claim": replace(
            genuine, support=(count_roots(g, other.interval)[1],)),
        "no support": replace(genuine, support=()),
        "a certificate too many": replace(genuine, support=(other, other)),
        "the main certificate on the branch": replace(
            genuine, certificate=_negative(forms[genuine.certificate.polynomial], u, lo)),
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
    if side == "right":
        # the degenerate cell at t = 0 is certified by nothing: its one
        # claim, θ2(0) negative on [9/5, 9/5], fails at θ2(0)'s root 9/5
        at_zero = ps._right_cell(F(0), WIDTH, ps._grids("right", WIDTH))
        assert at_zero.degenerate
        with pytest.raises(SignClaimError):
            ps._certify(at_zero)


@pytest.mark.parametrize("t", [F(1, 8), F(1, 4)])
@pytest.mark.parametrize("width", [0, F(-1, 10)])
def test_right_threshold_checks_its_width_first(t, width):
    with pytest.raises(ValueError, match="width must be positive"):
        ps.right_threshold(t, width)


@pytest.mark.parametrize("t", [0, F(-1, 4), F(3, 5)])
def test_right_threshold_checks_its_parameter_first(t):
    with pytest.raises(ValueError, match="parameter t must satisfy"):
        ps.right_threshold(t, 0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_threshold_calls_refuse_a_width_below_the_bound(monkeypatch, side):
    # as sweeps do: far below the bound the whole isolation ran, and only
    # writing phi's values then passed Python's int-to-string limit; no
    # isolation grid is built, so no grid search starts, and no bisection
    # runs
    cells = []
    monkeypatch.setattr(ep, "_on_grid", lambda *args: cells.append(args))
    monkeypatch.setattr(ps, "_smallest_root_cell", lambda *args, **kwargs: cells.append(args))
    with pytest.raises(ValueError, match="at least MIN_ISOLATION_WIDTH"):
        if side == "left":
            ps.left_threshold(F(1, 200), F(5, 3), F(1, 10**601))
        else:
            ps.right_threshold(F(1, 200), F(1, 10**601))
    assert cells == []


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
    # a row's ends are integers on one denominator: read on it, they are
    # the enclosure's ends exactly
    opt = ps.optimize("right", small_right_config())
    ts = [row[0] for row in opt.table]
    assert ts == sorted(ts)
    assert opt.table[-1][0] == F(1, 2)
    for t, w, lo, hi, den, deg in opt.table:
        assert all(type(v) is int for v in (lo, hi, den)) and den > 0
        if t == F(1, 2):  # the degenerate row, which no threshold call certifies
            assert (lo, hi, den, deg) == (9, 9, 5, True)
            continue
        th = ps.right_threshold(t, F(1, 10**6))
        assert (th.enclosure.lo, th.enclosure.hi, th.degenerate) == (F(lo, den), F(hi, den), deg)


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
