"""Sweeps rank probes on bare enclosures and certify only the winner.

Every probe still checks each fact its enclosure rests on, given the
monotonicity lemma that ``optimize`` proves first (a failing fact on a
probe that does not win, or a failing lemma, stops the sweep, and
``optimize`` exits 1 naming it), but only the winner, certified from its
own cell by the certificate step of ``left_threshold`` or
``right_threshold``, builds certificates or Sturm chains.
"""

import json
from fractions import Fraction
from functools import lru_cache

import pytest

from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert.exact_poly import ExactPolyError, Form, Polynomial, SignClaimError

F = Fraction
LO = F(5, 3)


def _count_certificates(monkeypatch) -> list:
    """The claim of every certificate proved by the evidence kernel, when it
    is built or when a replay proves it again."""
    built = []
    real = ep._prove

    def counting(chain, den, iv, claim, lo, hi, witness=None):
        built.append(claim)
        return real(chain, den, iv, claim, lo, hi, witness)

    monkeypatch.setattr(ep, "_prove", counting)
    return built


def test_a_default_left_sweep_certifies_only_the_winner(monkeypatch):
    ps.monotone_lemma("left")  # proved once per process, not per sweep
    built = _count_certificates(monkeypatch)
    ep._sturm_ints.cache_clear()
    report = rc.cmd_optimize("left", ps.default_config("left"))
    assert report.all_passed
    live = len(report.scans[0]["table"].splitlines())
    support = report.inputs["optimum"]["best"]["support"]
    # no probe builds a certificate; the winner's certificate and support,
    # one negative certificate per quotient, once when it is certified and
    # once more when cmd_optimize replays them
    assert (live, len(support)) == (108, 1)
    assert built == ["sign-constant-negative"] * 2 * (1 + len(support))
    # a chain is built on a cache miss alone: the winner's two quotients,
    # whose chains its replays read again; no branch is specialized, so none
    # builds a chain
    assert ep._sturm_ints.cache_info().misses == 2


def test_a_default_right_sweep_certifies_only_the_winner(monkeypatch):
    ps.monotone_lemma("right")
    built = _count_certificates(monkeypatch)
    ep._sturm_ints.cache_clear()
    report = rc.cmd_optimize("right", ps.default_config("right"))
    assert report.all_passed
    assert len(report.scans[0]["table"].splitlines()) == 108
    # the winner's one certificate, built once, replayed once
    assert built == ["sign-constant-negative"] * 2
    # θ2 at the winner's t, whose chain both replays read again
    assert ep._sturm_ints.cache_info().misses == 1


def _shift_sup_at_x_quotient(monkeypatch, shift):
    (label, form, quotient), second = pb.left_branch_forms()
    shifted = ((label, form, quotient + shift), second)
    monkeypatch.setattr(pb, "left_branch_forms", lambda: shifted)


def _break_one_sliver(monkeypatch):
    """The sup-at-x quotient form plus 10^6 (1 - 2t): unchanged at t = 1/2,
    positive on the sliver at t = 1/200."""
    _shift_sup_at_x_quotient(monkeypatch, 10**6 * (1 - 2 * Form((0, 1))))


def _break_one_quotient_end(monkeypatch):
    """The sup-at-x quotient form minus 10^6 (1 - 2t): still increasing in x
    and unchanged at t = 1/2, negative at 9/5 at t = 1/200."""
    _shift_sup_at_x_quotient(monkeypatch, -(10**6) * (1 - 2 * Form((0, 1))))


def _break_one_endpoint_check(monkeypatch):
    """The sup-at-x quotient form made (x - a)^2 (x - 7/4) at t = 1/200 and
    left unchanged at t = 1/2, a the lower end of the probe's enclosure,
    which sup-at-5/3 sets there: still negative at the sliver's end and
    positive at 9/5, with its one sign change at 7/4, but zero at a, where
    phi must be negative."""
    t = F(1, 200)
    (label, form, quotient), second = pb.left_branch_forms()
    width = F(1, 10**6)
    a = ps._left_cell(t, width, ps._grids("left", width)).enclosure.lo
    touch = Polynomial.linear(-a, 1) ** 2 * Polynomial.linear(F(-7, 4), 1)
    shift = F(100, 99) * (1 - 2 * Form((0, 1))) * (touch - quotient.at(t))
    monkeypatch.setattr(pb, "left_branch_forms", lambda: ((label, form, quotient + shift), second))


def _break_theta2_monotonicity(monkeypatch):
    """θ2's form plus 10^4 (x - 7/4)^2 (1 - 4t): unchanged at t = 1/4, the
    winner, but at t = 0 its x-derivative changes sign at x = 7/4.  The
    lemma is cached per side, so it gets an empty cache for the test."""
    bump = 10**4 * Polynomial.linear(F(-7, 4), 1) ** 2
    bumped = pb.theta2_form() + (1 - 4 * Form((0, 1))) * bump
    monkeypatch.setattr(pb, "theta2_form", lambda: bumped)
    monkeypatch.setattr(ps, "monotone_lemma", lru_cache(ps.monotone_lemma.__wrapped__))


@pytest.mark.parametrize(
    "side, breaks, error, message",
    [
        ("left", _break_one_sliver, SignClaimError, "claimed sign-constant-negative"),
        ("left", _break_one_quotient_end, ExactPolyError, "not positive"),
        ("left", _break_one_endpoint_check, ExactPolyError, "exact endpoint check"),
        ("right", _break_theta2_monotonicity, ExactPolyError,
         "monotonicity lemma fails for the theta2 form"),
    ],
    ids=["sliver sign", "quotient end sign", "phi endpoint check", "theta2 monotonicity"],
)
def test_a_failing_fact_on_a_probe_that_does_not_win_stops_the_sweep(
        monkeypatch, tmp_path, capsys, side, breaks, error, message):
    config = ps.SweepConfig(t_grid=(F(1, 200), F(1, 4), F(1, 2)),
                            w_grid=(LO if side == "left" else F(9, 5),))
    winner = ps.optimize(side, config)
    assert winner.best_t != F(1, 200)
    breaks(monkeypatch)
    # the winner alone is untouched: it still certifies and replays
    best = (ps.left_threshold(winner.best_t, LO) if side == "left"
            else ps.right_threshold(winner.best_t))
    assert best == winner.best and ps.replay_threshold(best)
    with pytest.raises(error, match=message):
        ps.optimize(side, config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json()))
    code = rc.main(["optimize", "--side", side, "--config", str(path)])
    assert code == rc.EXIT_CERTIFICATION_FAILURE == 1
    assert message in capsys.readouterr().err
