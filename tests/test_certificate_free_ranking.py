"""Sweeps rank probes on bare enclosures and certify only the winner.

Every probe still checks each fact its enclosure rests on, given the
monotonicity lemma that ``optimize`` proves first (a failing fact on a
probe that does not win, or a failing lemma, stops the sweep, and
``optimize`` exits 1 naming it), but only the winner, rebuilt by
``left_threshold`` or ``right_threshold``, builds certificates or Sturm
chains.
"""

import json
from fractions import Fraction

import pytest

from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert.exact_poly import ExactPolyError, Polynomial, SignClaimError

F = Fraction
LO = F(5, 3)


def _count_certificates(monkeypatch) -> list:
    """The claim of every certificate built, or rebuilt by a replay."""
    built = []
    real = ep._certificate

    def counting(p, iv, claim, lo, hi, witness=None):
        built.append(claim)
        return real(p, iv, claim, lo, hi, witness)

    monkeypatch.setattr(ep, "_certificate", counting)
    return built


def _count_chains(monkeypatch) -> list:
    """The polynomial of every Sturm chain built."""
    built = []
    real = ep.sturm_sequence

    def counting(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(ep, "sturm_sequence", counting)
    return built


def test_a_default_left_sweep_certifies_only_the_winner(monkeypatch):
    ps._monotone_lemmas("left")  # proved once per process, not per sweep
    built = _count_certificates(monkeypatch)
    chains = _count_chains(monkeypatch)
    report = rc.cmd_optimize("left", ps.default_config("left"))
    assert report.all_passed
    live = len(report.inputs["optimum"]["table"])
    support = report.inputs["optimum"]["best"]["support"]
    # no probe builds a certificate; the winner's certificate and support
    # once when it is rebuilt and once more when cmd_optimize replays them
    assert (live, len(support)) == (108, 4)
    assert len(built) == 2 * (1 + len(support)) == 10
    assert built.count("sign-constant-negative") == 2 * 2
    assert built.count("exactly-one-root") == 2
    # the winner's two branches and two quotients, then one fresh chain per
    # replayed certificate
    assert len(chains) == 4 + 1 + len(support) == 9


def test_a_default_right_sweep_certifies_only_the_winner(monkeypatch):
    ps._monotone_lemmas("right")
    built = _count_certificates(monkeypatch)
    chains = _count_chains(monkeypatch)
    report = rc.cmd_optimize("right", ps.default_config("right"))
    assert report.all_passed
    assert len(report.inputs["optimum"]["table"]) == 108
    # the winner's count and enclosure certificates, built once, replayed once
    assert built == [None, "exactly-one-root", "exactly-one-root", "exactly-one-root"]
    # θ2 at the winner's t, then one fresh chain per replayed certificate
    assert len(chains) == 1 + 2 == 3


def _break_one_sliver(monkeypatch):
    """The sup-at-x quotient form plus 10^6 (1 - 2t): unchanged at t = 1/2,
    positive on the sliver at t = 1/200."""
    first, second = pb.left_quotient_forms()
    bumped = (first[0] + 10**6, first[1] - 2 * 10**6, *first[2:])
    monkeypatch.setattr(pb, "left_quotient_forms", lambda: (bumped, second))


def _break_one_quotient_end(monkeypatch):
    """The sup-at-x quotient form minus 10^6 (1 - 2t): still increasing in x
    and unchanged at t = 1/2, negative at 9/5 at t = 1/200."""
    first, second = pb.left_quotient_forms()
    lowered = (first[0] - 10**6, first[1] + 2 * 10**6, *first[2:])
    monkeypatch.setattr(pb, "left_quotient_forms", lambda: (lowered, second))


def _break_one_endpoint_check(monkeypatch):
    """phi made positive at t = 1/200 only."""
    real = pb.left_certificate_value
    monkeypatch.setattr(pb, "left_certificate_value",
                        lambda x, w, t: abs(real(x, w, t)) if t == F(1, 200) else real(x, w, t))


def _break_theta2_monotonicity(monkeypatch):
    """θ2's form plus 10^4 (x - 7/4)^2 (1 - 4t): unchanged at t = 1/4, the
    winner, but at t = 0 its x-derivative changes sign at x = 7/4."""
    real = pb.theta2_form()
    bump = 10**4 * Polynomial.linear(F(-7, 4), 1) ** 2
    bumped = (real[0] + bump, real[1] - 4 * bump, real[2])
    monkeypatch.setattr(pb, "theta2_form", lambda: bumped)


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
