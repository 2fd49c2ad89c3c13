"""The monotonicity lemma behind the sweep probes.

θ2 and the two left quotients g = p / (x - 5/3) are forms quadratic in t;
``param_search.monotone_lemma`` certifies the signs of the three Bernstein
coefficients of each form's x-derivative over t in [0, 1/2], which proves
∂θ2/∂x < 0 and ∂g/∂x > 0 on [5/3, 9/5] x [0, 1/2].  Given the lemma no
probe builds a Sturm chain, and every probe and threshold must still equal
the Sturm-counted references.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import left_threshold_reference as left_ref
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert.exact_poly import (
    CLAIM_NEGATIVE,
    CLAIM_POSITIVE,
    ExactPolyError,
    IntervalQ,
    Polynomial,
    count_roots,
    isolate_counted_root,
)

F = Fraction
LO, HI = F(5, 3), F(9, 5)
WIDTH = F(1, 10**6)


#: (name, form, sign, claim) of every form the lemma covers
FORMS = [("theta2", pb.theta2_form(), "negative", CLAIM_NEGATIVE)] + [
    (f"{label} quotient", quotient, "positive", CLAIM_POSITIVE)
    for (label, _), quotient in zip(pb.left_branch_forms(), pb.left_quotient_forms())
]


def _bump(x0, scale=10**4) -> Polynomial:
    """scale (x - x0)^2, whose x-derivative changes sign at x0."""
    return scale * Polynomial.linear(-x0, 1) ** 2


@pytest.mark.parametrize("name, form, sign, claim", FORMS, ids=[f[0] for f in FORMS])
def test_bernstein_coefficients_give_the_derivative_exactly(name, form, sign, claim):
    # b0 (1-s)^2 + 2 b1 s(1-s) + b2 s^2 = b0 + 2 (b1 - b0) s + (b0 - 2 b1 + b2) s^2
    # must be h0 + (h1/2) s + (h2/4) s^2, ∂form/∂x at t = s/2, coefficient by coefficient
    b0, b1, b2 = (c.polynomial for c in ps.monotone_lemma(form, sign))
    h0, h1, h2 = (entry.derivative() for entry in form)
    assert b0 == h0
    assert 2 * (b1 - b0) == F(1, 2) * h1
    assert b0 - 2 * b1 + b2 == F(1, 4) * h2
    for s in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
        bernstein = (1 - s) ** 2 * b0 + 2 * s * (1 - s) * b1 + s**2 * b2
        assert bernstein == pb.at_t(tuple(entry.derivative() for entry in form), s / 2)


def test_all_nine_lemma_certificates_replay():
    certificates = [c for _, form, sign, claim in FORMS
                    for c in ps.monotone_lemma(form, sign)
                    if (c.claim, c.interval) == (claim, pb.PINCH_DOMAIN)]
    assert len(certificates) == 9
    assert all(ep.SignCertificate.from_json(json.loads(c.to_json_str())).replay()
               for c in certificates)


def test_theta2_bernstein_coefficients_are_the_sympy_checked_ones():
    b0, b1, b2 = (c.polynomial for c in ps.monotone_lemma(pb.theta2_form(), "negative"))
    assert b0 == Polynomial.constant(F(-1296, 5))
    assert b1 == F(-2, 5) * Polynomial((1229, -1350, 675))
    assert b2 == Polynomial.constant(F(-6561, 20))


def _break_sup_at_53_quotient(monkeypatch):
    first, second = pb.left_quotient_forms()
    monkeypatch.setattr(pb, "left_quotient_forms",
                        lambda: (first, (second[0] - _bump(F(7, 4)), *second[1:])))


def _break_theta2(monkeypatch):
    real = pb.theta2_form()
    monkeypatch.setattr(pb, "theta2_form", lambda: (real[0] + _bump(F(7, 4)), *real[1:]))


@pytest.mark.parametrize("side, breaks, name", [
    ("left", _break_sup_at_53_quotient, "sup-at-5/3 quotient"),
    ("right", _break_theta2, "theta2"),
], ids=["left quotient", "theta2"])
def test_a_form_that_is_not_monotone_stops_optimize(monkeypatch, tmp_path, capsys,
                                                    side, breaks, name):
    config = ps.SweepConfig(t_grid=(F(1, 4), F(1, 2)), w_grid=(LO if side == "left" else HI,))
    ps.optimize(side, config)  # the true forms' lemma, now cached
    breaks(monkeypatch)
    message = f"monotonicity lemma fails for the {name} form"
    with pytest.raises(ExactPolyError, match=message):
        ps.optimize(side, config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json()))
    assert rc.main(["optimize", "--side", side, "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_a_patched_form_is_proved_again_not_served_from_the_cache():
    form = pb.theta2_form()
    ps.monotone_lemma(form, "negative")
    before = ps.monotone_lemma.cache_info()
    assert ps.monotone_lemma(form, "negative") is ps.monotone_lemma(form, "negative")
    # a constant in x leaves the derivative, and so the certificates, as they are
    shifted = (form[0] + 1, *form[1:])
    assert ps.monotone_lemma(shifted, "negative") == ps.monotone_lemma(form, "negative")
    after = ps.monotone_lemma.cache_info()
    assert after.misses == before.misses + 1
    with pytest.raises(ExactPolyError):
        ps.monotone_lemma((form[0] + _bump(F(7, 4)), *form[1:]), "negative")


def test_the_lemma_is_not_proved_at_import():
    code = ("import pinchcert.param_search as ps, pinchcert.report_cli; "
            "print(ps.monotone_lemma.cache_info().currsize)")
    src = str(Path(ep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# probes and thresholds against the Sturm-counted references
# ---------------------------------------------------------------------------


def _right_reference(t, width):
    """θ2(t)'s root by a whole-domain Sturm count and counted isolation."""
    p = pb.theta2(t)
    n, count_cert = count_roots(p, pb.PINCH_DOMAIN)
    assert n in (0, 1)
    if n == 0:
        return ps.ThresholdEnclosure(side="right", t=t, w=HI, enclosure=IntervalQ(HI, HI),
                                     certificate=count_cert, degenerate=True)
    enclosure, cert = isolate_counted_root(count_cert, width)
    return ps.ThresholdEnclosure(side="right", t=t, w=HI, enclosure=enclosure,
                                 certificate=cert, degenerate=False, support=(count_cert,),
                                 phi_lo=p(enclosure.lo), phi_hi=p(enclosure.hi))


T_VALUES = st.one_of(
    st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6),
    # trisection probes of the default grid: denominators 600, 1800, 5400
    st.sampled_from([600, 1800, 5400]).flatmap(
        lambda d: st.integers(1, d // 2).map(lambda k: F(k, d))),
)


@settings(max_examples=60, deadline=None)
@given(t=T_VALUES, width=st.sampled_from([WIDTH, F(1, 10**3), F(1, 10**9)]))
@example(t=F(1, 200), width=WIDTH)
@example(t=F(1, 2), width=WIDTH)
@example(t=F(3, 20), width=WIDTH)
@example(t=F(893, 1800), width=WIDTH)
@example(t=F(211, 900), width=WIDTH)
@example(t=F(127, 5400), width=WIDTH)
def test_probes_and_thresholds_match_the_sturm_references(t, width):
    ps._monotone_lemmas("left")
    ps._monotone_lemmas("right")
    right = _right_reference(t, width)
    cell, p = ps._right_cell(t, width)
    assert (cell.enclosure, cell.degenerate, p) == (right.enclosure, right.degenerate,
                                                   pb.theta2(t))
    assert ps.right_threshold(t, width) == right

    left = left_ref.left_threshold(t, LO, width)
    cell, phi_lo, phi_hi, _ = ps._left_cell(t, width)
    assert (cell.enclosure, phi_lo, phi_hi) == (left.enclosure, left.phi_lo, left.phi_hi)
    mine = ps.left_threshold(t, LO, width)
    assert (mine.enclosure, mine.certificate) == (left.enclosure, left.certificate)
    # the reference's support also holds its critical branch's certificates
    assert [c for c in left.support if c in mine.support] == list(mine.support)
    assert ps.replay_threshold(mine) and ps.replay_threshold(ps.right_threshold(t, width))


def test_left_isolations_on_the_quotient_take_few_evaluations(monkeypatch):
    """Regula falsi on g = p / (x - 5/3) has no tiny values near u to hug,
    as p had: over the default grid it took a mean of 16.8 and at most 29
    evaluations per branch on p; on g a mean of at most 10 and at most 12."""
    real_propose, real_homogeneous = ep._propose_cell, ep._homogeneous
    evaluations = []

    def counting(p, base, step, den, depth, one_root):
        calls = []

        def homogeneous(ints, a, b):
            calls.append(a)
            return real_homogeneous(ints, a, b)

        monkeypatch.setattr(ep, "_homogeneous", homogeneous)
        try:
            return real_propose(p, base, step, den, depth, one_root)
        finally:
            monkeypatch.setattr(ep, "_homogeneous", real_homogeneous)
            evaluations.append(len(calls))

    monkeypatch.setattr(ep, "_propose_cell", counting)
    for t in ps.default_config("left").t_grid:
        ps._left_cell(t, WIDTH)
    assert len(evaluations) == 200
    assert max(evaluations) <= 12 and sum(evaluations) <= 10 * len(evaluations)


def test_thresholds_refuse_a_cell_their_counts_contradict(monkeypatch):
    """The winner's certificates prove its enclosure without the lemma: a
    cell that the lemma's failure made wrong is refused, not certified."""
    t = F(1, 4)
    _, _, _, branches = ps._left_cell(t, WIDTH)
    loser = max(branches, key=lambda b: (b[0].lo, b[0].hi))[1]
    real = ps._smallest_root_cell

    def shifted(p, a, b, width, one_root=False):
        lo, hi = real(p, a, b, width, one_root)
        return (lo + F(1, 100), hi + F(1, 100)) if p == loser else (lo, hi)

    monkeypatch.setattr(ps, "_smallest_root_cell", shifted)
    with pytest.raises(ExactPolyError, match="below its enclosure"):
        ps.left_threshold(t, LO)

    for roots, expected, found in (((F(17, 10), F(7, 4), F(177, 100)), 1, 3),
                                   ((F(17, 10), F(7, 4)), 0, 2)):
        cubic = Polynomial.constant(1)
        for r in roots:
            cubic = cubic * Polynomial.linear(-r, 1)
        zero = Polynomial.zero()
        monkeypatch.setattr(pb, "theta2_form", lambda cubic=cubic: (cubic, zero, zero))
        with pytest.raises(ExactPolyError, match=f"expected {expected} root.*found {found}"):
            ps.right_threshold(t)
