"""The monotonicity lemma behind the sweep probes.

θ2 and the two left quotients g = p / (x - 5/3) are forms in t;
``param_search.monotone_lemma`` certifies the signs of the Bernstein
coefficients of each form's x-derivative over t in [0, 1/2], which proves
∂θ2/∂x < 0 and ∂g/∂x > 0 on [5/3, 9/5] x [0, 1/2].  The lemma takes forms
of any degree in t; forms cubic in t stand in for θ2 here, one that
proves and one that does not.  Given the lemma no probe builds a Sturm
chain, and every probe and threshold must still equal the Sturm-counted
references.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path
from unittest import mock

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
    Form,
    IntervalQ,
    Polynomial,
    SignClaimError,
    certify_sign_on_interval,
    count_roots,
    isolate_counted_root,
    sign_at,
)

F = Fraction
LO, HI = F(5, 3), F(9, 5)
WIDTH = F(1, 10**6)


T = Form((0, 1))


def _bump(x0, scale=10**4) -> Polynomial:
    """scale (x - x0)^2, whose x-derivative changes sign at x0."""
    return scale * Polynomial.linear(-x0, 1) ** 2


def _fresh_lemma(monkeypatch):
    """Give ``monotone_lemma``, cached per side, an empty cache until the
    test ends, so that a patched form is proved."""
    monkeypatch.setattr(ps, "monotone_lemma", lru_cache(ps.monotone_lemma.__wrapped__))


def _only_form(monkeypatch, side, name, form):
    """Make ``form`` the one form that ``side``'s lemma proves, under ``name``."""
    if side == "right":
        monkeypatch.setattr(pb, "theta2_form", lambda: form)
    else:
        triple = (name.removesuffix(" quotient"), None, form)
        monkeypatch.setattr(pb, "left_branch_forms", lambda: (triple,))
    _fresh_lemma(monkeypatch)


#: (name, side, form, claim) of every form the lemma covers, and of θ2's
#: form times 1 + t, cubic in t, which it must prove as well
FORMS = [("theta2", "right", pb.theta2_form(), CLAIM_NEGATIVE)] + [
    (f"{label} quotient", "left", quotient, CLAIM_POSITIVE)
    for label, _, quotient in pb.left_branch_forms()
] + [("theta2 times (1 + t)", "right", pb.theta2_form() * (1 + T), CLAIM_NEGATIVE)]


@pytest.mark.parametrize("name, side, form, claim", FORMS, ids=[f[0] for f in FORMS])
def test_bernstein_coefficients_give_the_derivative_exactly(monkeypatch, name, side, form, claim):
    _only_form(monkeypatch, side, name, form)
    derivative = form.derivative()
    bernstein = derivative.bernstein(F(1, 2))
    assert [(c.claim, c.polynomial, c.interval) for c in ps.monotone_lemma(side)] == [
        (claim, b, pb.PINCH_DOMAIN) for b in bernstein]
    # sum of C(n, j) s^j (1-s)^(n-j) b_j is ∂form/∂x at t = s/2
    n = len(form.rows) - 1
    assert len(bernstein) == n + 1
    for s in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
        combination = sum((comb(n, j) * s**j * (1 - s) ** (n - j) * b
                           for j, b in enumerate(bernstein)), Polynomial.zero())
        assert combination == derivative.at(s / 2)


def test_all_nine_lemma_certificates_replay():
    certificates = ps.monotone_lemma("right") + ps.monotone_lemma("left")
    forms = [pb.theta2_form()] + [quotient for _, _, quotient in pb.left_branch_forms()]
    assert [c.polynomial for c in certificates] == [
        b for form in forms for b in form.derivative().bernstein(F(1, 2))]
    assert [c.claim for c in certificates] == [CLAIM_NEGATIVE] * 3 + [CLAIM_POSITIVE] * 6
    assert all(c.interval == pb.PINCH_DOMAIN for c in certificates)
    assert all(ep.SignCertificate.from_json(json.loads(c.to_json_str())).replay()
               for c in certificates)


def test_theta2_bernstein_coefficients_are_the_sympy_checked_ones():
    b0, b1, b2 = (c.polynomial for c in ps.monotone_lemma("right"))
    assert b0 == Polynomial.constant(F(-1296, 5))
    assert b1 == F(-2, 5) * Polynomial((1229, -1350, 675))
    assert b2 == Polynomial.constant(F(-6561, 20))


def _break_sup_at_53_quotient(monkeypatch):
    first, (label, form, quotient) = pb.left_branch_forms()
    broken = (first, (label, form, quotient - _bump(F(7, 4))))
    monkeypatch.setattr(pb, "left_branch_forms", lambda: broken)
    _fresh_lemma(monkeypatch)


def _break_theta2(monkeypatch):
    real = pb.theta2_form()
    monkeypatch.setattr(pb, "theta2_form", lambda: real + _bump(F(7, 4)))
    _fresh_lemma(monkeypatch)


def _break_theta2_with_a_cubic(monkeypatch):
    """θ2's form plus 10^5 t^3 (x - 7/4)^2, cubic in t: at t = 1/2 its
    x-derivative is about -328 + 25000 (x - 7/4), which changes sign at
    x ≈ 1.763, inside the box."""
    real = pb.theta2_form()
    monkeypatch.setattr(pb, "theta2_form", lambda: real + T**3 * _bump(F(7, 4), 10**5))
    _fresh_lemma(monkeypatch)


@pytest.mark.parametrize("side, breaks, name", [
    ("left", _break_sup_at_53_quotient, "sup-at-5/3 quotient"),
    ("right", _break_theta2, "theta2"),
    ("right", _break_theta2_with_a_cubic, "theta2"),
], ids=["left quotient", "theta2", "cubic theta2"])
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


def test_the_lemma_is_proved_once_per_side(monkeypatch):
    _fresh_lemma(monkeypatch)
    right = ps.monotone_lemma("right")
    assert ps.monotone_lemma("right") is right
    ps.monotone_lemma("left")
    info = ps.monotone_lemma.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    # a proved side is served from the cache; an empty cache proves its form again
    real = pb.theta2_form()
    monkeypatch.setattr(pb, "theta2_form", lambda: real + _bump(F(7, 4)))
    assert ps.monotone_lemma("right") is right
    ps.monotone_lemma.cache_clear()
    with pytest.raises(ExactPolyError, match="fails for the theta2 form"):
        ps.monotone_lemma("right")
    # a constant in x leaves the derivative, and so the certificates, as they are
    monkeypatch.setattr(pb, "theta2_form", lambda: real + 1)
    assert ps.monotone_lemma("right") == right


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
    """θ2(t)'s root by a whole-domain Sturm count and counted isolation, with
    θ2(t)'s negative certificate on [enclosure.hi, 9/5]."""
    p = pb.theta2(t)
    n, count_cert = count_roots(p, pb.PINCH_DOMAIN)
    assert n in (0, 1)
    if n == 0:
        return ps.ThresholdEnclosure(side="right", t=t, w=HI, enclosure=IntervalQ(HI, HI),
                                     certificate=count_cert, degenerate=True)
    enclosure, _ = isolate_counted_root(count_cert, width)
    cert = certify_sign_on_interval(p, IntervalQ(enclosure.hi, HI), "negative")
    return ps.ThresholdEnclosure(side="right", t=t, w=HI, enclosure=enclosure,
                                 certificate=cert, degenerate=False,
                                 phi_lo=p(enclosure.lo), phi_hi=p(enclosure.hi))


#: the branch only the frozen reference builds
CRITICAL = "sup-at-critical"


def _endpoint_branch_reference(t, width):
    """The frozen reference's threshold from its two endpoint branches.

    Its critical branch is isolated on that branch's own segment, on a
    different bisection grid, so its cell can start below the endpoint
    branches' cell although its root lies above it: at t = 203/1350 and
    width 1/1000 the cells are [1.690073, 1.690384] and [1.690104, 1.690365],
    the roots 1.6903304 and 1.6903302.  Sorting cells by their lower ends
    then picks the critical one, which says nothing about the threshold;
    :func:`_assert_critical_root_not_below` checks that branch instead.
    """
    branches = left_ref.left_branch_polynomials
    with mock.patch.object(left_ref, "left_branch_polynomials",
                           lambda t: [b for b in branches(t) if b[0] != CRITICAL]):
        return left_ref.left_threshold(t, LO, width)


def _assert_critical_root_not_below(t, width, x):
    """The reference's critical branch, where it applies, has no root in its
    segment below x: it is negative on the segment up to x."""
    for label, p, seg in left_ref.left_branch_polynomials(t):
        if label != CRITICAL or seg.lo >= x:
            continue
        crossing = left_ref._first_nonneg(p, seg.lo, seg.hi, width / 2)
        assert crossing.kind in ("none", "root")
        # "root": p < 0 below the cell, and the cell's one root changes p's sign
        assert crossing.kind == "none" or crossing.lo >= x or (
            x < crossing.hi and sign_at(p, x) < 0)


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
@example(t=F(203, 1350), width=F(1, 10**3))
def test_probes_and_thresholds_match_the_sturm_references(t, width):
    ps.monotone_lemma("left")
    ps.monotone_lemma("right")
    right = _right_reference(t, width)
    cell = ps._right_cell(t, width, ps._grids("right", width))
    assert (cell.enclosure, cell.degenerate, ps._at_t("right", t)) == (
        right.enclosure, right.degenerate, (pb.theta2(t),))
    assert ps.right_threshold(t, width) == right

    left = _endpoint_branch_reference(t, width)
    assert ps._left_cell(t, width, ps._grids("left", width)).enclosure == left.enclosure
    mine = ps.left_threshold(t, LO, width)
    assert (mine.enclosure, mine.phi_lo, mine.phi_hi) == (left.enclosure, left.phi_lo,
                                                         left.phi_hi)
    # the certificates are on the quotients g = p / (x - 5/3), in their fixed
    # order, each g < 0 on exactly [5/3, enclosure.lo]; one of them is the
    # quotient of the reference's winning branch
    quotients = [quotient.at(t) for _, _, quotient in pb.left_branch_forms()]
    below = IntervalQ(LO, mine.enclosure.lo)
    assert [(c.claim, c.polynomial, c.interval) for c in (mine.certificate, *mine.support)] == [
        (CLAIM_NEGATIVE, g, below) for g in quotients]
    x_minus_lo = Polynomial.linear(-LO, 1)
    assert left.certificate.polynomial in [g * x_minus_lo for g in quotients]
    _assert_critical_root_not_below(t, width, mine.enclosure.lo)
    assert ps.replay_threshold(mine) and ps.replay_threshold(ps.right_threshold(t, width))


def test_left_isolations_on_the_quotient_take_few_evaluations(monkeypatch):
    """Regula falsi on g = p / (x - 5/3) has no tiny values near u to hug,
    as p had: over the default grid it took a mean of 16.8 and at most 29
    evaluations per branch on p; on g a mean of at most 10 and at most 12,
    the two grid ends included.  Its caller now reads those ends once, and
    the sup-at-5/3 quotient is searched only below the sup-at-x quotient's
    cell, so 130 searches take a mean of at most 6.5 and at most 10."""
    real_propose, real_horner = ep._propose_cell, ep._horner
    evaluations = []

    def counting(*args):
        calls = []

        def horner(cs, x):
            calls.append(x)
            return real_horner(cs, x)

        monkeypatch.setattr(ep, "_horner", horner)
        try:
            return real_propose(*args)
        finally:
            monkeypatch.setattr(ep, "_horner", real_horner)
            evaluations.append(len(calls))

    monkeypatch.setattr(ep, "_propose_cell", counting)
    grids = ps._grids("left", WIDTH)
    for t in ps.default_config("left").t_grid:
        ps._left_cell(t, WIDTH, grids)
    assert len(evaluations) == 130 and min(evaluations) >= 1
    assert max(evaluations) <= 10 and sum(evaluations) <= 6.5 * len(evaluations)


def test_thresholds_refuse_a_cell_their_counts_contradict(monkeypatch):
    """The winner's certificates prove its enclosure without the lemma: a
    cell that the lemma's failure made wrong is refused, not certified."""
    t = F(1, 4)
    # three roots in the sup-at-5/3 quotient: negative at u and at the
    # enclosure sup-at-x sets, positive at 9/5, but positive on
    # (42/25, 1681/1000), below that enclosure, where phi must be negative
    cubic = Polynomial.constant(1)
    for r in (F(42, 25), F(1681, 1000), F(179, 100)):
        cubic = cubic * Polynomial.linear(-r, 1)
    first, (label, form, _) = pb.left_branch_forms()
    monkeypatch.setattr(pb, "left_branch_forms", lambda: (first, (label, form, Form((cubic,)))))
    assert ps._left_cell(t, WIDTH, ps._grids("left", WIDTH)).enclosure.lo > F(1681, 1000)
    with pytest.raises(SignClaimError, match="claimed sign-constant-negative but Sturm finds 2"):
        ps.left_threshold(t, LO)

    # three roots: the cell holds one, and θ2 is not negative above it; two
    # roots: equal end signs, but the count finds them
    for roots, error, match in (
            ((F(17, 10), F(7, 4), F(177, 100)), SignClaimError,
             r"claimed sign-constant-negative but p\("),
            ((F(17, 10), F(7, 4)), ExactPolyError, "expected no root.*found 2")):
        cubic = Polynomial.constant(1)
        for r in roots:
            cubic = cubic * Polynomial.linear(-r, 1)
        monkeypatch.setattr(pb, "theta2_form", lambda cubic=cubic: Form((cubic,)))
        with pytest.raises(error, match=match):
            ps.right_threshold(t)
