"""The sweep's integer kernels against the Fraction code they replace.

The weight and its supremum are read from forms in (t, x), and phi at
w = 5/3 from the left quotients' integer values (``phi_reference`` holds
the Fraction formulas); a left branch's quotient by
x - 5/3 is specialized from a form in t divided once; Sturm members are
built from their primitive integers; and a variation count reads the
chain's integer tuples in one pass (``exact_reference`` holds the Fraction
chain and count).  Each must give exactly what the Fraction code gave.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_reference as ref
import phi_reference as phi_ref
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert import pinching_bounds as pb
from pinchcert import report_cli as rc
from pinchcert.exact_poly import ExactPolyError, Polynomial

F = Fraction
LO, HI = F(5, 3), F(9, 5)
BIG = 10**12

domain = st.fractions(min_value=LO, max_value=HI, max_denominator=BIG)
ts = st.fractions(min_value=F(1, BIG), max_value=F(1, 2), max_denominator=BIG)


# ---------------------------------------------------------------------------
# phi, the weight and its supremum from the forms
# ---------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(st.just(LO), domain), w=domain, t=ts)
@example(x=LO, w=HI, t=F(1, 2))  # x = 5/3 < w, phi positive at the edge
@example(x=LO, w=LO, t=F(1, 2))  # both candidates at S = 5/3 = x: a tie
@example(x=HI, w=LO, t=F(7, 50))
@example(x=F(10633, 6075), w=LO, t=F(7, 50))
@example(x=F(171, 100), w=LO, t=F(3, 20))
def test_integer_phi_equals_the_fraction_formulas(x, w, t):
    assert (tuple(form.at(t)(x) for form in pb.weight_forms(w))
            == phi_ref.weight_linear_coeffs(x, w, t))
    assert pb.weight_sup_over_s(x, w, t) == phi_ref.weight_sup_over_s(x, w, t)
    # phi at w = 5/3 as a left enclosure stores it at its ends, here 5/3 and
    # x: (x - 5/3) times the larger quotient, on integers
    cell = ps._Cell("left", t, LO, 0, 0, 1, False)
    assert (ps._values(cell, ps._at_t("left", t), ep.IntervalQ(LO, x))
            == (0, phi_ref.left_certificate_value(x, LO, t)))


# ---------------------------------------------------------------------------
# quotient forms
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(t=ts)
@example(t=F(1, 2))
@example(t=F(1, 200))
def test_quotient_forms_specialize_to_the_branch_quotients(t):
    divisor = Polynomial.linear(-LO, 1)
    assert len(pb.left_branch_forms()) == 2
    for _, form, quotient in pb.left_branch_forms():
        g, r = form.at(t).divmod(divisor)
        assert r.is_zero
        assert quotient.at(t) == g


def test_a_branch_not_vanishing_at_five_thirds_fails_the_division_check(
        monkeypatch, tmp_path, capsys):
    # the branches vanish at 5/3, not at a lower domain end moved to 17/10
    monkeypatch.setattr(pb, "PINCH_DOMAIN", pb.IntervalQ(F(17, 10), HI))
    monkeypatch.setattr(pb, "left_branch_forms", pb.left_branch_forms.__wrapped__)
    with pytest.raises(ExactPolyError, match="left branch sup-at-x does not vanish at 17/10"):
        pb.left_branch_forms()
    config = ps.SweepConfig(t_grid=(F(1, 4),), w_grid=(LO,))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json()))
    code = rc.main(["optimize", "--side", "left", "--config", str(path)])
    assert code == rc.EXIT_CERTIFICATION_FAILURE
    assert "left branch sup-at-x does not vanish" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sturm members and the variation count
# ---------------------------------------------------------------------------


def _sweep_polynomials():
    """θ2, both branches and both quotients at a few t, each built fresh."""
    for t in (F(1, 200), F(37, 200), F(1, 4), F(1, 2)):
        yield pb.theta2(t)
        for _, form, _ in pb.left_branch_forms():
            yield form.at(t)
        for _, _, quotient in pb.left_branch_forms():
            yield quotient.at(t)


def test_sweep_chain_members_are_fractions_equal_to_the_reference():
    for p in _sweep_polynomials():
        chain = ep.sturm_sequence(p)
        assert chain == ref.sturm_sequence(p)
        # the cached chain is the members' integer tuples
        assert p._sturm() == tuple(q.integer_form()[0] for q in chain)
        for q in chain:
            assert all(type(c) is Fraction for c in q.coeffs)
            # a member made from its integers is the polynomial of its
            # coefficients: same equality, hash and integer form
            fresh = Polynomial(q.coeffs)
            assert fresh == q and hash(fresh) == hash(q)
            assert q.integer_form() == fresh.integer_form()


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)
points = st.fractions(min_value=-4, max_value=4, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(
    lambda p: not p.is_zero), points)
def test_variation_count_equals_the_reference(p, x):
    assert ep._variations_at(p, x) == ref._variations_at(ref.sturm_sequence(p), x)


@settings(max_examples=300, deadline=None)
@given(a=rationals, b=rationals, scale=rationals.filter(bool), pick=st.integers(0, 3),
       other=points)
def test_variation_count_equals_the_reference_at_member_roots(a, b, scale, pick, other):
    # c (x - a)^2 (x - b): p vanishes at a and b, p' = c (x - a)(3x - a - 2b)
    # at a and (a + 2b)/3, and a is a root of the chain's last member
    p = scale * Polynomial.linear(-a, 1) ** 2 * Polynomial.linear(-b, 1)
    x = (a, b, (a + 2 * b) / 3, other)[pick]
    assert ep._variations_at(p, x) == ref._variations_at(ref.sturm_sequence(p), x)
