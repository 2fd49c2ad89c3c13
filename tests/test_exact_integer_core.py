"""The integer exact core against the frozen Fraction-only reference.

Evaluation, Sturm chains and both isolators must agree with
``tests/exact_reference.py`` exactly: same values, same chain members, same
enclosures and evidence, same errors.  Explicit cases force the isolation
kernel off its jump to the final cell and onto plain bisection, and wrong
proposals of the final cell are refused on both of its paths: after a count
of one root (end signs alone confirm) and without one.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference as ref
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert.exact_poly import (
    ExactPolyError,
    IntervalQ,
    Polynomial,
    _count_evidence,
    _jump_cell,
    count_roots,
    isolate_root,
    sign_at,
    sturm_sequence,
)

F = Fraction
LO = F(5, 3)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=60)
points = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
polys = st.lists(rationals, min_size=0, max_size=7).map(Polynomial)
widths = st.sampled_from([F(1, 10), F(1, 1000), F(1, 10**6)])
# roots in the pinching domain's neighbourhood, dyadic ones included
roots = st.one_of(
    st.fractions(min_value=1, max_value=2, max_denominator=40),
    st.integers(min_value=0, max_value=64).map(lambda k: 1 + F(k, 64)),
)


def from_roots(rs, scale=F(1), extra=()) -> Polynomial:
    p = Polynomial.constant(scale)
    for r in rs:
        p = p * Polynomial.linear(-r, 1)
    for c in extra:  # an irreducible factor x^2 + c with c > 0
        p = p * Polynomial((c, 0, 1))
    return p


rooted_polys = st.builds(
    from_roots,
    st.lists(roots, min_size=1, max_size=5),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=100).flatmap(
        lambda s: st.sampled_from([s, -s])),
    st.lists(st.fractions(min_value=F(1, 10), max_value=3, max_denominator=10), max_size=1),
)
intervals = st.tuples(
    st.fractions(min_value=1, max_value=2, max_denominator=30),
    st.fractions(min_value=1, max_value=2, max_denominator=30),
).map(lambda ab: IntervalQ(min(ab), max(ab)))


def outcome(fn, *args):
    """Result of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ExactPolyError, ValueError) as err:
        return type(err), str(err)


def counts_one_root(p, a, b) -> bool:
    """The single-root flag the callers pass: a count finds one root in (a, b)."""
    return ep._RootCounter(p).count(a, b) == 1


# ---------------------------------------------------------------------------
# evaluation and chains
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(polys, points)
def test_integer_evaluation_equals_fraction_horner(p, x):
    assert p(x) == ref.horner(p, x)
    value = ref.horner(p, x)
    assert sign_at(p, x) == (value > 0) - (value < 0)


@settings(max_examples=300, deadline=None)
@given(polys.filter(lambda p: not p.is_zero))
def test_integer_chain_equals_reference_chain(p):
    chain = sturm_sequence(p)
    expected = ref.sturm_sequence(p)
    assert chain == expected
    assert chain[0] is p
    for q in chain:
        assert all(type(c) is Fraction for c in q.coeffs)


@settings(max_examples=200, deadline=None)
@given(rooted_polys)
def test_integer_chain_equals_reference_chain_with_repeated_roots(p):
    assert sturm_sequence(p) == ref.sturm_sequence(p)


def test_integer_form_stays_out_of_equality_and_hash():
    p = Polynomial((F(1, 3), F(-2, 5), F(7, 2)))
    q = Polynomial((F(1, 3), F(-2, 5), F(7, 2)))
    assert p(F(3, 7)) == ref.horner(p, F(3, 7))  # read from p's integer form
    assert p.integer_form() == ((10, -12, 105), 30)
    assert p == q and hash(p) == hash(q)
    assert Polynomial(()).integer_form() == ((), 1)
    assert Polynomial(())(F(5, 3)) == 0


def test_kept_chain_matches_a_fresh_one_and_stays_out_of_equality():
    p = from_roots([F(7, 4), F(3, 2)], extra=[F(1, 2)])
    kept = p._sturm()
    assert p._chain is kept  # built once and kept
    # only integer tuples, so the polynomial holds no reference to itself
    assert all(type(ints) is tuple and all(type(c) is int for c in ints) for ints in kept)
    assert kept == tuple(q.integer_form()[0] for q in sturm_sequence(p))
    assert kept[0] == p.integer_form()[0]
    fresh = Polynomial(p.coeffs)
    assert fresh == p and hash(fresh) == hash(p)
    assert _count_evidence(p, F(1), F(2)) == _count_evidence(fresh, F(1), F(2))
    assert count_roots(p, IntervalQ(1, 2)) == count_roots(fresh, IntervalQ(1, 2))


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rooted_polys, intervals, widths)
def test_isolate_root_matches_reference(p, iv, width):
    assert outcome(isolate_root, p, iv, width) == outcome(ref.isolate_root, p, iv, width)


def smallest_args(p, iv):
    """The interval's ends, moved outward off roots as the callers ensure."""
    a, b = iv.lo, iv.hi
    while p(a) == 0 or p(b) == 0:
        a, b = a - F(1, 997), b + F(1, 991)
    return a, b


@settings(max_examples=200, deadline=None)
@given(rooted_polys, intervals, widths)
def test_isolate_smallest_root_matches_reference(p, iv, width):
    a, b = smallest_args(p, iv)
    assert outcome(ps._isolate_smallest_root, p, a, b, width) == outcome(
        ref.isolate_smallest_root, p, a, b, width
    )


# polynomials with exactly one root in (1, 2), roots outside it and an
# irreducible quadratic factor
single_root_cases = st.builds(
    lambda inside, outside, scale, c: (from_roots([inside, *outside], scale, [c]), inside),
    st.fractions(min_value=1, max_value=2, max_denominator=10**4).filter(lambda r: 1 < r < 2),
    st.lists(st.one_of(st.fractions(min_value=-3, max_value=1, max_denominator=50),
                       st.fractions(min_value=2, max_value=5, max_denominator=50))
             .filter(lambda r: not 1 <= r <= 2), max_size=3),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=100).flatmap(
        lambda s: st.sampled_from([s, -s])),
    st.fractions(min_value=F(1, 10), max_value=3, max_denominator=10),
)


@settings(max_examples=300, deadline=None)
@given(single_root_cases, widths)
def test_single_root_path_matches_reference(case, width):
    """A count of one root sends both isolators down the single-root path."""
    p, root = case
    a, b = F(1), F(2)
    assert counts_one_root(p, a, b)
    got = ps._isolate_smallest_root(p, a, b, width)
    assert got == ref.isolate_smallest_root(p, a, b, width)
    assert got[0].lo < root < got[0].hi
    assert outcome(isolate_root, p, IntervalQ(a, b), width) == outcome(
        ref.isolate_root, p, IntervalQ(a, b), width)


# (polynomial, interval, width, why the jump cannot be confirmed)
FALLBACK_CASES = [
    (from_roots([F(7, 4)]), IntervalQ(1, 2), F(1, 10**6), "root on a dyadic midpoint"),
    (from_roots([F(7, 4)], extra=[F(1)]), IntervalQ(F(3, 2), 2), F(1, 10**3),
     "root on the first midpoint"),
    (from_roots([F(7, 5), F(7, 5)]), IntervalQ(1, 2), F(1, 10**6), "double root"),
    (from_roots([F(7, 5), F(7, 5) + F(1, 10**7)]), IntervalQ(1, 2), F(1, 10**6),
     "two roots closer than the width"),
    (from_roots([F(13, 10), F(3, 2)]), IntervalQ(1, 2), F(1, 10**6),
     "larger root on a midpoint where bisection moves b down"),
    (from_roots([F(7, 5), F(7, 5) + F(1, 10**8), F(7, 5) + F(2, 10**8)]), IntervalQ(1, 2),
     F(1, 10**6), "three roots in one cell"),
]
# more cases where isolate_root must refuse what the reference refuses
REFUSED_CASES = [
    (from_roots([F(13, 10), F(8, 5), F(8, 5)]), IntervalQ(1, 2), F(1, 10**6),
     "double root right of the isolated one"),
    (from_roots([F(7, 5)], extra=[F(1, 100)]), IntervalQ(F(3, 2), 2), F(1, 10**6),
     "no root in the interval"),
    (from_roots([F(13, 10)], scale=F(10**400)), IntervalQ(1, 2), F(1, 10**6),
     "coefficients beyond float range"),
]


@pytest.mark.parametrize(
    "p, iv, width, why", FALLBACK_CASES + REFUSED_CASES,
    ids=[c[3] for c in FALLBACK_CASES + REFUSED_CASES],
)
def test_explicit_cases_match_reference(p, iv, width, why):
    assert outcome(isolate_root, p, iv, width) == outcome(ref.isolate_root, p, iv, width)
    a, b = smallest_args(p, iv)
    assert outcome(ps._isolate_smallest_root, p, a, b, width) == outcome(
        ref.isolate_smallest_root, p, a, b, width
    )


@pytest.mark.parametrize("p, iv, width, why", FALLBACK_CASES, ids=[c[3] for c in FALLBACK_CASES])
def test_fallback_cases_are_not_jumped(p, iv, width, why):
    # more than one root goes straight to bisection; one is not jumped to
    a, b = smallest_args(p, iv)
    assert not counts_one_root(p, a, b) or _jump_cell(p, a, b, width) is None


def test_jump_lands_on_the_bisection_cell_for_a_simple_root():
    p = from_roots([F(13, 10), F(17, 10)], extra=[F(1, 3)])
    a, b = F(1), F(3, 2)
    assert counts_one_root(p, a, b)
    cell = _jump_cell(p, a, b, F(1, 10**6))
    assert cell is not None
    expected, _ = ref.isolate_smallest_root(p, a, b, F(1, 10**6))
    assert cell == (expected.lo, expected.hi)


TWO_ROOTS = from_roots([F(13, 10), F(17, 10)], extra=[F(1, 3)])
THREE_CLOSE_ROOTS = from_roots([F(7, 5), F(7, 5) + F(1, 10**8), F(7, 5) + F(2, 10**8)])


def grid_index(a, b, width, x):
    """Index of the cell of (a, b)'s bisection grid holding x, clamped to the grid."""
    cells = 1 << ep._bisection_depth(b - a, width)
    return min(max(math.floor((x - a) / (b - a) * cells), 0), cells - 1)


@pytest.mark.parametrize(
    "p, guess",
    [(TWO_ROOTS, F(17, 10)), (TWO_ROOTS, F(3, 2)), (TWO_ROOTS, F(1)), (TWO_ROOTS, F(2)),
     (THREE_CLOSE_ROOTS, F(7, 5))],
    ids=["larger root", "no root", "left end", "right end", "three roots in the cell"],
)
def test_a_wrong_estimate_is_refused_and_bisection_takes_over(monkeypatch, p, guess):
    """With more than one root no estimate is asked for: bisection decides."""
    a, b, width = F(1), F(2), F(1, 10**6)
    assert not counts_one_root(p, a, b)
    j = grid_index(a, b, width, guess)
    proposed = []
    monkeypatch.setattr(ep, "_propose_cell",
                        lambda p, base, step, den, depth: proposed.append(j) or j)
    assert ps._isolate_smallest_root(p, a, b, width) == ref.isolate_smallest_root(p, a, b, width)
    assert proposed == []


# one root in (1, 2), and one just outside each end, inside the grid cell
# that lies beyond it (the default-width grid on (1, 2) has cells 2^-20 wide)
ONE_ROOT = from_roots([F(13, 10), 1 - F(1, 2**21), 2 + F(1, 2**21)], extra=[F(1, 3)])


@pytest.mark.parametrize(
    "index", [lambda cells: grid_index(F(1), F(2), F(1, 10**6), F(17, 10)),
              lambda cells: 0, lambda cells: cells - 1, lambda cells: -1, lambda cells: cells],
    ids=["no root", "left end", "right end", "below the grid", "above the grid"],
)
def test_a_wrong_proposal_on_the_single_root_path_is_refused(monkeypatch, index):
    """With one root counted only the end signs confirm, and they refuse;
    a cell beyond the grid is refused even where its end signs differ."""
    a, b, width = F(1), F(2), F(1, 10**6)
    assert counts_one_root(ONE_ROOT, a, b)
    j = index(1 << ep._bisection_depth(b - a, width))
    monkeypatch.setattr(ep, "_propose_cell", lambda p, base, step, den, depth: j)
    assert _jump_cell(ONE_ROOT, a, b, width) is None
    expected = ref.isolate_smallest_root(ONE_ROOT, a, b, width)
    assert ps._isolate_smallest_root(ONE_ROOT, a, b, width) == expected
    assert isolate_root(ONE_ROOT, IntervalQ(a, b), width) == ref.isolate_root(
        ONE_ROOT, IntervalQ(a, b), width)


def test_coefficients_beyond_float_range_now_jump():
    p = from_roots([F(13, 10)], scale=F(10**400))
    a, b, width = F(1), F(2), F(1, 10**6)
    expected, _ = ref.isolate_smallest_root(p, a, b, width)
    assert _jump_cell(p, a, b, width) == (expected.lo, expected.hi)


def test_every_default_grid_probe_takes_the_jump(monkeypatch):
    """No isolation of a default sweep probe falls back to count bisection."""
    cells = []
    real = ep._jump_cell

    def recording(p, a, b, width):
        cells.append(real(p, a, b, width))
        return cells[-1]

    monkeypatch.setattr(ep, "_jump_cell", recording)
    t_grid = ps.default_config("right").t_grid
    right = [ps.right_threshold(t) for t in t_grid]
    assert len(cells) == sum(not th.degenerate for th in right) == 99  # t = 1/2 has no root
    for t in t_grid:
        ps.left_threshold(t, LO)
    assert len(cells) == 99 + 2 * len(t_grid)
    assert None not in cells


def test_the_exact_layer_imports_no_numpy():
    # nor sympy: the monotonicity lemma is in-repo Fraction arithmetic, and
    # sympy serves only as a test oracle
    code = ("import sys; import pinchcert.exact_poly, pinchcert.pinching_bounds, "
            "pinchcert.param_search, pinchcert.shrinker_bridge; "
            "print([m for m in ('numpy', 'sympy') if m in sys.modules])")
    src = str(Path(ep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_default_grid_isolations_take_few_grid_evaluations(monkeypatch):
    """Illinois regula falsi finds each default probe's final cell in a few
    exact signs.  The bounds are the counts measured when it replaced the
    dyadic scan and sign bisection, which took 31 per right isolation and
    up to 22 per left branch; every default isolation has one root counted.
    """
    real_propose, real_homogeneous = ep._propose_cell, ep._homogeneous
    evaluations = []

    def counting(p, base, step, den, depth):
        calls = []

        def homogeneous(ints, a, b):
            calls.append(a)
            return real_homogeneous(ints, a, b)

        monkeypatch.setattr(ep, "_homogeneous", homogeneous)
        try:
            return real_propose(p, base, step, den, depth)
        finally:
            monkeypatch.setattr(ep, "_homogeneous", real_homogeneous)
            evaluations.append(len(calls))

    monkeypatch.setattr(ep, "_propose_cell", counting)
    for t in ps.default_config("right").t_grid:
        ps.right_threshold(t)
    right, evaluations[:] = list(evaluations), []
    for t in ps.default_config("left").t_grid:
        ps.left_threshold(t, LO)
    left = evaluations
    assert len(right) == 99 and max(right) <= 7 and sum(right) <= 625
    assert len(left) == 200 and max(left) <= 29 and sum(left) <= 3361
