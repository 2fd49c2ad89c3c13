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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact_reference as ref
from pinchcert import exact_poly as ep
from pinchcert import param_search as ps
from pinchcert.exact_poly import (
    DegenerateEndpointError,
    ExactPolyError,
    Form,
    IntervalQ,
    Polynomial,
    _count_evidence,
    _grid_search,
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
    """A count finds one root in (a, b)."""
    return ep._RootCounter(p).count(a, b) == 1


def grid_cell(p, a, b, width):
    """The cell that a single-root isolation takes from the grid search of
    (a, b) at width, as two Fractions, or None when the search fails."""
    search = _grid_search(p, (a.numerator, a.denominator), (b.numerator, b.denominator),
                          (width.numerator, width.denominator))
    j = search.cell(0, search.f_lo, search.cells, search.f_hi)
    if j is None:
        return None
    lo, hi, den = search.ends(j)
    return F(lo, den), F(hi, den)


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
    # the chain is kept in the builder's cache, keyed by the integer form;
    # a polynomial cannot hold one
    p = from_roots([F(7, 4), F(3, 2)], extra=[F(1, 2)])
    with pytest.raises(AttributeError):
        object.__setattr__(p, "_chain", ())
    kept = p._sturm()
    assert p._sturm() is kept  # built once and kept
    assert kept == ep._sturm_ints.__wrapped__(p.integer_form()[0])  # the uncached builder's
    # only integer tuples, so the cache holds no reference to a polynomial
    assert all(type(ints) is tuple and all(type(c) is int for c in ints) for ints in kept)
    assert kept == tuple(q.integer_form()[0] for q in sturm_sequence(p))
    assert kept[0] == p.integer_form()[0]
    fresh = Polynomial(p.coeffs)
    assert fresh == p and hash(fresh) == hash(p)
    assert fresh._sturm() is kept  # one chain per integer form
    assert _count_evidence(p, F(1), F(2)) == _count_evidence(fresh, F(1), F(2))
    assert count_roots(p, IntervalQ(1, 2)) == count_roots(fresh, IntervalQ(1, 2))


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rooted_polys, intervals, widths)
@example(from_roots([F(3, 2)]), IntervalQ(F(1), F(3, 2)), F(1, 10))
def test_isolate_root_matches_reference(p, iv, width):
    # an end root, which the reference nudged off, is refused, naming the end
    end_roots = [x for x in (iv.lo, iv.hi) if p(x) == 0]
    if end_roots:
        assert outcome(isolate_root, p, iv, width) == (
            DegenerateEndpointError, f"interval end {end_roots[0]} is a root of p")
    else:
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


# polynomials with exactly one root in (1, 2), roots outside it and at most
# one irreducible quadratic factor: degrees 1 to 6
single_root_cases = st.builds(
    lambda inside, outside, scale, c: (from_roots([inside, *outside], scale, c), inside),
    st.fractions(min_value=1, max_value=2, max_denominator=10**4).filter(lambda r: 1 < r < 2),
    st.lists(st.one_of(st.fractions(min_value=-3, max_value=1, max_denominator=50),
                       st.fractions(min_value=2, max_value=5, max_denominator=50))
             .filter(lambda r: not 1 <= r <= 2), max_size=3),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=100).flatmap(
        lambda s: st.sampled_from([s, -s])),
    st.lists(st.fractions(min_value=F(1, 10), max_value=3, max_denominator=10), max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(single_root_cases, widths)
@example((from_roots([F(13, 10)], F(-2, 3)), F(13, 10)), F(1, 10**6))  # degree 1
@example((from_roots([F(1357, 1000), F(-1, 2)]), F(1357, 1000)), F(1, 1000))  # degree 2
def test_single_root_path_matches_reference(case, width):
    """A count of one root sends isolate_root down the single-root path;
    the Sturm-counted isolator reaches the same cell by bisection."""
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
    assert not counts_one_root(p, a, b) or grid_cell(p, a, b, width) is None


def test_jump_lands_on_the_bisection_cell_for_a_simple_root():
    p = from_roots([F(13, 10), F(17, 10)], extra=[F(1, 3)])
    a, b = F(1), F(3, 2)
    assert counts_one_root(p, a, b)
    cell = grid_cell(p, a, b, F(1, 10**6))
    assert cell is not None
    expected, _ = ref.isolate_smallest_root(p, a, b, F(1, 10**6))
    assert cell == (expected.lo, expected.hi)


TWO_ROOTS = from_roots([F(13, 10), F(17, 10)], extra=[F(1, 3)])
THREE_CLOSE_ROOTS = from_roots([F(7, 5), F(7, 5) + F(1, 10**8), F(7, 5) + F(2, 10**8)])


def grid_of(a, b, width):
    """The integer isolation grid (base, step, den, depth) of (a, b) and the width."""
    return ep._grid(a.numerator, a.denominator, b.numerator, b.denominator,
                    width.numerator, width.denominator)


def fraction_grid(a, b, width):
    """The same grid as it was set up from Fractions, before it was built
    from the integer pairs: the span b - a, its ratio to the width, and the
    fewest halvings that bring the span under the width."""
    span = b - a
    ratio = span / width
    n, m = ratio.numerator, ratio.denominator
    depth = max(n.bit_length() - m.bit_length() - 1, 0)
    while (m << depth) < n:
        depth += 1
    den = a.denominator * span.denominator << depth
    base = a.numerator * span.denominator << depth
    step = span.numerator * a.denominator
    return base, step, den, depth


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
       st.fractions(min_value=F(1, 10**4), max_value=5, max_denominator=10**4),
       st.fractions(min_value=F(1, 10**9), max_value=8, max_denominator=10**9))
@example(F(-7, 3), F(29, 6), F(1, 10**6))  # a negative a
@example(F(5, 3), F(2, 15), F(2, 15))  # width equal to the span: depth 0
@example(F(-1, 2), F(1, 7), F(3))  # width beyond the span: depth 0
def test_integer_grid_equals_the_fraction_setup(a, span, width):
    b = a + span
    grid = grid_of(a, b, width)
    assert grid == fraction_grid(a, b, width)
    # the width's pair need not be reduced: a left probe passes width / 2 as
    # (numerator, 2 * denominator)
    assert ep._grid(a.numerator, a.denominator, b.numerator, b.denominator,
                    6 * width.numerator, 6 * width.denominator) == grid
    base, step, den, depth = grid
    assert F(base, den) == a and F(base + (step << depth), den) == b
    assert (depth == 0) == (width >= span)
    assert F(step, den) <= width and (depth == 0 or F(2 * step, den) > width)


def pair(q):
    return q.numerator, q.denominator


grid_ends = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=1000),
                      st.fractions(min_value=F(1, 1000), max_value=5, max_denominator=1000))


@settings(max_examples=300, deadline=None)
@given(polys, st.integers(min_value=-10**12, max_value=10**12), grid_ends, widths)
def test_a_prescaled_horner_pass_is_the_homogeneous_value(p, x, ends, width):
    # the regula falsi values of a polynomial's grid search are the
    # integers homogeneous Horner gives on the grid's denominator, so every
    # step, cell and certificate is the one it was before
    a, span = ends
    search = ep._grid_search(p, pair(a), pair(a + span), pair(width))
    assert search.den == grid_of(a, a + span, width)[2]
    ints = p.integer_form()[0]
    assert ep._horner(search.scaled, x) == (ep._homogeneous(ints, x, search.den) if ints else 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(polys, max_size=4), st.fractions(min_value=-2, max_value=2, max_denominator=10**4),
       grid_ends, widths)
@example([Polynomial([1, 2, 3]), Polynomial([0, 0, -1])], F(3), (F(1), F(1)), F(1, 10))
@example([Polynomial([0, 1])], F(1, 7), (F(5, 3), F(2, 15)), F(1, 10**6))
def test_a_form_on_its_grid_reads_t_as_its_polynomials_prescaled_values(rows, t, ends, width):
    # a form's grid search at t holds the prescaled coefficients of the
    # polynomial at t times one positive integer, behind zeros where the
    # degree drops at t: every value is that polynomial's times the same
    # positive integer, so every sign, secant and cell is its search's
    a, span = ends
    form = Form(rows)
    search = form.on_grid(pair(a), pair(a + span), pair(width))(*pair(t))
    want = ep._grid_search(form.at(t), pair(a), pair(a + span), pair(width))
    assert search[1:5] == want[1:5]  # base, step, den and cells
    drop = len(search.scaled) - len(want.scaled)
    assert drop >= 0 and not any(search.scaled[:drop])
    if not want.scaled:
        assert (search.f_lo, search.f_hi) == (0, 0)
        return
    scale, rest = divmod(search.scaled[drop], want.scaled[0])
    assert scale > 0 and rest == 0
    assert search.scaled[drop:] == tuple(scale * c for c in want.scaled)
    assert (search.f_lo, search.f_hi) == (scale * want.f_lo, scale * want.f_hi)


def grid_index(a, b, width, x):
    """Index of the cell of (a, b)'s bisection grid holding x, clamped to the grid."""
    cells = 1 << grid_of(a, b, width)[3]
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
    monkeypatch.setattr(ep, "_propose_cell", lambda *args: proposed.append(j) or j)
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
    j = index(1 << grid_of(a, b, width)[3])
    monkeypatch.setattr(ep, "_propose_cell", lambda *args: j)
    assert grid_cell(ONE_ROOT, a, b, width) is None
    expected = ref.isolate_smallest_root(ONE_ROOT, a, b, width)
    assert ps._isolate_smallest_root(ONE_ROOT, a, b, width) == expected
    assert isolate_root(ONE_ROOT, IntervalQ(a, b), width) == ref.isolate_root(
        ONE_ROOT, IntervalQ(a, b), width)


def test_coefficients_beyond_float_range_now_jump():
    p = from_roots([F(13, 10)], scale=F(10**400))
    a, b, width = F(1), F(2), F(1, 10**6)
    expected, _ = ref.isolate_smallest_root(p, a, b, width)
    assert grid_cell(p, a, b, width) == (expected.lo, expected.hi)


def test_every_default_grid_probe_takes_the_jump(monkeypatch):
    """No isolation of a default sweep probe falls back to count bisection:
    every grid search finds its cell.  A right probe searches the whole
    grid once; a left probe searches the sup-at-x quotient's whole grid,
    then the sup-at-5/3 quotient's grid below that cell only where it is
    positive at the cell's lower end: 30 of the 100 default t."""
    searches = []
    real = ep._GridSearch.cell

    def recording(search, j_lo, f_lo, j_hi, f_hi):
        searches.append(("whole" if (j_lo, j_hi) == (0, search.cells) else "below",
                         real(search, j_lo, f_lo, j_hi, f_hi)))
        return searches[-1][1]

    monkeypatch.setattr(ep._GridSearch, "cell", recording)
    monkeypatch.setattr(ps, "_smallest_root_cell", None)  # the fallback is never called
    t_grid = ps.default_config("right").t_grid
    # right_threshold refuses t = 1/2, the last default t: it has no interior root
    right = [ps.right_threshold(t) for t in t_grid[:-1]]
    assert len(searches) == sum(not th.degenerate for th in right) == 99
    assert [kind for kind, _ in searches] == ["whole"] * 99
    for t in t_grid:
        ps.left_threshold(t, LO)
    left = [kind for kind, _ in searches[99:]]
    assert (left.count("whole"), left.count("below")) == (len(t_grid), 30)
    assert None not in [cell for _, cell in searches]


def test_the_exact_layer_imports_no_numpy():
    # nor sympy: the monotonicity lemma is in-repo Fraction arithmetic, and
    # sympy serves only as a test oracle; the command line imports the lab,
    # and numpy with it, only to run the lab, so the exact commands load
    # neither
    code = ("import sys; import pinchcert.exact_poly, pinchcert.pinching_bounds, "
            "pinchcert.param_search, pinchcert.shrinker_bridge, pinchcert.report_cli as rc; "
            "codes = [rc.main(argv) for argv in (['certify'], ['optimize', '--side', 'right'], "
            "['classify', '--min', '5/12', '--max', '5/12'])]; "
            "print(codes, [m for m in ('numpy', 'sympy') if m in sys.modules])")
    src = str(Path(ep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_default_grid_isolations_take_few_grid_evaluations(monkeypatch):
    """Illinois regula falsi finds each default probe's final cell in a few
    exact signs (the dyadic scan and sign bisection it replaced took 31 per
    right isolation and up to 22 per left branch).  The counts are the
    search's own values: the grid's two ends are read once, by the grid
    search, for the caller's facts and the search alike (on the right at
    most 7 and 625 in all before, ends included), and the sup-at-5/3
    quotient is searched only below the sup-at-x quotient's cell, where its
    root lies (200 left searches, at most 29 and 3361 in all, before).
    """
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
    for t in ps.default_config("right").t_grid[:-1]:  # all but t = 1/2, which is refused
        ps.right_threshold(t)
    right, evaluations[:] = list(evaluations), []
    for t in ps.default_config("left").t_grid:
        ps.left_threshold(t, LO)
    left = evaluations
    # each search took one value at least
    assert min(right) >= 1 and min(left) >= 1
    assert len(right) == 99 and max(right) <= 5 and sum(right) <= 625 - 2 * 99
    assert len(left) == 130 and max(left) <= 10 and sum(left) <= 836
