"""Deterministic sweeps over the free certificate parameters (w, t).

For the lower endpoint the certificate value at a probe x is

    phi(x) = 16 t (1-t) x (3x-4)(3x-5)(5x-9) + 5 (w-x)^2 M(x, w, t),

where M is the exact supremum of q(S)^2 x / S over S in [5/3, x].  The
supremum sits at S = 5/3 or at S = x, so phi is the larger of two
polynomial "branches"; the threshold (the largest x below which phi is
negative) is therefore the smaller first root of the two, which exact
signs enclose and Sturm certificates prove.  phi, its weight and its
branches live in :mod:`pinchcert.pinching_bounds`.

For the upper endpoint the certificate is a single cubic, so its root is
isolated directly.  θ2(1/2) = (6561/100)(9 - 5x) has its one root at the
domain's end 9/5, so :func:`right_threshold` refuses t = 1/2 and
:func:`optimize` a right t grid of 1/2 alone.

Left probes run at w = 5/3 alone, by an edge lemma (:func:`edge_lemma`):
at the domain edge phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2, and the weight q(5/3)
is bilinear in (t, w) and positive at the four corners of [0, 1/2] x
[5/3, 9/5], so at every w > 5/3 phi is positive at 5/3 and the threshold
degenerates to 5/3.  No claim rests on such a probe: :func:`left_threshold`
refuses it, and :func:`optimize` counts every such (t, w) pair as
degenerate by arithmetic, with no probe, cell or list of w values.

Sweep probes rest on a monotonicity lemma as well.  θ2 and the quotients
g = p / (x - 5/3) of both left branches are forms in t, and for t in
[0, 1/2] a form's x-derivative is a convex combination of its Bernstein
coefficients in t over [0, 1/2] (:meth:`pinchcert.exact_poly.Form.bernstein`;
Garloff 1986; Farouki 2012).  :func:`monotone_lemma` certifies on those
coefficients that ∂θ2/∂x < 0 and ∂g/∂x > 0 on [5/3, 9/5] x [0, 1/2], once
per side and process.  A monotone θ2(t) has a root in the domain exactly
when its end signs differ, and a branch is negative on (5/3, x) exactly
when its quotient is negative at x: so no probe builds a Sturm chain or
counts roots.  Above 5/3 phi is (x - 5/3) times the larger quotient, so a
left probe reads phi's end signs off the quotients' integer signs, and
only the winner computes phi's values.

Every probe, comparison and bisection step is exact rational or integer
arithmetic, with no float anywhere, so identical configurations produce
bit-identical results.

A sweep ranks its probes on bare enclosures: one cell function per side
(:func:`_left_cell`, :func:`_right_cell`) checks every fact an enclosure
rests on, given the lemma, and raises where the certified version would,
but builds no certificate.  A probe stays on its isolation grid's
integers: each form it searches is put on its grid once per request
(:func:`_grids`), and a probe at t reads the grid values of the form at t
off its prescaled integer columns, with no polynomial built.  The end
facts are the signs of the search's end values, read once; the second
left quotient is searched only below the first one's cell, where the lemma
puts its root; a cell is ``(lo_num, hi_num, den)`` on the grid's
denominator, cells rank by integer cross-multiplication (:func:`_outranks`),
and only the winner's cell becomes an :class:`IntervalQ` and its forms
polynomials.  :func:`left_threshold` and :func:`right_threshold` are the
same cell functions plus one certificate step (:func:`_certify`), whose
certificates prove the enclosure without the lemma.  Which claims prove an
enclosure is said in one place, the claim table :func:`_claims`: every
enclosure rests on ``sign-constant-negative`` claims, θ2(t) on
[enclosure.hi, 9/5] or each left quotient on [5/3, enclosure.lo], and none
counts roots.  :func:`enclosure_holds` binds the certificates to the rows
and :func:`certificate_labels` names them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import pinching_bounds as pb
from .exact_poly import (
    CLAIM_NEGATIVE,
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignClaimError,
    _GridSearch,
    # perfbench's tracer wraps _RootCounter.count through this module's name
    _RootCounter,
    _homogeneous,
    _horner,
    _sign_at_ratio,
    _smallest_root_cell,
    certify_sign_on_interval,
    # not called here: perfbench's tracer test reads count_roots through this module
    count_roots,
    one_root_certificate,
    rat,
    rat_str,
    sign_at,
)

if TYPE_CHECKING:
    from .exact_poly import SignCertificate

F = Fraction

DOMAIN_LO = pb.PINCH_DOMAIN.lo
DOMAIN_HI = pb.PINCH_DOMAIN.hi

#: the most refinement rounds a sweep takes; larger counts are refused
#: before any probe runs.  Each round adds up to four probes, whose t
#: denominators grow about 1.6 bits a round, so 64 rounds take tens of
#: milliseconds while an unbounded count never ends
MAX_REFINEMENT_ROUNDS = 64

#: the isolation width of sweeps, threshold calls and certify's isolations
#: where none is given
DEFAULT_ISOLATION_WIDTH = F(1, 10**6)

#: the narrowest isolation width a sweep or threshold call takes, checked
#: before any probe runs.  A report writes phi at the winner's ends, five
#: digits per digit of the width on the left (three on the right) plus t's,
#: and at t = 1/200 it passed Python's 4300-digit int-to-string limit below
#: 10^-850; 10^-600 keeps a third of that limit for t's digits and gives up
#: the widths between
MIN_ISOLATION_WIDTH = F(1, 10**600)


def _isolation_width(width) -> Fraction:
    """``width`` as a Fraction, refused unless positive and at least
    :data:`MIN_ISOLATION_WIDTH`: the one width check of sweeps and of
    :func:`left_threshold` and :func:`right_threshold`."""
    width = rat(width)
    # on integers: both denominators are positive
    if width.numerator <= 0:
        raise ValueError("width must be positive")
    if (width.numerator * MIN_ISOLATION_WIDTH.denominator
            < MIN_ISOLATION_WIDTH.numerator * width.denominator):
        raise ValueError("isolation_width must be at least MIN_ISOLATION_WIDTH = 1/10**600")
    return width


def _ascending(grid: Sequence[Fraction]) -> bool:
    """Whether ``grid`` ascends, ties allowed, decided in one pass by integer
    cross-multiplication (denominators are positive)."""
    return all(a.numerator * b.denominator <= b.numerator * a.denominator
               for a, b in zip(grid, grid[1:]))


@dataclass(frozen=True)
class SweepConfig:
    """Grids and control knobs of one deterministic sweep."""

    t_grid: tuple[Fraction, ...]
    w_grid: tuple[Fraction, ...]
    refinement_rounds: int = 0
    isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH

    def __post_init__(self):
        t_grid = tuple(rat(t) for t in self.t_grid)
        w_grid = tuple(rat(w) for w in self.w_grid)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "w_grid", w_grid)
        if not t_grid or not w_grid:
            raise ValueError("grids must be nonempty")
        if not (_ascending(t_grid) and _ascending(w_grid)):
            raise ValueError("grids must be sorted ascending")
        # each grid ascends, so its first and last entries bound it
        t_lo, t_hi = t_grid[0], t_grid[-1]
        if not (t_lo.numerator > 0 and 2 * t_hi.numerator <= t_hi.denominator):
            raise ValueError("t grid must lie in (0, 1/2]")
        if not _ascending((DOMAIN_LO, w_grid[0], w_grid[-1], DOMAIN_HI)):
            raise ValueError("w grid must lie in [5/3, 9/5]")
        if type(self.refinement_rounds) is not int:
            raise ValueError(f"refinement_rounds must be an int, got {self.refinement_rounds!r}")
        if not 0 <= self.refinement_rounds <= MAX_REFINEMENT_ROUNDS:
            raise ValueError(f"refinement_rounds must lie in 0..{MAX_REFINEMENT_ROUNDS}, "
                             f"got {self.refinement_rounds}")
        object.__setattr__(self, "isolation_width", _isolation_width(self.isolation_width))

    def to_json(self) -> dict:
        return {
            "t_grid": [rat_str(t) for t in self.t_grid],
            "w_grid": [rat_str(w) for w in self.w_grid],
            "refinement_rounds": self.refinement_rounds,
            "isolation_width": rat_str(self.isolation_width),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SweepConfig":
        """Inverse of :meth:`to_json`; refinement_rounds and isolation_width
        may be left out, and a config that is not an object, a key it does
        not write or a grid that is not a list is refused."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
        missing = [key for key in ("t_grid", "w_grid") if key not in data]
        if missing:
            raise ValueError(f"config is missing {', '.join(map(repr, missing))}")
        for key in ("t_grid", "w_grid"):
            if not isinstance(data[key], list):
                raise ValueError(f"config {key!r} must be a list, got {data[key]!r}")
        return cls(
            t_grid=tuple(rat(t) for t in data["t_grid"]),
            w_grid=tuple(rat(w) for w in data["w_grid"]),
            refinement_rounds=data.get("refinement_rounds", 0),
            isolation_width=rat(data.get("isolation_width", DEFAULT_ISOLATION_WIDTH)),
        )


def default_config(side: str) -> SweepConfig:
    """Default grids, t in {k/200} and w in {5/3 + k*(2/15)/100}, and two
    refinement rounds."""
    t_grid = tuple(F(k, 200) for k in range(1, 101))
    if side == "left":
        w_grid = tuple(DOMAIN_LO + F(k, 100) * F(2, 15) for k in range(101))
    elif side == "right":
        w_grid = (DOMAIN_HI,)  # the upper-endpoint argument fixes w = 9/5
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return SweepConfig(t_grid=t_grid, w_grid=w_grid, refinement_rounds=2)


@dataclass(frozen=True)
class ThresholdEnclosure:
    """Certified enclosure of one endpoint threshold at fixed parameters."""

    side: str
    t: Fraction
    w: Fraction
    enclosure: IntervalQ
    certificate: SignCertificate
    # always false for a certified enclosure (the right side refuses t = 1/2);
    # reports write it and perfbench reads it
    degenerate: bool
    support: tuple[SignCertificate, ...] = ()
    phi_lo: Fraction | None = None
    phi_hi: Fraction | None = None

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "t": rat_str(self.t),
            "w": rat_str(self.w),
            "enclosure": self.enclosure.to_json(),
            "degenerate": self.degenerate,
            "certificate": self.certificate.to_json(),
            "support": [c.to_json() for c in self.support],
            "phi_lo": rat_str(self.phi_lo) if self.phi_lo is not None else None,
            "phi_hi": rat_str(self.phi_hi) if self.phi_hi is not None else None,
        }


def edge_weight(t, w) -> Polynomial:
    """The weight q(S) = c1 S + c0(x) at S = 5/3, as a linear polynomial in x:
    c1 (5/3) + c0 from :func:`pinching_bounds.weight_forms` at (t, w).

    Its value at x = 5/3 is q(5/3) = (1 + 15t/2)(w + 5/3) + 36/5 - 126t/5 - 10/3,
    whose square (times 5 (w - 5/3)^2) is phi(5/3).
    """
    c1, c0 = pb.weight_forms(w)
    return (c1 * DOMAIN_LO + c0).at(t)


@lru_cache(maxsize=None)
def edge_lemma() -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Certify q(5/3) > 0 on [0, 1/2] x [5/3, 9/5]; returns (t, w, q(5/3)) per corner.

    q(5/3) is bilinear in (t, w), so on the rectangle it is smallest at a
    corner, and positive corners make it positive everywhere.  Then
    phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2 > 0 for every w > 5/3: each such pair
    is degenerate, and a sweep counts it without probing.  Raises
    :class:`ExactPolyError` if a corner fails.  Proved once per process, on
    first use, as :func:`monotone_lemma` is.
    """
    corners = tuple(
        (t, w, edge_weight(t, w)(DOMAIN_LO))
        for t in (F(0), F(1, 2)) for w in (DOMAIN_LO, DOMAIN_HI)
    )
    for t, w, q in corners:
        if q <= 0:
            raise ExactPolyError(f"edge lemma fails: q(5/3) = {q} at t = {t}, w = {w}")
    return corners


@lru_cache(maxsize=None)
def monotone_lemma(side: str) -> tuple[SignCertificate, ...]:
    """Certify that the forms a ``side`` probe specializes are monotone in x
    on [5/3, 9/5] x [0, 1/2]: θ2 decreasing on the right, both left
    quotients increasing on the left (see the module docstring).

    Returns the sign certificates on [5/3, 9/5] of each form's
    ``form.derivative().bernstein(1/2)``, form by form; raises
    :class:`ExactPolyError` naming the form that fails.  Proved once per
    side and process, on first use.
    """
    if side == "right":
        forms = [("theta2", pb.theta2_form(), "negative")]
    else:
        forms = [(f"{label} quotient", quotient, "positive")
                 for label, _, quotient in pb.left_branch_forms()]
    certificates = []
    for name, form, sign in forms:
        try:
            certificates += [certify_sign_on_interval(b, pb.PINCH_DOMAIN, sign)
                             for b in form.derivative().bernstein(F(1, 2))]
        except ExactPolyError as err:
            raise ExactPolyError(f"monotonicity lemma fails for the {name} form: {err}") from err
    return tuple(certificates)


#: [5/3, u]: each left quotient must be negative at u, where its isolation starts
_SLIVER = IntervalQ(DOMAIN_LO, DOMAIN_LO + (DOMAIN_HI - DOMAIN_LO) / 10**6)
#: the degenerate right cell [9/5, 9/5], a table row only, as ``(lo_num, hi_num, den)``
_TOP_ENDS = (9, 9, 5)
#: the ends of the two sides' isolation intervals, as reduced pairs
_U = (_SLIVER.hi.numerator, _SLIVER.hi.denominator)
_LO, _HI = (5, 3), (9, 5)


class _Cell(NamedTuple):
    """A probe's bare enclosure, without certificates: what :func:`optimize`
    ranks (by :func:`_outranks`) and tabulates.  The enclosure is
    [lo_num / den, hi_num / den], its ends on one denominator and not
    reduced (a grid cell's are its grid's integers); :attr:`enclosure`
    builds the :class:`IntervalQ` when it is read."""

    side: str
    t: Fraction
    w: Fraction
    lo_num: int
    hi_num: int
    den: int
    degenerate: bool

    @property
    def enclosure(self) -> IntervalQ:
        return IntervalQ(F(self.lo_num, self.den), F(self.hi_num, self.den))


def _cell_ends(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """``(lo_num, hi_num, den)`` of the cell [lo, hi] that a Sturm-counted
    bisection found, on the smallest common denominator."""
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _at_t(side: str, t: Fraction) -> tuple[Polynomial, ...]:
    """The forms a live ``side`` enclosure rests on, specialized at t: θ2(t)
    on the right, the quotients of :func:`pinching_bounds.left_branch_forms`,
    in that order, on the left."""
    if side == "right":
        return (pb.theta2_form().at(t),)
    return tuple(quotient.at(t) for _, _, quotient in pb.left_branch_forms())


def _isolate_smallest_root(
    p: Polynomial, a: Fraction, b: Fraction, width: Fraction
) -> tuple[IntervalQ, SignCertificate]:
    """Enclose the smallest root of p in (a, b), with its exactly-one-root
    certificate; requires p(a) != 0 != p(b).  No probe calls this
    Sturm-counted isolation; perfbench's tracer wraps it by name, and the
    frozen references in the tests call it."""
    count = _RootCounter(p).count(a, b)
    if count < 1:
        raise ValueError("no root to isolate")
    lo, hi = _smallest_root_cell(p, a, b, width, one_root=count == 1)
    # the cell holds one root, so only an even-multiplicity touch fails
    if sign_at(p, lo) * sign_at(p, hi) >= 0:
        raise ExactPolyError(
            "branch root has even multiplicity; no sign-change enclosure exists"
        )
    enclosure = IntervalQ(lo, hi)
    return enclosure, one_root_certificate(p, enclosure)


def _grids(side: str, width: Fraction) -> tuple[Callable[[int, int], _GridSearch], ...]:
    """The grid searches at t of a ``side`` probe's forms, in :func:`_at_t`'s
    order (:meth:`exact_poly.Form.on_grid`): θ2 on the domain at width, each
    left quotient on (u, 9/5) at width / 2.  Built once per request."""
    if side == "right":
        return (pb.theta2_form().on_grid(_LO, _HI, (width.numerator, width.denominator)),)
    half = (width.numerator, 2 * width.denominator)
    return tuple(quotient.on_grid(_U, _HI, half) for _, _, quotient in pb.left_branch_forms())


def _left_cell(t: Fraction, width: Fraction, grids: Sequence[Callable]) -> _Cell:
    """The bare enclosure at (t, 5/3), every fact it rests on checked, given
    the monotonicity lemma; ``grids`` are the left :func:`_grids` at width.

    Each branch p vanishes at 5/3, and its quotient g = p / (x - 5/3) has
    p's sign above 5/3 and increases in x (:func:`monotone_lemma`).  So each
    g must be negative at u (then p < 0 on (5/3, u]; else
    :class:`SignClaimError`) and positive at 9/5, read once as the ends of
    its grid search at t, and its one root there, p's smallest, lies in one
    grid cell, which regula falsi finds in a few signs.  phi is the larger
    branch, so its threshold is the earlier first root, a tie going to
    sup-at-x, whose cell j is searched first; the increasing sup-at-5/3
    quotient has its root above j's lower end where it is negative there,
    so cell j is the enclosure, and is searched over [0, j] where it is
    positive.  A zero value or a failed search takes the Sturm-counted path
    (:func:`exact_poly._smallest_root_cell`) on the quotients at t, the
    lower cell kept.  As phi is (x - 5/3) times the larger quotient, every
    quotient must be negative at the enclosure's lower end and one positive
    at its upper end.  Raises exactly where :func:`left_threshold` raises.
    """
    searches = []
    for (label, _, quotient), grid in zip(pb.left_branch_forms(), grids):
        search = grid(t.numerator, t.denominator)
        if search.f_lo >= 0:
            u = _SLIVER.hi
            raise SignClaimError(
                f"claimed sign-constant-negative on [{_SLIVER.lo}, {u}] but the {label} "
                f"quotient at t = {t} is {quotient.at(t)(u)} at {u}", u)
        if search.f_hi <= 0:
            raise ExactPolyError(f"the {label} quotient at t = {t} is "
                                 f"{quotient.at(t)(DOMAIN_HI)} at {DOMAIN_HI}, not positive")
        searches.append(search)
    first, second = searches
    ends = None
    j = first.cell(0, first.f_lo, first.cells, first.f_hi)
    if j is not None:
        v = second.value(j)  # the sup-at-5/3 quotient at cell j's lower end
        if v < 0:  # its root lies above: cell j is the enclosure
            ends = first.ends(j)
        elif v > 0:  # its root lies below
            k = second.cell(0, second.f_lo, j, v)
            ends = None if k is None else second.ends(k)
    if ends is None:
        quotients = _at_t("left", t)
        # min keeps the first of equal cells, so a tie goes to sup-at-x
        ends = _cell_ends(*min(_smallest_root_cell(g, _SLIVER.hi, DOMAIN_HI, width / 2,
                                                   one_root=True) for g in quotients))
        reads = [partial(_sign_at_ratio, g, b=ends[2]) for g in quotients]
    else:  # on the grid's denominator: each value is one Horner pass
        reads = [partial(_horner, s.scaled) for s in searches]
    lo, hi, den = ends
    if not (all(read(lo) < 0 for read in reads) and any(read(hi) > 0 for read in reads)):
        raise ExactPolyError(
            f"threshold enclosure failed the exact endpoint check at t = {t}: "
            f"phi is not negative at {F(lo, den)} and positive at {F(hi, den)}"
        )
    return _Cell("left", t, DOMAIN_LO, lo, hi, den, False)


def left_threshold(t, w, width=DEFAULT_ISOLATION_WIDTH) -> ThresholdEnclosure:
    """Certified enclosure of the lower-endpoint threshold at parameters (t, w).

    The threshold is the largest x such that the certificate stays negative
    on (5/3, x); pinching below it forces S to sit at the lower endpoint.
    w must be 5/3, else :class:`ValueError` naming it: at w > 5/3 the
    certificate is positive at the domain edge (:func:`edge_lemma`).  w
    stays a parameter so that a call ``left_threshold(t, 5/3)`` is never
    read as a width.  This is :func:`_left_cell` with its certificates
    (:func:`_claims`): each quotient negative on exactly [5/3,
    enclosure.lo], sup-at-x first, which proves phi < 0 on (5/3,
    enclosure.lo] without the monotonicity lemma, else
    :class:`SignClaimError`; phi(enclosure.hi) > 0 shows it is tight.
    """
    t, w = rat(t), rat(w)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if w != DOMAIN_LO:
        raise ValueError(f"a left probe runs at w = 5/3 alone, got w = {rat_str(w)}")
    width = _isolation_width(width)
    return _certify(_left_cell(t, width, _grids("left", width)))


def _right_cell(t: Fraction, width: Fraction, grids: Sequence[Callable]) -> _Cell:
    """The bare enclosure of θ2(t)'s root in the domain, every fact it rests
    on checked given the monotonicity lemma; ``grids`` are the right
    :func:`_grids` at width.

    θ2(t) decreases in x (:func:`monotone_lemma`), so it has one root in
    (5/3, 9/5) when its signs at the domain's ends, read once as the ends
    of its grid search at t, are strictly opposite (all t but 1/2), and
    none otherwise: the degenerate cell [9/5, 9/5], ranked last and never
    certified.  The root's cell is the grid's, or, when the search fails,
    the Sturm-counted bisection's on θ2(t).
    """
    grid, = grids
    search = grid(t.numerator, t.denominator)
    if not search.f_lo or not search.f_hi or (search.f_lo > 0) == (search.f_hi > 0):
        return _Cell("right", t, DOMAIN_HI, *_TOP_ENDS, True)
    # the ends are no roots and of opposite sign: the one root is of odd
    # multiplicity, and bisection keeps the half that holds it
    j = search.cell(0, search.f_lo, search.cells, search.f_hi)
    ends = (_cell_ends(*_smallest_root_cell(_at_t("right", t)[0], DOMAIN_LO, DOMAIN_HI, width))
            if j is None else search.ends(j))
    return _Cell("right", t, DOMAIN_HI, *ends, False)


def right_threshold(t, width=DEFAULT_ISOLATION_WIDTH) -> ThresholdEnclosure:
    """Certified enclosure of the upper-endpoint threshold at parameter t.

    Encloses the unique root of the upper-endpoint cubic in [5/3, 9/5];
    pinching above the enclosure forces S to sit at the upper endpoint.
    This is :func:`_right_cell` with its certificate (:func:`_claims`):
    θ2(t) negative on exactly [enclosure.hi, 9/5], its positive value at
    enclosure.lo showing the enclosure is tight.  t = 1/2 is refused with
    :class:`ValueError`: θ2(1/2)'s one root is the domain's end 9/5, so no
    interior root exists to enclose.
    """
    t = rat(t)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if 2 * t.numerator == t.denominator:
        raise ValueError("right_threshold refuses t = 1/2: theta2(1/2)'s one root is 9/5")
    width = _isolation_width(width)
    return _certify(_right_cell(t, width, _grids("right", width)))


def _claims(th: ThresholdEnclosure | _Cell, polys: Sequence[Polynomial] = (),
            enclosure: IntervalQ | None = None) -> list[tuple[str, Polynomial, str, IntervalQ]]:
    """``(label, polynomial, claim, interval)`` of each certificate that
    proves ``th``, the main one first: the one place that says which claims
    prove which enclosure, for :func:`_certify`, :func:`enclosure_holds` and
    :func:`certificate_labels`.  The rows follow from th's side, t and
    enclosure alone; ``polys`` (a certificate's own) spare specializing the
    forms at t (:func:`_at_t`), and ``enclosure`` building th's again.

    - right: θ2(t) ``sign-constant-negative`` on [enclosure.hi, 9/5];
    - left: each quotient at t, in :func:`_at_t`'s order,
      ``sign-constant-negative`` on [5/3, enclosure.lo].
    """
    polys = polys or _at_t(th.side, th.t)
    enclosure = enclosure or th.enclosure
    if th.side == "right":
        return [("theta2-negative-above-enclosure", polys[0], CLAIM_NEGATIVE,
                 IntervalQ(enclosure.hi, DOMAIN_HI))]
    below = IntervalQ(DOMAIN_LO, enclosure.lo)
    return [(f"{label}-quotient-negative", g, CLAIM_NEGATIVE, below)
            for (label, _, _), g in zip(pb.left_branch_forms(), polys)]


def _values(th: ThresholdEnclosure | _Cell, polys: Sequence[Polynomial],
            enclosure: IntervalQ) -> tuple[Fraction, Fraction]:
    """The values an enclosure stores at the ends of ``enclosure``, th's,
    from its claims' polynomials, one Fraction per end: θ2(t)'s on the
    right; phi's on the left, (x - 5/3) times the larger quotient, from the
    quotients' integer Horner values, the larger picked by one
    cross-multiplication."""
    ends = (enclosure.lo, enclosure.hi)
    if th.side == "right":
        return tuple(polys[0](x) for x in ends)
    values = []
    for x in ends:
        a, b = x.numerator, x.denominator
        # g(a/b) = _homogeneous(ints, a, b) / (den * b^n) for each quotient g
        (n1, d1), (n2, d2) = ((_homogeneous(ints, a, b), den * b ** (len(ints) - 1))
                              for ints, den in (g.integer_form() for g in polys))
        n, d = (n1, d1) if n1 * d2 >= n2 * d1 else (n2, d2)
        # x - 5/3 = (3a - 5b) / 3b
        values.append(F((3 * a - 5 * b) * n, 3 * b * d))
    return tuple(values)


def _certify(cell: _Cell) -> ThresholdEnclosure:
    """The certified enclosure of ``cell``: one
    :func:`exact_poly.certify_sign_on_interval` per row of :func:`_claims`,
    the main one first, which raises :class:`SignClaimError` where it fails,
    and :func:`_values`.  The cell's :class:`IntervalQ` and its forms at t
    (:func:`_at_t`) are built here, once."""
    enclosure = cell.enclosure
    claims = _claims(cell, (), enclosure)
    certificates = [certify_sign_on_interval(p, interval, "negative")
                    for _, p, _, interval in claims]
    phi_lo, phi_hi = _values(cell, [p for _, p, _, _ in claims], enclosure)
    return ThresholdEnclosure(
        side=cell.side, t=cell.t, w=cell.w, enclosure=enclosure,
        certificate=certificates[0], degenerate=cell.degenerate,
        support=tuple(certificates[1:]), phi_lo=phi_lo, phi_hi=phi_hi,
    )


def replay_threshold(th: ThresholdEnclosure) -> bool:
    """Re-derive every certified fact backing a threshold enclosure: its
    certificates' replays and :func:`enclosure_holds`."""
    return all(c.replay() for c in (th.certificate, *th.support)) and enclosure_holds(th)


def enclosure_holds(th: ThresholdEnclosure) -> bool:
    """The facts of a threshold enclosure beyond its certificates' replays.

    Its shape: w = 9/5 on the right and w = 5/3 on the left, with the
    enclosure in the domain.  Its stored values, which :func:`_values`
    recomputes: θ2(t) positive at enclosure.lo and negative at enclosure.hi
    on the right, phi negative at enclosure.lo and positive at enclosure.hi
    on the left.  Its certificate and support: exactly the rows of
    :func:`_claims`, in order, as (polynomial, claim, interval).  An unknown
    side, a t outside (0, 1/2] or a degenerate enclosure holds nothing.
    """
    if th.side not in ("left", "right") or not 0 < th.t <= F(1, 2) or th.degenerate:
        return False
    lo, hi = th.enclosure.lo, th.enclosure.hi
    right = th.side == "right"
    if not (th.w == (DOMAIN_HI if right else DOMAIN_LO) and DOMAIN_LO <= lo and hi <= DOMAIN_HI):
        return False
    claims = _claims(th)
    phi_lo, phi_hi = values = _values(th, [p for _, p, _, _ in claims], th.enclosure)
    signs = phi_lo > 0 > phi_hi if right else phi_lo < 0 < phi_hi
    return (signs and (th.phi_lo, th.phi_hi) == values
            and [(c.polynomial, c.claim, c.interval) for c in (th.certificate, *th.support)]
            == [(p, claim, interval) for _, p, claim, interval in claims])


def certificate_labels(th: ThresholdEnclosure) -> list[str]:
    """The label of each certificate of ``th``, the main one first: the
    labels of its :func:`_claims` rows, each naming its polynomial and
    claim, so that no two are equal.  The rows are read on the
    certificates' own polynomials, so no form is specialized; whether those
    are the table's is :func:`enclosure_holds`' check."""
    polys = tuple(c.polynomial for c in (th.certificate, *th.support))
    return [label for label, _, _, _ in _claims(th, polys)]


@dataclass(frozen=True)
class Optimum:
    """Best certified threshold found by a sweep, with its full audit row set.

    :meth:`to_json` leaves out ``certificate``, which is
    ``best.certificate``, and ``table``, whose rows a report writes once,
    as the text of its sweep scan.  A row is ``(t, w, lo_num, hi_num, den,
    degenerate)`` for the live probe at (t, w) with enclosure
    [lo_num / den, hi_num / den], its ends on one denominator and not
    reduced.
    """

    side: str
    best_t: Fraction
    best_w: Fraction
    threshold: IntervalQ
    certificate: SignCertificate
    best: ThresholdEnclosure
    table: tuple[tuple[Fraction, Fraction, int, int, int, bool], ...]
    degenerate_count: int

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "best_t": rat_str(self.best_t),
            "best_w": rat_str(self.best_w),
            "threshold": self.threshold.to_json(),
            "best": self.best.to_json(),
            "degenerate_count": self.degenerate_count,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _outranks(side: str, a: _Cell, b: _Cell) -> bool:
    """Whether cell ``a`` ranks strictly before cell ``b``, both at the
    side's one live w: the stronger threshold first, then the smaller t.

    The usable constant of a left enclosure is its lower end (larger is
    stronger, then the larger upper end); of a right enclosure its upper
    end (smaller is stronger, then the smaller lower end).  Each criterion
    is one integer cross-multiplication, a pair (x, y) that puts a first
    exactly when x < y, so cells on different denominators, such as a
    fallback's or a degenerate one's, rank exactly; the next criterion is
    read only on a tie.
    """
    if side == "left":
        x, y = b.lo_num * a.den, a.lo_num * b.den
        if x == y:
            x, y = b.hi_num * a.den, a.hi_num * b.den
    else:
        x, y = a.hi_num * b.den, b.hi_num * a.den
        if x == y:
            x, y = a.lo_num * b.den, b.lo_num * a.den
    if x == y:
        x, y = a.t.numerator * b.t.denominator, b.t.numerator * a.t.denominator
    return x < y


def _distinct(grid: Sequence[Fraction]) -> list[Fraction]:
    """A sorted grid without its repeats, compared as reduced (numerator,
    denominator) pairs: no Fraction comparison and no hashing."""
    out, last = [], None
    for v in grid:
        pair = (v.numerator, v.denominator)
        if pair != last:
            out.append(v)
            last = pair
    return out


def _third(t: Fraction, u: Fraction) -> Fraction:
    """The trisection point (2t + u) / 3 of the gap between t = p/q and
    u = r/s, one Fraction from the integers: (2ps + rq) / (3qs)."""
    p, q, r, s = t.numerator, t.denominator, u.numerator, u.denominator
    return F(2 * p * s + r * q, 3 * q * s)


def optimize(side: str, config: SweepConfig) -> Optimum:
    """Grid sweep over t plus exact trisection refinement around the incumbent.

    Deterministic: probes are exact rationals, results are compared exactly,
    and ties break toward smaller t.  The monotonicity lemma and, on the
    left, the edge lemma are proved first.  Only the side's one live w is
    probed: 9/5 on the right, where a w grid holding any other w, or a t
    grid of 1/2 alone, whose probe is degenerate, is refused, and 5/3 on
    the left, where a w grid without it is refused; every other
    left (t, w) pair, the grid's and the refinement's, is degenerate by the
    edge lemma and counted, not probed.  Probes, one per distinct t, share
    the request's :func:`_grids` and are ranked on their bare cells by
    :func:`_outranks`, kept in one list in t order.  Each refinement round
    probes the trisection points of the incumbent's neighbouring gaps,
    nearest first and below before above, and splices their cells in next
    to it.  The winner alone is certified, from its own cell, by
    :func:`_certify`; the table's rows hold the cells' integers.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    grid = config.w_grid
    if side == "right":
        if any(w != DOMAIN_HI for w in grid):
            raise ValueError("a right sweep probes w = 9/5 alone, got w_grid "
                             f"[{', '.join(map(rat_str, grid))}]")
        t = config.t_grid[0]  # the grid ascends to 1/2 or below
        if 2 * t.numerator == t.denominator:
            raise ValueError("a right sweep refuses a t grid of 1/2 alone: "
                             "theta2(1/2)'s one root is 9/5")
    else:
        if grid[0] != DOMAIN_LO:  # the grid ascends from 5/3 or above
            raise ValueError("a left sweep probes w = 5/3, which w_grid "
                             f"[{', '.join(map(rat_str, grid))}] lacks")
        edge_lemma()
    monotone_lemma(side)
    width = config.isolation_width
    ts = _distinct(config.t_grid)
    n_w = len(_distinct(grid))
    # the grid's dead pairs, then per round the two w trisection points
    # above the incumbent's w, 5/3
    dead = len(ts) * (n_w - 1) + config.refinement_rounds * 2 * (n_w > 1)
    probe = partial(_left_cell if side == "left" else _right_cell, width=width,
                    grids=_grids(side, width))
    cells = [probe(t) for t in ts]
    i = 0
    for j in range(1, len(cells)):
        if _outranks(side, cells[j], cells[i]):
            i = j
    # a trisection point lies strictly inside a gap of the t values
    # probed, so every refinement probe is of a t new to the sweep
    for _ in range(config.refinement_rounds):
        t = cells[i].t
        below, above = [], []
        if i > 0:
            u = cells[i - 1].t
            near = probe(_third(t, u))  # each side's nearer point first
            below = [probe(_third(u, t)), near]
        if i + 1 < len(cells):
            u = cells[i + 1].t
            above = [probe(_third(t, u)), probe(_third(u, t))]
        cells[i:i + 1] = [*below, cells[i], *above]
        top = i + len(below)
        for j in range(i, top + 1 + len(above)):
            if _outranks(side, cells[j], cells[top]):
                top = j
        i = top
    best = cells[i]

    # only the winner is certified, from the cell its probe found
    threshold = _certify(best)
    return Optimum(
        side=side,
        best_t=best.t,
        best_w=best.w,
        threshold=threshold.enclosure,
        certificate=threshold.certificate,
        best=threshold,
        table=tuple((c.t, c.w, c.lo_num, c.hi_num, c.den, c.degenerate) for c in cells),
        degenerate_count=dead + sum(c.degenerate for c in cells),
    )
