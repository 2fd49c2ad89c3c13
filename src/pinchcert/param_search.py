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
isolated directly.

Left sweeps rest on an edge lemma.  At the domain edge the common term
vanishes and phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2, where the weight

    q(5/3) = (1 + 15t/2)(w + 5/3) + 36/5 - 126t/5 - 10/3

is bilinear in (t, w).  It is positive at the four corners of
[0, 1/2] x [5/3, 9/5], hence on the whole rectangle, so every probe with
w > 5/3 is degenerate with enclosure [5/3, 5/3].  :func:`optimize` checks
the corners once per process, before its first left sweep, and then counts
such probes: they rank and count as the degenerate probes they are, but no
polynomial, Sturm chain, certificate or per-pair key is built for them, and
only the smallest of the grid's dead pairs competes for the incumbent.  Only
w = 5/3 specializes the quotients.

Sweep probes rest on a monotonicity lemma as well.  θ2 and the quotients
g = p / (x - 5/3) of both left branches are forms in t.  For t in
[0, 1/2] a form's x-derivative is a convex combination of its Bernstein
coefficients in t over [0, 1/2]
(:meth:`pinchcert.exact_poly.Form.bernstein`).  So when each keeps a
strict sign on [5/3, 9/5], the derivative keeps it on the whole box
[5/3, 9/5] x [0, 1/2] (Garloff 1986; Farouki 2012).  :func:`monotone_lemma`
certifies this, ∂θ2/∂x < 0 and ∂g/∂x > 0, once per side and process, and
:func:`optimize` proves it before its first probe.  A monotone θ2(t) has a
root in the domain exactly when its end signs differ, and a branch is
negative on (5/3, x) exactly when its quotient is negative at x: so no
probe builds a Sturm chain or counts roots.  Above 5/3 phi is (x - 5/3)
times the larger quotient, so a left probe reads phi's end signs off the
quotients' integer signs, and only the winner computes phi's values.

Every probe, comparison and bisection step is exact rational or integer
arithmetic, with no float anywhere (a bisection's final cell is proposed
by exact regula falsi and confirmed by exact signs where a count has
found a single root, and found by Sturm-counted bisection otherwise);
identical configurations produce bit-identical results.  Each polynomial
builds its Sturm chain on first use and keeps it for every count and
certificate on it.

A sweep ranks its probes on bare enclosures: one cell function per side
(:func:`_left_cell`, :func:`_right_cell`) checks every fact an enclosure
rests on, given the lemma, and raises where the certified version would,
but builds no certificate.  :func:`left_threshold` and
:func:`right_threshold` are the same cell functions plus one certificate
step per side (:func:`_left_certificates`, :func:`_right_certificates`),
whose certificates prove the enclosure without the lemma; :func:`optimize`
keeps the winner's cell and runs only the certificate step on it.  Every
certificate here comes from :mod:`pinchcert.exact_poly`'s ``count_roots``,
``certify_sign_on_interval`` or ``one_root_certificate``, which decide the
labels.  A left enclosure rests on its two quotients alone (see
:func:`left_threshold`), so the left path counts no roots; replay binds its
support to the quotients at its t (:func:`_left_support_holds`).
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import pinching_bounds as pb
from .exact_poly import (
    CLAIM_NEGATIVE,
    CLAIM_NO_ROOT,
    CLAIM_ONE_ROOT,
    CLAIM_POSITIVE,
    ExactPolyError,
    IntervalQ,
    Polynomial,
    SignClaimError,
    # perfbench's tracer wraps _RootCounter.count through this module's name
    _RootCounter,
    _signed_nudged_ends,
    _smallest_root_cell,
    certify_sign_on_interval,
    count_roots,
    nudged_ends,
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


@dataclass(frozen=True)
class SweepConfig:
    """Grids and control knobs of one deterministic sweep."""

    t_grid: tuple[Fraction, ...]
    w_grid: tuple[Fraction, ...]
    refinement_rounds: int = 0
    isolation_width: Fraction = F(1, 10**6)

    def __post_init__(self):
        t_grid = tuple(rat(t) for t in self.t_grid)
        w_grid = tuple(rat(w) for w in self.w_grid)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "w_grid", w_grid)
        object.__setattr__(self, "isolation_width", rat(self.isolation_width))
        if not t_grid or not w_grid:
            raise ValueError("grids must be nonempty")
        if list(t_grid) != sorted(t_grid) or list(w_grid) != sorted(w_grid):
            raise ValueError("grids must be sorted ascending")
        if not all(0 < t <= F(1, 2) for t in t_grid):
            raise ValueError("t grid must lie in (0, 1/2]")
        if not all(DOMAIN_LO <= w <= DOMAIN_HI for w in w_grid):
            raise ValueError("w grid must lie in [5/3, 9/5]")
        if type(self.refinement_rounds) is not int:
            raise ValueError(f"refinement_rounds must be an int, got {self.refinement_rounds!r}")
        if not 0 <= self.refinement_rounds <= MAX_REFINEMENT_ROUNDS:
            raise ValueError(f"refinement_rounds must lie in 0..{MAX_REFINEMENT_ROUNDS}, "
                             f"got {self.refinement_rounds}")
        if self.isolation_width <= 0:
            raise ValueError("isolation width must be positive")

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
            isolation_width=rat(data.get("isolation_width", F(1, 10**6))),
        )


def default_config(side: str, refinement_rounds: int = 2) -> SweepConfig:
    """Default grids: t in {k/200}, w in {5/3 + k*(2/15)/100}."""
    t_grid = tuple(F(k, 200) for k in range(1, 101))
    if side == "left":
        w_grid = tuple(DOMAIN_LO + F(k, 100) * F(2, 15) for k in range(101))
    elif side == "right":
        w_grid = (DOMAIN_HI,)  # the upper-endpoint argument fixes w = 9/5
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return SweepConfig(t_grid=t_grid, w_grid=w_grid, refinement_rounds=refinement_rounds)


@dataclass(frozen=True)
class ThresholdEnclosure:
    """Certified enclosure of one endpoint threshold at fixed parameters."""

    side: str
    t: Fraction
    w: Fraction
    enclosure: IntervalQ
    certificate: SignCertificate
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
    phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2 > 0 for every w > 5/3: each such probe
    is degenerate.  Raises :class:`ExactPolyError` if a corner fails.
    Proved once per process, on first use, as :func:`monotone_lemma` is.
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
#: the enclosure of every degenerate left probe
_EDGE = IntervalQ(DOMAIN_LO, DOMAIN_LO)


class _Cell(NamedTuple):
    """A probe's bare enclosure, without certificates: what :func:`optimize`
    ranks (by :func:`_strength_key`) and tabulates."""

    t: Fraction
    w: Fraction
    enclosure: IntervalQ
    degenerate: bool


def _isolate_smallest_root(
    p: Polynomial, a: Fraction, b: Fraction, width: Fraction
) -> tuple[IntervalQ, SignCertificate]:
    """Enclose the smallest root of p in (a, b), with its exactly-one-root
    certificate; requires p(a) != 0 != p(b).

    Probes no longer call this Sturm-counted isolation (the monotonicity
    lemma makes the count unnecessary); it stays for perfbench's tracer,
    which wraps it by name, and for the frozen references in the tests.
    """
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


def _left_cell(t: Fraction, width: Fraction) -> tuple[_Cell, list[tuple[IntervalQ, Polynomial]]]:
    """The bare enclosure at (t, 5/3), every fact it rests on checked, given
    the monotonicity lemma.

    Each branch p vanishes at 5/3, and its quotient g = p / (x - 5/3),
    specialized from its cached form (both from
    :func:`pinching_bounds.left_branch_forms`), has p's sign above 5/3
    and increases in x (:func:`monotone_lemma`).  So, per branch in order,
    g must be negative at u (then p < 0 on (5/3, u]; else
    :class:`SignClaimError`) and positive at 9/5, and the one root of g in
    (u, 9/5), which is p's smallest there, is isolated on g; g has no small
    values near u, unlike p, so regula falsi proposes the cell in a few
    signs.  phi is the larger branch, so its threshold is the earlier first
    root; above 5/3 phi is (x - 5/3) times the larger quotient, so every
    quotient must be negative at that cell's lower end and one positive at
    its upper end.
    No Sturm chain or value of phi is built.  Raises exactly where
    :func:`left_threshold` raises.

    Returns the cell and, per branch, its own enclosure and its quotient at t.
    """
    u = _SLIVER.hi
    branches = []
    for label, _, quotient in pb.left_branch_forms():
        g = quotient.at(t)
        if sign_at(g, u) >= 0:
            raise SignClaimError(
                f"claimed sign-constant-negative on [{_SLIVER.lo}, {u}] but the {label} "
                f"quotient at t = {t} is {g(u)} at {u}", u)
        if sign_at(g, DOMAIN_HI) <= 0:
            raise ExactPolyError(
                f"the {label} quotient at t = {t} is {g(DOMAIN_HI)} at {DOMAIN_HI}, not positive")
        cell = _smallest_root_cell(g, u, DOMAIN_HI, width / 2, one_root=True)
        branches.append((IntervalQ(*cell), g))
    # min keeps the first of equal keys, so a tie goes to sup-at-x
    enclosure = min((own for own, _ in branches), key=lambda c: (c.lo, c.hi))
    lo, hi = enclosure.lo, enclosure.hi
    if not (all(sign_at(g, lo) < 0 for _, g in branches)
            and any(sign_at(g, hi) > 0 for _, g in branches)):
        raise ExactPolyError(
            f"threshold enclosure failed the exact endpoint check at t = {t}: "
            f"phi is not negative at {lo} and positive at {hi}"
        )
    return _Cell(t, DOMAIN_LO, enclosure, False), branches


def _phi(x: Fraction, quotients: Sequence[Polynomial]) -> Fraction:
    """phi at x for w = 5/3: the larger branch, (x - 5/3) times its quotient at t."""
    return max((x - DOMAIN_LO) * g(x) for g in quotients)


def left_threshold(t, w, width=F(1, 10**6)) -> ThresholdEnclosure:
    """Certified enclosure of the lower-endpoint threshold at parameters (t, w).

    The threshold is the largest x such that the certificate stays negative
    on (5/3, x); pinching below it forces S to sit at the lower endpoint.
    For w > 5/3 (see :func:`edge_lemma`) the certificate is positive at the
    domain edge, and the degenerate enclosure [5/3, 5/3] is returned.  At
    w = 5/3 this is :func:`_left_cell` with its certificates: the
    exactly-one-root certificate of the winning branch's quotient on the
    enclosure, and as support, per branch, the negative certificate of its
    quotient on [5/3, x], x the lower end of its own enclosure.  A branch is
    its quotient times x - 5/3 > 0 there, so these prove the enclosure
    without the monotonicity lemma; a quotient that is not negative up to x
    raises :class:`SignClaimError`.
    """
    t, w, width = rat(t), rat(w), rat(width)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if not DOMAIN_LO <= w <= DOMAIN_HI:
        raise ValueError(f"w = {w} outside [5/3, 9/5]")
    if width <= 0:
        raise ValueError("width must be positive")

    if w > DOMAIN_LO:
        # phi(5/3) = 5 (w - 5/3)^2 q(5/3)^2 > 0 by the edge lemma, so it is
        # nonnegative at (and hence just above) the domain edge: no usable
        # region; a sign certificate for the linear weight factor q
        # witnesses the degeneracy cheaply.
        cert = certify_sign_on_interval(edge_weight(t, w), _EDGE, "positive")
        phi = pb.left_certificate_value(DOMAIN_LO, w, t)
        return ThresholdEnclosure(
            side="left", t=t, w=w, enclosure=_EDGE, certificate=cert,
            degenerate=True, phi_lo=phi, phi_hi=phi,
        )

    return _left_certificates(*_left_cell(t, width))


def _left_certificates(cell: _Cell,
                       branches: list[tuple[IntervalQ, Polynomial]]) -> ThresholdEnclosure:
    """:func:`left_threshold` at w = 5/3 from :func:`_left_cell`'s result:
    the enclosure with its certificates, which :func:`left_threshold`
    describes, and phi at its ends from the quotients (:func:`_phi`)."""
    # the first of equal enclosures wins, as in _left_cell's min
    winner = next(g for own, g in branches if own == cell.enclosure)
    support = tuple(certify_sign_on_interval(g, IntervalQ(DOMAIN_LO, own.lo), "negative")
                    for own, g in branches)
    quotients = [g for _, g in branches]
    return ThresholdEnclosure(
        side="left", t=cell.t, w=DOMAIN_LO, enclosure=cell.enclosure,
        certificate=one_root_certificate(winner, cell.enclosure),
        degenerate=False, support=support,
        phi_lo=_phi(cell.enclosure.lo, quotients), phi_hi=_phi(cell.enclosure.hi, quotients),
    )


def _right_cell(t: Fraction, width: Fraction) -> tuple[_Cell, Polynomial]:
    """The bare enclosure of θ2(t)'s root in the domain, every fact it rests
    on checked given the monotonicity lemma, and θ2(t).

    θ2(t), specialized from :func:`pinching_bounds.theta2_form`, decreases
    in x (:func:`monotone_lemma`), so it has one root on
    :func:`_counted_domain` when its end signs differ and none otherwise,
    which gives the degenerate cell [9/5, 9/5].  No Sturm chain is built and
    no root counted.  Raises exactly where :func:`right_threshold` raises.
    """
    p = pb.theta2_form().at(t)
    lo, hi, s_lo, s_hi = _signed_nudged_ends(p, pb.PINCH_DOMAIN)
    if s_lo == s_hi:
        return _Cell(t, DOMAIN_HI, IntervalQ(DOMAIN_HI, DOMAIN_HI), True), p
    # nudged ends are no roots, so the signs are strictly opposite: the one
    # root is of odd multiplicity, and bisection keeps the half that holds it
    cell = _smallest_root_cell(p, lo, hi, width, one_root=True)
    return _Cell(t, DOMAIN_HI, IntervalQ(*cell), False), p


def _counted_domain(p: Polynomial) -> IntervalQ:
    """The interval of ``count_roots(p, [5/3, 9/5])``'s certificate: the
    domain with its ends nudged off p's roots (:func:`exact_poly.nudged_ends`)."""
    return IntervalQ(*nudged_ends(p, pb.PINCH_DOMAIN))


def right_threshold(t, width=F(1, 10**6)) -> ThresholdEnclosure:
    """Certified enclosure of the upper-endpoint threshold at parameter t.

    Encloses the unique root of the upper-endpoint cubic in [5/3, 9/5];
    pinching above the enclosure forces S to sit at the upper endpoint.
    With no interior root (t = 1/2) the degenerate enclosure [9/5, 9/5] is
    returned together with the no-root certificate; at t = 1/2 the root of
    θ2(t) is 9/5 itself, so that certificate is on the domain with its upper
    end nudged off the root (:func:`_counted_domain`).  This is
    :func:`_right_cell` with its certificates: θ2(t)'s count on the domain,
    which must find as many roots as the cell (one, or none when
    degenerate; else :class:`ExactPolyError`), and its exactly-one-root
    certificate on the enclosure.
    """
    t, width = rat(t), rat(width)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if width <= 0:
        raise ValueError("width must be positive")
    return _right_certificates(*_right_cell(t, width))


def _right_certificates(cell: _Cell, p: Polynomial) -> ThresholdEnclosure:
    """:func:`right_threshold` from :func:`_right_cell`'s result: the
    enclosure with its certificates, which :func:`right_threshold`
    describes."""
    t = cell.t
    n, count_cert = count_roots(p, pb.PINCH_DOMAIN)
    if n != (not cell.degenerate):
        raise ExactPolyError(f"expected {int(not cell.degenerate)} root(s) of theta2({t}) "
                             f"in the domain by its end signs, found {n}")
    enclosure = cell.enclosure
    if cell.degenerate:
        return ThresholdEnclosure(
            side="right", t=t, w=DOMAIN_HI, enclosure=enclosure,
            certificate=count_cert, degenerate=True,
        )
    return ThresholdEnclosure(
        side="right", t=t, w=DOMAIN_HI, enclosure=enclosure,
        certificate=one_root_certificate(p, enclosure), degenerate=False,
        support=(count_cert,), phi_lo=p(enclosure.lo), phi_hi=p(enclosure.hi),
    )


def replay_threshold(th: ThresholdEnclosure) -> bool:
    """Re-derive every certified fact backing a threshold enclosure: its
    certificates' replays and :func:`enclosure_holds`."""
    if not th.certificate.replay():
        return False
    if not all(c.replay() for c in th.support):
        return False
    return enclosure_holds(th)


def enclosure_holds(th: ThresholdEnclosure) -> bool:
    """The facts of a threshold enclosure beyond its certificates' replays.

    A degenerate enclosure holds only the weakest claim of its side, with no
    support: on the right at w = 9/5, with θ2(t)'s no-root count on
    [5/3, 9/5], its ends nudged off θ2(t)'s roots (:func:`_counted_domain`),
    and no values; on the left at w in (5/3, 9/5], with the
    positive certificate of edge_weight(t, w) on [5/3, 5/3] and phi(5/3) > 0
    as both values.  A right enclosure at w = 9/5 must carry θ2(t)'s
    values at its ends, of opposite sign, an exactly-one-root certificate of
    θ2(t) on the enclosure, and as support one exactly-one-root count of
    θ2(t) on that nudged domain.  A left enclosure at w = 5/3 must carry an
    exactly-one-root certificate of one of the two branch quotients at t on
    the enclosure, phi's values at its ends, of opposite sign, and the
    support :func:`left_threshold` gives it (see :func:`_left_support_holds`).
    An unknown side or a t outside (0, 1/2] holds nothing.
    """
    if th.side not in ("left", "right") or not 0 < th.t <= F(1, 2):
        return False
    lo, hi = th.enclosure.lo, th.enclosure.hi
    cert = th.certificate
    if th.degenerate:
        if th.support:
            return False
        if th.side == "right":
            p = pb.theta2(th.t)
            return (lo == hi == th.w == DOMAIN_HI and cert.claim == CLAIM_NO_ROOT
                    and cert.polynomial == p and cert.interval == _counted_domain(p)
                    and th.phi_lo is None and th.phi_hi is None)
        if not (lo == hi == DOMAIN_LO < th.w <= DOMAIN_HI and cert.claim == CLAIM_POSITIVE
                and cert.interval == th.enclosure
                and cert.polynomial == edge_weight(th.t, th.w)):
            return False
        phi = pb.left_certificate_value(DOMAIN_LO, th.w, th.t)
        return th.phi_lo == th.phi_hi == phi > 0
    if cert.claim != CLAIM_ONE_ROOT or cert.interval != th.enclosure:
        return False
    if th.side == "right":
        p = pb.theta2(th.t)
        phi_lo, phi_hi = p(lo), p(hi)
        return (th.w == DOMAIN_HI and cert.polynomial == p and phi_lo > 0 > phi_hi
                and (phi_lo, phi_hi) == (th.phi_lo, th.phi_hi)
                and [(c.claim, c.polynomial, c.interval) for c in th.support]
                == [(CLAIM_ONE_ROOT, p, _counted_domain(p))])
    quotients = [quotient.at(th.t) for _, _, quotient in pb.left_branch_forms()]
    if th.w != DOMAIN_LO or cert.polynomial not in quotients:
        return False
    phi_lo, phi_hi = _phi(lo, quotients), _phi(hi, quotients)
    return (phi_lo < 0 < phi_hi and phi_lo == th.phi_lo and phi_hi == th.phi_hi
            and _left_support_holds(th, quotients))


def _left_support_holds(th: ThresholdEnclosure, quotients: list[Polynomial]) -> bool:
    """Whether a left enclosure's support shows phi < 0 on (5/3, enclosure.lo).

    phi is the larger branch and each branch is (x - 5/3) times its
    quotient, so each quotient must be negative on [5/3, x] with
    x >= enclosure.lo.  The support is one ``sign-constant-negative``
    certificate per branch of its quotient at t (``quotients``) on such an
    interval, in :func:`pinching_bounds.left_branch_forms` order.
    """
    return len(th.support) == len(quotients) and all(
        c.claim == CLAIM_NEGATIVE and c.polynomial == g and c.interval.lo == DOMAIN_LO
        and c.interval.hi >= th.enclosure.lo
        for c, g in zip(th.support, quotients))


@dataclass(frozen=True)
class Optimum:
    """Best certified threshold found by a sweep, with its full audit row set.

    :meth:`to_json` leaves out ``certificate``, which is
    ``best.certificate``, and ``table``, whose rows a report writes once,
    as the text of its sweep scan.
    """

    side: str
    best_t: Fraction
    best_w: Fraction
    threshold: IntervalQ
    certificate: SignCertificate
    best: ThresholdEnclosure
    table: tuple[tuple[Fraction, Fraction, Fraction, Fraction, bool], ...]
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


def _strength_key(side: str, th: ThresholdEnclosure | _Cell) -> tuple:
    """Sort key: stronger thresholds first, then smallest t, then smallest w.

    The usable constant of a left enclosure is its lower end (larger is
    stronger); of a right enclosure its upper end (smaller is stronger).
    """
    if side == "left":
        return (-th.enclosure.lo, -th.enclosure.hi, th.t, th.w)
    return (th.enclosure.hi, th.enclosure.lo, th.t, th.w)


def _trisect_candidates(values: Sequence[Fraction], incumbent: Fraction) -> list[Fraction]:
    """Trisection probes of the gaps next to the incumbent among ``values``,
    which are sorted and distinct and hold the incumbent."""
    i = bisect_left(values, incumbent)
    out = []
    if i > 0:
        gap = incumbent - values[i - 1]
        out.extend([incumbent - gap / 3, incumbent - 2 * gap / 3])
    if i + 1 < len(values):
        gap = values[i + 1] - incumbent
        out.extend([incumbent + gap / 3, incumbent + 2 * gap / 3])
    return out


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


def optimize(side: str, config: SweepConfig) -> Optimum:
    """Grid sweep plus exact trisection refinement around the incumbent.

    Deterministic: probes are exact rationals, results are compared exactly,
    and ties break toward smaller t then smaller w.  The incumbent is kept
    as probes arrive.  The monotonicity lemma (:func:`monotone_lemma`) is
    proved first.  Live probes are ranked on their bare cells
    (:func:`_left_cell`, :func:`_right_cell`), which check every fact the
    lemma leaves but build no certificate.  On the left, probes
    with w > 5/3 are dead (see :func:`edge_lemma`): they are counted, and
    ranked by their known enclosure [5/3, 5/3].  After the refinement the
    winner alone is certified: a live one from its own probe's cell, by the
    certificate step of :func:`left_threshold` or :func:`right_threshold`,
    a dead one by :func:`left_threshold`.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if side == "left":
        edge_lemma()
    monotone_lemma(side)
    width = config.isolation_width
    cell_at = _left_cell if side == "left" else _right_cell
    # every probe is of a pair new to the sweep, so live cells need no
    # lookup while probing and no Fraction is hashed
    live: list[_Cell] = []
    dead = 0
    # the incumbent's key, and what its probe found: the cell function's
    # result, or a dead pair's cell alone
    best_key = best = None

    def consider(found: tuple) -> None:
        nonlocal best_key, best
        key = _strength_key(side, found[0])
        if best_key is None or key < best_key:
            best_key, best = key, found

    def probe(t: Fraction, w: Fraction) -> None:
        nonlocal dead
        if side == "left" and w > DOMAIN_LO:
            dead += 1
            consider((_Cell(t, w, _EDGE, True),))
        else:
            found = cell_at(t, width)
            live.append(found[0])
            consider(found)

    # the probed t and w values, sorted and distinct: the grids plus every
    # refinement probe
    t_seen = _distinct(config.t_grid)
    w_seen = _distinct(config.w_grid) if side == "left" else [DOMAIN_HI]
    # only the smallest w can be live: 5/3 on the left, 9/5 on the right
    live_w = w_seen[:1] if side == "right" or w_seen[0] == DOMAIN_LO else []
    dead_w = w_seen[len(live_w):]
    for t in t_seen:
        for w in live_w:
            probe(t, w)
    if dead_w:
        # the grid's dead pairs, each (t, w) once, share the enclosure
        # [5/3, 5/3], so the smallest pair stands for all of them
        probe(t_seen[0], dead_w[0])
        dead += len(t_seen) * len(dead_w) - 1

    # a trisection point lies strictly inside a gap of the values seen, so
    # every refinement probe is a pair new to the sweep
    for _ in range(config.refinement_rounds):
        t_best, w_best = best[0].t, best[0].w
        for t_new in _trisect_candidates(t_seen, t_best):
            if 0 < t_new <= F(1, 2):
                insort(t_seen, t_new)
                probe(t_new, w_best)
        if side == "left":
            t_best, w_best = best[0].t, best[0].w
            for w_new in _trisect_candidates(w_seen, w_best):
                if DOMAIN_LO <= w_new <= DOMAIN_HI:
                    insort(w_seen, w_new)
                    probe(t_best, w_new)

    t_best, w_best = best[0].t, best[0].w
    # only the winner is certified, from the cell its probe found
    if side == "right":
        threshold = _right_certificates(*best)
    elif w_best > DOMAIN_LO:
        threshold = left_threshold(t_best, w_best, width)  # dead: no cell to reuse
    else:
        threshold = _left_certificates(*best)
    # the table in (t, w) order, without comparing Fractions: every live cell
    # has the side's one live w, and t_seen holds each live t once, in order
    by_t = {(cell.t.numerator, cell.t.denominator): cell for cell in live}
    rows = [(c.t, c.w, c.enclosure.lo, c.enclosure.hi, c.degenerate) for c in
            (by_t.get((t.numerator, t.denominator)) for t in t_seen) if c is not None]
    return Optimum(
        side=side,
        best_t=t_best,
        best_w=w_best,
        threshold=threshold.enclosure,
        certificate=threshold.certificate,
        best=threshold,
        table=tuple(rows),
        degenerate_count=dead + sum(cell.degenerate for cell in live),
    )
