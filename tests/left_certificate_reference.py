"""Frozen copies of the endpoint-certificate builders that expanded per call.

``theta2``, ``left_branch_polynomials``, ``edge_weight`` and
``left_certificate_value`` below are verbatim copies of the builders that
rebuilt every polynomial by ``Fraction`` convolution for each t (and, on
the left, for each w), before they became specializations of forms in t
built once.  The one edit: the weight coefficients and the weight
supremum come from the frozen Fraction copies of ``phi_reference`` rather
than from ``pinching_bounds``.  They are kept as a test oracle: the
specializations must give the same polynomials coefficient for
coefficient.  Do not edit them to track the library; nothing in ``src``
imports this.
"""

from fractions import Fraction

import phi_reference as phi_ref
from pinchcert import pinching_bounds as pb
from pinchcert.exact_poly import IntervalQ, Polynomial, rat

F = Fraction

_X = Polynomial.x()

DOMAIN_LO = pb.PINCH_DOMAIN.lo
DOMAIN_HI = pb.PINCH_DOMAIN.hi


def theta2(t) -> Polynomial:
    """Cubic certificate for the upper pinching endpoint, parameter t in (0, 1/2].

    40t(2t-1) x(3x-4)(3x-5) + ((9/5)t + 36/5)^2 (9 - 5x); for t < 1/2 it is
    strictly decreasing on the pinching domain with one sign change, and its
    root is the threshold above which the upper-endpoint rigidity holds.
    """
    t = rat(t)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    first = (40 * t * (2 * t - 1)) * _X * (3 * _X - 4) * (3 * _X - 5)
    amp = (F(9, 5) * t + F(36, 5)) ** 2
    second = amp * Polynomial.linear(9, -5)
    return first + second


def left_branch_polynomials(w, t) -> list[tuple[str, Polynomial, IntervalQ]]:
    """Polynomial branches of the lower-endpoint certificate.

    Returns (label, polynomial, applicability interval) triples; the
    certificate value at x is the max of the applicable branch values.
    The two endpoint branches (supremum at S = 5/3 and at S = x) cover the
    whole domain; the interior critical branch exists only where the
    stationary point c0(x)/c1 falls inside [5/3, x].
    """
    w, t = rat(w), rat(t)
    c1, k0 = phi_ref.weight_linear_coeffs(0, w, t)  # c0(x) = k0 - 2x
    common = (16 * t * (1 - t)) * _X * (3 * _X - 4) * (3 * _X - 5) * (5 * _X - 9)
    w_minus_x = Polynomial.linear(w, -1)
    q_at_x = Polynomial.linear(k0, c1 - 2)
    q_at_53 = edge_weight(t, w)
    c0_poly = Polynomial.linear(k0, -2)

    branches = [
        ("sup-at-x", common + 5 * w_minus_x * w_minus_x * q_at_x * q_at_x,
         IntervalQ(DOMAIN_LO, DOMAIN_HI)),
        ("sup-at-5/3", common + 3 * _X * w_minus_x * w_minus_x * q_at_53 * q_at_53,
         IntervalQ(DOMAIN_LO, DOMAIN_HI)),
    ]
    # critical branch applicability: 5/3 <= (k0 - 2x)/c1 <= x
    x_upper = (k0 - F(5, 3) * c1) / 2
    x_lower = k0 / (2 + c1)
    seg_lo = max(DOMAIN_LO, x_lower)
    seg_hi = min(DOMAIN_HI, x_upper)
    if seg_lo <= seg_hi:
        p3 = common + 20 * c1 * _X * c0_poly * w_minus_x * w_minus_x
        branches.append(("sup-at-critical", p3, IntervalQ(seg_lo, seg_hi)))
    return branches


def edge_weight(t, w) -> Polynomial:
    """The weight q(S) = c1 S + c0(x) at S = 5/3, as a linear polynomial in x.

    Its value at x = 5/3 is q(5/3) = (1 + 15t/2)(w + 5/3) + 36/5 - 126t/5 - 10/3,
    whose square (times 5 (w - 5/3)^2) is phi(5/3).
    """
    c1, k0 = phi_ref.weight_linear_coeffs(0, w, t)  # c0(x) = k0 - 2x
    return Polynomial.linear(F(5, 3) * c1 + k0, -2)


def left_certificate_value(t, w, x) -> Fraction:
    """The lower-endpoint certificate value phi(x); max over branch values."""
    x, w, t = rat(x), rat(w), rat(t)
    common = 16 * t * (1 - t) * x * (3 * x - 4) * (3 * x - 5) * (5 * x - 9)
    return common + 5 * (w - x) ** 2 * phi_ref.weight_sup_over_s(x, w, t)
