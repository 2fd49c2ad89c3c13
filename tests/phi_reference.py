"""Frozen Fraction copies of the lower-endpoint certificate value formulas.

``weight_linear_coeffs``, ``weight_sup_over_s`` and ``left_certificate_value``
below are verbatim copies of the :mod:`pinchcert.pinching_bounds` functions
as they computed with ``Fraction`` operations throughout, before the weight
supremum compared its candidates on integers and phi was summed over one
integer denominator.  Each calls only the copies here, never the library.
They are kept as a test oracle: the library's versions, read from its
forms in (t, x), must return equal values.  ``left_certificate`` is a
verbatim copy of the library's domain-checked wrapper of
``left_certificate_value``, which no library code called when it left
:mod:`pinchcert.pinching_bounds`; here it wraps the copy above it.  Do not
edit them to track the library; nothing in ``src`` imports this.
"""

from fractions import Fraction

from pinchcert.exact_poly import rat

F = Fraction


def weight_linear_coeffs(x, w, t) -> tuple[Fraction, Fraction]:
    """Coefficients (c1, c0) of the linear weight q(S) = c1*S + c0.

    q is the factor whose square, divided by S, is maximized when bounding
    the Laplacian term; c1 = (2+15t)/2 and c0 = c1*w + 36/5 - 2x - (126/5)t.
    """
    x, w, t = rat(x), rat(w), rat(t)
    c1 = (2 + 15 * t) / 2
    c0 = c1 * w + F(36, 5) - 2 * x - F(126, 5) * t
    return c1, c0


def weight_sup_over_s(x, w, t) -> Fraction:
    """Exact supremum of q(S)^2 * x / S over S in [5/3, x].

    For S > 0, q(S)^2 / S = c1^2 S + 2 c1 c0 + c0^2 / S is convex, so its
    only interior critical point, S = c0/c1, is a minimum: the supremum sits
    at S = 5/3 or at S = x.
    """
    x, w, t = rat(x), rat(w), rat(t)
    c1, c0 = weight_linear_coeffs(x, w, t)
    return max((c1 * s + c0) ** 2 * x / s for s in (F(5, 3), x))


def left_certificate_value(x, w, t) -> Fraction:
    """:func:`left_certificate` without its domain checks; replay needs x = 5/3 < w."""
    x, w, t = rat(x), rat(w), rat(t)
    common = 16 * t * (1 - t) * x * (3 * x - 4) * (3 * x - 5) * (5 * x - 9)
    return common + 5 * (w - x) ** 2 * weight_sup_over_s(x, w, t)


def left_certificate(x, w, t) -> Fraction:
    """Generalized lower-endpoint certificate with free parameters (w, t).

    16t(1-t) x(3x-4)(3x-5)(5x-9) + 5(w-x)^2 * M(x,w,t) where M is the exact
    supremum of q(S)^2 x/S over S in [5/3, x].  A negative value proves x is
    not attainable as the supremum of S under the pinching hypothesis.
    """
    x, w, t = rat(x), rat(w), rat(t)
    if not 0 < t <= F(1, 2):
        raise ValueError(f"parameter t must satisfy 0 < t <= 1/2, got {t}")
    if not F(5, 3) <= w <= x <= F(9, 5):
        raise ValueError(f"need 5/3 <= w <= x <= 9/5, got w={w}, x={x}")
    return left_certificate_value(x, w, t)
