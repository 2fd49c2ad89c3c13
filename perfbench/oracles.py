"""Known answers the benchmark checks every operation against.

Nothing here calls pinchcert: the brackets come from the paper's stated
constants, the classifier table is written out by hand from the rigidity
case table, and the sweep thresholds are recomputed in floating point with
numpy from the certificate formulas.  The checks accept any certified
answer at least as strong as these, so a later optimizer that finds a
better certified threshold still passes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

F = Fraction

THETA1_BRACKET = (F("1.7075"), F("1.7076"))
THETA2_QUARTER_BRACKET = (F("1.7852"), F("1.7853"))

DOMAIN_LO = F(5, 3)
DOMAIN_HI = F(9, 5)

# Float slack on top of the certified isolation width (1e-6) when a
# certified enclosure is compared with a float threshold.
ENCLOSURE_SLACK = 1e-6 + 1e-9
FLOAT_SLACK = 1e-9

LAB_S_TOLERANCE = 1e-6


def calabi_S(s: int) -> float:
    """S of the degree-s Calabi sphere, 2(s-1)(s+2)/(s(s+1))."""
    return 2.0 * (s - 1) * (s + 2) / (s * (s + 1))


# ---------------------------------------------------------------------------
# classifier case table, on the shrinker scale (spherical S / 4)
# ---------------------------------------------------------------------------

_LOWER = F("1.7075") / 4   # certified lower threshold, shrinker scale
_UPPER = F("1.7853") / 4   # certified upper threshold, shrinker scale
_OSC = F(1, 880)


def _between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi) with a seeded numerator."""
    return lo + (hi - lo) * F(rng.randint(1, 999), 1000)


def _gap_band(rng):
    # strictly between the two certified thresholds and wider than 1/880
    lo = _between(rng, _LOWER, _LOWER + F(1, 1000))
    return (lo, lo + _OSC + F(1, 10**4), True, True)


def _one_hypothesis_fails(rng):
    nonvanishing = rng.random() < 0.5
    return (F(5, 12), F(5, 12), nonvanishing, not nonvanishing)


#: hand-written rows: label, seeded input (min, max, H nowhere zero,
#: normalized H parallel), and the verdict the case table gives
CLASSIFY_TABLE = (
    ("round sphere, 0 <= A < 1/3",
     lambda rng: (F(0), _between(rng, F(0), F(1, 3)), True, True), "round-sphere"),
    ("Veronese, A == 1/3",
     lambda rng: (F(1, 3), F(1, 3), True, True), "veronese"),
    ("Veronese, 0 < A <= 1/3",
     lambda rng: (_between(rng, F(0), F(1, 3)), F(1, 3), True, True), "veronese"),
    ("Calabi S^6, A == 5/12",
     lambda rng: (F(5, 12), F(5, 12), True, True), "calabi-s3"),
    ("Calabi S^6, 5/12 <= A < 1.7075/4",
     lambda rng: (F(5, 12), _between(rng, F(5, 12), _LOWER), True, True), "calabi-s3"),
    ("Calabi S^8, A == 9/20",
     lambda rng: (F(9, 20), F(9, 20), True, True), "calabi-s4"),
    ("Calabi S^8, 1.7853/4 < A <= 9/20",
     lambda rng: (_between(rng, _UPPER, F(9, 20)), F(9, 20), True, True), "calabi-s4"),
    ("between the thresholds, oscillation > 1/880", _gap_band, "inconclusive"),
    ("5/12 <= A, max just above 1.7075/4",
     lambda rng: (F(5, 12), _between(rng, _LOWER, _LOWER + F(1, 1000)), True, True),
     "inconclusive"),
    ("min just below 1.7853/4, A <= 9/20",
     lambda rng: (_between(rng, _UPPER - F(1, 1000), _UPPER), F(9, 20), True, True),
     "inconclusive"),
    ("0 <= A <= 1/3 admits two models",
     lambda rng: (F(0), F(1, 3), True, True), "inconclusive"),
    ("mean curvature hypotheses fail", _one_hypothesis_fails, "hypotheses-not-met"),
)


def classify_queries(rng: random.Random, n: int) -> list[tuple[tuple, str]]:
    """``n`` seeded (input, expected verdict) pairs drawn from the table."""
    out = []
    for _ in range(n):
        _, make, verdict = CLASSIFY_TABLE[rng.randrange(len(CLASSIFY_TABLE))]
        out.append((make(rng), verdict))
    return out


# ---------------------------------------------------------------------------
# sweep thresholds in floating point
# ---------------------------------------------------------------------------


def _left_phi(t: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lower-endpoint certificate value, broadcast over t, w and x.

    phi = 16t(1-t) x(3x-4)(3x-5)(5x-9) + 5(w-x)^2 M, with M the supremum
    of q(S)^2 x / S over S in [5/3, x] and q(S) = c1 S + c0.  q^2/S =
    c1^2 S + 2 c1 c0 + c0^2 / S is convex in S > 0, so the supremum sits at
    an end of the range.
    """
    c1 = (2.0 + 15.0 * t) / 2.0
    c0 = c1 * w + 36.0 / 5.0 - 2.0 * x - 126.0 / 5.0 * t
    s_lo = 5.0 / 3.0
    m = np.maximum((c1 * s_lo + c0) ** 2 * x / s_lo, (c1 * x + c0) ** 2)
    common = 16.0 * t * (1.0 - t) * x * (3.0 * x - 4.0) * (3.0 * x - 5.0) * (5.0 * x - 9.0)
    return common + 5.0 * (w - x) ** 2 * m


def left_thresholds(ts, ws, grid: int = 4001, steps: int = 64) -> np.ndarray:
    """Float lower-endpoint thresholds for every pair (ts[i], ws[i]).

    The threshold is the first x above 5/3 where phi >= 0; 9/5 when phi
    stays negative, 5/3 when phi is already positive at 5/3 (phi(5/3) is
    5 (w - 5/3)^2 q(5/3)^2, checked exactly).
    """
    t = np.array([float(v) for v in ts])
    w = np.array([float(v) for v in ws])
    out = np.full(len(t), float(DOMAIN_HI))
    start_positive = np.array([
        _start_value(F(tv), F(wv)) > 0 for tv, wv in zip(ts, ws)
    ], dtype=bool)
    out[start_positive] = float(DOMAIN_LO)
    live = np.flatnonzero(~start_positive)
    if live.size == 0:
        return out
    lo_x, hi_x = float(DOMAIN_LO), float(DOMAIN_HI)
    xs = np.linspace(lo_x, hi_x, grid)[1:]
    tl, wl = t[live][:, None], w[live][:, None]
    vals = _left_phi(tl, wl, xs[None, :])
    nonneg = vals >= 0.0
    has = nonneg.any(axis=1)
    first = np.argmax(nonneg, axis=1)
    a = np.where(first > 0, xs[np.maximum(first - 1, 0)], lo_x)
    b = xs[first]
    for _ in range(steps):
        mid = 0.5 * (a + b)
        neg = _left_phi(t[live], w[live], mid) < 0.0
        a = np.where(neg, mid, a)
        b = np.where(neg, b, mid)
    out[live] = np.where(has, b, hi_x)
    return out


def _start_value(t: Fraction, w: Fraction) -> Fraction:
    c1 = (2 + 15 * t) / 2
    q = c1 * DOMAIN_LO + c1 * w + F(36, 5) - 2 * DOMAIN_LO - F(126, 5) * t
    return 5 * (w - DOMAIN_LO) ** 2 * q * q


def right_threshold(t: Fraction) -> float:
    """Float root in [5/3, 9/5] of the upper-endpoint cubic at t.

    40t(2t-1) x(3x-4)(3x-5) + ((9/5)t + 36/5)^2 (9 - 5x); 9/5 when the
    cubic has no root inside the domain (t = 1/2).
    """
    tf = float(t)
    a = 40.0 * tf * (2.0 * tf - 1.0)
    if a == 0.0:
        return float(DOMAIN_HI)
    amp = (9.0 / 5.0 * tf + 36.0 / 5.0) ** 2
    # a (9x^3 - 27x^2 + 20x) + amp (9 - 5x)
    coeffs = [9.0 * a, -27.0 * a, 20.0 * a - 5.0 * amp, 9.0 * amp]
    lo, hi = float(DOMAIN_LO), float(DOMAIN_HI)
    roots = [
        r.real for r in np.roots(coeffs)
        if abs(r.imag) < 1e-12 and lo - FLOAT_SLACK <= r.real <= hi + FLOAT_SLACK
    ]
    return min(roots) if roots else hi


def left_grid_optimum(t_grid, w_grid) -> float:
    """Best (largest) float lower-endpoint threshold over the grid."""
    ts = [t for t in t_grid for _ in w_grid]
    ws = [w for _ in t_grid for w in w_grid]
    return float(np.max(left_thresholds(ts, ws)))


def right_grid_optimum(t_grid) -> float:
    """Best (smallest) float upper-endpoint threshold over the grid."""
    return min(right_threshold(t) for t in t_grid)
