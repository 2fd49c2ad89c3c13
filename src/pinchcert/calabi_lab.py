"""Spherical-harmonic minimal immersions and their curvature identities.

An immersion of degree s maps the unit 2-sphere into the unit sphere of
dimension 2s through the 2s+1 real harmonics of degree s, scaled so the
image lies on the unit sphere (the addition theorem makes the component
sum of squares constant).  Harmonic m is the real or imaginary part of
w^m R_m(z), w = x + iy, with R_m the normalized m-th derivative of the
Legendre polynomial P_s; its coefficients come from one exact table per
degree, the integer coefficients over 2^s of d^m/dz^m P_s, built on first
use.

The geometry is computed from exact derivatives, not sampled by finite
differences.  Row m + 1 of the table is the z-derivative of row m, and
w^m is holomorphic, so d/dx w^m = m w^(m-1) and d/dy w^m = i m w^(m-1);
the chain rule through the chart's trig derivatives (Taylor composition)
then gives the ten chart derivatives of order 0..3 of the immersion at
each sample, its 3-jet.  Every scan field is algebra on one 10x10 Gram
matrix of those fields: the first form, the Christoffel symbols, the Gram
matrix of the normal parts, hence <h_ij, h_kl> in the orthonormal frame
e1 = f_u/|f_u|, e2, the Brioschi curvature, and |grad h|^2 from
grad h_ijk = (f_ijk)^perp - Gamma^l_ij h_lk - Gamma^l_ki h_lj - Gamma^l_kj h_il.
No normal frame is built, and the identities hold to rounding.

Every scan takes the third-order pass, so B1 is a field of every scan.  A
scan evaluates its samples in blocks of SCAN_BLOCK, as arrays whose last
axis runs over the block's samples.  Every sum over a small axis runs
elementwise in index order, never through BLAS or einsum, so a sample's
values are bit-identical whichever block it lands in; fundamental_forms and
covariant_derivative_h run the same kernel on one point.

Floating point is deliberate here; exactness lives in the certificate
modules.  The identities these surfaces satisfy (constant S, |A|^2 = S^2/2,
rho_perp = S^2, B1 = S(3S-4)/2, 2K = 2 - S) act as the test oracles.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

# defined in the package, where the command line reads them without numpy
from . import MAX_SAMPLES, FrameDegeneracyError

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: samples per vectorized pass; fixed, so memory stays flat in the sample
#: count and no value depends on how many samples a scan asks for
SCAN_BLOCK = 128


@functools.lru_cache(maxsize=None)
def _legendre_table(s: int) -> tuple[tuple[int, ...], ...]:
    """Exact coefficients of d^m/dz^m P_s(z) for m = 0..s, over 2^s.

    Row m holds the integer numerators, in ascending powers of z, of the
    m-th derivative of P_s = 2^-s sum_k (-1)^k C(s,k) C(2s-2k, s) z^(s-2k);
    its entries whose power differs in parity from s - m are zero.  For
    s <= 6 every numerator is far below 2^53, so each entry is exact in
    float64.  Built on the first evaluation of degree s.
    """
    row = [0] * (s + 1)
    for k in range(s // 2 + 1):
        row[s - 2 * k] = (-1) ** k * math.comb(s, k) * math.comb(2 * s - 2 * k, s)
    table = [tuple(row)]
    for _ in range(s):
        row = [power * c for power, c in enumerate(row) if power]
        table.append(tuple(row))
    return tuple(table)


# Taylor terms dw^k dz^c / (k! c!) of the harmonics about a point (w, z),
# up to order 3
_TYPES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_TYPE_K, _TYPE_C = (np.array(column) for column in zip(*_TYPES))

_comb = np.frompyfunc(math.comb, 2, 1)


@functools.lru_cache(maxsize=None)
def _taylor_tables(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float tables for the Taylor coefficients of the degree-s harmonics.

    ``radial[c, p, m]`` is the coefficient of z^p in R_m^(c)(z) / c!, where
    R_m is row m of the exact table over 2^s times the normalization
    sqrt(2 (s-m)!/(s+m)!) (1 for m = 0): its c-th derivative is row m + c
    with the same factor, zero past row s.  ``binomial[k, m]`` is C(m, k),
    the k-th w-derivative of w^m over k! being C(m, k) w^(m-k), and
    ``where[k, m]`` is the place of w^(m-k) in a row of powers of w led by
    three zeros.
    """
    radial = np.zeros((4, s + 1, s + 1))
    table = _legendre_table(s)
    for m in range(s + 1):
        norm = 1.0 if m == 0 else math.sqrt(2.0 * math.factorial(s - m) / math.factorial(s + m))
        for c in range(min(3, s - m) + 1):
            for power, coeff in enumerate(table[m + c]):
                radial[c, power, m] = coeff / 2**s * norm / math.factorial(c)
    k, m = np.indices((4, s + 1))
    return radial, _comb(m, k).astype(float), m - k + 3


def _taylor_coefficients(s: int, w: np.ndarray, z: np.ndarray, n_types: int) -> np.ndarray:
    """(n_types, s+1, n) complex: d^k/dw^k d^c/dz^c (w^m R_m(z)) / (k! c!)
    at n points (w, z), for the first n_types (k, c) of _TYPES and the
    orders m = 0..s.  R_m is evaluated by Horner's rule."""
    radial_table, binomial, where = _taylor_tables(s)
    top = int(_TYPE_K[n_types - 1] + _TYPE_C[n_types - 1])
    table = radial_table[:top + 1, :, :, None]
    radial = table[:, s] + 0.0 * z
    for power in range(s - 1, -1, -1):
        radial = radial * z + table[:, power]
    powers = np.zeros((s + 4, len(w)), dtype=complex)
    powers[3] = 1.0
    for power in range(1, s + 1):
        powers[3 + power] = powers[2 + power] * w
    w_part = binomial[:top + 1, :, None] * powers[where[:top + 1]]
    return w_part[_TYPE_K[:n_types]] * radial[_TYPE_C[:n_types]]


def _real_layout(s: int, values: np.ndarray) -> np.ndarray:
    """Complex harmonics (..., s+1, n) of orders m = 0..s to the 2s+1 real
    components (..., 2s+1, n) ordered m = -s..s: the real part for m >= 0,
    the imaginary part of order |m| for m < 0."""
    out = np.empty(values.shape[:-2] + (2 * s + 1, values.shape[-1]))
    out[..., s:, :] = values.real
    out[..., :s, :] = values.imag[..., :0:-1, :]
    return out


@dataclass(frozen=True)
class Immersion:
    """Degree-s harmonic immersion of the 2-sphere into the 2s-sphere."""

    s: int
    n_components: int
    sphere_dim: int
    rotation: np.ndarray | None = None

    def _rotate(self, values: np.ndarray) -> np.ndarray:
        """The rotation applied to components (..., C, n), summed in index
        order per sample."""
        if self.rotation is None:
            return values
        return sum(self.rotation[:, c, None] * values[..., c, None, :]
                   for c in range(self.n_components))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Ambient unit vectors (..., C) at unit points (..., 3) of the domain
        sphere.

        The normalization sqrt((s-|m|)!/(s+|m|)!) (times sqrt(2) for m != 0)
        makes the squared component sum identically 1, so no 4*pi factors
        appear anywhere.
        """
        points = np.asarray(points, dtype=float)
        x, y, z = points.reshape(-1, 3).T
        values = _taylor_coefficients(self.s, x + 1j * y, z, 1)[0]
        components = self._rotate(_real_layout(self.s, values))
        return components.T.reshape(points.shape[:-1] + (self.n_components,))

    def rotated(self, rotation: np.ndarray) -> "Immersion":
        """Same immersion post-composed with an ambient rotation."""
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (self.n_components, self.n_components):
            raise ValueError("rotation must act on the ambient components")
        base = self.rotation if self.rotation is not None else np.eye(self.n_components)
        return Immersion(
            s=self.s,
            n_components=self.n_components,
            sphere_dim=self.sphere_dim,
            rotation=rotation @ base,
        )


def _integer(value, what: str) -> int:
    """``value`` read by ``operator.index`` into a Python int; anything else,
    and a bool as ``rat`` refuses one, raises ValueError naming ``what``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _seed(value) -> int:
    """A seed read by :func:`_integer`; a negative one raises ValueError."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def build_calabi_immersion(s: int) -> Immersion:
    """Standard degree-s immersion; s = 1 is the identity sphere up to rotation."""
    s = _integer(s, "harmonic degree")
    if not 1 <= s <= 6:
        raise ValueError(f"harmonic degree must be in 1..6, got {s}")
    return Immersion(
        s=s,
        n_components=2 * s + 1,
        sphere_dim=2 * s,
    )


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Deterministic Haar-ish rotation from a seeded Gaussian QR; ``dim``
    and ``seed`` are read as geometry_scan reads its inputs, and a ``dim``
    below 1 is refused."""
    dim = _integer(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    rng = np.random.default_rng(_seed(seed))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _chart_xyz(chart, st, ct, sp, cp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three coordinates of unit vectors from the sines and cosines of
    theta and phi.

    Chart 1 is chart 0 cyclically rotated.  The factors and ``chart``
    broadcast against each other.
    """
    x, y = st * cp, st * sp
    zero = np.asarray(chart) == 0
    return np.where(zero, x, ct), np.where(zero, y, x), np.where(zero, ct, y)


def chart_point(chart, theta, phi) -> np.ndarray:
    """Chart coordinates to unit vectors; chart 1 is chart 0 cyclically rotated.

    ``chart`` may be an array that broadcasts against ``theta`` and ``phi``.
    """
    return np.stack(_chart_xyz(chart, np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)),
                    axis=-1)


def chart_coords(chart, point) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of unit points (..., 3) in the given charts."""
    point = np.asarray(point, dtype=float)
    q = np.where(np.asarray(chart)[..., None] == 0, point, point[..., [1, 2, 0]])
    return np.arccos(np.clip(q[..., 2], -1.0, 1.0)), np.arctan2(q[..., 1], q[..., 0])


def chart_for_point(point) -> np.ndarray:
    """Chart whose pole distance exceeds 0.5 radians (chart 0 preferred)."""
    z = np.asarray(point, dtype=float)[..., 2]
    return np.where(np.arccos(np.minimum(1.0, np.abs(z))) > 0.5, 0, 1)


def _charted(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chart and chart coordinates of each domain point (n, 3)."""
    charts = chart_for_point(points)
    theta, phi = chart_coords(charts, points)
    return charts, theta, phi


# ---------------------------------------------------------------------------
# 3-jets
# ---------------------------------------------------------------------------

#: the ten chart derivatives of a 3-jet as sorted tuples of directions
#: (0 = theta = u, 1 = phi = v): f, f_u, f_v, f_uu, f_uv, f_vv, f_uuu,
#: f_uuv, f_uvv, f_vvv
JETS = ((), (0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
_JET_INDEX = {jet: i for i, jet in enumerate(JETS)}
_THETA_ORDER = np.array([jet.count(0) for jet in JETS])
_PHI_ORDER = np.array([jet.count(1) for jet in JETS])
# the first-order factors of the rows of order 2
_FIRST, _SECOND = (np.array([_JET_INDEX[jet[i:i + 1]] for jet in JETS[3:6]]) for i in (0, 1))
# for the rows of order 3 and each position p: the first-order row of
# position p and the second-order row of the other two positions
_SINGLE = np.array([[_JET_INDEX[jet[p:p + 1]] for p in range(3)] for jet in JETS[6:]])
_PAIR = np.array([[_JET_INDEX[jet[:p] + jet[p + 1:]] for p in range(3)] for jet in JETS[6:]])


def _chart_jets(charts, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """3-jets (10, n) of w = x + iy and z along the chart maps.

    The a-th derivative of sin is entry a of the cycle (sin, cos, -sin,
    -cos, sin) and that of cos is entry a + 1, so a chart derivative of
    sin(theta) cos(phi) is a product of two entries, and cos(theta) has
    no phi derivative; the chart formula itself is chart_point's.
    """
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    theta_cycle = np.array([st, ct, -st, -ct, st])
    phi_cycle = np.array([sp, cp, -sp, -cp, sp])
    x, y, z = _chart_xyz(charts, theta_cycle[_THETA_ORDER],
                         theta_cycle[_THETA_ORDER + 1] * (_PHI_ORDER == 0)[:, None],
                         phi_cycle[_PHI_ORDER], phi_cycle[_PHI_ORDER + 1])
    return x + 1j * y, z


def _monomial_jets(w: np.ndarray, z: np.ndarray) -> tuple[tuple, tuple, tuple]:
    """Per order 1, 2, 3: the 3-jets of dw^k dz^c at the rows of that order,
    for the (k, c) of _TYPES with 1 <= k + c <= order (Faa di Bruno).

    dw and dz vanish at the point, so at a row of order 2, ij, the jet of
    dw dz is w_i z_j + z_i w_j, and at a row of order 3, ijk, each term
    splits the positions into a single p and the pair left over, or into
    three singles.
    """
    wi, wj, zi, zj = w[_FIRST], w[_SECOND], z[_FIRST], z[_SECOND]
    order2 = (w[3:6], z[3:6], 2.0 * wi * wj, wi * zj + zi * wj, 2.0 * zi * zj)
    w1, w2, z1, z2 = w[_SINGLE], w[_PAIR], z[_SINGLE], z[_PAIR]
    (wa, wb, wc), (za, zb, zc) = w1.swapaxes(0, 1), z1.swapaxes(0, 1)
    order3 = (w[6:], z[6:],
              2.0 * (w1 * w2).sum(axis=1),
              (w1 * z2 + w2 * z1).sum(axis=1),
              2.0 * (z1 * z2).sum(axis=1),
              6.0 * wa * wb * wc,
              2.0 * (wa * wb * zc + wa * zb * wc + za * wb * wc),
              2.0 * (wa * zb * zc + za * wb * zc + za * zb * wc),
              6.0 * za * zb * zc)
    return (w[1:3], z[1:3]), order2, order3


def _immersion_jets(imm: Immersion, charts, theta, phi) -> np.ndarray:
    """The ten chart derivatives (10, C, n) of the immersion at n chart points.

    Taylor composition: the harmonics' 3-jet is the sum over (k, c) of their
    Taylor coefficient at (w, z) times the 3-jet of dw^k dz^c, dw and dz
    being the chart's w and z less their values at the point.
    """
    w, z = _chart_jets(charts, theta, phi)
    coeffs = _taylor_coefficients(imm.s, w[0], z[0], len(_TYPES))
    values = np.zeros((len(JETS),) + coeffs.shape[1:], dtype=complex)
    values[0] = coeffs[0]
    # each order's rows summed in place from zero, term by term in order
    for rows, monomials in zip((slice(1, 3), slice(3, 6), slice(6, 10)), _monomial_jets(w, z)):
        out = values[rows]
        for t, jet in enumerate(monomials, 1):
            out += jet[:, None] * coeffs[t]
    return imm._rotate(_real_layout(imm.s, values))


# ---------------------------------------------------------------------------
# geometry from the Gram matrix of a 3-jet
# ---------------------------------------------------------------------------
#
# Arrays carry the sample axis last.  Every sum over a small axis runs in
# index order, elementwise, never through BLAS or einsum, so a sample's
# values are bit-identical whichever block it lands in.  A contraction is
# one broadcast product and one np.add.reduce over an axis that is never
# the innermost: numpy then adds its terms one by one in index order (an
# innermost axis of 8 or more terms is summed pairwise), and initial=0.0
# starts from +0.0 as the builtin sum does, so a first term of -0.0 still
# gives +0.0.  With one sample the sample axis has length 1, so an axis of
# 8 or more terms is not reduced next to it either: the Gram matrix, over
# up to 13 components, sums them in a loop.  It is summed only on its
# entries i <= j and mirrored, a product of two floats being independent
# of their order.


def _product(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Stacked matrix products (r, k, n) x (k, q, n) -> (r, q, n)."""
    return np.add.reduce(t[:, :, None] * m, axis=1, initial=0.0)


def _det3(m) -> np.ndarray:
    """Determinants of 3x3 matrices given as nested rows of sample arrays."""
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _require(ok: np.ndarray, what: str, s: int, first: int) -> None:
    """Raise FrameDegeneracyError naming the first sample whose flag fails.

    ``first`` is the scan index of the block's sample 0.
    """
    if not ok.all():
        index = first + int(np.flatnonzero(~ok)[0])
        raise FrameDegeneracyError(f"degree {s}: {what} at sample {index}")


@functools.lru_cache(maxsize=None)
def _frame_tables(order: int) -> tuple[np.ndarray, ...]:
    """C(q, t) and the powers of a, b and c in :func:`_frame_transform`."""
    q, t = np.indices((order + 1, order + 1))
    return _comb(q, t).astype(float)[:, :, None], order - q, np.maximum(q - t, 0), t


def _frame(e, f, det_g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c) of the orthonormal frame e1 = a d_u, e2 = b d_u + c d_v:
    e1 = f_u / |f_u|, and e2 the unit part of f_v orthogonal to it, for the
    first form [[e, f], [f, g]] of determinant det_g."""
    c = np.sqrt(e / det_g)
    return 1.0 / np.sqrt(e), -f / e * c, c


def _frame_transform(a, b, c, order: int) -> np.ndarray:
    """(order+1, order+1, n): row q gives the frame component
    e1^(order-q) e2^q of a symmetric tensor from its chart components
    u^(order-t) v^t, where e1 = a d_u and e2 = b d_u + c d_v; it is
    a^(order-q) C(q, t) b^(q-t) c^t for t <= q."""
    binomial, a_power, b_power, c_power = _frame_tables(order)
    abc = np.array([a, b, c])
    powers = np.array([np.ones_like(abc), abc, abc * abc, abc * abc * abc])
    return binomial * powers[a_power, 0] * powers[b_power, 1] * powers[c_power, 2]


def _covariant_table() -> np.ndarray:
    """(6, 4, 3, 1) counts: entry [2 ij + l, r, lk] is how often
    Gamma^l_ij h_lk enters grad h at the third-order row r, over the
    three ways r splits into a pair ij and a single k."""
    out = np.zeros((3, 2, 4, 3))
    for r, (single, pair) in enumerate(zip(_SINGLE, _PAIR)):
        for p in range(3):
            k = JETS[single[p]][0]
            for l in range(2):
                out[pair[p] - 3, l, r, _JET_INDEX[tuple(sorted((l, k)))] - 3] += 1
    return out.reshape(6, 4, 3, 1)


_COVARIANT = _covariant_table()

#: how often each distinct frame component e1^(3-q) e2^q of the symmetric
#: tensor grad h appears among its eight ordered components
_ORDERINGS = np.array([1.0, 3.0, 3.0, 1.0])[:, None]

#: rows i and j (2, 55) of the entries i <= j of a 3-jet's symmetric Gram matrix
_UPPER = np.array(np.triu_indices(len(JETS)))

#: the pair ij at row 2i + j of the 4x4 second-form Gram, as a row of the
#: 3x3 one over (11, 12, 22)
_PAIR_ROWS = np.array([0, 1, 1, 2])


def _second_form_invariants(gram: np.ndarray) -> dict:
    """Scan invariants from Gram matrices (4, 4, n) <h_ij, h_kl> of second
    forms in an orthonormal frame, the pair ij at row 2i + j.

    With a = h_11, b = h_12 and d = h_11 - h_22, the commutator of two
    normal components of h has d_x b_y - d_y b_x off the diagonal, so
    rho_perp = 4(|d|^2 |b|^2 - (d.b)^2); |A|^2 = sum <h_ij, h_kl>^2.
    """
    aa, ab, ac, bb, bc, cc = gram[0, 0], gram[0, 1], gram[0, 3], gram[1, 1], gram[1, 3], gram[3, 3]
    d_d, d_b = aa - 2.0 * ac + cc, ab - bc
    return {
        "S": aa + 2.0 * bb + cc,
        "A_norm_sq": aa * aa + cc * cc + 2.0 * ac * ac + 4.0 * (ab * ab + bc * bc + bb * bb),
        "rho_perp": 4.0 * (d_d * bb - d_b * d_b),
        "H_norm_sq": 0.25 * (aa + 2.0 * ac + cc),
        "K_gauss": 1.0 + ac - bb,
        "a_dot_b": ab,
        "a_norm_sq": aa,
        "b_norm_sq": bb,
    }


def _scan_block(imm: Immersion, points: np.ndarray, first: int = 0) -> dict:
    """GeometryScan fields of the domain points (n, 3) in one vectorized pass.

    ``first`` is the scan index of points[0], for error messages.
    """
    charts, theta, phi = _charted(points)
    jets = _immersion_jets(imm, charts, theta, phi)
    # the Gram matrix's entries i <= j, summed over the components in order
    pairs = (jets[_UPPER, c] for c in range(imm.n_components))
    gram = np.empty((len(JETS), len(JETS), len(points)))
    gram[tuple(_UPPER)] = gram[tuple(_UPPER[::-1])] = sum(i * j for i, j in pairs)
    e, f, g = gram[1, 1], gram[1, 2], gram[2, 2]
    det_g = e * g - f * f
    _require(det_g > 1e-12 * e * g, "induced metric is singular", imm.s, first)

    # <f_I, f_u> and <f_I, f_v> for the seven fields I of order 2 and 3,
    # and the same raised by g^-1: on the rows of order 2, Gamma^l_ij
    low = gram[3:, 1:3]
    up = (np.array([g, e]) * low - f * low[:, ::-1]) / det_g
    (low_u, low_v), (up_u, up_v) = low.swapaxes(0, 1), up.swapaxes(0, 1)
    # the Gram matrix of their parts normal to the surface in the sphere;
    # the position is a unit vector orthogonal to the tangent plane
    normal = (gram[3:, 3:] - up_u[:, None] * low_u - up_v[:, None] * low_v
              - gram[3:, :1] * gram[0, 3:])

    # <h_ij, h_kl> in the orthonormal frame
    a, b, c = _frame(e, f, det_g)
    frame2 = _frame_transform(a, b, c, 2)
    h_gram = _product(_product(frame2, normal[:3, :3]), frame2.swapaxes(0, 1))
    h_gram = h_gram[_PAIR_ROWS[:, None], _PAIR_ROWS]
    fields = _second_form_invariants(h_gram)
    fields["charts"] = charts
    fields["first_form"] = gram[1:3, 1:3].transpose(2, 0, 1)
    fields["A_matrix"] = h_gram.transpose(2, 0, 1)

    # Brioschi, with Gamma_ij,l = <f_ij, f_l> standing for the first
    # derivatives of the metric; in -E_vv/2 + F_uv - G_uu/2 =
    # <f_uu, f_vv> - <f_uv, f_uv> the third-order terms cancel
    (uu_u, uv_u, vv_u), (uu_v, uv_v, vv_v) = low_u[:3], low_v[:3]
    m1 = ((gram[3, 5] - gram[4, 4], uu_u, uu_v), (vv_u, e, f), (vv_v, f, g))
    m2 = ((0.0, uv_u, uv_v), (uv_u, e, f), (uv_v, f, g))
    fields["K_induced"] = (_det3(m1) - _det3(m2)) / det_g**2

    # grad h_ijk = (f_ijk)^perp - Gamma^l_ij h_lk - Gamma^l_ki h_lj
    # - Gamma^l_kj h_il at the four rows of order 3, as combinations of the
    # seven normal parts, then in the frame
    christoffel = up[:3].reshape(6, 1, 1, -1)
    covariant = -np.add.reduce(_COVARIANT * christoffel, axis=0, initial=0.0)
    frame3 = _frame_transform(a, b, c, 3)
    rows = np.concatenate([_product(frame3, covariant), frame3], axis=1)
    fields["B1"] = (_ORDERINGS * (_product(rows, normal) * rows).sum(axis=1)).sum(axis=0)
    return fields


def fundamental_forms(imm: Immersion, point) -> tuple[np.ndarray, np.ndarray]:
    """First form (2, 2) in chart coordinates and the Gram matrix (4, 4)
    <h_ij, h_kl> of the second form in the orthonormal frame, pair ij at
    row 2i + j, at a domain point: the scan's kernel run on one point."""
    fields = _scan_block(imm, np.asarray(point, dtype=float)[None])
    return fields["first_form"][0], fields["A_matrix"][0]


def covariant_derivative_h(imm: Immersion, point) -> float:
    """B1 = |grad h|^2 at a domain point: the scan's kernel run on one point."""
    return float(_scan_block(imm, np.asarray(point, dtype=float)[None])["B1"][0])


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def fibonacci_sphere_points(n: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy sample: Fibonacci lattice with jitter; ``n``
    and ``seed`` are read as geometry_scan reads its inputs, and an ``n``
    below 1 is refused."""
    n = _integer(n, "sample count")
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    rng = np.random.default_rng(_seed(seed))
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    z = np.clip(z + rng.uniform(-0.4, 0.4, n) / n, -1.0 + 1e-9, 1.0 - 1e-9)
    phi = i * _GOLDEN_ANGLE + rng.uniform(0.0, 2.0 * math.pi / n, n)
    st = np.sqrt(1.0 - z * z)
    return np.stack([st * np.cos(phi), st * np.sin(phi), z], axis=-1)


@dataclass
class GeometryScan:
    """Pointwise geometric quantities sampled over an immersion."""

    s: int
    seed: int
    sample_points: np.ndarray      # (n, 3)
    charts: np.ndarray             # (n,)
    first_form: np.ndarray         # (n, 2, 2) in chart coordinates
    S: np.ndarray                  # (n,)
    A_matrix: np.ndarray           # (n, 4, 4) <h_ij, h_kl> in the frame, ij at 2i + j
    A_norm_sq: np.ndarray          # (n,) Frobenius norm squared of A
    rho_perp: np.ndarray           # (n,)
    H_norm_sq: np.ndarray          # (n,)
    K_induced: np.ndarray          # (n,) intrinsic (Brioschi)
    K_gauss: np.ndarray            # (n,) via the Gauss equation from h
    a_dot_b: np.ndarray            # (n,)
    a_norm_sq: np.ndarray          # (n,)
    b_norm_sq: np.ndarray          # (n,)
    B1: np.ndarray                 # (n,) |grad h|^2

    @property
    def n_samples(self) -> int:
        return len(self.S)

    def write_csv(self, fh) -> None:
        """Write one CSV row per sample to the text file ``fh``, SCAN_BLOCK
        rows at a time, so that only one block's values are held at once.
        Values are Python floats, whose ``str`` is their ``repr``: they read
        back exactly."""
        names = ["S", "A_norm_sq", "rho_perp", "H_norm_sq", "K_induced", "K_gauss",
                 "a_dot_b", "a_norm_sq", "b_norm_sq", "B1"]
        header = ["index", "x", "y", "z", "chart", *names]
        columns = [*self.sample_points.T, self.charts, *(getattr(self, n) for n in names)]
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(0, self.n_samples, SCAN_BLOCK):
            writer.writerows(zip(range(i, i + SCAN_BLOCK),
                                 *(column[i:i + SCAN_BLOCK].tolist() for column in columns)))

    def summary(self) -> dict:
        """Mean, std, min and max of each scalar field.  The fields are
        stacked one to a row, so each statistic is one reduction along the
        sample axis; a row reduces exactly as its field alone does."""
        names = ["S", "rho_perp", "H_norm_sq", "K_induced", "A_norm_sq", "B1"]
        fields = np.array([getattr(self, name) for name in names])
        stats = zip(fields.mean(axis=1).tolist(), fields.std(axis=1).tolist(),
                    fields.min(axis=1).tolist(), fields.max(axis=1).tolist())
        out = {"s": self.s, "seed": self.seed, "n_samples": self.n_samples}
        for name, row in zip(names, stats):
            out[name] = dict(zip(("mean", "std", "min", "max"), map(repr, row)))
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def geometry_scan(imm: Immersion, n_samples: int, seed: int) -> GeometryScan:
    """Sample S, A, rho_perp, |H|^2, K and B1 = |grad h|^2 at seeded
    low-discrepancy points.

    Deterministic in the seed, a non-negative integer; the sample count
    lies in 1..MAX_SAMPLES; both are read by :func:`_integer`.  Samples go
    through the kernel in blocks of SCAN_BLOCK, and each sample's values
    equal those of a scan of that point alone.  A degenerate sample raises
    FrameDegeneracyError naming the degree and the first failing sample index.
    """
    n_samples = _integer(n_samples, "sample count")
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in 1..{MAX_SAMPLES}, got {n_samples}")
    seed = _seed(seed)
    points = fibonacci_sphere_points(n_samples, seed)
    # each block is copied into the scan's arrays and dropped: a kept block
    # would pin its whole Gram matrix, of which first_form is a view
    fields = {}
    for i in range(0, n_samples, SCAN_BLOCK):
        for name, value in _scan_block(imm, points[i:i + SCAN_BLOCK], i).items():
            if i == 0:
                fields[name] = np.empty((n_samples, *value.shape[1:]), value.dtype)
            fields[name][i:i + len(value)] = value
    return GeometryScan(s=imm.s, seed=seed, sample_points=points, **fields)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

DEFAULT_TOLERANCES = {
    "mean_curvature": 1e-8,
    "S_constant": 1e-6,
    "gauss_relation": 1e-6,
    "A_norm": 1e-6,
    "normal_curvature": 1e-6,
    "second_form_vectors": 1e-6,
    "grad_h_norm": 1e-3,
}


@dataclass(frozen=True)
class IdentityResidual:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    # always false, since every scan carries B1; kept because the report
    # schema and perfbench's tracer read it, until ROADMAP item 5b
    absent: bool = False
    worst_sample: int | None = None   # first sample at max_residual


@dataclass(frozen=True)
class IdentityReport:
    s: int
    residuals: tuple[IdentityResidual, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    def to_json(self) -> dict:
        """Each row is its residual's fields, the two floats written by repr."""
        return {
            "s": self.s,
            "passed": self.passed,
            "residuals": [{**vars(r), "max_residual": repr(r.max_residual),
                           "tolerance": repr(r.tolerance)} for r in self.residuals],
        }

    def render_table(self) -> str:
        lines = ["identity                 max residual   tolerance   status"]
        for r in self.residuals:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{r.name:<24} {r.max_residual:<14.3e} {r.tolerance:<11.1e} {status}"
            )
        return "\n".join(lines)


def verify_identities(scan: GeometryScan) -> IdentityReport:
    """Per-identity max residuals over the scan, checked against
    :data:`DEFAULT_TOLERANCES`, each with the first sample that attains it.

    The residual arrays are stacked one identity to a row, so one argmax
    along the sample axis finds every worst sample, and the maxima are read
    there.  Every scan carries B1, so all seven identities are checked.
    A_norm and normal_curvature are derived, not independent oracles: for
    trace-free h with a = h_11, b = h_12, |A|^2 - S^2/2 =
    2(|a|^2 - |b|^2)^2 + 8(a.b)^2 and rho_perp - S^2 = -2(|A|^2 - S^2/2), so
    their residuals are quadratic in the second_form_vectors defect.
    """
    from .pinching_bounds import calabi_value

    if scan.n_samples == 0:
        raise ValueError("empty scan")
    s_exact = float(calabi_value(scan.s).S)
    residuals = {
        "mean_curvature": np.abs(scan.H_norm_sq),
        "S_constant": np.abs(scan.S - s_exact),
        "gauss_relation": np.abs(2.0 * scan.K_induced + scan.S - 2.0),
        "A_norm": np.abs(scan.A_norm_sq - scan.S**2 / 2.0),
        "normal_curvature": np.abs(scan.rho_perp - scan.S**2),
        "second_form_vectors": np.maximum(
            np.abs(scan.a_dot_b),
            np.maximum(
                np.abs(scan.a_norm_sq - scan.S / 4.0),
                np.abs(scan.b_norm_sq - scan.S / 4.0),
            ),
        ),
        "grad_h_norm": np.abs(scan.B1 - scan.S * (3.0 * scan.S - 4.0) / 2.0),
    }
    stacked = np.array(list(residuals.values()))
    worst = stacked.argmax(axis=1)
    maxima = stacked[np.arange(len(worst)), worst].tolist()
    tol = DEFAULT_TOLERANCES
    rows = [IdentityResidual(name, max_res, tol[name], max_res <= tol[name], worst_sample=sample)
            for name, max_res, sample in zip(residuals, maxima, worst.tolist())]
    return IdentityReport(s=scan.s, residuals=tuple(rows))
