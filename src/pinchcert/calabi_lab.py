"""Spherical-harmonic minimal immersions and their curvature identities.

An immersion of degree s maps the unit 2-sphere into the unit sphere of
dimension 2s through the 2s+1 real harmonics of degree s, scaled so the
image lies on the unit sphere (the addition theorem makes the component
sum of squares constant).  The harmonics come from one exact table per
degree, the integer coefficients over 2^s of the derivatives d^m/dz^m P_s
of the Legendre polynomial, built on first use; each radial factor is a
sum of the table's same-parity entries, normalization folded in, over
powers of z computed once.  The induced geometry is sampled numerically:
fundamental forms by 4th-order finite differences in rotated spherical
charts, the intrinsic curvature by the Brioschi formula, and the first
covariant derivative of the second fundamental form by central differences
of frame components transported through projection.

Every step is array code over leading sample axes.  A scan evaluates its
samples in blocks of SCAN_BLOCK, with three harmonic evaluations per block:
the jet grids, the Brioschi curvature's theta- and phi-shifted complex-step
grids stacked as one array, and the four transported grids of the covariant
derivative.  Stencil points are built from trig on the 5-point theta and
phi lines, not on whole 5x5 grids.  The normal frames complete {position,
e1, e2} by ambient columns, each orthogonalized against the whole basis at
once, twice (CGS2), in one zero-padded (n, C, C) basis array.  Contractions
are elementwise sums or einsum, never BLAS products, so a sample's values
are bit-identical whichever block it lands in; fundamental_forms and
covariant_derivative_h run the same kernel on one point.

Floating point is deliberate here; exactness lives in the certificate
modules.  The identities these surfaces satisfy (constant S, |A|^2 = S^2/2,
rho_perp = S^2, B1 = S(3S-4)/2, 2K = 2 - S) act as the test oracles.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

# 4th-order central stencils over offsets [-2, -1, 0, 1, 2]
_OFFSETS = np.arange(-2, 3)
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

DEFAULT_FD_STEP = 1e-3

#: samples per vectorized pass; fixed, so memory stays flat in the sample
#: count and no value depends on how many samples a scan asks for
SCAN_BLOCK = 128


class FrameDegeneracyError(RuntimeError):
    """Tangent or normal frame construction lost rank."""


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


@functools.lru_cache(maxsize=None)
def _radial_terms(s: int) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per order m = 0..s, the (power of z, float coefficient) pairs of the
    normalized radial factor, highest power first and zero entries dropped.

    The normalization sqrt(2 (s-m)!/(s+m)!) (1 for m = 0) is folded into
    each coefficient of the exact table.
    """
    terms = []
    for m, row in enumerate(_legendre_table(s)):
        norm = 1.0 if m == 0 else math.sqrt(2.0 * math.factorial(s - m) / math.factorial(s + m))
        terms.append(tuple((power, row[power] / 2**s * norm)
                           for power in reversed(range(len(row))) if row[power]))
    return tuple(terms)


def _harmonic_components(s: int, points: np.ndarray) -> np.ndarray:
    """Normalized degree-s real harmonic vector at unit points (..., 3).

    Components are ordered m = -s..s.  Component +-m is the radial factor
    d^m/dz^m P_s(z), a sum of same-parity powers of z computed once, times
    the real or imaginary part of (x + iy)^m.  The normalization
    sqrt((s-|m|)!/(s+|m|)!) (times sqrt(2) for m != 0) makes the squared
    component sum identically 1, so no 4*pi factors appear anywhere.
    """
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    out = np.empty(points.shape[:-1] + (2 * s + 1,), dtype=points.dtype)
    powers = [1.0, z]
    for _ in range(2, s + 1):
        powers.append(powers[-1] * z)
    term = np.empty_like(z)
    # (x + i y)^m accumulated by recurrence: a_m + i b_m, from m = 1
    a, b = x, y
    for m, ((power, coeff), *rest) in enumerate(_radial_terms(s)):
        radial = coeff * powers[power]
        for power, coeff in rest:
            radial += np.multiply(coeff, powers[power], out=term) if power else coeff
        if m == 0:
            out[..., s] = radial
            continue
        np.multiply(radial, a, out=out[..., s + m])
        np.multiply(radial, b, out=out[..., s - m])
        if m < s:
            a_next, b_next = a * x, a * y
            a_next -= np.multiply(b, y, out=term)
            b_next += np.multiply(b, x, out=term)
            a, b = a_next, b_next
    return out


@dataclass(frozen=True)
class Immersion:
    """Degree-s harmonic immersion of the 2-sphere into the 2s-sphere."""

    s: int
    n_components: int
    sphere_dim: int
    rotation: np.ndarray | None = None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Ambient unit vectors at unit points of the domain sphere.

        Complex inputs pass through untouched so complex-step (dual-number)
        differentiation of the chart composition works.
        """
        points = np.asarray(points)
        if not np.iscomplexobj(points):
            points = points.astype(float)
        values = _harmonic_components(self.s, points)
        if self.rotation is not None:
            values = np.einsum("...c,dc->...d", values, self.rotation)
        return values

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


def build_calabi_immersion(s: int) -> Immersion:
    """Standard degree-s immersion; s = 1 is the identity sphere up to rotation."""
    if not 1 <= s <= 6:
        raise ValueError(f"harmonic degree must be in 1..6, got {s}")
    return Immersion(
        s=s,
        n_components=2 * s + 1,
        sphere_dim=2 * s,
    )


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Deterministic Haar-ish rotation from a seeded Gaussian QR."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# charts and stencils
# ---------------------------------------------------------------------------


def _chart_xyz(chart, st, ct, sp, cp) -> np.ndarray:
    """Unit vectors (..., 3) from the sines and cosines of theta and phi.

    Chart 1 is chart 0 cyclically rotated.  The factors and ``chart``
    broadcast against each other.
    """
    x, y = st * cp, st * sp
    zero = np.asarray(chart) == 0
    return np.stack([np.where(zero, x, ct), np.where(zero, y, x), np.where(zero, ct, y)],
                    axis=-1)


def chart_point(chart, theta, phi) -> np.ndarray:
    """Chart coordinates to unit vectors; chart 1 is chart 0 cyclically rotated.

    ``chart`` may be an array that broadcasts against ``theta`` and ``phi``.
    """
    return _chart_xyz(chart, np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi))


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


def _stencil_points(charts, theta, phi, h: float) -> np.ndarray:
    """Unit vectors (..., 5, 5, 3) on the 5x5 stencils around chart points.

    Row i moves theta by offset i and column j moves phi by offset j, so
    sin and cos are taken on the 5-point lines only and their products
    broadcast to the grid.  A complex centre keeps its imaginary part on
    every point of its line.
    """
    offsets = _OFFSETS * h
    theta_line = np.asarray(theta)[..., None] + offsets
    phi_line = np.asarray(phi)[..., None] + offsets
    return _chart_xyz(np.asarray(charts)[..., None, None],
                      np.sin(theta_line)[..., :, None], np.cos(theta_line)[..., :, None],
                      np.sin(phi_line)[..., None, :], np.cos(phi_line)[..., None, :])


def _stencil_values(imm: Immersion, charts, theta, phi, h: float) -> np.ndarray:
    """Immersion values (..., 5, 5, C) on the stencils around chart points."""
    return imm.evaluate(_stencil_points(charts, theta, phi, h))


# ---------------------------------------------------------------------------
# array helpers: every contraction is elementwise or einsum, never a BLAS
# product, so a sample's arithmetic does not depend on the block around it
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcasting the leading ones."""
    return np.einsum("...c,...c->...", a, b)


def _square_sum(x: np.ndarray) -> np.ndarray:
    """Sum of squares over every axis but the first."""
    return np.sum(x**2, axis=tuple(range(1, x.ndim)))


def _matrix(rows) -> np.ndarray:
    """Nested lists of equally shaped arrays to stacked (..., r, c) matrices."""
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _require(ok: np.ndarray, what: str, s: int, first: int) -> None:
    """Raise FrameDegeneracyError naming the first sample whose flags fail.

    Samples run along the last axis of ``ok``; ``first`` is the scan index
    of the block's sample 0.
    """
    per_sample = ok.reshape(-1, ok.shape[-1]).all(axis=0)
    if not per_sample.all():
        index = first + int(np.flatnonzero(~per_sample)[0])
        raise FrameDegeneracyError(f"degree {s}: {what} at sample {index}")


# ---------------------------------------------------------------------------
# local jets
# ---------------------------------------------------------------------------


@dataclass
class _Jet:
    """Value and chart derivatives at the centres of 5x5 stencil grids."""

    value: np.ndarray    # (..., C)
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


def _along(weights: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Stencil weights applied along axis -2 of ``lines``, summed in order.

    Zero weights (D1's centre) are skipped.
    """
    out = weights[0] * lines[..., 0, :]
    for k in range(1, len(weights)):
        if weights[k]:
            out += weights[k] * lines[..., k, :]
    return out


def _local_jet(grid: np.ndarray, h: float) -> _Jet:
    """Jet of values (..., 5, 5, C) sampled on a stencil of step h."""
    u_line, v_line = grid[..., :, 2, :], grid[..., 2, :, :]
    return _Jet(
        value=grid[..., 2, 2, :].copy(),  # a view would keep the whole grid alive
        du=_along(_D1, u_line) / h,
        dv=_along(_D1, v_line) / h,
        duu=_along(_D2, u_line) / h**2,
        duv=_along(_D1, _along(_D1, grid)) / h**2,
        dvv=_along(_D2, v_line) / h**2,
    )


# ---------------------------------------------------------------------------
# frames and fundamental forms
# ---------------------------------------------------------------------------


@dataclass
class FramedPoint:
    """Orthonormal frames at samples of the immersed surface.

    Inside the scan every field carries a leading sample axis;
    fundamental_forms returns one point's frames with that axis dropped.
    """

    chart: np.ndarray | int
    chart_uv: tuple                 # (theta, phi)
    position: np.ndarray            # (..., C) ambient unit vector
    tangent_frame: np.ndarray       # (..., 2, C) orthonormal
    normal_frame: np.ndarray        # (..., p, C) orthonormal, p = C - 3
    frame_chart_coeffs: np.ndarray  # (..., 2, 2): e_i = L[i,0] d_u + L[i,1] d_v


def _orthonormal_completion(position, e1, e2) -> tuple[np.ndarray, np.ndarray]:
    """Complete {position, e1, e2} by fixed ambient basis columns, in order.

    Each column is orthogonalized against the whole current basis at once,
    twice (classical Gram-Schmidt run twice, CGS2); it joins the normals
    when its residual norm exceeds 1e-4, until p = C - 3 have joined.  The
    basis lives in one (n, C, C) array whose unfilled slots are zero, and
    every contraction runs over all C slots, so each sample sees the
    arithmetic it would see alone.  Returns the normals (n, p, C) and
    whether each sample reached full rank.
    """
    n, dim = position.shape
    p = dim - 3
    basis = np.zeros((n, dim, dim))
    basis[:, 0], basis[:, 1], basis[:, 2] = position, e1, e2
    count = np.zeros(n, dtype=int)
    for idx in range(dim):
        if np.all(count == p):
            break
        # first pass on the unit column: its coefficients are the basis' entries
        v = -np.einsum("nk,nkc->nc", basis[:, :, idx], basis)
        v[:, idx] += 1.0
        v -= np.einsum("nk,nkc->nc", np.einsum("nkc,nc->nk", basis, v), basis)
        norm = np.sqrt(_dot(v, v))
        take = np.flatnonzero((norm > 1e-4) & (count < p))
        basis[take, 3 + count[take]] = v[take] / norm[take, None]
        count[take] += 1
    return basis[:, 3:], count == p


def _second_form(jet: _Jet, coeffs: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Components (..., p, 2, 2) in the frame t_i = coeffs[i, a] d_a.

    The ambient second derivatives are corrected for the sphere (component
    along the position removed) and projected onto the normals, which also
    discards the tangential Christoffel part.
    """
    pos = jet.value
    d_uu, d_uv, d_vv = (d - _dot(d, pos)[..., None] * pos
                        for d in (jet.duu, jet.duv, jet.dvv))
    hess = ((d_uu, d_uv), (d_uv, d_vv))
    ambient = {}
    for i, j in ((0, 0), (0, 1), (1, 1)):
        t00, t01, t10, t11 = (
            (coeffs[..., i, a] * coeffs[..., j, b])[..., None] * hess[a][b]
            for a in range(2) for b in range(2)
        )
        ambient[i, j] = t00 + t01 + t10 + t11
        if (i, j) == (0, 1):
            # (1, 0)'s term ab is (0, 1)'s term ba, bit for bit, since hess
            # is symmetric; sum them in (1, 0)'s own order a, b
            ambient[1, 0] = t00 + t10 + t01 + t11
    return _matrix([[np.einsum("...pc,...c->...p", normals, ambient[i, j]) for j in range(2)]
                    for i in range(2)])


def _frames_and_forms(imm: Immersion, charts, theta, phi, step: float, first: int):
    """First forms (n, 2, 2), second forms (n, p, 2, 2) and frames of a block."""
    jet = _local_jet(_stencil_values(imm, charts, theta, phi, step), step)
    e_, f_, g_ = _dot(jet.du, jet.du), _dot(jet.du, jet.dv), _dot(jet.dv, jet.dv)
    first_form = _matrix([[e_, f_], [f_, g_]])
    nu = np.sqrt(e_)
    _require(nu >= 1e-8, "vanishing first chart derivative", imm.s, first)
    e1 = jet.du / nu[:, None]
    along_e1 = _dot(jet.dv, e1)
    v2 = jet.dv - along_e1[:, None] * e1
    nv = np.sqrt(_dot(v2, v2))
    _require(nv >= 1e-8, "tangent frame is rank deficient", imm.s, first)
    e2 = v2 / nv[:, None]
    # e1 = (1/nu) d_u ; e2 = (d_v - <d_v, e1> e1)/nv
    coeffs = _matrix([[1.0 / nu, np.zeros_like(nu)],
                      [-along_e1 / (nv * nu), 1.0 / nv]])

    normals, full_rank = _orthonormal_completion(jet.value, e1, e2)
    _require(full_rank, "normal completion lost rank", imm.s, first)
    frames = FramedPoint(
        chart=charts,
        chart_uv=(theta, phi),
        position=jet.value,
        tangent_frame=np.stack([e1, e2], axis=-2),
        normal_frame=normals,
        frame_chart_coeffs=coeffs,
    )
    return first_form, _second_form(jet, coeffs, normals), frames


def fundamental_forms(imm: Immersion, point, step: float = DEFAULT_FD_STEP):
    """First and second fundamental forms at a domain point.

    Returns (first_form 2x2 in chart coordinates, h of shape (p, 2, 2) in the
    orthonormal frames, FramedPoint): the scan's kernel run on one point.
    """
    points = np.asarray(point, dtype=float)[None]
    first_form, h, frames = _frames_and_forms(imm, *_charted(points), step, 0)
    theta, phi = frames.chart_uv
    framed = FramedPoint(
        chart=int(frames.chart[0]),
        chart_uv=(float(theta[0]), float(phi[0])),
        position=frames.position[0],
        tangent_frame=frames.tangent_frame[0],
        normal_frame=frames.normal_frame[0],
        frame_chart_coeffs=frames.frame_chart_coeffs[0],
    )
    return first_form[0], h[0], framed


def _first_derivatives_complex_step(imm: Immersion, charts, theta, phi,
                                    h: float) -> tuple[np.ndarray, np.ndarray]:
    """Chart first derivatives (..., 5, 5, C) on the stencils, by complex step.

    The chart map and the harmonic polynomials are entire, so
    Im f(x + i*eps)/eps recovers the derivative to machine precision with no
    subtractive cancellation; this keeps the eventual second differences of
    the metric coefficients clean.  The theta- and phi-shifted stencil points
    go through one harmonic evaluation, stacked on a new leading axis.
    """
    eps = 1e-150
    shifted = np.stack([_stencil_points(charts, theta + 1j * eps, phi, h),
                        _stencil_points(charts, theta, phi + 1j * eps, h)])
    du, dv = imm.evaluate(shifted).imag / eps
    return du, dv


def _brioschi_curvature(imm: Immersion, charts, theta, phi, h: float) -> np.ndarray:
    """Intrinsic Gaussian curvature from first-form derivatives only.

    Metric coefficients on a local 5x5 grid come from complex-step first
    derivatives (pointwise exact), their own derivatives from 4th-order real
    stencils; only one level of cancellation remains.
    """
    du, dv = _first_derivatives_complex_step(imm, charts, theta, phi, h)
    metric = _local_jet(np.stack([_dot(du, du), _dot(du, dv), _dot(dv, dv)], axis=-1), h)
    e0, f0, g0 = np.moveaxis(metric.value, -1, 0)
    e_u, f_u, g_u = np.moveaxis(metric.du, -1, 0)
    e_v, f_v, g_v = np.moveaxis(metric.dv, -1, 0)
    e_vv, f_uv, g_uu = metric.dvv[..., 0], metric.duv[..., 1], metric.duu[..., 2]
    m1 = _matrix([
        [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
        [f_v - 0.5 * g_u, e0, f0],
        [0.5 * g_v, f0, g0],
    ])
    m2 = _matrix([
        [np.zeros_like(e0), 0.5 * e_v, 0.5 * g_u],
        [0.5 * e_v, e0, f0],
        [0.5 * g_u, f0, g0],
    ])
    det_g = e0 * g0 - f0 * f0
    return (np.linalg.det(m1) - np.linalg.det(m2)) / det_g**2


# ---------------------------------------------------------------------------
# covariant derivative of h
# ---------------------------------------------------------------------------


def _transported_h(imm: Immersion, frames: FramedPoint, theta, phi,
                   h_fd: float, first: int) -> np.ndarray:
    """Second-form components at chart points (theta, phi) in transported frames.

    The base frames are projected onto the tangent/normal spaces of the
    nearby points and re-orthonormalized in the recorded order; this
    approximates parallel transport to second order, which the symmetric
    central difference then cancels to first order overall.  ``theta`` and
    ``phi`` may carry extra leading axes in front of the frames' sample axis.
    """
    jet = _local_jet(_stencil_values(imm, frames.chart, theta, phi, h_fd), h_fd)
    position = jet.value
    e_, f_, g_ = _dot(jet.du, jet.du), _dot(jet.du, jet.dv), _dot(jet.dv, jet.dv)
    gram_inv = np.linalg.inv(_matrix([[e_, f_], [f_, g_]]))

    def chart_components(v):
        """c with c[0] d_u + c[1] d_v the tangent projection of v."""
        g_u, g_v = _dot(jet.du, v), _dot(jet.dv, v)
        return [gram_inv[..., a, 0] * g_u + gram_inv[..., a, 1] * g_v for a in range(2)]

    def project_tangent(v):
        c_u, c_v = chart_components(v)
        return c_u[..., None] * jet.du + c_v[..., None] * jet.dv

    def orthonormalized(vectors, what):
        out = []
        for v in vectors:
            for t in out:
                v = v - _dot(v, t)[..., None] * t
            norm = np.sqrt(_dot(v, v))
            _require(norm >= 1e-8, what, imm.s, first)
            out.append(v / norm[..., None])
        return out

    tangents = orthonormalized(
        [project_tangent(e) for e in np.moveaxis(frames.tangent_frame, -2, 0)],
        "transported tangent frame degenerated",
    )
    normals = orthonormalized(
        [n - _dot(n, position)[..., None] * position - project_tangent(n)
         for n in np.moveaxis(frames.normal_frame, -2, 0)],
        "transported normal frame degenerated",
    )
    # with no normals (s = 1) the base frame's empty array broadcasts
    normals = np.stack(normals, axis=-2) if normals else frames.normal_frame
    # chart components of the transported tangents: t_i = c[i, a] d_a
    coeffs = _matrix([chart_components(t) for t in tangents])
    return _second_form(jet, coeffs, normals)


def _check_deriv_step(step: float) -> None:
    if not 1e-4 <= step <= 1e-2:
        raise ValueError(f"step must lie in [1e-4, 1e-2], got {step}")


def _covariant_h(imm: Immersion, frames: FramedPoint, step: float,
                 fd_step: float, first: int) -> np.ndarray:
    """h_ijk (n, p, 2, 2, 2) indexed [sample, alpha, i, j, k].

    Central differences of the second-form components along each tangent
    direction; the four shifted stencils share one harmonic evaluation.
    """
    center = np.stack(frames.chart_uv, axis=-1)          # (n, 2)
    delta = step * frames.frame_chart_coeffs             # row k: shift along e_k
    shifted = np.stack([center + delta[:, 0], center - delta[:, 0],
                        center + delta[:, 1], center - delta[:, 1]])
    h_t = _transported_h(imm, frames, shifted[..., 0], shifted[..., 1], fd_step, first)
    return np.stack([h_t[0] - h_t[1], h_t[2] - h_t[3]], axis=-1) / (2.0 * step)


def covariant_derivative_h(imm: Immersion, point, step: float = 1e-3,
                           fd_step: float = DEFAULT_FD_STEP):
    """First covariant derivative components h_{ijk} and their squared norm.

    Central differences of the second-form components along each tangent
    direction, evaluated in projection-transported frames: the scan's
    kernel run on one point.  Returns (h_ijk array of shape (p, 2, 2, 2)
    indexed [alpha, i, j, k], B1).
    """
    _check_deriv_step(step)
    points = np.asarray(point, dtype=float)[None]
    _, _, frames = _frames_and_forms(imm, *_charted(points), fd_step, 0)
    h_ijk = _covariant_h(imm, frames, step, fd_step, 0)
    return h_ijk[0], float(_square_sum(h_ijk)[0])


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def fibonacci_sphere_points(n: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy sample: Fibonacci lattice with jitter."""
    rng = np.random.default_rng(seed)
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
    fd_step: float
    deriv_step: float | None
    sample_points: np.ndarray      # (n, 3)
    charts: np.ndarray             # (n,)
    S: np.ndarray                  # (n,)
    A_matrix: np.ndarray           # (n, p, p)
    A_norm_sq: np.ndarray          # (n,) Frobenius norm squared of A
    rho_perp: np.ndarray           # (n,)
    H_norm_sq: np.ndarray          # (n,)
    K_induced: np.ndarray          # (n,) intrinsic (Brioschi)
    K_gauss: np.ndarray            # (n,) via the Gauss equation from h
    a_dot_b: np.ndarray            # (n,)
    a_norm_sq: np.ndarray          # (n,)
    b_norm_sq: np.ndarray          # (n,)
    B1: np.ndarray | None          # (n,) or None when no derivative pass ran

    @property
    def n_samples(self) -> int:
        return len(self.S)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["index", "x", "y", "z", "chart", "S", "A_norm_sq", "rho_perp",
                  "H_norm_sq", "K_induced", "K_gauss", "a_dot_b", "a_norm_sq",
                  "b_norm_sq"]
        if self.B1 is not None:
            header.append("B1")
        writer.writerow(header)
        for i in range(self.n_samples):
            row = [
                i,
                repr(float(self.sample_points[i, 0])),
                repr(float(self.sample_points[i, 1])),
                repr(float(self.sample_points[i, 2])),
                int(self.charts[i]),
                repr(float(self.S[i])),
                repr(float(self.A_norm_sq[i])),
                repr(float(self.rho_perp[i])),
                repr(float(self.H_norm_sq[i])),
                repr(float(self.K_induced[i])),
                repr(float(self.K_gauss[i])),
                repr(float(self.a_dot_b[i])),
                repr(float(self.a_norm_sq[i])),
                repr(float(self.b_norm_sq[i])),
            ]
            if self.B1 is not None:
                row.append(repr(float(self.B1[i])))
            writer.writerow(row)
        return buf.getvalue()

    def summary(self) -> dict:
        def stats(arr):
            return {
                "mean": repr(float(np.mean(arr))),
                "std": repr(float(np.std(arr))),
                "min": repr(float(np.min(arr))),
                "max": repr(float(np.max(arr))),
            }

        out = {
            "s": self.s,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "fd_step": repr(self.fd_step),
            "deriv_step": repr(self.deriv_step) if self.deriv_step else None,
            "S": stats(self.S),
            "rho_perp": stats(self.rho_perp),
            "H_norm_sq": stats(self.H_norm_sq),
            "K_induced": stats(self.K_induced),
            "A_norm_sq": stats(self.A_norm_sq),
        }
        if self.B1 is not None:
            out["B1"] = stats(self.B1)
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def _second_form_invariants(h: np.ndarray) -> dict:
    """Per-sample scan invariants of second forms h (n, p, 2, 2)."""
    a_mat = np.einsum("naij,nbij->nab", h, h)
    # prod[n, a, b, i, k] = sum_j h[n, a, i, j] h[n, b, j, k], by broadcasting
    h_a, h_b = h[:, :, None], h[:, None]
    prod = h_a[..., :, :1] * h_b[..., :1, :] + h_a[..., :, 1:] * h_b[..., 1:, :]
    a_vec, b_vec = h[:, :, 0, 0], h[:, :, 0, 1]
    return {
        "S": _square_sum(h),
        "A_matrix": a_mat,
        "A_norm_sq": _square_sum(a_mat),
        "rho_perp": _square_sum(prod - prod.swapaxes(1, 2)),  # [h_a, h_b]
        "H_norm_sq": _square_sum(0.5 * (h[:, :, 0, 0] + h[:, :, 1, 1])),
        "K_gauss": 1.0 + np.sum(h[:, :, 0, 0] * h[:, :, 1, 1] - h[:, :, 0, 1] ** 2, axis=-1),
        "a_dot_b": _dot(a_vec, b_vec),
        "a_norm_sq": _dot(a_vec, a_vec),
        "b_norm_sq": _dot(b_vec, b_vec),
    }


def _scan_block(imm: Immersion, points: np.ndarray, fd_step: float,
                deriv_step: float | None, first: int) -> dict:
    """GeometryScan fields of the domain points (n, 3) in one vectorized pass.

    ``first`` is the scan index of points[0], for error messages; B1 is
    None when ``deriv_step`` is None.
    """
    charts, theta, phi = _charted(points)
    _, h, frames = _frames_and_forms(imm, charts, theta, phi, fd_step, first)
    fields = _second_form_invariants(h)
    fields["charts"] = charts
    fields["K_induced"] = _brioschi_curvature(imm, charts, theta, phi, fd_step)
    fields["B1"] = None
    if deriv_step is not None:
        fields["B1"] = _square_sum(_covariant_h(imm, frames, deriv_step, fd_step, first))
    return fields


def geometry_scan(imm: Immersion, n_samples: int, seed: int,
                  fd_step: float = DEFAULT_FD_STEP,
                  with_derivatives: bool = False,
                  deriv_step: float = 1e-3) -> GeometryScan:
    """Sample S, A, rho_perp, |H|^2 and K at seeded low-discrepancy points.

    Deterministic in the seed, a non-negative integer.  Samples go through
    the kernel in blocks of SCAN_BLOCK, and each sample's values equal those
    of a scan of that point alone.  A degenerate sample raises
    FrameDegeneracyError naming the degree and the first failing sample
    index.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if with_derivatives:
        _check_deriv_step(deriv_step)
    else:
        deriv_step = None
    points = fibonacci_sphere_points(n_samples, seed)
    blocks = [
        _scan_block(imm, points[i:i + SCAN_BLOCK], fd_step, deriv_step, i)
        for i in range(0, n_samples, SCAN_BLOCK)
    ]
    fields = {
        name: None if value is None else np.concatenate([b[name] for b in blocks])
        for name, value in blocks[0].items()
    }
    return GeometryScan(s=imm.s, seed=seed, fd_step=fd_step, deriv_step=deriv_step,
                        sample_points=points, **fields)


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
    absent: bool = False


@dataclass(frozen=True)
class IdentityReport:
    s: int
    residuals: tuple[IdentityResidual, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed or r.absent for r in self.residuals)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "passed": self.passed,
            "residuals": [
                {
                    "name": r.name,
                    "max_residual": repr(r.max_residual),
                    "tolerance": repr(r.tolerance),
                    "passed": r.passed,
                    "absent": r.absent,
                }
                for r in self.residuals
            ],
        }

    def render_table(self) -> str:
        lines = ["identity                 max residual   tolerance   status"]
        for r in self.residuals:
            status = "absent" if r.absent else ("pass" if r.passed else "FAIL")
            lines.append(
                f"{r.name:<24} {r.max_residual:<14.3e} {r.tolerance:<11.1e} {status}"
            )
        return "\n".join(lines)


def verify_identities(scan: GeometryScan, tolerances: dict | None = None) -> IdentityReport:
    """Per-identity max residuals over the scan, checked against tolerances.

    The derivative identity is marked absent (not failed) when the scan ran
    without a derivative pass.  A_norm and normal_curvature are derived, not
    independent oracles: for trace-free h with a = h_11, b = h_12,
    |A|^2 - S^2/2 = 2(|a|^2 - |b|^2)^2 + 8(a.b)^2 and
    rho_perp - S^2 = -2(|A|^2 - S^2/2), so their residuals are quadratic in
    the second_form_vectors defect.
    """
    from .pinching_bounds import calabi_value

    if scan.n_samples == 0:
        raise ValueError("empty scan")
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    cv = calabi_value(scan.s)
    s_exact = float(cv.S)

    rows = []

    def add(name, residuals, absent=False):
        max_res = 0.0 if absent else float(np.max(residuals))
        rows.append(
            IdentityResidual(
                name=name,
                max_residual=max_res,
                tolerance=tol[name],
                passed=(not absent) and max_res <= tol[name],
                absent=absent,
            )
        )

    add("mean_curvature", np.abs(scan.H_norm_sq))
    add("S_constant", np.abs(scan.S - s_exact))
    add("gauss_relation", np.abs(2.0 * scan.K_induced + scan.S - 2.0))
    add("A_norm", np.abs(scan.A_norm_sq - scan.S**2 / 2.0))
    add("normal_curvature", np.abs(scan.rho_perp - scan.S**2))
    vec_res = np.maximum(
        np.abs(scan.a_dot_b),
        np.maximum(
            np.abs(scan.a_norm_sq - scan.S / 4.0),
            np.abs(scan.b_norm_sq - scan.S / 4.0),
        ),
    )
    add("second_form_vectors", vec_res)
    if scan.B1 is None:
        add("grad_h_norm", None, absent=True)
    else:
        b1_exact = scan.S * (3.0 * scan.S - 4.0) / 2.0
        add("grad_h_norm", np.abs(scan.B1 - b1_exact))
    return IdentityReport(s=scan.s, residuals=tuple(rows))
