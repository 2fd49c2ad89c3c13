"""Frozen per-point geometry lab, kept as the reference for the batched scan.

These are the per-sample jets, frames, Brioschi curvature, transported
second forms and scan loop exactly as they were before the lab evaluated
whole blocks of samples at once, and the harmonics by the upward Legendre
recursion in the degree, run afresh for each order, as they were before
the lab evaluated them from an exact coefficient table.  Tests compare the
``calabi_lab.geometry_scan``, which computes the same fields from exact
3-jets, with ``reference_scan`` under tolerances that cover this
reference's finite-difference truncation and round-off; nothing in
``src`` imports this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pinchcert.calabi_lab import (
    FrameDegeneracyError,
    GeometryScan,
    Immersion,
    fibonacci_sphere_points,
)

# 4th-order central stencils over offsets [-2, -1, 0, 1, 2]
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

DEFAULT_FD_STEP = 1e-3


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _reduced_legendre(s: int, m: int, ct: np.ndarray) -> np.ndarray | float:
    """P_s^m(ct) / (1-ct^2)^(m/2): polynomial part of the associated Legendre.

    Condon-Shortley-free.  Stable upward recursion in the degree; trivial
    for the degrees used here (s <= 6).  For s == m it is the constant
    (2m-1)!!, returned as a float.
    """
    pmm = float(_double_factorial(2 * m - 1))
    if s == m:
        return pmm
    pmm1 = ct * (2 * m + 1) * pmm
    if s == m + 1:
        return pmm1
    for l in range(m + 2, s + 1):
        pll = ((2 * l - 1) * ct * pmm1 - (l + m - 1) * pmm) / (l - m)
        pmm, pmm1 = pmm1, pll
    return pmm1


def harmonic_components(s: int, points: np.ndarray) -> np.ndarray:
    """Normalized degree-s real harmonic vector at unit points (..., 3).

    Components are ordered m = -s..s.  The combined normalization
    sqrt((s-|m|)!/(s+|m|)!) (times sqrt(2) for m != 0) makes the squared
    component sum identically 1.
    """
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    out = np.empty(points.shape[:-1] + (2 * s + 1,), dtype=points.dtype)
    # (x + i y)^m accumulated by recurrence: a_m + i b_m
    a, b = np.ones_like(x), np.zeros_like(x)
    for m in range(0, s + 1):
        radial = _reduced_legendre(s, m, z)
        if m == 0:
            out[..., s] = radial
        else:
            scaled = math.sqrt(2.0 * math.factorial(s - m) / math.factorial(s + m)) * radial
            out[..., s + m] = scaled * a
            out[..., s - m] = scaled * b
        if m < s:
            a, b = a * x - b * y, a * y + b * x
    return out


def evaluate(imm: Immersion, points) -> np.ndarray:
    """``imm`` at unit points by the frozen harmonics; complex inputs pass."""
    points = np.asarray(points)
    if not np.iscomplexobj(points):
        points = points.astype(float)
    values = harmonic_components(imm.s, points)
    if imm.rotation is not None:
        values = np.einsum("...c,dc->...d", values, imm.rotation)
    return values


def chart_point(chart: int, theta, phi) -> np.ndarray:
    """Chart coordinates to unit vectors; chart 1 is chart 0 cyclically rotated."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    if chart == 0:
        return np.stack([st * cp, st * sp, ct], axis=-1)
    return np.stack([ct, st * cp, st * sp], axis=-1)


def chart_coords(chart: int, point: np.ndarray) -> tuple[float, float]:
    x, y, z = point
    if chart == 0:
        return math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)
    return math.acos(max(-1.0, min(1.0, x))), math.atan2(z, y)


def chart_for_point(point: np.ndarray) -> int:
    """Chart whose pole distance exceeds 0.5 radians (chart 0 preferred)."""
    pole_distance = math.acos(min(1.0, abs(float(point[2]))))
    return 0 if pole_distance > 0.5 else 1


@dataclass
class _Jet:
    value: np.ndarray    # (C,)
    du: np.ndarray       # (C,)
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray
    grid: np.ndarray     # (2r+1, 2r+1, C) raw samples
    h: float


def _evaluate_grid(imm: Immersion, chart: int, theta: float, phi: float,
                   h: float, radius: int) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1) * h
    tt = theta + offsets[:, None] + 0.0 * offsets[None, :]
    pp = phi + 0.0 * offsets[:, None] + offsets[None, :]
    pts = chart_point(chart, tt, pp)
    return evaluate(imm, pts)


def _local_jet(imm: Immersion, chart: int, theta: float, phi: float,
               h: float, radius: int = 2) -> _Jet:
    grid = _evaluate_grid(imm, chart, theta, phi, h, radius)
    c = radius
    value = grid[c, c]
    du = np.tensordot(_D1, grid[c - 2:c + 3, c], axes=(0, 0)) / h
    dv = np.tensordot(_D1, grid[c, c - 2:c + 3], axes=(0, 0)) / h
    duu = np.tensordot(_D2, grid[c - 2:c + 3, c], axes=(0, 0)) / h**2
    dvv = np.tensordot(_D2, grid[c, c - 2:c + 3], axes=(0, 0)) / h**2
    duv = np.einsum("i,j,ijc->c", _D1, _D1, grid[c - 2:c + 3, c - 2:c + 3]) / h**2
    return _Jet(value=value, du=du, dv=dv, duu=duu, duv=duv, dvv=dvv, grid=grid, h=h)


@dataclass
class FramedPoint:
    """Orthonormal frames at one sample of the immersed surface."""

    base_point: np.ndarray            # domain unit vector (3,)
    chart: int
    chart_uv: tuple[float, float]
    position: np.ndarray              # ambient unit vector (C,)
    tangent_frame: np.ndarray         # (2, C) orthonormal
    normal_frame: np.ndarray          # (p, C) orthonormal, p = C - 3
    frame_chart_coeffs: np.ndarray    # (2, 2): e_i = L[i,0] d_u + L[i,1] d_v
    basis_columns: tuple[int, ...]    # ambient columns accepted for the normals


def _orthonormal_completion(position, e1, e2, dim) -> tuple[np.ndarray, tuple[int, ...]]:
    """Complete {position, e1, e2} by fixed ambient basis columns, in order."""
    accepted = []
    columns = []
    basis = [position, e1, e2]
    for idx in range(dim):
        v = np.zeros(dim)
        v[idx] = 1.0
        for _ in range(2):  # two-pass MGS keeps orthogonality near machine eps
            for b in basis + accepted:
                v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-4:
            accepted.append(v / norm)
            columns.append(idx)
        if len(accepted) == dim - 3:
            break
    if len(accepted) != dim - 3:
        raise FrameDegeneracyError("normal completion lost rank")
    if accepted:
        normals = np.stack(accepted)
    else:
        normals = np.zeros((0, dim))
    return normals, tuple(columns)


def fundamental_forms(imm: Immersion, point, step: float = DEFAULT_FD_STEP):
    """First and second fundamental forms at a domain point.

    Returns (first_form 2x2 in chart coordinates, h of shape (p, 2, 2) in the
    orthonormal frames, FramedPoint).  The ambient second derivatives are
    corrected for the sphere (component along the position removed) and
    projected onto the normal frame, which also discards the tangential
    Christoffel part.
    """
    point = np.asarray(point, dtype=float)
    chart = chart_for_point(point)
    theta, phi = chart_coords(chart, point)
    jet = _local_jet(imm, chart, theta, phi, step)

    first_form = np.array(
        [
            [np.dot(jet.du, jet.du), np.dot(jet.du, jet.dv)],
            [np.dot(jet.dv, jet.du), np.dot(jet.dv, jet.dv)],
        ]
    )
    nu = np.linalg.norm(jet.du)
    if nu < 1e-8:
        raise FrameDegeneracyError("vanishing first chart derivative")
    e1 = jet.du / nu
    v2 = jet.dv - np.dot(jet.dv, e1) * e1
    nv = np.linalg.norm(v2)
    if nv < 1e-8:
        raise FrameDegeneracyError("tangent frame is rank deficient")
    e2 = v2 / nv
    # e1 = (1/nu) d_u ; e2 = (d_v - <d_v, e1> e1)/nv
    coeffs = np.array([[1.0 / nu, 0.0], [-np.dot(jet.dv, e1) / (nv * nu), 1.0 / nv]])

    position = jet.value
    normals, columns = _orthonormal_completion(position, e1, e2, imm.n_components)

    hess = {
        (0, 0): jet.duu - np.dot(jet.duu, position) * position,
        (0, 1): jet.duv - np.dot(jet.duv, position) * position,
        (1, 1): jet.dvv - np.dot(jet.dvv, position) * position,
    }
    hess[(1, 0)] = hess[(0, 1)]
    p = imm.n_components - 3
    h = np.zeros((p, 2, 2))
    for i in range(2):
        for j in range(2):
            vec = np.zeros(imm.n_components)
            for a in range(2):
                for b in range(2):
                    vec += coeffs[i, a] * coeffs[j, b] * hess[(a, b)]
            if p:
                h[:, i, j] = normals @ vec

    framed = FramedPoint(
        base_point=point,
        chart=chart,
        chart_uv=(theta, phi),
        position=position,
        tangent_frame=np.stack([e1, e2]),
        normal_frame=normals,
        frame_chart_coeffs=coeffs,
        basis_columns=columns,
    )
    return first_form, h, framed


def _first_derivatives_complex_step(imm: Immersion, chart: int,
                                    theta: np.ndarray, phi: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray]:
    """Chart first derivatives by complex-step (forward dual-number) evaluation.

    The chart map and the harmonic polynomials are entire, so
    Im f(x + i*eps)/eps recovers the derivative to machine precision with no
    subtractive cancellation; this keeps the eventual second differences of
    the metric coefficients clean.
    """
    eps = 1e-150
    du = evaluate(imm, chart_point(chart, theta + 1j * eps, phi)).imag / eps
    dv = evaluate(imm, chart_point(chart, theta, phi + 1j * eps)).imag / eps
    return du, dv


def _brioschi_curvature(imm: Immersion, chart: int, theta: float, phi: float,
                        h: float) -> float:
    """Intrinsic Gaussian curvature from first-form derivatives only.

    Metric coefficients on a local 5x5 grid come from complex-step first
    derivatives (pointwise exact), their own derivatives from 4th-order real
    stencils; only one level of cancellation remains.
    """
    offsets = np.arange(-2, 3) * h
    tt = theta + offsets[:, None] + 0.0 * offsets[None, :]
    pp = phi + 0.0 * offsets[:, None] + offsets[None, :]
    du, dv = _first_derivatives_complex_step(imm, chart, tt, pp)
    E = np.einsum("abc,abc->ab", du, du)
    Fm = np.einsum("abc,abc->ab", du, dv)
    G = np.einsum("abc,abc->ab", dv, dv)

    def d_u(f):
        return np.dot(_D1, f[:, 2]) / h

    def d_v(f):
        return np.dot(_D1, f[2, :]) / h

    def d_vv(f):
        return np.dot(_D2, f[2, :]) / h**2

    def d_uu(f):
        return np.dot(_D2, f[:, 2]) / h**2

    def d_uv(f):
        return np.einsum("i,j,ij->", _D1, _D1, f) / h**2

    e0, f0, g0 = E[2, 2], Fm[2, 2], G[2, 2]
    m1 = np.array(
        [
            [-0.5 * d_vv(E) + d_uv(Fm) - 0.5 * d_uu(G), 0.5 * d_u(E), d_u(Fm) - 0.5 * d_v(E)],
            [d_v(Fm) - 0.5 * d_u(G), e0, f0],
            [0.5 * d_v(G), f0, g0],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * d_v(E), 0.5 * d_u(G)],
            [0.5 * d_v(E), e0, f0],
            [0.5 * d_u(G), f0, g0],
        ]
    )
    det_g = e0 * g0 - f0 * f0
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / det_g**2)


# ---------------------------------------------------------------------------
# covariant derivative of h
# ---------------------------------------------------------------------------


def _transported_h(imm: Immersion, chart: int, uv: np.ndarray,
                   frame: FramedPoint, h_fd: float) -> np.ndarray:
    """Second-form components at chart point ``uv`` in the transported frame.

    The base frame is projected onto the tangent/normal spaces of the nearby
    point and re-orthonormalized in the recorded order; this approximates
    parallel transport to second order, which the symmetric central
    difference then cancels to first order overall.
    """
    theta, phi = float(uv[0]), float(uv[1])
    jet = _local_jet(imm, chart, theta, phi, h_fd)
    position = jet.value
    basis = np.stack([jet.du, jet.dv])           # (2, C) tangent span
    gram = basis @ basis.T
    gram_inv = np.linalg.inv(gram)

    def project_tangent(v):
        return basis.T @ (gram_inv @ (basis @ v))

    tangents = []
    for e in frame.tangent_frame:
        v = project_tangent(e)
        for t in tangents:
            v = v - np.dot(v, t) * t
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            raise FrameDegeneracyError("transported tangent frame degenerated")
        tangents.append(v / norm)
    tangents = np.stack(tangents)

    normals = []
    for n in frame.normal_frame:
        v = n - np.dot(n, position) * position - project_tangent(n)
        for m in normals:
            v = v - np.dot(v, m) * m
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            raise FrameDegeneracyError("transported normal frame degenerated")
        normals.append(v / norm)
    normals = np.stack(normals) if normals else np.zeros((0, imm.n_components))

    hess = {
        (0, 0): jet.duu - np.dot(jet.duu, position) * position,
        (0, 1): jet.duv - np.dot(jet.duv, position) * position,
        (1, 1): jet.dvv - np.dot(jet.dvv, position) * position,
    }
    hess[(1, 0)] = hess[(0, 1)]
    # chart components of the transported tangents: solve the 2x2 Gram system
    coeffs = (gram_inv @ (basis @ tangents.T)).T   # (2, 2): t_i = c[i,a] d_a
    p = normals.shape[0]
    h_out = np.zeros((p, 2, 2))
    for i in range(2):
        for j in range(2):
            vec = np.zeros(imm.n_components)
            for a in range(2):
                for b in range(2):
                    vec += coeffs[i, a] * coeffs[j, b] * hess[(a, b)]
            if p:
                h_out[:, i, j] = normals @ vec
    return h_out


def covariant_derivative_h(imm: Immersion, point, step: float = 1e-3,
                           fd_step: float = DEFAULT_FD_STEP):
    """First covariant derivative components h_{ijk} and their squared norm.

    Central differences of the second-form components along each tangent
    direction, evaluated in projection-transported frames.  Returns
    (h_ijk array of shape (p, 2, 2, 2) indexed [alpha, i, j, k], B1).
    """
    if not 1e-4 <= step <= 1e-2:
        raise ValueError(f"step must lie in [1e-4, 1e-2], got {step}")
    point = np.asarray(point, dtype=float)
    _, _, frame = fundamental_forms(imm, point, fd_step)
    theta, phi = frame.chart_uv
    center = np.array([theta, phi])
    p = imm.n_components - 3
    h_ijk = np.zeros((p, 2, 2, 2))
    for k in range(2):
        delta = step * frame.frame_chart_coeffs[k]
        h_plus = _transported_h(imm, frame.chart, center + delta, frame, fd_step)
        h_minus = _transported_h(imm, frame.chart, center - delta, frame, fd_step)
        h_ijk[:, :, :, k] = (h_plus - h_minus) / (2.0 * step)
    b1 = float(np.sum(h_ijk**2))
    return h_ijk, b1


def reference_scan(imm: Immersion, n_samples: int, seed: int,
                   fd_step: float = DEFAULT_FD_STEP,
                   with_derivatives: bool = False,
                   deriv_step: float = 1e-3) -> GeometryScan:
    """The per-sample scan loop, serial."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    points = fibonacci_sphere_points(n_samples, seed)
    scan = GeometryScan(
        s=imm.s,
        seed=seed,
        sample_points=points,
        charts=np.zeros(n_samples, dtype=int),
        first_form=np.zeros((n_samples, 2, 2)),
        S=np.zeros(n_samples),
        A_matrix=np.zeros((n_samples, 4, 4)),
        A_norm_sq=np.zeros(n_samples),
        rho_perp=np.zeros(n_samples),
        H_norm_sq=np.zeros(n_samples),
        K_induced=np.zeros(n_samples),
        K_gauss=np.zeros(n_samples),
        a_dot_b=np.zeros(n_samples),
        a_norm_sq=np.zeros(n_samples),
        b_norm_sq=np.zeros(n_samples),
        B1=np.zeros(n_samples) if with_derivatives else None,
    )

    def work(i: int) -> None:
        point = points[i]
        first_form, h, framed = fundamental_forms(imm, point, fd_step)
        scan.charts[i] = framed.chart
        scan.first_form[i] = first_form
        scan.S[i] = np.sum(h**2)
        # the Gram matrix <h_ij, h_kl> of the second form, pair ij at 2i + j
        scan.A_matrix[i] = np.einsum("aij,akl->ijkl", h, h).reshape(4, 4)
        a_mat = np.einsum("aij,bij->ab", h, h)
        scan.A_norm_sq[i] = np.sum(a_mat**2)
        rho = 0.0
        for alpha in range(h.shape[0]):
            for beta in range(h.shape[0]):
                comm = h[alpha] @ h[beta] - h[beta] @ h[alpha]
                rho += np.sum(comm**2)
        scan.rho_perp[i] = rho
        mean_vec = 0.5 * (h[:, 0, 0] + h[:, 1, 1])
        scan.H_norm_sq[i] = np.sum(mean_vec**2)
        scan.K_gauss[i] = 1.0 + float(
            np.sum(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2)
        )
        theta, phi = framed.chart_uv
        scan.K_induced[i] = _brioschi_curvature(imm, framed.chart, theta, phi, fd_step)
        a_vec = h[:, 0, 0]
        b_vec = h[:, 0, 1]
        scan.a_dot_b[i] = float(np.dot(a_vec, b_vec))
        scan.a_norm_sq[i] = float(np.dot(a_vec, a_vec))
        scan.b_norm_sq[i] = float(np.dot(b_vec, b_vec))
        if with_derivatives:
            _, b1 = covariant_derivative_h(imm, point, deriv_step, fd_step)
            scan.B1[i] = b1

    for i in range(n_samples):
        work(i)
    return scan
