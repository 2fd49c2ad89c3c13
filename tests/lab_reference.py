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

``summary`` and ``verify_identities`` are ``GeometryScan.summary`` and
``calabi_lab.verify_identities`` as they were while each statistic and each
residual maximum was its own numpy reduction over one field, before the
fields and residuals were stacked.  They are the byte reference for the
lab report's ``summary`` and ``identities`` blocks.  Do not edit them to
track the library.

``_scan_block`` is the library's batched kernel as it was while each of its
small sums was a Python ``sum`` and the whole Gram matrix was summed; with
the kernel functions copied beside it, it is the byte reference for every
``GeometryScan`` field.  Do not edit it either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pinchcert.calabi_lab import (
    _COVARIANT,
    _FIRST,
    _ORDERINGS,
    _PAIR,
    _PAIR_ROWS,
    _PHI_ORDER,
    _SECOND,
    _SINGLE,
    _THETA_ORDER,
    _TYPES,
    DEFAULT_TOLERANCES,
    JETS,
    FrameDegeneracyError,
    GeometryScan,
    IdentityReport,
    IdentityResidual,
    Immersion,
    _charted,
    _det3,
    _frame,
    _frame_tables,
    _real_layout,
    _require,
    _second_form_invariants,
    _taylor_coefficients,
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


def summary(self: GeometryScan) -> dict:
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
        "S": stats(self.S),
        "rho_perp": stats(self.rho_perp),
        "H_norm_sq": stats(self.H_norm_sq),
        "K_induced": stats(self.K_induced),
        "A_norm_sq": stats(self.A_norm_sq),
    }
    if self.B1 is not None:
        out["B1"] = stats(self.B1)
    return out


def verify_identities(scan: GeometryScan) -> IdentityReport:
    """Per-identity max residuals over the scan, checked against
    :data:`DEFAULT_TOLERANCES`.

    The derivative identity is marked absent (not failed) when the scan ran
    without a derivative pass.  A_norm and normal_curvature are derived, not
    independent oracles: for trace-free h with a = h_11, b = h_12,
    |A|^2 - S^2/2 = 2(|a|^2 - |b|^2)^2 + 8(a.b)^2 and
    rho_perp - S^2 = -2(|A|^2 - S^2/2), so their residuals are quadratic in
    the second_form_vectors defect.
    """
    from pinchcert.pinching_bounds import calabi_value

    if scan.n_samples == 0:
        raise ValueError("empty scan")
    tol = DEFAULT_TOLERANCES
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


# ---------------------------------------------------------------------------
# the batched kernel, frozen
# ---------------------------------------------------------------------------
#
# ``_scan_block`` and the kernel functions below are the library's as they
# were while the Gram matrix was summed whole, component by component, and
# each stacked matrix product and the Christoffel combination was a Python
# ``sum`` over its small axis.  The helpers they call that are not copied
# here are the library's own.  The byte reference for every scan field:
# do not edit them to track the library.


def _chart_xyz(chart, st, ct, sp, cp) -> np.ndarray:
    """Unit vectors (..., 3) from the sines and cosines of theta and phi.

    Chart 1 is chart 0 cyclically rotated.  The factors and ``chart``
    broadcast against each other.
    """
    x, y = st * cp, st * sp
    zero = np.asarray(chart) == 0
    return np.stack([np.where(zero, x, ct), np.where(zero, y, x), np.where(zero, ct, y)],
                    axis=-1)


def _chart_jets(charts, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """3-jets (10, n) of w = x + iy and z along the chart maps.

    The a-th derivative of sin is entry a of the cycle (sin, cos, -sin,
    -cos, sin) and that of cos is entry a + 1, so a chart derivative of
    sin(theta) cos(phi) is a product of two entries, and cos(theta) has
    no phi derivative; the chart formula itself is chart_point's.
    """
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    theta_cycle = np.stack([st, ct, -st, -ct, st])
    phi_cycle = np.stack([sp, cp, -sp, -cp, sp])
    xyz = _chart_xyz(charts, theta_cycle[_THETA_ORDER],
                     theta_cycle[_THETA_ORDER + 1] * (_PHI_ORDER == 0)[:, None],
                     phi_cycle[_PHI_ORDER], phi_cycle[_PHI_ORDER + 1])
    return xyz[..., 0] + 1j * xyz[..., 1], xyz[..., 2]


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
    (wa, wb, wc), (za, zb, zc) = np.moveaxis(w1, 1, 0), np.moveaxis(z1, 1, 0)
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
    values = np.empty((len(JETS),) + coeffs.shape[1:], dtype=complex)
    values[0] = coeffs[0]
    for rows, monomials in zip((slice(1, 3), slice(3, 6), slice(6, 10)), _monomial_jets(w, z)):
        values[rows] = sum(jet[:, None] * coeffs[t] for t, jet in enumerate(monomials, 1))
    return imm._rotate(_real_layout(imm.s, values))


def _product(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Stacked matrix products (r, k, n) x (k, q, n) -> (r, q, n)."""
    return sum(t[:, i, None] * m[i] for i in range(t.shape[1]))


def _frame_transform(a, b, c, order: int) -> np.ndarray:
    """(order+1, order+1, n): row q gives the frame component
    e1^(order-q) e2^q of a symmetric tensor from its chart components
    u^(order-t) v^t, where e1 = a d_u and e2 = b d_u + c d_v; it is
    a^(order-q) C(q, t) b^(q-t) c^t for t <= q."""
    binomial, a_power, b_power, c_power = _frame_tables(order)
    powers = [np.stack([np.ones_like(x), x, x * x, x * x * x]) for x in (a, b, c)]
    return binomial * powers[0][a_power] * powers[1][b_power] * powers[2][c_power]


def _scan_block(imm: Immersion, points: np.ndarray, first: int = 0) -> dict:
    """GeometryScan fields of the domain points (n, 3) in one vectorized pass.

    ``first`` is the scan index of points[0], for error messages.
    """
    charts, theta, phi = _charted(points)
    jets = _immersion_jets(imm, charts, theta, phi)
    gram = sum(jets[:, None, c] * jets[None, :, c] for c in range(imm.n_components))
    e, f, g = gram[1, 1], gram[1, 2], gram[2, 2]
    det_g = e * g - f * f
    _require(det_g > 1e-12 * e * g, "induced metric is singular", imm.s, first)

    # <f_I, f_u> and <f_I, f_v> for the seven fields I of order 2 and 3,
    # and the same raised by g^-1: on the rows of order 2, Gamma^l_ij
    low_u, low_v = gram[3:, 1], gram[3:, 2]
    up_u, up_v = (g * low_u - f * low_v) / det_g, (e * low_v - f * low_u) / det_g
    # the Gram matrix of their parts normal to the surface in the sphere;
    # the position is a unit vector orthogonal to the tangent plane
    normal = (gram[3:, 3:] - up_u[:, None] * low_u - up_v[:, None] * low_v
              - gram[3:, :1] * gram[0, 3:])

    # <h_ij, h_kl> in the orthonormal frame
    a, b, c = _frame(e, f, det_g)
    frame2 = _frame_transform(a, b, c, 2)
    h_gram = _product(_product(frame2, normal[:3, :3]), np.swapaxes(frame2, 0, 1))
    h_gram = h_gram[_PAIR_ROWS][:, _PAIR_ROWS]
    fields = _second_form_invariants(h_gram)
    fields["charts"] = charts
    fields["first_form"] = np.moveaxis(gram[1:3, 1:3], -1, 0)
    fields["A_matrix"] = np.moveaxis(h_gram, -1, 0)

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
    christoffel = np.stack([up_u[:3], up_v[:3]], axis=1).reshape(6, -1)
    covariant = -sum(_COVARIANT[p] * christoffel[p] for p in range(6))
    frame3 = _frame_transform(a, b, c, 3)
    rows = np.concatenate([_product(frame3, covariant), frame3], axis=1)
    fields["B1"] = (_ORDERINGS * (_product(rows, normal) * rows).sum(axis=1)).sum(axis=0)
    return fields
