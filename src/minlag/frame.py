"""SU(2,1) Legendrian frames, Maurer-Cartan integration, second fundamental form.

A solution u of the structure equation together with the cubic differential q
determines an induced metric 2 s^2 |dz|^2 with 2 s^2 = e^u lambda, and a
moving frame F with values in SU(2,1) for the Hermitian form
eta = diag(1, 1, -1).  The frame solves F' = F (A zdot + B zbardot) along any
chart path, where

    A = [[(log s)_z, 0, s], [-q s^-2, -(log s)_z, 0], [0, s, 0]],
    B = [[-(log s)_zbar, qbar s^-2, 0], [0, (log s)_zbar, s], [s, 0, 0]].

A zdot + B conj(zdot) lies in su(2,1) for every real tangent, so the exact
flow stays in the group and the measured unitarity and determinant defects
are pure integrator error, here O(h^4) from classical fourth-order stepping.
Flatness of the connection (path independence) additionally requires the
local equations q_zbar = 0 and d^2/dz dzbar log(s^2) = |q|^2 s^-4 + s^2,
which hold exactly only for solutions on a hyperbolic-factor chart; the
flatness defect measures their failure by finite differences.

Coefficients can be supplied analytically or interpolated from mesh fields;
derivatives of mesh fields come from least-squares quadratic fits on vertex
neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import CloughTocher2DInterpolator

from .cubic import CubicDifferential
from .surface import DiscreteSurface, _mobius_apply, hyperbolic_midpoint

ETA = np.diag([1.0, 1.0, -1.0]).astype(complex)


class StepTooLarge(RuntimeError):
    """A single integration step produced a group defect above threshold."""


def s_from_u(u: np.ndarray, s: DiscreteSurface) -> np.ndarray:
    """Per-class conformal frame scale s = sqrt(e^u lambda / 2) > 0."""
    lam = s.lambda_classes()
    return np.sqrt(np.exp(np.asarray(u, dtype=float)) * lam / 2.0)


def maurer_cartan(sval, s_z, s_zbar, qval):
    """Connection matrices (A, B) at a point; both are traceless."""
    a = s_z / sval
    b = s_zbar / sval
    A = np.array([
        [a, 0.0, sval],
        [-qval / sval ** 2, -a, 0.0],
        [0.0, sval, 0.0],
    ], dtype=complex)
    B = np.array([
        [-b, np.conjugate(qval) / sval ** 2, 0.0],
        [0.0, b, sval],
        [sval, 0.0, 0.0],
    ], dtype=complex)
    return A, B


def su21_defect(F: np.ndarray):
    """(max |F^dagger eta F - eta|, |det F - 1|)."""
    gram = F.conj().T @ ETA @ F
    return (float(np.abs(gram - ETA).max()),
            float(abs(np.linalg.det(F) - 1.0)))


def second_fundamental_form(sval: float, qval: complex) -> np.ndarray:
    """Second fundamental form components in the normal basis (iE1, iE2).

    Rows are II(E1,E1), II(E1,E2), II(E2,E2); the first and last rows are
    exact negatives (minimality), and all entries scale as q / s^3.
    """
    if sval <= 0:
        raise ValueError("s must be positive")
    c = 2.0 ** -0.5 * sval ** -3.0
    re, im = qval.real, qval.imag
    return np.array([
        [-c * im, -c * re],
        [-c * re, c * im],
        [c * im, c * re],
    ])


# ---------------------------------------------------------------------------
# coefficient sources


class AnalyticCoefficients:
    """Frame coefficients from closed-form callables.

    `fn(z) -> (s, s_z, s_zbar, q)` evaluated at complex chart points.
    """

    def __init__(self, fn):
        self._fn = fn

    def at(self, z: complex):
        return self._fn(complex(z))


def poincare_trivial_coefficients() -> AnalyticCoefficients:
    """u = 0, q = 0 on the hyperbolic disk chart: the totally geodesic case.

    s = sqrt(lambda/2) = sqrt(2) / (1 - |z|^2); the connection is exactly
    flat, so loop holonomy measures pure integrator error.
    """
    def fn(z):
        r2 = (z * z.conjugate()).real
        denom = 1.0 - r2
        s = np.sqrt(2.0) / denom
        s_z = np.sqrt(2.0) * z.conjugate() / denom ** 2
        return s, s_z, s_z.conjugate(), 0.0 + 0.0j
    return AnalyticCoefficients(fn)


def constant_coefficients(sval: float, qval: complex) -> AnalyticCoefficients:
    """Spatially constant s and q (torus backend with constant data)."""
    def fn(z):
        return sval, 0.0 + 0.0j, 0.0 + 0.0j, complex(qval)
    return AnalyticCoefficients(fn)


class MeshCoefficients:
    """Frame coefficients interpolated from mesh fields.

    s is computed per chart vertex from u and the chart conformal factor;
    s_z comes from a least-squares quadratic fit on each vertex's
    neighborhood, and all fields are interpolated with a C1 scheme so the
    coefficients fed to the integrator are smooth away from seams.
    """

    def __init__(self, surface: DiscreteSurface, u: np.ndarray,
                 q: CubicDifferential):
        z = surface.vertices
        pts = np.column_stack([z.real, z.imag])
        u_chart = np.asarray(u, dtype=float)[surface.class_of]
        s_chart = np.sqrt(np.exp(u_chart) * surface.conformal_factor / 2.0)
        s_z = _vertex_wirtinger(surface, s_chart)
        qv = q.values.astype(complex)

        self._s = CloughTocher2DInterpolator(pts, s_chart)
        self._sz_re = CloughTocher2DInterpolator(pts, s_z.real)
        self._sz_im = CloughTocher2DInterpolator(pts, s_z.imag)
        self._q_re = CloughTocher2DInterpolator(pts, qv.real)
        self._q_im = CloughTocher2DInterpolator(pts, qv.imag)

    def at(self, z: complex):
        xy = (z.real, z.imag)
        s = float(self._s(xy))
        if not np.isfinite(s):
            raise StepTooLarge(f"point {z:.4f} is outside the meshed patch")
        s_z = complex(float(self._sz_re(xy)), float(self._sz_im(xy)))
        qv = complex(float(self._q_re(xy)), float(self._q_im(xy)))
        return s, s_z, s_z.conjugate(), qv


def _vertex_wirtinger(surface: DiscreteSurface, f: np.ndarray) -> np.ndarray:
    """Per-vertex f_z = (f_x - i f_y)/2 by quadratic least squares.

    Each vertex is fit together with its one-ring (two-ring if fewer than
    six neighbors) against a quadratic in the chart offsets.
    """
    z = surface.vertices
    n = len(z)
    neighbors = [set() for _ in range(n)]
    for a, b, c in surface.triangles:
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))

    out = np.empty(n, dtype=complex)
    for i in range(n):
        ring = set(neighbors[i])
        if len(ring) < 6:
            for j in list(ring):
                ring.update(neighbors[j])
            ring.discard(i)
        idx = np.fromiter(ring, dtype=int)
        dx = z[idx].real - z[i].real
        dy = z[idx].imag - z[i].imag
        A = np.column_stack([dx, dy, dx * dx, dx * dy, dy * dy])
        rhs = f[idx] - f[i]
        coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        fx, fy = coef[0], coef[1]
        out[i] = 0.5 * (fx - 1j * fy)
    return out


# ---------------------------------------------------------------------------
# integration


@dataclass
class FrameSheet:
    """Frames sampled along a chart path with per-node defect metrics."""

    path: np.ndarray          # complex nodes actually stepped through
    frames: np.ndarray        # (N, 3, 3) complex, frames[0] = identity
    s_field: np.ndarray       # s at each node
    defects: np.ndarray       # (N, 3): unitarity, |det - 1|, flatness

    def to_json(self) -> dict:
        return {
            "path": [[float(z.real), float(z.imag)] for z in self.path],
            "frames": [[[float(v.real), float(v.imag)] for v in F.ravel()]
                       for F in self.frames],
            "defects": self.defects.tolist(),
        }


def _connection(c, zdot: complex) -> np.ndarray:
    """A zdot + B conj(zdot) from a coefficient tuple `coeffs.at(z)`."""
    A, B = maurer_cartan(*c)
    return A * zdot + B * np.conjugate(zdot)


def flatness_defect(coeffs, z: complex, h: float = 1e-3,
                    center=None) -> float:
    """Finite-difference residual of the local integrability equations.

    Returns the larger of |q_zbar| and the defect of
    d^2/dz dzbar log(s^2) = |q|^2 s^-4 + s^2, both sampled on a 5-point
    stencil of radius h around z.  `center` is `coeffs.at(z)` when the
    caller has it already.
    """
    if center is None:
        center = coeffs.at(z)
    vals = [center] + [coeffs.at(w) for w in
                       (z + h, z - h, z + 1j * h, z - 1j * h)]
    log_s2 = [2.0 * np.log(v[0]) for v in vals]
    lap = (log_s2[1] + log_s2[2] + log_s2[3] + log_s2[4] - 4.0 * log_s2[0]) / h ** 2
    ddzbar = 0.25 * lap
    s0, _, _, q0 = vals[0]
    gauss_res = abs(ddzbar - (abs(q0) ** 2 * s0 ** -4.0 + s0 ** 2))
    q_x = (vals[1][3] - vals[2][3]) / (2.0 * h)
    q_y = (vals[3][3] - vals[4][3]) / (2.0 * h)
    q_zbar = 0.5 * (q_x + 1j * q_y)
    return float(max(gauss_res, abs(q_zbar)))


def mesh_flatness_defect(surface: DiscreteSurface, u: np.ndarray,
                         q: CubicDifferential, z: complex,
                         h: float = 1e-3) -> float:
    """Flatness defect of mesh fields on a finite-difference cell at z."""
    return flatness_defect(MeshCoefficients(surface, u, q), z, h)


def _project_su21(F: np.ndarray) -> np.ndarray:
    """Polar-type reprojection onto the eta-unitary group with det 1."""
    M = ETA @ F.conj().T @ ETA @ F
    P = sla.sqrtm(M)
    G = F @ np.linalg.inv(P)
    det = np.linalg.det(G)
    return G / det ** (1.0 / 3.0)


def side_pairing_frame_product(coeffs, surface: DiscreteSurface,
                               pair_index: int, step: float = 0.005):
    """Approximate holonomy of one side pairing as a frame product.

    For the pairing g mapping side j onto side i, integrates frames from the
    chart origin to the hyperbolic midpoint of side j and to its identified
    image on side i, and returns (F_i F_j^{-1}, defect dict).  The product
    approximates the deck transformation's frame representation only up to
    the chart gauge and the integration/flatness error, so the defects are
    reported alongside and nothing is certified.
    """
    if not surface.side_pairings:
        raise ValueError("surface carries no side pairings")
    i, j, g = surface.side_pairings[pair_index]
    # octagon corners sit at chart indices 1..8 by construction
    corner_j0 = complex(surface.vertices[1 + j])
    corner_j1 = complex(surface.vertices[1 + (j + 1) % 8])
    m_j = hyperbolic_midpoint(corner_j0, corner_j1)
    m_i = _mobius_apply(g, m_j)
    # stop slightly short of the rim so interpolated coefficients stay valid
    path_j = [0.0, 0.98 * m_j]
    path_i = [0.0, 0.98 * m_i]
    sheet_j = integrate_frame(coeffs, path_j, step=step)
    sheet_i = integrate_frame(coeffs, path_i, step=step)
    product = sheet_i.frames[-1] @ np.linalg.inv(sheet_j.frames[-1])
    unit_d, det_d = su21_defect(product)
    defects = {
        "product_unitarity": unit_d,
        "product_det": det_d,
        "path_unitarity": float(max(sheet_j.defects[:, 0].max(),
                                    sheet_i.defects[:, 0].max())),
        "path_flatness": float(max(sheet_j.defects[:, 2].max(),
                                   sheet_i.defects[:, 2].max())),
    }
    return product, defects


def integrate_frame(coeffs, path, step: float = 0.01, project: bool = False,
                    max_step_defect: float = 1e-6) -> FrameSheet:
    """Integrate F' = F (A zdot + B zbardot) along a polyline, F(0) = I.

    `path` is a sequence of complex chart points inside one simply connected
    patch; each segment is subdivided into chart steps of length at most
    `step` and advanced with the classical fourth-order rule.  Per-node
    unitarity/determinant/flatness defects are recorded; a unitarity jump
    above `max_step_defect` in one step raises StepTooLarge.  With `project`
    the frame is reprojected onto the group after every step (defects then
    measure only the local error, not its accumulation).
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")

    F = np.eye(3, dtype=complex)
    nodes = [path[0]]
    frames = [F.copy()]
    z1 = path[0]
    c1 = coeffs.at(z1)
    svals = [c1[0]]
    defects = [(0.0, 0.0, flatness_defect(coeffs, z1, center=c1))]

    prev_unit_defect = 0.0
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a
        length = abs(seg)
        if length == 0.0:
            continue
        # each step evaluates its midpoint and end point once; k1 reuses the
        # previous end point, re-evaluated at a segment start it misses
        c0 = c1 if z1 == a else coeffs.at(a)
        nsub = max(1, int(np.ceil(length / step)))
        hh = 1.0 / nsub
        zdot = seg                      # d z / d tau on the unit parameter
        for k in range(nsub):
            tau0 = k * hh
            z1 = a + (tau0 + hh) * seg
            c_half, c1 = coeffs.at(a + (tau0 + 0.5 * hh) * seg), coeffs.at(z1)
            conn_half = _connection(c_half, zdot)
            k1 = F @ _connection(c0, zdot)
            k2 = (F + 0.5 * hh * k1) @ conn_half
            k3 = (F + 0.5 * hh * k2) @ conn_half
            k4 = (F + hh * k3) @ _connection(c1, zdot)
            F = F + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project:
                F = _project_su21(F)
            unit_defect, det_defect = su21_defect(F)
            if unit_defect - prev_unit_defect > max_step_defect:
                raise StepTooLarge(
                    f"unitarity defect grew by {unit_defect - prev_unit_defect:.2e} "
                    f"in one step near z = {z1:.4f}; reduce the step size")
            prev_unit_defect = unit_defect
            nodes.append(z1)
            frames.append(F.copy())
            svals.append(c1[0])
            defects.append((unit_defect, det_defect,
                            flatness_defect(coeffs, z1, center=c1)))
            c0 = c1

    return FrameSheet(path=np.array(nodes), frames=np.array(frames),
                      s_field=np.array(svals), defects=np.array(defects))
