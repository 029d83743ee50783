"""SU(2,1) Legendrian frames and their Maurer-Cartan integration.

A solution u of the structure equation for the data (t, q) determines an
induced metric 2 s^2 |dz|^2 with 2 s^2 = e^u lambda, and a moving frame F
with values in SU(2,1) for the Hermitian form eta = diag(1, 1, -1), whose
connection takes the immersion's cubic differential t q, written q below.
The frame solves F' = F (A zdot + B zbardot) along any chart path, where

    A = [[(log s)_z, 0, s], [-q s^-2, -(log s)_z, 0], [0, s, 0]],
    B = [[-(log s)_zbar, qbar s^-2, 0], [0, (log s)_zbar, s], [s, 0, 0]].

A zdot + B conj(zdot) lies in su(2,1) for every real tangent, so the exact
flow stays in the group and the measured unitarity and determinant defects
are pure integrator error, here O(h^4) from classical fourth-order stepping.
Flatness of the connection (path independence) additionally requires the
local equations q_zbar = 0 and d^2/dz dzbar log(s^2) = |q|^2 s^-4 + s^2,
which hold exactly only for solutions on a hyperbolic-factor chart; the
flatness defect measures their failure by finite differences.

A coefficient source is any object whose `at_many(zs) -> (s, s_z, q)`
evaluates a batch of chart points; since no point depends on F,
`integrate_frame` evaluates each path in one batch first.  The frame command
uses `MeshCoefficients`, interpolated from mesh fields with derivatives from
least-squares quadratic fits on vertex neighborhoods; every other source
(the closed-form ones of the test references) is a test fake.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import CubicDifferential
from .surface import DiscreteSurface

ETA = np.diag([1.0, 1.0, -1.0]).astype(complex)
MAX_STEP_DEFECT = 1e-6   # largest unitarity-defect growth in one RK4 step


class StepTooLarge(RuntimeError):
    """A single integration step produced a group defect above threshold."""


def s_from_u(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Frame scale s = sqrt(e^u lambda / 2) > 0 from u and the conformal
    factor lambda sampled at the same points (per class or per chart
    vertex)."""
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


# ---------------------------------------------------------------------------
# coefficient sources


class MeshCoefficients:
    """Frame coefficients interpolated from mesh fields.

    s is computed per chart vertex by `s_from_u` from u and the chart
    conformal factor; s_z comes from a least-squares quadratic fit on each
    vertex's neighborhood.  One C1 interpolator carries the columns [s, Re s_z,
    Im s_z, Re q, Im q]: coefficients are smooth away from seams, and a
    batch of points costs one call.
    """

    def __init__(self, u: np.ndarray, q: CubicDifferential):
        # imported here, not at the top: only the frame command needs
        # scipy.interpolate, and it loads scipy.optimize too, which would
        # lengthen every other command's start-up
        from scipy.interpolate import CloughTocher2DInterpolator

        surface = q.surface
        z = surface.vertices
        pts = np.column_stack([z.real, z.imag])
        s_chart = s_from_u(np.asarray(u, dtype=float)[surface.class_of],
                           surface.conformal_factor)
        s_z = _vertex_wirtinger(surface, s_chart)
        qv = q.values.astype(complex)
        self._interp = CloughTocher2DInterpolator(pts, np.column_stack(
            [s_chart, s_z.real, s_z.imag, qv.real, qv.imag]))

    def at_many(self, zs):
        """Arrays (s, s_z, q); StepTooLarge names the first point off the patch."""
        zs = np.asarray(zs, dtype=complex)
        vals = self._interp(zs.real, zs.imag)
        outside = ~np.isfinite(vals[:, 0])
        if outside.any():
            z = complex(zs[outside.argmax()])
            raise StepTooLarge(f"point {z:.4f} is outside the meshed patch")
        # (re, im) column pairs viewed as complex keep every bit, signed zeros too
        return (vals[:, 0], vals[:, 1:3].copy().view(complex)[:, 0],
                vals[:, 3:5].copy().view(complex)[:, 0])


def _point_coefficients(s, s_z, q):
    """Python scalars (s, s_z, s_zbar, q): numpy's complex division differs."""
    s_z = complex(s_z)
    return float(s), s_z, s_z.conjugate(), complex(q)


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
    defects: np.ndarray       # (N, 3): unitarity, |det - 1|, flatness

    def to_json(self) -> dict:
        return {
            "path": [[float(z.real), float(z.imag)] for z in self.path],
            "frames": [[[float(v.real), float(v.imag)] for v in F.ravel()]
                       for F in self.frames],
            "defects": self.defects.tolist(),
        }


def _connection(c, zdot: complex) -> np.ndarray:
    """A zdot + B conj(zdot) from a tuple (s, s_z, s_zbar, q)."""
    A, B = maurer_cartan(*c)
    return A * zdot + B * np.conjugate(zdot)


def flatness_defect(coeffs, z, h: float = 1e-3):
    """Finite-difference residual of the local integrability equations.

    Returns the larger of |q_zbar| and the defect of
    d^2/dz dzbar log(s^2) = |q|^2 s^-4 + s^2, both sampled on a 5-point
    stencil of radius h around z.  `z` is a point (float result) or an array
    of points (array result); all 5 N stencil points, node by node, go to
    one `coeffs.at_many` call.
    """
    z = np.asarray(z, dtype=complex)
    stencil = z.reshape(-1, 1) + np.array([0.0, h, -h, 1j * h, -1j * h])
    s, _, q = coeffs.at_many(stencil.ravel())
    s, q = s.reshape(-1, 5).T, q.reshape(-1, 5).T
    log_s2 = 2.0 * np.log(s)
    lap = (log_s2[1] + log_s2[2] + log_s2[3] + log_s2[4] - 4.0 * log_s2[0]) / h ** 2
    ddzbar = 0.25 * lap
    gauss_res = np.abs(ddzbar - (np.abs(q[0]) ** 2 * s[0] ** -4.0 + s[0] ** 2))
    q_x = (q[1] - q[2]) / (2.0 * h)
    q_y = (q[3] - q[4]) / (2.0 * h)
    q_zbar = 0.5 * (q_x + 1j * q_y)
    out = np.maximum(gauss_res, np.abs(q_zbar))
    return out.reshape(z.shape) if z.ndim else float(out[0])


def integrate_frame(coeffs, path, step: float) -> FrameSheet:
    """Integrate F' = F (A zdot + B zbardot) along a polyline, F(0) = I.

    `path` is a sequence of complex chart points inside one simply connected
    patch; each segment is subdivided into chart steps of length at most
    `step` and advanced with the classical fourth-order rule.  All RK4
    points (the start, each segment start the last end point misses, a
    midpoint and end point per step) go to one `coeffs.at_many` call, all
    node stencils to one `flatness_defect` call.  Per-node
    unitarity/determinant/flatness defects are recorded; a unitarity jump
    above MAX_STEP_DEFECT in one step raises StepTooLarge.  The frame is
    never reprojected onto the group, so the defects measure the accumulated
    integrator error (about 4e-11 on the benchmark's octagon loop).
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")

    points = [path[0]]
    steps = []                      # (zdot, hh, index of the step's start)
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a                 # d z / d tau on the unit parameter
        if seg == 0.0:
            continue
        if points[-1] != a:
            points.append(a)
        nsub = max(1, int(np.ceil(abs(seg) / step)))
        hh = 1.0 / nsub
        for k in range(nsub):
            tau0 = k * hh
            steps.append((seg, hh, len(points) - 1))
            points += [a + (tau0 + 0.5 * hh) * seg, a + (tau0 + hh) * seg]
    vals = [_point_coefficients(*c) for c in zip(*coeffs.at_many(points))]

    F = np.eye(3, dtype=complex)
    frames = [F.copy()]
    node_ids = [0]
    defects = [(0.0, 0.0)]
    prev_unit_defect = 0.0
    for zdot, hh, i in steps:
        conn_half = _connection(vals[i + 1], zdot)
        k1 = F @ _connection(vals[i], zdot)
        k2 = (F + 0.5 * hh * k1) @ conn_half
        k3 = (F + 0.5 * hh * k2) @ conn_half
        k4 = (F + hh * k3) @ _connection(vals[i + 2], zdot)
        F = F + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        unit_defect, det_defect = su21_defect(F)
        if unit_defect - prev_unit_defect > MAX_STEP_DEFECT:
            raise StepTooLarge(
                f"unitarity defect grew by {unit_defect - prev_unit_defect:.2e} "
                f"in one step near z = {points[i + 2]:.4f}; reduce the step size")
        prev_unit_defect = unit_defect
        node_ids.append(i + 2)
        frames.append(F.copy())
        defects.append((unit_defect, det_defect))

    nodes = np.array([points[i] for i in node_ids])
    flatness = flatness_defect(coeffs, nodes)
    return FrameSheet(path=nodes, frames=np.array(frames),
                      defects=np.column_stack([defects, flatness]))
