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
`integrate_frame` evaluates each path in one batch, forms every step's
propagator F_k^-1 F_{k+1} from it at once and multiplies them along the
path.  The frame command uses `MeshCoefficients`, interpolated from mesh
fields with derivatives from least-squares quadratic fits on vertex
neighborhoods, which raises StepTooLarge for a point off the mesh; every
other source (the closed-form ones of the test references) is a test fake.
Its triangulation is joggled, so no frame depends on rounding.
`integrate_frame` returns a `FrameSheet` of arrays, and `cli` writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cubic import CubicDifferential
from .surface import DiscreteSurface, MeshError, NumericalFailure

ETA = np.diag([1.0, 1.0, -1.0]).astype(complex)
MAX_STEP_DEFECT = 1e-6   # largest unitarity-defect growth in one RK4 step
STENCIL_RADIUS = 1e-3    # chart radius of flatness_defect's 5-point stencil


class StepTooLarge(NumericalFailure):
    """A single integration step produced a group defect above threshold."""


def s_from_u(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Frame scale s = sqrt(e^u lambda / 2) > 0 from u and the conformal
    factor lambda sampled at the same points (per class or per chart
    vertex)."""
    return np.sqrt(np.exp(np.asarray(u, dtype=float)) * lam / 2.0)


def maurer_cartan(sval, s_z, qval):
    """Connection matrices (A, B) at a point, or stacks of them at arrays of
    points; both are traceless.  s is real, so s_zbar = conj(s_z)."""
    a, b, qs = s_z / sval, np.conjugate(s_z) / sval, qval / sval ** 2
    o = np.zeros(np.shape(a), dtype=complex)      # makes A and B complex
    A = np.stack([a, o, sval, -qs, -a, o, o, sval, o], -1)
    B = np.stack([-b, np.conjugate(qs), o, o, b, sval, sval, o, o], -1)
    return A.reshape(o.shape + (3, 3)), B.reshape(o.shape + (3, 3))


def su21_defect(F: np.ndarray):
    """(max |F^dagger eta F - eta|, |det F - 1|), per matrix of a stack."""
    gram = np.swapaxes(F.conj(), -1, -2) @ ETA @ F
    return (np.abs(gram - ETA).max(axis=(-2, -1)),
            np.abs(np.linalg.det(F) - 1.0))


# ---------------------------------------------------------------------------
# coefficient sources


class MeshCoefficients:
    """Frame coefficients interpolated from mesh fields.

    s is computed per chart vertex by `s_from_u` from u and the chart
    conformal factor; s_z comes from a least-squares quadratic fit on each
    vertex's neighborhood.  One C1 interpolator carries the columns [s, Re s_z,
    Im s_z, Re q, Im q]: coefficients are smooth away from seams, and a
    batch of points costs one call.

    The octagon's mirror-image vertex pairs form isosceles trapezoids,
    cocircular quadruples whose Delaunay split plain qhull picks by rounding,
    so one ulp on its chart vertices can move frames by 6.5e-4 at refinement
    2.  qhull's seeded joggle (`QJ`) splits them alike whatever the last
    bits, and the same ulp moves frames by at most 5e-15.
    """

    def __init__(self, u: np.ndarray, q: CubicDifferential):
        # imported here, not at the top: only the frame command needs
        # scipy.interpolate, and it loads scipy.optimize too, which would
        # lengthen every other command's start-up
        from scipy.interpolate import CloughTocher2DInterpolator
        from scipy.spatial import Delaunay

        surface = q.surface
        z = surface.vertices
        pts = np.column_stack([z.real, z.imag])
        s_chart = s_from_u(np.asarray(u, dtype=float)[surface.class_of],
                           surface.conformal_factor)
        s_z = _vertex_wirtinger(surface, s_chart)
        qv = q.values.astype(complex)
        self._interp = CloughTocher2DInterpolator(
            Delaunay(pts, qhull_options="QJ"),
            np.column_stack([s_chart, s_z.real, s_z.imag, qv.real, qv.imag]))
        self._off_mesh = _off_mesh(self._interp.tri, surface.sides)

    def at_many(self, zs):
        """Arrays (s, s_z, q); StepTooLarge names the first point off the mesh.

        The interpolator covers the hull of the chart vertices, which on the
        octagon reaches past the mesh between corners; a point is off the
        mesh when it lies in a simplex `_off_mesh` marks, or outside the hull.
        """
        zs = np.asarray(zs, dtype=complex)
        xy = np.column_stack([zs.real, zs.imag])
        vals = self._interp(xy)
        outside = (self._off_mesh[self._interp.tri.find_simplex(xy)]
                   | ~np.isfinite(vals[:, 0]))
        if outside.any():
            z = complex(zs[outside.argmax()])
            raise StepTooLarge(f"point {z:.4f} is outside the meshed patch")
        # (re, im) column pairs viewed as complex keep every bit, signed zeros too
        return (vals[:, 0], vals[:, 1:3].copy().view(complex)[:, 0],
                vals[:, 3:5].copy().view(complex)[:, 0])


def _off_mesh(tri, sides: np.ndarray) -> np.ndarray:
    """Per simplex of the Delaunay triangulation `tri` of the chart vertices,
    whether it lies off the mesh bounded by `sides` (`DiscreteSurface.sides`),
    and a last True: `find_simplex`'s -1, outside the hull, reads as off.

    The hull reaches past the mesh only in the lens between a side and its
    chord.  Each side's vertices lie on a line, or on a circle whose disk
    holds no other vertex (a geodesic bowing into the polygon), so they span
    that lens as one Delaunay face: a simplex is off exactly when its three
    vertices lie on one side.  On a straight side these are the joggle's
    zero-area slivers, which `find_simplex` never returns.
    """
    on = np.zeros((len(sides), len(tri.points)), dtype=bool)
    on[np.arange(len(sides))[:, None], sides] = True
    return np.append(on[:, tri.simplices].all(axis=2).any(axis=0), True)


def _vertex_wirtinger(surface: DiscreteSurface, f: np.ndarray) -> np.ndarray:
    """Per-vertex f_z = (f_x - i f_y)/2 by quadratic least squares.

    Each vertex is fit together with its one-ring (two-ring if fewer than
    six neighbors) against a quadratic in the chart offsets.  All fits are
    one stacked QR solve: every ring is padded with zero rows (the vertex
    itself) up to the largest, which leaves its least-squares solution
    unchanged.  A singular fit, from degenerate mesh data, raises MeshError.
    """
    z = surface.vertices
    n = len(z)
    a, b = surface.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
    one = sp.csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])),
                        shape=(n, n))
    two = one @ one + one
    two.setdiag(0.0)                    # i is on its own two-ring pattern
    small = np.diff(one.indptr) < 6
    ring = sp.diags((~small).astype(float)) @ one \
        + sp.diags(small.astype(float)) @ two
    ring.eliminate_zeros()

    count = np.diff(ring.indptr)
    rows = np.repeat(np.arange(n), count)
    idx = np.repeat(np.arange(n)[:, None], count.max(), axis=1)
    idx[rows, np.arange(ring.nnz) - ring.indptr[rows]] = ring.indices
    d = z[idx] - z[:, None]
    dx, dy = d.real, d.imag
    Q, R = np.linalg.qr(np.stack([dx, dy, dx * dx, dx * dy, dy * dy], -1))
    rhs = f[idx] - f[:, None]
    try:
        coef = np.linalg.solve(R, np.einsum("nkj,nk->nj", Q, rhs)[..., None])
    except np.linalg.LinAlgError as exc:
        raise MeshError(f"singular derivative fit: {exc}") from exc
    return 0.5 * (coef[:, 0, 0] - 1j * coef[:, 1, 0])


# ---------------------------------------------------------------------------
# integration


@dataclass
class FrameSheet:
    """Frames sampled along a chart path with per-node defect metrics."""

    path: np.ndarray          # complex nodes actually stepped through
    frames: np.ndarray        # (N, 3, 3) complex, frames[0] = identity
    defects: np.ndarray       # (N, 3): unitarity, |det - 1|, flatness


def flatness_defect(coeffs, z):
    """Finite-difference residual of the local integrability equations.

    Returns the larger of |q_zbar| and the defect of
    d^2/dz dzbar log(s^2) = |q|^2 s^-4 + s^2, both sampled on a 5-point
    stencil of radius STENCIL_RADIUS around z.  `z` is a point (float
    result) or an array of points (array result); all 5 N stencil points,
    node by node, go to one `coeffs.at_many` call.
    """
    h = STENCIL_RADIUS
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
    `step`.  The equation is linear with the connection on the right, so a
    classical fourth-order step is exactly F_{k+1} = F_k Phi_k with

        Phi = I + (C0 + 4 Cm + C1)/6 + (C0 Cm + Cm^2 + Cm C1)/6
                + (C0 Cm^2 + Cm^2 C1)/12 + C0 Cm^2 C1/24,

    where C = A dz + B conj(dz) at the step's start, midpoint and end, dz
    being the step's chart displacement; the frames are the running product
    of the Phi_k.  All RK4 points (the start, each segment start the last
    end point misses, a midpoint and end point per step) go to one
    `coeffs.at_many` call, all node stencils to one `flatness_defect` call.
    Per node, the defects are max |F^dagger eta F - eta|, |det F - 1| and
    the flatness defect.  The frame is never reprojected onto the group, so
    the first two measure the accumulated integrator error (about 4e-11 on
    the benchmark's octagon loop).  A unitarity jump above MAX_STEP_DEFECT
    in one step raises StepTooLarge naming the first such step's end point.
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")

    points = [path[0]]
    dz, start = [], []              # per step: chart displacement, start index
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
            dz.append(hh * seg)
            start.append(len(points) - 1)
            points += [a + (tau0 + 0.5 * hh) * seg, a + (tau0 + hh) * seg]
    s, s_z, q = coeffs.at_many(points)
    A, B = maurer_cartan(s, s_z, q)

    i = np.array(start, dtype=int)
    dz = np.array(dz, dtype=complex)[:, None, None]
    C0, Cm, C1 = (A[j] * dz + B[j] * np.conjugate(dz) for j in (i, i + 1, i + 2))
    Cm2 = Cm @ Cm
    C0Cm2 = C0 @ Cm2
    phi = (np.eye(3) + (C0 + 4.0 * Cm + C1 + C0 @ Cm + Cm2 + Cm @ C1) / 6.0
           + (C0Cm2 + Cm2 @ C1) / 12.0 + (C0Cm2 @ C1) / 24.0)
    frames = np.empty((len(phi) + 1, 3, 3), dtype=complex)
    frames[0] = np.eye(3)
    # past a step the guard rejects, the product may overflow; it raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p in enumerate(phi):
            frames[k + 1] = frames[k] @ p
        unit, det = su21_defect(frames)
        growth = np.diff(unit)
    bad = np.flatnonzero(growth > MAX_STEP_DEFECT)
    if len(bad):
        k = bad[0]
        raise StepTooLarge(f"unitarity defect grew by {growth[k]:.2e} in one step "
                           f"near z = {points[start[k] + 2]:.4f}; reduce the step size")

    nodes = np.array(points)[np.r_[0, i + 2]]
    return FrameSheet(path=nodes, frames=frames, defects=np.column_stack(
        [unit, det, flatness_defect(coeffs, nodes)]))
