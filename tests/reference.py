"""Closed-form references that only the tests use.

The package's public API is what its commands run.  These functions check
it from outside: the cutoffs f1, f2, F1, F2 of the mountain-pass
functional one by one, its V-norm equivalence constants, the Legendre
pair of the cutoff estimates, the second fundamental form of the
immersion, closed-form frame coefficient sources (test fakes for
`minlag.frame.MeshCoefficients`), a stage-wise RK4 frame integrator, the
Mobius map of a side pairing and a side-pairing frame product for the
genus-2 holonomy, a per-vertex least-squares loop for the mesh Wirtinger
derivative, the assembled operator K + M diag(p) that the package only
factorizes or applies, K and M assembled in nine and three blocks (the
package's assembly in loops) and the column order of a full LU of K + M
(which the package takes from an ILU), the dense Jacobian of the fold
solve's Moore-Spence system, the octagon's subdivision one triangle at
a time with a dict of edge midpoints, and the octagon glued as the Bolza
surface (opposite sides paired).  They sit next to `scalar_oracle.py` and
are imported the same way, `from reference import ...`.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from minlag import surface
from minlag.cubic import CubicDifferential
from minlag.frame import integrate_frame, maurer_cartan, su21_defect
from minlag.mpass import _BLEND1, _BLEND2, THETA
from minlag.pde import linearize, v_field
from minlag.surface import DiscreteSurface, hyperbolic_midpoint


def _cutoff(neg, blend, pos):
    """Cutoff evaluated branch by branch: `neg` for s <= 0, the polynomial
    `blend` (ascending coefficients) on (0, 1] and `pos` for s > 1.  A
    scalar gives a float; NaN falls through to `pos`, which keeps it."""
    def fn(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.where(s <= 0.0, neg(s),
                           np.where(s <= 1.0, P.polyval(s, blend), pos(s)))
        return float(out) if out.ndim == 0 else out
    return fn


# the cutoffs of `minlag.mpass`, whose functional evaluates them fused
f1 = _cutoff(lambda s: 2.0 - 2.0 * np.exp(s), _BLEND1,
             lambda s: -THETA * s ** (THETA - 1.0))
f2 = _cutoff(lambda s: s - np.exp(-2.0 * s), _BLEND2, lambda s: 0.0 * s)
F1 = _cutoff(lambda s: 2.0 * s - 2.0 * np.exp(s) + 2.0,
             P.polyint(_BLEND1, k=0.0), lambda s: -s ** THETA)
F2 = _cutoff(lambda s: 0.5 * (s * s + np.exp(-2.0 * s)),
             P.polyint(_BLEND2, k=0.5), lambda s: 0.0 * s)


def assembled_operator(s: DiscreteSurface, p) -> sp.csr_matrix:
    """K + M diag(p) as a CSR matrix, for a per-class potential p or a
    scalar."""
    return (s.stiffness + sp.diags(s.mass_diag * p)).tocsr()


def blockwise_operators(s: DiscreteSurface):
    """(K, mass diagonal) of s, assembled triangle block by block: K from
    nine (rows, cols, vals) blocks, (i, j) i-major, summed by `csr_matrix`
    and without its exact zeros, the lumped mass from three `np.add.at`
    corner sums."""
    z, tris, n = s.vertices, s.triangles, s.n_classes
    p = np.column_stack([z.real, z.imag])[tris]  # (T, 3, 2)
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]  # edge opposite vertex i
    tri_area = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    cls = s.class_of[tris]
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(cls[:, i])
            cols.append(cls[:, j])
            vals.append((e[:, i, :] * e[:, j, :]).sum(axis=1)
                        / (4.0 * tri_area))
    K = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    K.eliminate_zeros()
    lam_t = s.conformal_factor[tris]
    m = np.zeros(n)
    for i in range(3):
        np.add.at(m, cls[:, i], tri_area * (
            2.0 * lam_t[:, i] + lam_t[:, (i + 1) % 3]
            + lam_t[:, (i + 2) % 3]) / 12.0)
    return K, m


def lu_column_order(s: DiscreteSurface) -> np.ndarray:
    """`perm_c` of a full SuperLU LU of K + M in minimum-degree order on
    the pattern of A + A^T, with the package's LU settings."""
    A = assembled_operator(s, 1.0).tocsc()
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                     relax=1, panel_size=1,
                     options={"SymmetricMode": True}).perm_c


def norm_equivalence_constants(t: float, q: CubicDifferential):
    """Extreme generalized eigenvalues of (V-Gram, H1-Gram).

    Both Grams are positive definite when integral V > 0, so the constants
    are finite and positive; they quantify the equivalence of the V-norm
    with the standard first-order Sobolev norm (V = 1 gives exactly H1).
    """
    gv = assembled_operator(q.surface, v_field(t, q)).toarray()
    gh = assembled_operator(q.surface, 1.0).toarray()
    w = sla.eigh(gv, gh, eigvals_only=True)
    return float(w[0]), float(w[-1])


def moore_spence_jacobian(q: CubicDifferential, x: np.ndarray,
                          m_phi0: np.ndarray) -> np.ndarray:
    """Dense (2n+1)-square Jacobian of the fold solve's system at x.

    The system is `continuation.solve_fold`'s, times the mass:
    -M F(u, t) = 0, L(u, t) phi = 0, <M phi0, phi> - 1 = 0, for
    x = (u, phi, t), with M F the weak residual of the structure equation.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    u, phi, t = x[:n], x[n:-1], x[-1]
    L = assembled_operator(s, linearize(u, t, q)).toarray()
    w = m * q.norm_sq * np.exp(-2.0 * u)
    J = np.zeros((2 * n + 1, 2 * n + 1))
    J[:n, :n] = L
    J[:n, -1] = 32.0 * t * w
    J[n:-1, :n] = np.diag((2.0 * m * np.exp(u) + 64.0 * t * t * w) * phi)
    J[n:-1, n:-1] = L
    J[n:-1, -1] = -64.0 * t * w * phi
    J[-1, n:-1] = m_phi0
    return J


def legendre_pair(a: float, b: float):
    """Legendre-transform pair H(a) = a (log a)^2 / 4 and its conjugate.

    For a >= 1 and b >= 0 the pair satisfies a*b <= H(a) + H*(b).
    """
    if a < 1.0:
        raise ValueError("legendre_pair requires a >= 1")
    if b < 0.0:
        raise ValueError("legendre_pair requires b >= 0")
    h = 0.25 * a * np.log(a) ** 2
    r = np.sqrt(1.0 + 4.0 * b)
    hstar = 0.5 * np.exp(-1.0 + r) * (-1.0 + r)
    return float(h), float(hstar)


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


class AnalyticCoefficients:
    """Frame coefficients from closed-form callables.

    `fn(z) -> (s, s_z, q)` evaluated at complex chart points.
    """

    def __init__(self, fn):
        self._fn = fn

    def at_many(self, zs):
        s, s_z, q = zip(*(self._fn(complex(z)) for z in zs))
        return np.array(s, float), np.array(s_z, complex), np.array(q, complex)


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
        return s, s_z, 0.0 + 0.0j
    return AnalyticCoefficients(fn)


def constant_coefficients(sval: float, qval: complex) -> AnalyticCoefficients:
    """Spatially constant s and q (torus backend with constant data)."""
    def fn(z):
        return sval, 0.0 + 0.0j, complex(qval)
    return AnalyticCoefficients(fn)


def stagewise_rk4_frames(coeffs, path, step: float) -> np.ndarray:
    """Frames at the step end points of `integrate_frame`, by classical RK4.

    Each step evaluates the connection point by point and advances F with
    the four stages k1..k4 of F' = F C, in place of one propagator product.
    """
    def connection(z, zdot):
        (s,), (s_z,), (q,) = coeffs.at_many([z])
        A, B = maurer_cartan(float(s), complex(s_z), complex(q))
        return A * zdot + B * np.conjugate(zdot)

    path = [complex(p) for p in path]
    F = np.eye(3, dtype=complex)
    frames = [F]
    for a, b in zip(path[:-1], path[1:]):
        seg = b - a
        if seg == 0.0:
            continue
        nsub = max(1, int(np.ceil(abs(seg) / step)))
        hh = 1.0 / nsub
        for k in range(nsub):
            tau0 = k * hh
            c0 = connection(a + tau0 * seg, seg)
            c_half = connection(a + (tau0 + 0.5 * hh) * seg, seg)
            c1 = connection(a + (tau0 + hh) * seg, seg)
            k1 = F @ c0
            k2 = (F + 0.5 * hh * k1) @ c_half
            k3 = (F + 0.5 * hh * k2) @ c_half
            k4 = (F + hh * k3) @ c1
            F = F + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            frames.append(F)
    return np.array(frames)


def mobius_apply(mat: np.ndarray, z):
    """The Mobius map of the 2 x 2 matrix `mat` at z."""
    (a, b), (c, d) = mat
    return (a * z + b) / (c * z + d)


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
    if surface.genus != 2 or len(surface.side_pairings) != 4:
        raise ValueError("side pairing frames need the genus-2 octagon")
    i, j, g = surface.side_pairings[pair_index]
    # side j runs from corner j to corner j + 1
    corner_j0, corner_j1 = map(complex,
                               surface.vertices[surface.sides[j, [0, -1]]])
    m_j = hyperbolic_midpoint(corner_j0, corner_j1)
    m_i = mobius_apply(g, m_j)
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


def vertex_wirtinger_lstsq(surface: DiscreteSurface,
                           f: np.ndarray) -> np.ndarray:
    """`minlag.frame._vertex_wirtinger` as one `lstsq` per chart vertex.

    Each vertex is fit together with its one-ring (two-ring if fewer than
    six neighbors) against a quadratic in the chart offsets.
    """
    z = surface.vertices
    neighbors = [set() for _ in range(len(z))]
    for a, b, c in surface.triangles:
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    out = np.empty(len(z), dtype=complex)
    for i, ring in enumerate(neighbors):
        ring = set(ring)
        if len(ring) < 6:
            for j in list(ring):
                ring.update(neighbors[j])
            ring.discard(i)
        idx = np.fromiter(ring, dtype=int)
        dx, dy = z[idx].real - z[i].real, z[idx].imag - z[i].imag
        A = np.column_stack([dx, dy, dx * dx, dx * dy, dy * dy])
        coef = np.linalg.lstsq(A, f[idx] - f[i], rcond=None)[0]
        out[i] = 0.5 * (coef[0] - 1j * coef[1])
    return out


def looped_octagon_refinement(refinement: int):
    """Chart vertices (before snapping), triangles and sides of the octagon
    of `refinement`, subdivided one triangle at a time: each edge's midpoint
    gets the next number when an edge (a, b), (b, c) or (c, a) first meets
    it and is looked up in a dict after.  Each level's midpoints are placed
    by one `hyperbolic_midpoint` call over the first (a, b) of its new
    edges, in numbering order, and the corners are computed as the builder
    computes them."""
    corners = 2.0 ** -0.25 * np.exp(1j * np.pi / 4.0 * np.arange(8))
    verts = np.concatenate(
        [[0.0], corners, hyperbolic_midpoint(corners, np.roll(corners, -1))])
    sides = [[1 + k, 9 + k, 1 + (k + 1) % 8] for k in range(8)]
    tris = [t for a, m, b in sides for t in ((0, a, m), (0, m, b))]
    for _ in range(refinement):
        cache, ends = {}, []

        def midpoint(a, b):
            key = frozenset((a, b))
            if key not in cache:
                cache[key] = len(verts) + len(ends)
                ends.append((a, b))
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c),
                         (mab, mbc, mca)]
        tris = new_tris
        sides = [[side[0]] + [v for a, b in zip(side, side[1:])
                              for v in (midpoint(a, b), b)] for side in sides]
        a, b = np.array(ends).T
        verts = np.concatenate([verts,
                                hyperbolic_midpoint(verts[a], verts[b])])
    return verts, tris, sides


# the Bolza surface's side pairs: each side glued to the opposite one
BOLZA_PAIRS = [(0, 4), (1, 5), (2, 6), (3, 7)]


def bolza_octagon(refinement: int) -> DiscreteSurface:
    """The regular octagon of `refinement` with opposite sides glued, the
    Bolza surface of genus 2: `build_genus2_octagon` with its side pairs
    swapped for BOLZA_PAIRS while it builds, which derives each pairing
    isometry from the two sides it glues."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_OCTAGON_PAIRS", BOLZA_PAIRS)
        return surface.build_genus2_octagon(refinement)
