"""Closed-form references that only the tests use.

The package's public API is what its commands run.  These functions check
it from outside: the V-norm equivalence constants of the mountain-pass
functional, the Legendre pair of the cutoff estimates, the second
fundamental form of the immersion, closed-form frame coefficient sources
(test fakes for `minlag.frame.MeshCoefficients`), a stage-wise RK4 frame
integrator and a side-pairing frame product for the genus-2 holonomy, and
the dense Jacobian of the fold
solve's Moore-Spence system.  They sit next to `scalar_oracle.py` and
are imported the same way, `from reference import ...`.
"""

import numpy as np
import scipy.linalg as sla

from minlag.cubic import CubicDifferential
from minlag.frame import integrate_frame, maurer_cartan, su21_defect
from minlag.mpass import v_gram
from minlag.pde import linearize
from minlag.surface import DiscreteSurface, _mobius_apply, hyperbolic_midpoint


def norm_equivalence_constants(t: float, q: CubicDifferential):
    """Extreme generalized eigenvalues of (V-Gram, H1-Gram).

    Both Grams are positive definite when integral V > 0, so the constants
    are finite and positive; they quantify the equivalence of the V-norm
    with the standard first-order Sobolev norm (V = 1 gives exactly H1).
    """
    gv = v_gram(t, q).toarray()
    gh = q.surface.shifted(1.0).toarray()
    w = sla.eigh(gv, gh, eigvals_only=True)
    return float(w[0]), float(w[-1])


def moore_spence_jacobian(q: CubicDifferential, x: np.ndarray,
                          m_phi0: np.ndarray) -> np.ndarray:
    """Dense (2n+1)-square Jacobian of the fold solve's system at x.

    The system is `continuation.detect_fold`'s, times the mass:
    -M F(u, t) = 0, L(u, t) phi = 0, <M phi0, phi> - 1 = 0, for
    x = (u, phi, t), with M F the weak residual of the structure equation.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    u, phi, t = x[:n], x[n:-1], x[-1]
    L = linearize(u, t, q).matrix.toarray()
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
        s_z = complex(s_z)
        A, B = maurer_cartan(float(s), s_z, s_z.conjugate(), complex(q))
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
