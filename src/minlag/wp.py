"""Area functional on the canonical branch and its variations at t = 0.

The functional is A(t) = -integral e^{u(t)} dA along the stable branch
through (0, 0).  Its value at 0 is minus the surface area (4 pi (1 - g) on a
hyperbolic surface), its first variation vanishes, and its second variation
equals 16 <q, q>, with <., .> the Weil-Petersson pairing
(`cubic.wp_pairing`).  The operator

    D = -2 (Delta - 2)^{-1}

realizes the second derivative of the branch itself: u_tt(0) = -16 D(||q||^2)
(`udotdot`).  D is positive, self-adjoint in the area inner product, and
fixes constants.

The equation depends on t only through t^2, so A and u extend evenly across
0, and second derivatives at 0 use the centred stencil with A(-h) = A(h);
there is no one-sided variant.

All estimates come from `area_record`, which reads one sampling chain:
the exact u(0) = 0 and u(h) from `continuation.branch_point`, the stable
field with no eigen solve, so only h must lie below the fold; past it the
NonConvergence of `branch_point` names t = h and the fold.  It checks the
second variation in the integral and, against `udotdot`, pointwise.  The
surface is the cubic differential's own (`q.surface`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import ZeroCubic, branch_point
from .cubic import CubicDifferential, wp_pairing
from .surface import DiscreteSurface, integrate


def d_operator(s: DiscreteSurface, f: np.ndarray) -> np.ndarray:
    """Apply D = -2 (Delta - 2)^{-1}: solve (K + 2M) x = 2 M f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (s.n_classes,):
        raise ValueError("field size does not match the surface")
    return s.factorize(2.0).solve(2.0 * s.mass_diag * f)


def udotdot(q: CubicDifferential) -> np.ndarray:
    """Second t-derivative of the branch at t = 0: -16 D(||q||^2)."""
    return -16.0 * d_operator(q.surface, q.norm_sq)


@dataclass
class AreaRecord:
    """Sampled A(t) along the branch with derivative estimates at 0."""

    ts: np.ndarray
    areas: np.ndarray
    fd1: float
    fd2: float
    exact_second: float
    rel_err: float
    udd_gap: float


def area_record(q: CubicDifferential, h: float,
                tol: float = 1e-12) -> AreaRecord:
    """Sample A and u at t = 0 and h and attach the variation checks.

    `fd1 = (A(h) - A(0)) / h` is the one-sided first variation, which tends
    to 0 as O(h).  `fd2 = 2 (A(h) - A(0)) / h^2` is the centred second
    variation at 0; `exact_second` is 16 <q, q> and `rel_err` the relative
    gap of fd2 to it.  `udd_gap` is
    max |2 (u(h) - u(0)) / h^2 - udotdot(q)| / max |udotdot(q)|, the same
    check pointwise.  Both gaps are O(h^2).  Raises ZeroCubic when q
    vanishes, since both gaps divide by it, and NonConvergence when h is at
    or beyond the fold.
    """
    exact = 16.0 * wp_pairing(q, q).real
    if exact == 0.0:
        raise ZeroCubic("the cubic differential vanishes: <q, q> = 0")
    u0 = np.zeros(q.surface.n_classes)   # the exact solution at t = 0
    uh = branch_point(q, h, tol)
    areas = [-integrate(q.surface, np.exp(u)) for u in (u0, uh)]
    fd2 = 2.0 * (areas[1] - areas[0]) / h ** 2
    udd = udotdot(q)
    udd_fd = 2.0 * (uh - u0) / h ** 2
    return AreaRecord(ts=np.array([0.0, h]),
                      areas=np.array(areas),
                      fd1=float((areas[1] - areas[0]) / h),
                      fd2=float(fd2), exact_second=float(exact),
                      rel_err=float(abs(fd2 - exact) / abs(exact)),
                      udd_gap=float(np.abs(udd_fd - udd).max()
                                    / np.abs(udd).max()))
