"""Area functional on the canonical branch and its variations at t = 0.

The functional is A(t) = -integral e^{u(t)} dA along the warm-started branch
through (0, 0).  Its value at 0 is minus the surface area (4 pi (1 - g) on a
hyperbolic surface), its first variation vanishes, and its second variation
equals 16 integral ||q||^2 dA, the Weil-Petersson norm of the cubic
differential up to the fixed factor.  The operator

    D = -2 (Delta - 2)^{-1}

realizes the second derivative of the branch itself: u_tt(0) = -16 D(||q||^2).
D is positive, self-adjoint in the area inner product, and fixes constants.

The equation depends on t only through t^2, so A extends evenly across 0;
derivative estimates use the even extension by default (centered stencils
with A(-h) = A(h)) with a one-sided variant available for comparison.

All estimates come from `area_record`, which reads one sampling chain:
A(k h), k = 0, 1, ..., solved once each, warm-started from (0, 0) and
without the stability eigen solve.  The surface is the cubic
differential's own (`q.surface`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .cubic import CubicDifferential
from .pde import NonConvergence, SolutionPoint, solve_u
from .surface import DiscreteSurface, integrate, laplacian


class BranchUnavailable(RuntimeError):
    """Newton failed at a t required by a finite-difference stencil."""


def area_functional(p: SolutionPoint, s: DiscreteSurface) -> float:
    """A = -integral e^u dA at a converged point."""
    m = laplacian(s).mass_diag
    return -float(m @ np.exp(p.u))


def d_operator(s: DiscreteSurface, f: np.ndarray) -> np.ndarray:
    """Apply D = -2 (Delta - 2)^{-1}: solve (K + 2M) x = 2 M f."""
    op = laplacian(s)
    f = np.asarray(f, dtype=float)
    if f.shape != (s.n_classes,):
        raise ValueError("field size does not match the surface")
    return spla.splu(op.shifted(2.0).tocsc()).solve(2.0 * op.mass_diag * f)


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

    def rows(self):
        return list(zip(self.ts.tolist(), self.areas.tolist()))


def area_record(q: CubicDifferential, h: float, n_points: int = 4,
                stencil: str = "centered", tol: float = 1e-12) -> AreaRecord:
    """Sample A on {0, h, ..., (n-1) h} and attach the variation checks.

    `fd1 = (A(h) - A(0)) / h` is the one-sided first variation, which tends
    to 0 as O(h).  `fd2` is the second variation at 0 with `stencil`
    "centered" (default; uses the even extension A(-h) = A(h), so
    d2 = 2 (A(h) - A(0)) / h^2) or "oneside"
    (d2 = (2 A(0) - 5 A(h) + 4 A(2h) - A(3h)) / h^2); `exact_second` is
    16 integral ||q||^2 dA and `rel_err` the relative gap of fd2 to it.
    The checks read the same samples; the chain runs past n_points when the
    stencil needs more, and the extra samples are not reported.
    """
    if stencil not in ("centered", "oneside"):
        raise ValueError("stencil must be 'centered' or 'oneside'")
    m = laplacian(q.surface).mass_diag
    u = np.zeros(q.surface.n_classes)
    areas = []
    for k in range(max(n_points, 4 if stencil == "oneside" else 2)):
        try:
            u, _, _ = solve_u(u, k * h, q, tol=tol)
        except NonConvergence as exc:
            raise BranchUnavailable(
                f"branch solve failed at t = {k * h}: {exc}") from exc
        areas.append(-float(m @ np.exp(u)))
    if stencil == "centered":
        fd2 = 2.0 * (areas[1] - areas[0]) / h ** 2
    else:
        fd2 = (2.0 * areas[0] - 5.0 * areas[1] + 4.0 * areas[2]
               - areas[3]) / h ** 2
    exact = 16.0 * integrate(q.surface, q.norm_sq)
    return AreaRecord(ts=np.array([k * h for k in range(n_points)]),
                      areas=np.array(areas[:n_points]),
                      fd1=float((areas[1] - areas[0]) / h),
                      fd2=float(fd2), exact_second=float(exact),
                      rel_err=float(abs(fd2 - exact) / abs(exact)))
