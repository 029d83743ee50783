"""Structure-equation residual, linearization, Newton solver, eigenvalues.

The residual of the equation

    Delta u + 2 - 2 e^u - 16 t^2 ||q||^2 e^{-2u} = 0

is evaluated in weak form and returned as a nodal field (weak residual
divided by the lumped mass).  The linearized operator about u is

    L(u, t) = -Delta + 2 e^{-2u} (e^{3u} - 16 t^2 ||q||^2),

assembled as K + M diag(potential) and always generalized against M.  Its
smallest eigenvalue decides stability of a solution: positive on the stable
branch, zero at the fold.

`damped_newton` is the one Newton/Armijo loop of the package.  `solve_u`
runs it on the structure equation (field = -residual, Jacobian = L), and
`newton_solve` adds the eigenvalue classification of the converged point;
`mpass` runs the same loop on the gradient of its cutoff functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cubic import CubicDifferential, norm_field
from .surface import DiscreteSurface, laplacian

BLOWUP_THRESHOLD = -50.0     # e^{-2u} overflow guard; solutions are O(1)
TOL_POS = 1e-8               # discrete ceiling for u <= 0


class ResidualBlowup(RuntimeError):
    """u dropped below the overflow guard; the iterate left the solution set."""


class NonConvergence(RuntimeError):
    """Newton failed: t beyond the existence range or a bad initial guess."""

    def __init__(self, message, iterations=None, residual_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class SingularJacobian(RuntimeError):
    """Linearized operator could not be factorized (typically at a fold)."""


class EigenFailure(RuntimeError):
    """The smallest eigenpair failed its residual check."""


@dataclass
class SolutionPoint:
    """One accepted point (u, t) with its stability data."""

    u: np.ndarray
    t: float
    residual_norm: float
    lambda_min: float
    stable: bool
    meta: dict = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        return {
            "t": float(self.t),
            "u": [float(v) for v in self.u],
            "residual_norm": float(self.residual_norm),
            "lambda_min": float(self.lambda_min),
            "stable": bool(self.stable),
        }


@dataclass
class LinearizedOperator:
    matrix: sp.csr_matrix
    mass_diag: np.ndarray
    potential: np.ndarray


def residual(u: np.ndarray, t: float, s: DiscreteSurface,
             q: CubicDifferential) -> np.ndarray:
    """Nodal residual of the structure equation at (u, t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.min() < BLOWUP_THRESHOLD:
        raise ResidualBlowup(f"min u = {u.min():.3g} below {BLOWUP_THRESHOLD}")
    op = laplacian(s)
    lap = -(op.stiffness @ u) / op.mass_diag
    # overflow of exp(u) for wildly positive trial iterates yields inf, which
    # the Newton line search rejects; only u < threshold is a hard failure
    with np.errstate(over="ignore"):
        return (lap + 2.0 - 2.0 * np.exp(u)
                - 16.0 * t * t * norm_field(q) ** 2 * np.exp(-2.0 * u))


def linearize(u: np.ndarray, t: float, s: DiscreteSurface,
              q: CubicDifferential) -> LinearizedOperator:
    """Assemble L(u, t) = K + M diag(2 e^{-2u}(e^{3u} - 16 t^2 ||q||^2))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.min() < BLOWUP_THRESHOLD:
        raise ResidualBlowup(f"min u = {u.min():.3g} below {BLOWUP_THRESHOLD}")
    op = laplacian(s)
    pot = 2.0 * np.exp(-2.0 * u) * (np.exp(3.0 * u) - 16.0 * t * t * norm_field(q) ** 2)
    return LinearizedOperator(matrix=op.shifted(pot), mass_diag=op.mass_diag,
                              potential=pot)


def smallest_eigenvalue(L: LinearizedOperator):
    """Smallest generalized eigenpair of (L, M), eigenvector M-normalized.

    Uses shift-invert Lanczos (ARPACK) with a shift strictly below the
    spectrum: the potential minimum bounds the smallest eigenvalue from
    below since K >= 0.  Only when ARPACK fails does it solve the dense
    problem.  Raises EigenFailure if the pair misses its residual check.
    """
    n = L.matrix.shape[0]
    m = L.mass_diag
    lower = min(0.0, float(L.potential.min()))
    sigma = lower - 0.1 * (1.0 + abs(lower))
    try:
        # a fixed start vector makes ARPACK, so lambda_min, reproducible;
        # shift-invert makes the one wanted eigenvalue dominant, so 8 Lanczos
        # vectors (default 20) suffice; ARPACK needs n > ncv, and the mesh
        # builders refuse meshes with fewer than 16 classes
        w, v = spla.eigsh(L.matrix, k=1, M=sp.diags(m), sigma=sigma,
                          which="LM", tol=1e-9, v0=np.ones(n), ncv=8)
    except (spla.ArpackError, RuntimeError):
        w, v = sla.eigh(L.matrix.toarray(), np.diag(m))
    lam, vec = float(w[0]), v[:, 0]

    vec = vec / np.sqrt(m @ vec ** 2)
    res = np.linalg.norm(L.matrix @ vec - lam * (m * vec))
    scale = max(1.0, abs(lam)) * np.sqrt(float(n))
    if res > 1e-6 * scale:
        raise EigenFailure(f"eigen residual {res:.2e} exceeds tolerance")
    return lam, vec


def damped_newton(u0: np.ndarray, field_fn, jacobian, mass_diag: np.ndarray,
                  tol: float, max_iter: int):
    """Damped Newton iteration on M field_fn(u) = 0.

    `field_fn(u)` is a nodal field and `jacobian(u)` the sparse derivative
    of M field_fn at u.  Steps u - alpha J^{-1} (M field) are Armijo-
    backtracked on the merit 1/2 ||field||_M^2 down to alpha = 1e-10.
    Returns (u, residual_norm, iterations); raises NonConvergence or
    SingularJacobian.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = mass_diag
    u = np.asarray(u0, dtype=float).copy()

    def merit(v):
        f = field_fn(v)
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.5 * float(m @ f ** 2), f

    try:
        phi, f = merit(u)
    except ResidualBlowup as exc:
        raise NonConvergence(f"initial guess out of range: {exc}") from exc

    for it in range(max_iter + 1):
        rnorm = np.sqrt(2.0 * phi)
        if rnorm <= tol:
            return u, float(rnorm), it
        if it == max_iter:
            break
        J = jacobian(u).tocsc()
        try:
            delta = spla.splu(J).solve(m * f)
        except RuntimeError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("non-finite Newton step")

        alpha = 1.0
        while True:
            try:
                phi_new, f_new = merit(u - alpha * delta)
            except ResidualBlowup:
                phi_new = np.inf
            if phi_new <= (1.0 - 2e-4 * alpha) * phi:
                u = u - alpha * delta
                phi, f = phi_new, f_new
                break
            alpha *= 0.5
            if alpha < 1e-10:
                raise NonConvergence("line search failed to reduce the residual",
                                     iterations=it, residual_norm=float(rnorm))

    raise NonConvergence(f"no convergence in {max_iter} iterations",
                         iterations=max_iter, residual_norm=float(np.sqrt(2 * phi)))


def solve_u(u0: np.ndarray, t: float, s: DiscreteSurface,
            q: CubicDifferential, tol: float = 1e-10, max_iter: int = 50):
    """Newton on the structure equation without the stability eigen solve.

    Returns (u, residual_norm, iterations).
    """
    return damped_newton(u0, lambda v: -residual(v, t, s, q),
                         lambda v: linearize(v, t, s, q).matrix,
                         laplacian(s).mass_diag, tol, max_iter)


def newton_solve(u0: np.ndarray, t: float, s: DiscreteSurface,
                 q: CubicDifferential, tol: float = 1e-10,
                 max_iter: int = 50) -> SolutionPoint:
    """Solve the structure equation at t from u0 (`solve_u`) and classify it.

    The returned point records the smallest eigenvalue of L(u, t), its
    stability flag and the Newton iteration count.
    """
    u, rnorm, it = solve_u(u0, t, s, q, tol=tol, max_iter=max_iter)
    lam, _ = smallest_eigenvalue(linearize(u, t, s, q))
    return SolutionPoint(u=u, t=float(t), residual_norm=rnorm,
                         lambda_min=lam, stable=lam > 0.0,
                         meta={"newton_iterations": it})


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
