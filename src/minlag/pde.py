"""Structure-equation residual, linearization, Newton solver, eigenvalues.

The residual of the equation

    Delta u + 2 - 2 e^u - 16 t^2 ||q||^2 e^{-2u} = 0

is evaluated in weak form and returned as a nodal field (weak residual
divided by the lumped mass).  The surface is the cubic differential's own
(`q.surface`), ||q||^2 its cached `q.norm_sq`, and V = 16 t^2 ||q||^2 is
formed only by `v_field`, which `mpass` reads too.  The linearized operator
about u is

    L(u, t) = -Delta + 2 e^{-2u} (e^{3u} - 16 t^2 ||q||^2),

assembled as K + M diag(potential) and always generalized against M.  Its
smallest eigenvalue decides stability of a solution: positive on the stable
branch, zero at the fold.

`damped_newton` is the one Newton/Armijo loop of the package.  `solve_u`
runs it on the structure equation (field = -residual, Jacobian = L), and
`newton_solve` adds the eigenvalue classification of the converged point;
the only other system it solves is `continuation.solve_fold`'s.
Every caller inherits its damping floor `MIN_DAMPING` and its iteration
cap `MAX_NEWTON_ITER`: `continuation`'s `trace_curve` (warm-started along
t), `solve_fold` and `branch_point`, and the `mpass` polish.
`branch_point` is the one cold solve, a `solve_u` from u = 0, which lies
above the stable solution at every t.  The solve, mpass, frame and wpcheck
commands start from its field; only `solve` passes it to `newton_solve`.

Every matrix the package factorizes is K + M diag(p) with K's pattern:
L (in Newton steps, and in `mpass` to read its Morse index from the pivots
before a polish), the shift-invert operator L - sigma M of
`smallest_eigenvalue`, the `mpass` V-Gram (p = V) and the `wp` operator
K + 2M (p = 2).  So
`DiscreteSurface.factorize` orders the columns once per surface, by
minimum degree on the pattern, and every LU reuses that order in SuperLU's
symmetric mode, which prefers diagonal pivots.  Threshold pivoting stays on
for the indefinite L of mountain-pass points and of solves past the fold;
no nonsymmetric matrix is factorized, since the fold solve's bordered
Jacobian is never assembled (`continuation.fold_step` eliminates its border
with LUs of L).
`damped_newton` therefore takes a step solver, not a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cubic import CubicDifferential
from .surface import DiscreteSurface

BLOWUP_THRESHOLD = -50.0     # e^{-2u} overflow guard; solutions are O(1)
TOL_POS = 1e-8               # discrete ceiling for u <= 0
MIN_DAMPING = 1e-4           # Deuflhard's lambda_min: Armijo gives up below it
MAX_NEWTON_ITER = 50         # Newton iterations before a solve fails


class ResidualBlowup(RuntimeError):
    """u dropped below the overflow guard; the iterate left the solution set."""


class NonConvergence(RuntimeError):
    """Newton failed: t beyond the existence range or a bad initial guess."""

    def __init__(self, message, iterations=None, residual_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class SingularJacobian(NonConvergence):
    """Linearized operator could not be factorized (typically at a fold).

    A kind of NonConvergence, so one `except NonConvergence` catches every
    failed Newton solve."""


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
    """L = K + M diag(potential) on `surface`."""

    surface: DiscreteSurface
    potential: np.ndarray

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return self.surface.shifted(self.potential)


def v_field(t: float, q: CubicDifferential) -> np.ndarray:
    """The potential V = 16 t^2 ||q||^2 per class."""
    return 16.0 * t * t * q.norm_sq


def residual(u: np.ndarray, t: float, q: CubicDifferential) -> np.ndarray:
    """Nodal residual of the structure equation at (u, t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.min() < BLOWUP_THRESHOLD:
        raise ResidualBlowup(f"min u = {u.min():.3g} below {BLOWUP_THRESHOLD}")
    s = q.surface
    lap = -(s.stiffness @ u) / s.mass_diag
    # overflow of exp(u) for wildly positive trial iterates yields inf, which
    # the Newton line search rejects; only u < threshold is a hard failure
    with np.errstate(over="ignore"):
        return lap + 2.0 - 2.0 * np.exp(u) - v_field(t, q) * np.exp(-2.0 * u)


def linearize(u: np.ndarray, t: float,
              q: CubicDifferential) -> LinearizedOperator:
    """Assemble L(u, t) = K + M diag(2 e^{-2u}(e^{3u} - 16 t^2 ||q||^2))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.min() < BLOWUP_THRESHOLD:
        raise ResidualBlowup(f"min u = {u.min():.3g} below {BLOWUP_THRESHOLD}")
    pot = 2.0 * np.exp(-2.0 * u) * (np.exp(3.0 * u) - v_field(t, q))
    return LinearizedOperator(surface=q.surface, potential=pot)


def smallest_eigenvalue(L: LinearizedOperator):
    """Smallest generalized eigenpair of (L, M), eigenvector M-normalized.

    Uses shift-invert Lanczos (ARPACK) with a shift strictly below the
    spectrum: the potential minimum bounds the smallest eigenvalue from
    below since K >= 0.  The inverse of L - sigma M comes from
    `DiscreteSurface.factorize`.
    Only when ARPACK or that factorization fails does it solve the dense
    problem.  Raises EigenFailure if the pair misses its residual check.
    """
    s = L.surface
    n, m = s.n_classes, s.mass_diag
    M = sp.diags(m)
    lower = min(0.0, float(L.potential.min()))
    sigma = lower - 0.1 * (1.0 + abs(lower))
    try:
        lu = s.factorize(L.potential - sigma)
        op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        # a fixed start vector makes ARPACK, so lambda_min, reproducible;
        # shift-invert makes the one wanted eigenvalue dominant, so 8 Lanczos
        # vectors (default 20) suffice; ARPACK needs n > ncv, and the mesh
        # builders refuse meshes with fewer than 16 classes
        w, v = spla.eigsh(L.matrix, k=1, M=M, sigma=sigma, which="LM",
                          tol=1e-9, v0=np.ones(n), ncv=8, OPinv=op_inv)
    except (spla.ArpackError, RuntimeError):
        w, v = sla.eigh(L.matrix.toarray(), np.diag(m))
    lam, vec = float(w[0]), v[:, 0]

    vec = vec / np.sqrt(m @ vec ** 2)
    res = np.linalg.norm(L.matrix @ vec - lam * (m * vec))
    scale = max(1.0, abs(lam)) * np.sqrt(float(n))
    if res > 1e-6 * scale:
        raise EigenFailure(f"eigen residual {res:.2e} exceeds tolerance")
    return lam, vec


def damped_newton(u0: np.ndarray, field_fn, step, mass_diag: np.ndarray,
                  tol: float):
    """Damped Newton iteration on M field_fn(u) = 0.

    `field_fn(u)` is a nodal field and `step(u, rhs)` returns J^{-1} rhs,
    with J the derivative of M field_fn at u; it raises RuntimeError when J
    is singular.  Steps u - alpha J^{-1} (M field) are Armijo-
    backtracked on the merit 1/2 ||field||_M^2 by halving alpha, and the
    solve fails once alpha drops below MIN_DAMPING (14 trial steps).  The
    floor is safe: a step that needs a smaller alpha belongs to a solve that
    stalls (past the fold, or a mountain-pass polish off its basin), so the
    floor only ends such a solve sooner.  A solve still short of tol after
    MAX_NEWTON_ITER iterations fails too.
    Returns (u, residual_norm, iterations); raises NonConvergence, or its
    subclass SingularJacobian when a step cannot be solved.
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

    for it in range(MAX_NEWTON_ITER + 1):
        rnorm = np.sqrt(2.0 * phi)
        if rnorm <= tol:
            return u, float(rnorm), it
        if it == MAX_NEWTON_ITER:
            break
        try:
            delta = step(u, m * f)
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
            if alpha < MIN_DAMPING:
                raise NonConvergence("line search failed to reduce the residual",
                                     iterations=it, residual_norm=float(rnorm))

    raise NonConvergence(f"no convergence in {MAX_NEWTON_ITER} iterations",
                         iterations=MAX_NEWTON_ITER,
                         residual_norm=float(np.sqrt(2 * phi)))


def solve_u(u0: np.ndarray, t: float, q: CubicDifferential,
            tol: float = 1e-10):
    """Newton on the structure equation without the stability eigen solve.

    Returns (u, residual_norm, iterations).
    """
    s = q.surface
    return damped_newton(
        u0, lambda v: -residual(v, t, q),
        lambda v, rhs: s.factorize(linearize(v, t, q).potential).solve(rhs),
        s.mass_diag, tol)


def newton_solve(u0: np.ndarray, t: float, q: CubicDifferential,
                 tol: float = 1e-10) -> SolutionPoint:
    """Solve the structure equation at t from u0 (`solve_u`) and classify it.

    The returned point records the smallest eigenvalue of L(u, t), its
    stability flag and the Newton iteration count.
    """
    u, rnorm, it = solve_u(u0, t, q, tol=tol)
    lam, _ = smallest_eigenvalue(linearize(u, t, q))
    return SolutionPoint(u=u, t=float(t), residual_norm=rnorm,
                         lambda_min=lam, stable=lam > 0.0,
                         meta={"newton_iterations": it})

