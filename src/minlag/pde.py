"""Structure-equation residual, linearization, Newton solver, eigenvalues.

The residual of the equation

    Delta u + 2 - 2 e^u - 16 t^2 ||q||^2 e^{-2u} = 0

is evaluated in weak form and returned as a nodal field (weak residual
divided by the lumped mass).  The surface is the cubic differential's own
(`q.surface`), ||q||^2 its cached `q.norm_sq`, and V = 16 t^2 ||q||^2 is
formed only by `v_field`, which `mpass` reads too.  The linearized operator
about u is

    L(u, t) = -Delta + 2 e^{-2u} (e^{3u} - 16 t^2 ||q||^2),

that is K + M diag(p) with the potential p that `linearize` returns, always
generalized against M: callers factorize it (`DiscreteSurface.factorize`)
or apply it (`DiscreteSurface.apply`).  Its smallest eigenvalue decides
stability of a solution: positive on the stable branch, zero at the fold.
`smallest_eigenvalue` has one path, shift-invert Lanczos (ARPACK) in
standard form: M is diagonal, so with D = M^{1/2} the shift-invert operator
is the symmetric D (L - sigma M)^{-1} D (Ericsson and Ruhe, Math. Comp. 35,
1980), and ARPACK never multiplies by M.  A failed LU or ARPACK run raises
EigenFailure, and nothing falls back.

`damped_newton` is the one Newton/Armijo loop of the package.  `solve_u`
runs it on the structure equation (field = -residual, Jacobian = L), and
`newton_solve` adds the eigenvalue classification of the converged point;
it is the package's one classification, and the only builder of a
`SolutionPoint`.  A point holds results only, and the sign of its
lambda_min is its stability; `cli` alone writes them out.  The only other
system the loop solves is `continuation.solve_fold`'s.
Every caller inherits its two stop rules: the damping floor `MIN_DAMPING`,
which ends a stalled solve, and the iteration cap `MAX_NEWTON_ITER`.  The
callers are `continuation`'s `trace_curve` (warm-started along t),
`solve_fold` and `branch_point`, and the `mpass` polish, whose first step
reuses the LU of its Morse-index gate.
`branch_point` is the one cold solve, a `solve_u` from u = 0, which lies
above the stable solution at every t.  The solve, mpass, frame and wpcheck
commands start from its field; only `solve` passes it to `newton_solve`,
and `mpass` passes its second critical point.

Every matrix the package factorizes is K + M diag(p) with K's pattern:
L (in Newton steps, and in `mpass` to read its Morse index from the pivots
before a polish), the shift-invert operator L - sigma M of
`smallest_eigenvalue`, the `mpass` V-Gram (p = V) and the `wp` operator
K + 2M (p = 2).  So
`DiscreteSurface.factorize` orders the columns once per surface, by
minimum degree on the pattern, taken from an incomplete LU of K + M that
costs a fraction of a full one, and every LU reuses that order in
SuperLU's symmetric mode, which prefers diagonal pivots.  Threshold
pivoting stays on for the indefinite L of mountain-pass points and of
solves past the fold;
no nonsymmetric matrix is factorized, since the fold solve's bordered
Jacobian is never assembled (`continuation.fold_step` eliminates its border
with LUs of L).
`damped_newton` therefore takes a step solver, not a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .cubic import CubicDifferential
from .surface import DiscreteSurface, NumericalFailure

BLOWUP_THRESHOLD = -50.0     # e^{-2u} overflow guard; solutions are O(1)
TOL_POS = 1e-8               # discrete ceiling for u <= 0
MIN_DAMPING = 2.0 ** -6      # Deuflhard's lambda_min: Armijo gives up below it
MAX_NEWTON_ITER = 50         # Newton iterations before a solve fails


class ResidualBlowup(NumericalFailure):
    """u dropped below the overflow guard; the iterate left the solution set."""


class NonConvergence(NumericalFailure):
    """Newton failed: t beyond the existence range or a bad initial guess."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class SingularJacobian(NonConvergence):
    """Linearized operator could not be factorized (typically at a fold).

    A kind of NonConvergence, so one `except NonConvergence` catches every
    failed Newton solve."""


class EigenFailure(NumericalFailure):
    """The smallest eigenpair could not be computed or failed its residual
    check."""


@dataclass
class SolutionPoint:
    """One solved point (u, t) with its stability data: the smallest
    eigenvalue of L(u, t) and its M-normalized eigenvector."""

    u: np.ndarray
    t: float
    residual_norm: float
    lambda_min: float
    eigenvector: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)


def v_field(t: float, q: CubicDifferential) -> np.ndarray:
    """The potential V = 16 t^2 ||q||^2 per class."""
    return 16.0 * t * t * q.norm_sq


def _checked(u: np.ndarray, t: float) -> np.ndarray:
    """u as floats, if t >= 0 and u clears the overflow guard."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.min() < BLOWUP_THRESHOLD:
        raise ResidualBlowup(f"min u = {u.min():.3g} below {BLOWUP_THRESHOLD}")
    return u


def residual(u: np.ndarray, t: float, q: CubicDifferential) -> np.ndarray:
    """Nodal residual of the structure equation at (u, t)."""
    u = _checked(u, t)
    s = q.surface
    lap = -(s.stiffness @ u) / s.mass_diag
    # overflow of exp(u) for wildly positive trial iterates yields inf, which
    # the Newton line search rejects; only u < threshold is a hard failure
    with np.errstate(over="ignore"):
        return lap + 2.0 - 2.0 * np.exp(u) - v_field(t, q) * np.exp(-2.0 * u)


def linearize(u: np.ndarray, t: float, q: CubicDifferential) -> np.ndarray:
    """Potential p = 2 e^{-2u}(e^{3u} - 16 t^2 ||q||^2) of the linearized
    operator L(u, t) = K + M diag(p)."""
    u = _checked(u, t)
    return 2.0 * np.exp(-2.0 * u) * (np.exp(3.0 * u) - v_field(t, q))


def smallest_eigenvalue(s: DiscreteSurface, p: np.ndarray):
    """Smallest generalized eigenpair of (K + M diag(p), M), eigenvector
    M-normalized.

    Uses shift-invert Lanczos (ARPACK) with a shift sigma strictly below the
    spectrum: the potential minimum bounds the smallest eigenvalue from
    below since K >= 0.  With D = M^{1/2} and y = D x, the pencil
    L x = lambda M x becomes the standard symmetric problem

        D (L - sigma M)^{-1} D y = theta y,    lambda = sigma + 1/theta,

    whose largest theta is the wanted pair.  ARPACK gets only that operator
    (one LU of L - sigma M from `DiscreteSurface.factorize`, and two
    diagonal scalings per step) and no M: given the pencil, its generalized
    mode spends most of its reverse-communication steps on products with M
    rather than on solves.  Raises EigenFailure when the factorization or
    ARPACK fails, or when the pair misses its residual check.
    """
    n, m = s.n_classes, s.mass_diag
    d = np.sqrt(m)
    lower = min(0.0, float(p.min()))
    sigma = lower - 0.1 * (1.0 + abs(lower))
    try:
        lu = s.factorize(p - sigma)
        op = spla.LinearOperator((n, n), matvec=lambda y: d * lu.solve(d * y),
                                 dtype=float)
        # a fixed start vector makes ARPACK, so lambda_min, reproducible (D 1
        # is the constant field); the wanted theta is dominant, so 8 Lanczos
        # vectors (default 20) suffice; ARPACK needs n > ncv, and every level
        # of a hierarchy has at least `surface.MIN_CLASSES` = 16 classes
        w, v = spla.eigsh(op, k=1, which="LA", tol=1e-9, v0=d, ncv=8)
    except RuntimeError as exc:     # a singular LU, or any ArpackError
        raise EigenFailure(f"smallest eigenpair failed: {exc}") from exc
    lam, vec = sigma + 1.0 / float(w[0]), v[:, 0] / d

    vec = vec / np.sqrt(m @ vec ** 2)
    res = np.linalg.norm(s.apply(p, vec) - lam * (m * vec))
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
    solve fails once alpha drops below MIN_DAMPING = 2^-6 (7 trial steps).
    That floor is the stall stop: a step that needs a smaller alpha belongs
    to a solve that stalls (past the fold, or a mountain-pass polish off its
    basin), where Armijo's sufficient decrease 1 - 2e-4 alpha is almost 1
    and an accepted step would pay one step solve (one LU) for no progress;
    no step accepted below 2^-6 in the tests or the benchmark's commands
    cut the merit by 1%.  A solve still short of tol after MAX_NEWTON_ITER
    iterations fails too.
    Returns (u, residual_norm, iterations); raises NonConvergence, or its
    subclass SingularJacobian for an unsolvable step, with the iterations done.
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
        raise NonConvergence(f"initial guess out of range: {exc}",
                             iterations=0) from exc

    for it in range(MAX_NEWTON_ITER + 1):
        rnorm = np.sqrt(2.0 * phi)
        if rnorm <= tol:
            return u, float(rnorm), it
        if it == MAX_NEWTON_ITER:
            break
        try:
            delta = step(u, m * f)
        except RuntimeError as exc:
            raise SingularJacobian(str(exc), iterations=it) from exc
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("non-finite Newton step", iterations=it)

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
                                     iterations=it)

    raise NonConvergence(f"no convergence in {MAX_NEWTON_ITER} iterations",
                         iterations=MAX_NEWTON_ITER)


def solve_u(u0: np.ndarray, t: float, q: CubicDifferential,
            tol: float = 1e-10, lu0=None):
    """Newton on the structure equation without the stability eigen solve.

    `lu0`, when given, is the caller's `DiscreteSurface.factorize` of
    L(u0, t), and the first Newton step solves with it in place of a new
    LU.  Returns (u, residual_norm, iterations).
    """
    s = q.surface

    def step(v, rhs):
        nonlocal lu0
        lu = lu0 if lu0 is not None else s.factorize(linearize(v, t, q))
        lu0 = None
        return lu.solve(rhs)

    return damped_newton(u0, lambda v: -residual(v, t, q), step,
                         s.mass_diag, tol)


def newton_solve(u0: np.ndarray, t: float, q: CubicDifferential,
                 tol: float = 1e-10) -> SolutionPoint:
    """Solve the structure equation at t from u0 (`solve_u`) and classify it.

    The returned point records the smallest eigenpair of L(u, t), whose
    eigenvalue is positive on the stable branch, and the Newton iteration
    count.  It is returned only at residual norm <= tol; otherwise
    NonConvergence is raised.
    """
    u, rnorm, it = solve_u(u0, t, q, tol=tol)
    lam, vec = smallest_eigenvalue(q.surface, linearize(u, t, q))
    return SolutionPoint(u=u, t=float(t), residual_norm=rnorm,
                         lambda_min=lam, eigenvector=vec,
                         meta={"newton_iterations": it})
