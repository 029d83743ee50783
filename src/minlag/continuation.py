"""Continuation of the stable solution branch and the fold as an equation.

The branch starts at the exact point (u, t) = (0, 0) and is continued in the
natural parameter t with the previous solution as warm start.  A point is
accepted when Newton converges there with lambda_min > 0, the smallest
eigenvalue of the linearization, and the step is halved whenever a point is
not accepted.  The equation depends on t only through s = t^2
(V = 16 t^2 ||q||^2), and lambda_min^2 is linear in s both at t = 0 and
near a quadratic fold, where lambda_min^2 ~ c (T0 - t) (Govaerts, Numerical
Methods for Bifurcations of Dynamical Equilibria, SIAM 2000).  So after a
point whose lambda_min fell, the line through the last two
(s, lambda_min^2) predicts the fold, and the next step goes
FOLD_STEP_FRACTION of the way there; after a point whose lambda_min did not
fall (a first step so small that lambda_min rounds to its value at t = 0),
the step grows by STEP_GROWTH.  The long steps this gives are safe warm
starts: the stable point at t_prev is a supersolution at t > t_prev
(residual(u_prev, t) = -(V(t) - V(t_prev)) e^{-2 u_prev} <= 0), from which
Newton descends onto the stable point at t, as in `branch_point`.  The
trace stops at the first accepted point from which the fold solve can start
(`_fold_solve_can_start`: at least 3 points, lambda_min down to
NO_FOLD_FRACTION of its value at t = 0, and the last three lambda_min
strictly decreasing).  The fold is then solved for directly (`solve_fold`):
Newton on the Moore-Spence extended system F(u, t) = 0, L(u, t) phi = 0,
<M phi0, phi> = 1, whose solution is the turning point (u*, T0) with its
null vector phi.  Each Newton step comes from one LU of L (`fold_step`),
and its tolerance does not depend on how close to the fold the trace
stopped.

The fold is found by nested iteration (the first half of full multigrid;
Brandt, Math. Comp. 31, 1977).  `nested_cubics` lists q on every level of
its surface's hierarchy, coarsest first; the continue command traces only
the coarsest level, and `detect_fold` solves the fold there from the last
traced point, with the null-vector guess the trace's classification
recorded, and then once per finer level, started from the prolonged
(u*, phi*, T0) of the level below.  Only the finest level's fold is
classified by an eigen solve.  `detect_fold` returns that fold point and
the per-level table and leaves the traced curve as it was; the module
holds results only, and `cli` writes them out.

`branch_point` reaches a single t on the same branch with no path in t.
The stable branch is the maximal solution, u = 0 is a supersolution at
every t (residual(0, t) = -16 t^2 ||q||^2 <= 0) and the nonlinearity
2 - 2 e^u - V e^{-2u} is concave, so Newton started at u = 0 descends onto
the stable point (monotone Newton).  It is the package's one cold solve:
the solve, mountain-pass, frame and wpcheck commands start from the field
it returns, and only `solve` classifies it (`pde.newton_solve`).

The nonexistence threshold is T = (area/2 / integral ||q||^(2/3))^(3/2);
on a hyperbolic surface area/2 = 2 pi (g - 1), and every computed fold must
sit strictly below it.  Every function reads the surface from the cubic
differential (`q.surface`, `curve.cubic.surface`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicDifferential, norm_field
from .pde import (NonConvergence, SingularJacobian, SolutionPoint,
                  damped_newton, linearize, newton_solve, residual, solve_u)
from .surface import NumericalFailure, integrate

EPS_FOLD = 1e-4        # |lambda_min| above this at the solved fold rejects it
NO_FOLD_FRACTION = 0.25  # the fold solve starts only once lambda_min is at
                         # or below this fraction of its value at t = 0
STEP_GROWTH = 1.5      # step factor after an accepted point whose
                       # lambda_min did not fall
FOLD_STEP_FRACTION = 0.5  # after a fall, the step goes this fraction of the
                          # way to the fold that the last two lambda_min^2,
                          # linear in t^2, predict
MAX_POINTS = 2000      # accepted points after which the trace stalls


class StallBeforeFold(NumericalFailure):
    """The trace ended before the fold solve could start from its last point."""


class NoFoldDetected(NumericalFailure):
    """lambda_min is bounded below along the traced range."""


class ZeroCubic(ValueError):
    """The cubic differential vanishes identically."""


@dataclass
class SolutionCurve:
    """Ordered stable-branch points of `cubic` from t = 0 toward the fold,
    with `trace_curve`'s diagnostics."""

    points: list
    cubic: CubicDifferential
    diagnostics: dict


def _fold_solve_can_start(points) -> bool:
    """True when `detect_fold` will start from the last of `points`.

    It needs at least 3 points, the last lambda_min at or below
    NO_FOLD_FRACTION of the first, and the last three strictly decreasing.
    """
    if len(points) < 3:
        return False
    lam = [p.lambda_min for p in points[-3:]]
    return (lam[2] <= NO_FOLD_FRACTION * points[0].lambda_min
            and lam[2] < lam[1] < lam[0])


def trace_curve(q: CubicDifferential, dt0: float,
                tol: float = 1e-10) -> SolutionCurve:
    """Natural-parameter continuation from (0, 0) to where the fold solve starts.

    The first step is dt0.  A point is accepted when its `newton_solve`
    converges to a `stable` point (lambda_min > 0), and the step halves
    after any other outcome.  After an accepted point t_k whose lambda_min
    fell from t_{k-1}, the next step is FOLD_STEP_FRACTION (t_est - t_k),
    with s = t^2 and

        t_est = sqrt(s_k + lambda_k^2 (s_k - s_{k-1})
                     / (lambda_{k-1}^2 - lambda_k^2)),

    the zero of the line through the two (s, lambda_min^2), which is T0
    when lambda_min^2 is linear in s; so the steps approach the fold
    without overshooting it.  After an accepted point whose lambda_min did
    not fall, the step grows by STEP_GROWTH.
    Returns at the first accepted point from which
    `detect_fold` can start.  Raises StallBeforeFold if the step underflows
    (below 1e-4 times the last accepted t, or times dt0 while only t = 0
    is accepted) or MAX_POINTS are accepted before that.
    `diagnostics` holds the rejected step count, `newton_iterations`
    (summed over the points) and `final_step`, the step the trace would
    have tried next from its last point.
    """
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    p0 = newton_solve(np.zeros(q.surface.n_classes), 0.0, q, tol=tol)
    points = [p0]
    rejects = 0

    dt = dt0
    while dt >= 1e-4 * (points[-1].t or dt0) and len(points) < MAX_POINTS:
        prev = points[-1]
        try:
            p = newton_solve(prev.u, prev.t + dt, q, tol=tol)
            accepted = p.stable
        except NonConvergence:
            accepted = False
        if not accepted:
            dt *= 0.5
            rejects += 1
            continue
        points.append(p)
        lam2, prev2 = p.lambda_min ** 2, prev.lambda_min ** 2
        if lam2 < prev2:
            # lambda_min^2 is linear in s = t^2 at t = 0 and at the fold:
            # go part of the way to the zero of that line
            s, s_prev = p.t ** 2, prev.t ** 2
            t_est = math.sqrt(s + lam2 * (s - s_prev) / (prev2 - lam2))
            dt = FOLD_STEP_FRACTION * (t_est - p.t)
        else:
            dt *= STEP_GROWTH
        if _fold_solve_can_start(points):
            return SolutionCurve(
                points=points, cubic=q,
                diagnostics={"rejected_steps": rejects, "final_step": dt,
                             "newton_iterations": sum(
                                 pt.meta["newton_iterations"] for pt in points)})

    raise StallBeforeFold(
        f"trace stopped at t = {points[-1].t:.6g} with lambda_min = "
        f"{points[-1].lambda_min:.3g} (started at {p0.lambda_min:.3g}) "
        f"before the fold solve could start; {len(points)} points, "
        f"{rejects} rejected steps, step {dt:.3g}")


def branch_point(q: CubicDifferential, t: float,
                 tol: float = 1e-10) -> np.ndarray:
    """Stable field u at t: one `pde.solve_u` from u = 0, with no eigen solve.

    Raises NonConvergence, naming t, when that solve fails (t at or beyond
    the fold).
    """
    try:
        u, _, _ = solve_u(np.zeros(q.surface.n_classes), t, q, tol=tol)
    except NonConvergence as exc:
        raise NonConvergence(f"no stable solution from u = 0 at t = {t:.6g} "
                             f"(at or beyond the fold): {exc}") from exc
    return u


def fold_step(q: CubicDifferential, m_phi0: np.ndarray):
    """Newton step solver of the Moore-Spence system, from one LU of L.

    With x = (u, phi, t) and psi = M phi0, the system's Jacobian is

        [[L, 0, a], [B, L, c], [0, psi^T, 0]],

    a = 32 t M ||q||^2 e^{-2u}, B = diag(d(M pot)/du phi) and
    c = -64 t M ||q||^2 e^{-2u} phi.  Its 2n-block [[L, 0], [B, L]] is lower
    block triangular, but at the fold it is singular twice over (its
    smallest singular value goes as lambda_min(L)^2), so the step never
    solves with it.  It solves with the bordered matrix
    Lb = [[L, psi], [psi^T, 0]] instead, regular at a quadratic fold: once
    for du, with psi^T du = k left free, and once for dphi, each for three
    right-hand sides at a time; the two scalars dt and k then follow from a
    2 x 2 system.  Each Lb solve is block elimination with the LU of L and
    one step of iterative refinement, which is accurate as L turns singular
    (Govaerts and Pryce, BIT 30, 1990; Govaerts, Numerical Methods for
    Bifurcations of Dynamical Equilibria, SIAM 2000).
    Returns `step(x, rhs)` for `pde.damped_newton`; it raises
    SingularJacobian when a Schur complement of the elimination is zero.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    psi = m_phi0

    def step(x, rhs):
        u, phi, t = x[:n], x[n:-1], x[-1]
        pot = linearize(u, t, q)
        lu = s.factorize(pot)
        w = m * q.norm_sq * np.exp(-2.0 * u)    # M ||q||^2 e^{-2u}
        a = 32.0 * t * w
        b = (2.0 * m * np.exp(u) + 64.0 * t * t * w) * phi   # diag of B
        c = -64.0 * t * w * phi
        z = lu.solve(psi)
        psi_z = psi @ z
        if psi_z == 0.0:
            raise SingularJacobian("zero Schur complement in the fold step")

        def eliminate(g, h):
            y = lu.solve(g)
            mu = (psi @ y - h) / psi_z
            return y - np.outer(z, mu), mu

        def bordered(g, h):
            """Lb^{-1} (g, h) for the columns of g and entries of h."""
            y, mu = eliminate(g, h)
            dy, dmu = eliminate(g - s.apply(pot, y) - np.outer(psi, mu),
                                h - psi @ y)
            return (y + dy).T, mu + dmu

        (y_r, y_a, y_1), (mu_r, mu_a, mu_1) = bordered(
            np.column_stack([rhs[:n], a, np.zeros(n)]),
            np.array([0.0, 0.0, 1.0]))
        (p_r, p_a, p_1), (nu_r, nu_a, nu_1) = bordered(
            np.column_stack([rhs[n:-1] - b * y_r, b * y_a - c, b * y_1]),
            np.array([rhs[-1], 0.0, 0.0]))
        # (du, mu) = Lb^{-1}(r1 - a dt, k) needs mu = 0, and
        # (dphi, nu) = Lb^{-1}(r2 - B du - c dt, r3) needs nu = 0
        det = mu_a * nu_1 - nu_a * mu_1
        if det == 0.0:
            raise SingularJacobian("zero Schur complement in the fold step")
        dt = (nu_r * mu_1 + mu_r * nu_1) / det
        k = (nu_r * mu_a + mu_r * nu_a) / det
        return np.concatenate([y_r - dt * y_a + k * y_1,
                               p_r + dt * p_a - k * p_1, [dt]])

    return step


def solve_fold(q: CubicDifferential, u: np.ndarray, phi: np.ndarray,
               t: float, tol: float):
    """Moore-Spence solve for the fold of q from (u, phi, t).

    With phi0 = phi / ||phi||_M, `damped_newton` solves -F(u, t) = 0,
    L(u, t) phi = 0, <M phi0, phi> = 1 for (u, phi, t), a regular system at
    a quadratic fold, started at (u, phi0, t).  Each Newton step comes from
    one LU of L by block elimination (`fold_step`); the bordered
    (2n+1)-square Jacobian is never assembled.  Returns (u*, phi*, T0,
    Newton iterations), phi* a null vector of L(u*, T0); raises
    NonConvergence when the solve fails.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    phi0 = phi / np.sqrt(m @ phi ** 2)
    m_phi0 = m * phi0

    def field_fn(x):
        u, phi, t = x[:n], x[n:-1], x[-1]
        return np.concatenate([-residual(u, t, q),
                               s.apply(linearize(u, t, q), phi) / m,
                               [m_phi0 @ phi - 1.0]])

    x, _, it = damped_newton(np.concatenate([u, phi0, [t]]), field_fn,
                             fold_step(q, m_phi0),
                             np.concatenate([m, m, [1.0]]), tol)
    return x[:n], x[n:-1], float(x[-1]), it


def nested_cubics(q: CubicDifferential) -> list:
    """q on every level of its surface's hierarchy, coarsest first.

    A coarser level's q takes the finer q's values at its chart vertices
    (a prefix); the coarser surfaces are assembled here (`Nesting.coarse`).
    """
    qs = [q]
    while (nest := qs[0].surface.nesting) is not None:
        c = nest.coarse()
        qs.insert(0, CubicDifferential(qs[0].values[:len(c.vertices)], c))
    return qs


def detect_fold(curve: SolutionCurve, finer=(),
                tol: float = 1e-11) -> tuple[SolutionPoint, list]:
    """Solve for the fold T0 from the last traced point, then on each finer level.

    `finer` lists the cubics of the finer levels of `curve.cubic`'s
    hierarchy, coarsest first (`nested_cubics` without its first entry).
    On the trace's level `solve_fold` starts from the last point with phi
    the M-normalized smallest eigenvector its `newton_solve` recorded; on
    each finer level it starts from the prolonged (u*, phi*, T0) of the
    level below, so no eigen solve is made for phi (nested iteration).
    `newton_solve` classifies the finest level's (u*, T0).
    Raises NoFoldDetected, naming the level, if the curve does not approach
    a fold, a solve fails, the trace level's solve ends behind the curve or
    the finest ends off the fold.  Returns the finest level's fold point,
    whose t is T0, and the per-level table (each level's `classes`, `T0`
    and `fold_newton_iterations`, coarsest first); the curve is unchanged.
    """
    pts = curve.points
    if not _fold_solve_can_start(pts):
        lams = np.array([p.lambda_min for p in pts])
        raise NoFoldDetected(
            f"the curve does not approach a fold: {len(lams)} points, "
            f"lambda_min {lams[0]:.3g} at t = 0 and {lams[-3:]} at the end; "
            f"the fold solve needs at least 3 points, the last lambda_min at "
            f"most {NO_FOLD_FRACTION:.2f} of the first, and the last three "
            f"strictly decreasing")

    p = pts[-1]
    u, t, phi = p.u, p.t, p.eigenvector
    qs = [curve.cubic, *finer]
    levels = []
    for k, q in enumerate(qs):
        where = (f"level {k + 1} of {len(qs)} "
                 f"({q.surface.n_classes} classes)")
        if k:
            u, phi = q.surface.prolong(u), q.surface.prolong(phi)
        try:
            u, phi, t, it = solve_fold(q, u, phi, t, tol)
        except NonConvergence as exc:
            raise NoFoldDetected(
                f"extended-system solve failed on {where}: {exc}") from exc
        if k == 0 and t <= p.t:
            raise NoFoldDetected(
                f"extended-system solve on {where} ended at t = {t:.10g}, "
                f"not a fold beyond t = {p.t:.10g}")
        levels.append({"classes": q.surface.n_classes, "T0": t,
                       "fold_newton_iterations": it})
    try:
        fold = newton_solve(u, t, q, tol=tol)
    except NonConvergence as exc:
        raise NoFoldDetected(f"fold classification failed on {where}: "
                             f"{exc}") from exc
    if abs(fold.lambda_min) > EPS_FOLD:
        raise NoFoldDetected(
            f"extended-system solve on {where} ended at t = {fold.t:.10g} "
            f"with lambda_min = {fold.lambda_min:.3g}, not a fold")
    return fold, levels


def nonexistence_bound(q: CubicDifferential) -> float:
    """Upper bound T beyond which the structure equation has no solution."""
    denom = integrate(q.surface, norm_field(q) ** (2.0 / 3.0))
    if denom <= 0.0:
        raise ZeroCubic("integral of ||q||^(2/3) vanishes")
    return (0.5 * q.surface.area / denom) ** 1.5
