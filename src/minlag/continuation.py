"""Continuation of the stable solution branch and the fold as an equation.

The branch starts at the exact point (u, t) = (0, 0) and is continued in the
natural parameter t with the previous solution as warm start.  The step is
halved whenever Newton fails or the smallest eigenvalue of the linearization
drops by more than half in one step; the trace stops at the first accepted
point from which the fold solve can start (`_fold_solve_can_start`: at least
3 points, lambda_min down to NO_FOLD_FRACTION of its value at t = 0, and the
last three lambda_min strictly decreasing).  `detect_fold` then solves for
the fold directly: from the last traced point it runs Newton on the
Moore-Spence extended system F(u, t) = 0, L(u, t) phi = 0, <M phi0, phi> = 1,
whose solution is the turning point (u*, T0) with its null vector phi.  Its
Newton tolerance does not depend on how close to the fold the trace stopped.

`branch_point` reaches a single t on the same branch by a fixed warm-started
walk from (0, 0) (8 steps, halved on failure) and classifies only the point
it returns; the mountain-pass and frame commands start from it.

The nonexistence threshold is T = (area/2 / integral ||q||^(2/3))^(3/2);
on a hyperbolic surface area/2 = 2 pi (g - 1), and every computed fold must
sit strictly below it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cubic import CubicDifferential, norm_field
from .pde import (NonConvergence, SingularJacobian, SolutionPoint,
                  damped_newton, linearize, newton_solve, residual,
                  smallest_eigenvalue, solve_u)
from .surface import DiscreteSurface, integrate, laplacian

EPS_FOLD = 1e-4        # |lambda_min| above this at the solved fold rejects it
NO_FOLD_FRACTION = 0.25  # the fold solve starts only once lambda_min is at
                         # or below this fraction of its value at t = 0


class StallBeforeFold(RuntimeError):
    """The trace ended before the fold solve could start from its last point."""


class NoFoldDetected(RuntimeError):
    """lambda_min is bounded below along the traced range."""


class ZeroCubic(ValueError):
    """The cubic differential vanishes identically."""


@dataclass
class SolutionCurve:
    """Ordered stable-branch points from t = 0 toward the fold."""

    points: list
    surface: DiscreteSurface
    cubic: CubicDifferential
    T0_estimate: float | None = None
    fold_point: SolutionPoint | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def sup_norms(self) -> list:
        """max |u| at each point."""
        return [float(np.abs(p.u).max()) for p in self.points]

    def ts(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def lambda_mins(self) -> np.ndarray:
        return np.array([p.lambda_min for p in self.points])


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


def trace_curve(s: DiscreteSurface, q: CubicDifferential, dt0: float,
                tol: float = 1e-10, max_points: int = 2000) -> SolutionCurve:
    """Natural-parameter continuation from (0, 0) to where the fold solve starts.

    Returns at the first accepted point from which `detect_fold` can start.
    Raises StallBeforeFold if the step underflows (below dt0 * 1e-4) or
    max_points are accepted before that.  `diagnostics` holds the rejected
    step count, `n_points` and `final_step`, the step the trace would have
    tried next from its last point.
    """
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    n = s.n_classes
    p0 = newton_solve(np.zeros(n), 0.0, s, q, tol=tol)
    points = [p0]
    rejects = 0

    dt = dt0
    dt_min = dt0 * 1e-4
    while dt >= dt_min and len(points) < max_points:
        prev = points[-1]
        t_next = prev.t + dt
        try:
            p = newton_solve(prev.u, t_next, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            rejects += 1
            dt *= 0.5
            continue
        if p.lambda_min <= 0.0 or p.lambda_min < 0.5 * prev.lambda_min:
            # overshot toward or past the fold; retry with a smaller step
            rejects += 1
            dt *= 0.5
            continue
        points.append(p)
        dt = min(1.25 * dt, dt0)
        if _fold_solve_can_start(points):
            return SolutionCurve(
                points=points, surface=s, cubic=q,
                diagnostics={"rejected_steps": rejects, "final_step": dt,
                             "n_points": len(points)})

    raise StallBeforeFold(
        f"trace stopped at t = {points[-1].t:.6g} with lambda_min = "
        f"{points[-1].lambda_min:.3g} (started at {p0.lambda_min:.3g}) "
        f"before the fold solve could start; {len(points)} points, "
        f"{rejects} rejected steps, step {dt:.3g}")


def branch_point(s: DiscreteSurface, q: CubicDifferential, t: float,
                 tol: float = 1e-10) -> SolutionPoint:
    """Stable-branch point at t, walked from (0, 0) in 8 warm-started steps.

    A failed step is halved; the walk raises NonConvergence when the step
    drops below t * 1e-6 (t at or beyond the fold).  Intermediate points
    skip the eigen solve; the returned point carries lambda_min.
    """
    u, _, _ = solve_u(np.zeros(s.n_classes), 0.0, s, q, tol=tol)
    step = t / 8
    tau = 0.0
    while tau < t - 1e-15 * max(1.0, t):
        target = min(t, tau + step)
        try:
            u, _, _ = solve_u(u, target, s, q, tol=tol)
        except (NonConvergence, SingularJacobian):
            step *= 0.5
            if step < t * 1e-6:
                raise NonConvergence(
                    f"branch walk stalled at t = {tau:.6g} before {t}")
            continue
        tau = target
    # already converged at tau (t up to rounding of the step sums): this
    # only classifies the point
    return newton_solve(u, tau, s, q, tol=tol)


def detect_fold(curve: SolutionCurve, tol: float = 1e-11) -> float:
    """Solve for the fold T0 from the last traced point (Moore-Spence).

    With phi0 the M-normalized smallest eigenvector of L there,
    `damped_newton` solves -F(u, t) = 0, L(u, t) phi = 0, <M phi0, phi> = 1
    for (u, phi, t), a regular system at a quadratic fold, and
    `newton_solve` classifies the converged (u, t).
    Raises NoFoldDetected if the curve does not approach a fold, the solve
    fails, or it ends off the fold or behind the curve.  Sets T0_estimate
    and fold_point on the curve and returns T0.
    """
    pts = curve.points
    if not _fold_solve_can_start(pts):
        lams = curve.lambda_mins()
        raise NoFoldDetected(
            f"the curve does not approach a fold: {len(lams)} points, "
            f"lambda_min {lams[0]:.3g} at t = 0 and {lams[-3:]} at the end; "
            f"the fold solve needs at least 3 points, the last lambda_min at "
            f"most {NO_FOLD_FRACTION:.2f} of the first, and the last three "
            f"strictly decreasing")

    s, q = curve.surface, curve.cubic
    p, n = pts[-1], s.n_classes
    m = laplacian(s).mass_diag
    nq2 = norm_field(q) ** 2
    _, phi0 = smallest_eigenvalue(linearize(p.u, p.t, s, q))
    m_phi0 = m * phi0

    def field_fn(x):
        u, phi, t = x[:n], x[n:-1], x[-1]
        return np.concatenate([-residual(u, t, s, q),
                               (linearize(u, t, s, q).matrix @ phi) / m,
                               [m_phi0 @ phi - 1.0]])

    def jacobian(x):
        u, phi, t = x[:n], x[n:-1], x[-1]
        L = linearize(u, t, s, q).matrix
        w = m * nq2 * np.exp(-2.0 * u)          # M ||q||^2 e^{-2u}
        m_pot_u = 2.0 * m * np.exp(u) + 64.0 * t * t * w
        return sp.bmat([[L, None, (32.0 * t * w)[:, None]],
                        [sp.diags(m_pot_u * phi), L,
                         (-64.0 * t * w * phi)[:, None]],
                        [None, m_phi0[None, :], None]], format="csc")

    x0 = np.concatenate([p.u, phi0, [p.t]])
    try:
        x, _, _ = damped_newton(x0, field_fn, jacobian,
                                np.concatenate([m, m, [1.0]]), tol, 50)
        fold = newton_solve(x[:n], x[-1], s, q, tol=tol)
    except (NonConvergence, SingularJacobian) as exc:
        raise NoFoldDetected(f"extended-system solve failed: {exc}") from exc
    if abs(fold.lambda_min) > EPS_FOLD or fold.t <= p.t:
        raise NoFoldDetected(
            f"extended-system solve ended at t = {fold.t:.10g} with lambda_min "
            f"= {fold.lambda_min:.3g}, not a fold beyond t = {p.t:.10g}")

    curve.T0_estimate = fold.t
    curve.fold_point = fold
    curve.diagnostics["fold_lambda_min"] = fold.lambda_min
    return fold.t


def nonexistence_bound(s: DiscreteSurface, q: CubicDifferential) -> float:
    """Upper bound T beyond which the structure equation has no solution."""
    nq = norm_field(q)
    denom = integrate(s, nq ** (2.0 / 3.0))
    if denom <= 0.0:
        raise ZeroCubic("integral of ||q||^(2/3) vanishes")
    return (0.5 * s.area / denom) ** 1.5


def write_curve_csv(curve: SolutionCurve, path: str,
                    comment: str | None = None) -> None:
    """Curve table: t, lambda_min, residual_norm, u_min, u_max, area_induced."""
    m = laplacian(curve.surface).mass_diag
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(["t", "lambda_min", "residual_norm", "u_min", "u_max",
                    "area_induced"])
        for p in curve.points:
            w.writerow([repr(float(x)) for x in
                        (p.t, p.lambda_min, p.residual_norm, p.u.min(),
                         p.u.max(), float(m @ np.exp(p.u)))])


def curve_to_json(curve: SolutionCurve) -> dict:
    """curve.json payload.

    `diagnostics` carries `trace_curve`'s `rejected_steps`, `n_points` and
    `final_step` (the step it would have tried next from the last point,
    where the fold solve starts) and `detect_fold`'s `fold_lambda_min`.
    """
    return {
        "points": [p.to_json() for p in curve.points],
        "T0_estimate": None if curve.T0_estimate is None else float(curve.T0_estimate),
        "fold_point": None if curve.fold_point is None else curve.fold_point.to_json(),
        "sup_norms": [float(v) for v in curve.sup_norms],
        "diagnostics": {k: v for k, v in curve.diagnostics.items()},
    }
