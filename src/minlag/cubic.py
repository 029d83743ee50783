"""Cubic differentials q dz^3 on discrete surfaces.

The pointwise norm with respect to the metric lambda |dz|^2 is
||q|| = |q| / lambda^(3/2), and the natural L^2 pairing of two cubic
differentials is <q1, q2> = integral q1 conj(q2) / lambda^3 dA (the
Weil-Petersson pairing).  Only `constant_cubic` on the torus backend gives
a holomorphic q.  On the genus-2 backend the fields are synthetic
(`synthetic_cubic`): smooth complex fields with zeros of prescribed orders
summing to 6g - 6, built from Blaschke factors and evaluated at class
representatives so the norm is well defined on the quotient.  They are not
exactly holomorphic, so the global frame statement does not apply to them.

A `CubicDifferential` carries its surface, so the pair (sigma, q) of the
prescribed data is one argument everywhere.  Its per-class ||q||^2
(`norm_sq`) is computed on first read and kept, so `values` must not be
mutated afterwards; build a new differential (e.g. `dataclasses.replace`)
instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .surface import DiscreteSurface


@dataclass
class CubicDifferential:
    """Per-vertex chart values of q on their surface."""

    values: np.ndarray            # complex, per chart vertex
    surface: DiscreteSurface

    @cached_property
    def norm_sq(self) -> np.ndarray:
        """||q||^2 per vertex class."""
        return norm_field(self) ** 2

    def class_values(self) -> np.ndarray:
        """Values at class representatives (canonical quotient values)."""
        return self.values[self.surface.class_representative]


def constant_cubic(s: DiscreteSurface, c: complex) -> CubicDifferential:
    """Constant field q = c, exactly holomorphic on the torus backend."""
    if s.genus != 1:
        warnings.warn("constant_cubic is only holomorphic on the torus backend",
                      stacklevel=2)
    values = np.full(len(s.vertices), complex(c))
    return CubicDifferential(values=values, surface=s)


def _blaschke(z: np.ndarray, w: complex) -> np.ndarray:
    return (z - w) / (1.0 - np.conjugate(w) * z)


def synthetic_cubic(s: DiscreteSurface, zeros: list, amplitude: float) -> CubicDifferential:
    """Smooth complex field with prescribed zeros on a genus >= 2 surface.

    `zeros` is a list of (vertex class, order) pairs whose orders must sum to
    6g - 6.  The field is amplitude times a product of Blaschke factors
    centered at the class representatives, evaluated per class and broadcast
    to chart vertices, so it vanishes exactly at the listed classes.
    """
    if s.genus < 2:
        raise ValueError("synthetic_cubic requires a genus >= 2 surface")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    degree = 6 * s.genus - 6
    total = sum(order for _, order in zeros)
    if total != degree:
        raise ValueError(f"zero orders sum to {total}, expected 6g-6 = {degree}")

    reps = s.class_representative
    n_cls = s.n_classes
    for cls, order in zeros:
        if not (0 <= cls < n_cls):
            raise ValueError(f"zero class {cls} out of range "
                             f"(surface has {n_cls} classes)")
        if order < 1:
            raise ValueError("zero orders must be positive integers")

    z_cls = s.vertices[reps]
    q_cls = np.full(n_cls, complex(amplitude))
    for cls, order in zeros:
        q_cls *= _blaschke(z_cls, complex(z_cls[cls])) ** order
    values = q_cls[s.class_of]
    return CubicDifferential(values=values, surface=s)


def norm_field(q: CubicDifferential) -> np.ndarray:
    """Pointwise norm ||q|| = |q| / lambda^(3/2) per vertex class."""
    s = q.surface
    lam = s.lambda_classes()
    return np.abs(q.class_values()) / lam ** 1.5


def wp_pairing(q1: CubicDifferential, q2: CubicDifferential) -> complex:
    """Weil-Petersson pairing integral q1 conj(q2) / lambda^3 dA."""
    if q1.surface is not q2.surface:
        raise ValueError("cubic differentials live on different surfaces")
    s = q1.surface
    lam = s.lambda_classes()
    m = s.mass_diag
    vals = q1.class_values() * np.conjugate(q2.class_values()) / lam ** 3
    return complex((m * vals).sum())
