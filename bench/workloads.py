"""Benchmark workloads: the CLI commands each one runs, and their gates.

A workload is a list of `Command`s, each a `minlag` subcommand with its JSON
config and a gate that reads the command's output files and checks them
against reference values.

The seed picks one variant of the inputs.  Seed 0 is the reference
configuration.  Any other seed scales the cubic by an amplitude a near 1
and every t-like parameter (t, dt0, h) by 1/a.  The structure equation
depends on t and q only through t * ||q||, so the branch is the same: T0
and the nonexistence bound scale by 1/a, lambda_min and rel_err do not
change, and the work is the same in exact arithmetic while every
floating-point input differs.  Timings of different seeds therefore stay
comparable, and every gate keeps an exact reference value.  (Moving the
zeros instead changes T0, and with it the step and sweep counts; even the
mirror images of the zero pair do, since the synthetic cubic takes boundary
values from one chart copy.)  The torus cubic is a constant of modulus a and
seed-chosen phase.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = {
    "fold-octagon-r3": "n = 510 is below pde.DENSE_EIG_LIMIT, so the dense "
                       "eigensolver dominates; an eigen-path or LU-reuse "
                       "change shows here",
    "fold-torus-n32": "residual and class_representative dominate and the "
                      "eigen solve is sparse; residual or assembly caching "
                      "shows here, an eigen change should not",
    "pass-octagon-r3": "mountain pass, RK4 frame and WP checks on indefinite "
                       "Hessians; no continuation, repeated branch walks",
}

# Share of each kind of work in a workload, from its traced self time per
# layer when the benchmark was defined (dense: the n = 510 eigensolver;
# sparse: splu and eigsh; interpreter: class_representative and the frame
# integrator; vector: residual, linearize and functional evaluations).
# speed.SpeedSampler weighs its calibration kernel with these.
MIX = {
    "fold-octagon-r3": {"dense": 0.61, "sparse": 0.11, "interpreter": 0.20,
                        "vector": 0.08},
    "fold-torus-n32": {"sparse": 0.30, "interpreter": 0.56, "vector": 0.14},
    "pass-octagon-r3": {"dense": 0.43, "sparse": 0.10, "interpreter": 0.35,
                        "vector": 0.12},
}
# Importing and building a surface is interpreter work.
SETUP_MIX = {"interpreter": 1.0}

# Smoke mode swaps the meshes for these small ones.
FULL_SIZE = {"octagon": 3, "torus": 32}
SMOKE_SIZE = {"octagon": 2, "torus": 16}

# Chart points whose nearest classes carry the two order-3 zeros (classes
# 132 and 259 at refinement 3), as in the acceptance suite.
ZERO_POINTS = (0.3 + 0.1j, -0.2 + 0.25j)

FOLD_FRACTIONS = (0.45, 0.55, 0.75)   # mpass t as a fraction of T0
FRAME_FRACTION = 0.55
FRAME_LOOP = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5],
              [0.5, 0.0], [0.0, 0.0]]

# Reference values at amplitude 1, per octagon refinement.  T0 and the bound
# are measured with tol = 1e-10; lambda_min is the mountain-pass eigenvalue
# at each fraction of T0; rel_err is the wpcheck ceiling.
OCTAGON_REFERENCE = {
    3: {"T0": 44.604248922, "bound": 239.93197251,
        "lambda_min": {0.45: -20.399428, 0.55: -9.4506397, 0.75: -3.8749423},
        "rel_err": 3.73e-5},
    2: {"T0": 43.498131284, "bound": 239.19417792,
        "lambda_min": {0.45: -43.876571, 0.55: -13.642024, 0.75: -4.7862982},
        "rel_err": 3.93e-5},
}
TORUS_T0 = 1.0 / math.sqrt(54.0)          # scalar oracle, constant q = 1
TORUS_BOUND = 1.0 / (2.0 * math.sqrt(2.0))

FOLD_TOL = 1e-10
WP_TOL = 1e-12
U_CEILING = 1e-8                          # maximum principle u <= 0
UNITARITY_CEILING = 1e-8


@dataclass(frozen=True)
class Variant:
    """Seed-chosen cubic amplitude and torus phase; seed 0 is (1, 0)."""

    amplitude: float
    phase: float

    @classmethod
    def from_seed(cls, seed: int) -> "Variant":
        if seed == 0:
            return cls(1.0, 0.0)
        rng = np.random.default_rng(seed)
        return cls(float(np.exp(rng.uniform(-0.2, 0.2))),
                   float(rng.uniform(0.0, 2.0 * math.pi)))


@dataclass
class Command:
    """One CLI invocation and the gate its outputs must pass."""

    family: str
    config: dict
    output: str                               # -o argument, relative name
    gate: Callable[[Path], list]              # output path -> failure messages


def _octagon_zeros(refinement: int) -> list:
    from minlag.surface import build_genus2_octagon

    s = build_genus2_octagon(refinement)
    z = s.vertices[s.class_representative]
    return [[int(np.argmin(np.abs(z - p))), 3] for p in ZERO_POINTS]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _fold_gate(t0_ref: float, t0_rel: float, bound_ref: float):
    def gate(out: Path) -> list:
        data = json.loads(out.with_suffix(".json").read_text())
        t0, bound = data["T0_estimate"], data["nonexistence_bound"]
        errors = []
        if t0 is None or _rel(t0, t0_ref) > t0_rel:
            errors.append(f"T0 = {t0!r}, reference {t0_ref:.10g}")
        if _rel(bound, bound_ref) > 1e-8:
            errors.append(f"bound = {bound!r}, reference {bound_ref:.10g}")
        if t0 is not None and not t0 < bound:
            errors.append(f"T0 = {t0!r} not below the bound {bound!r}")
        worst_res = max(p["residual_norm"] for p in data["points"])
        worst_u = max(max(p["u"]) for p in data["points"])
        if worst_res > FOLD_TOL:
            errors.append(f"curve residual {worst_res:.3g} > tol")
        if worst_u > U_CEILING:
            errors.append(f"curve max u {worst_u:.3g} > {U_CEILING}")
        return errors
    return gate


def _mpass_gate(lam_ref: float):
    def gate(out: Path) -> list:
        data = json.loads(out.read_text())
        lam, res = data["lambda_min"], data["residual_norm"]
        errors = []
        if not lam < 0.0 or _rel(lam, lam_ref) > 1e-6:
            errors.append(f"lambda_min = {lam!r}, reference {lam_ref}")
        if res > 10.0 * FOLD_TOL:
            errors.append(f"residual {res:.3g} > 10 tol")
        if max(data["u2"]) > U_CEILING:
            errors.append(f"max u2 {max(data['u2']):.3g} > {U_CEILING}")
        return errors
    return gate


def _frame_gate(out: Path) -> list:
    data = json.loads(out.read_text())
    return [f"{key} = {data[key]:.3g} > {UNITARITY_CEILING}"
            for key in ("max_unitarity_defect", "max_det_defect")
            if not data[key] <= UNITARITY_CEILING]


def _wpcheck_gate(ceiling: float):
    def gate(out: Path) -> list:
        with out.with_suffix(".csv").open() as fh:
            rows = [r for r in csv.reader(fh) if r and r[0] == "# fd2"]
        rel_err = float(rows[0][rows[0].index("rel_err") + 1])
        return [] if rel_err <= ceiling else [
            f"rel_err = {rel_err:.4g} above the reference {ceiling:.3g}"]
    return gate


def build_commands(workload: str, seed: int, smoke: bool = False) -> list:
    """The commands of `workload` for `seed`, at full or smoke size."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SMOKE_SIZE if smoke else FULL_SIZE
    v = Variant.from_seed(seed)
    a = v.amplitude

    if workload == "fold-torus-n32":
        c = a * complex(math.cos(v.phase), math.sin(v.phase))
        cfg = {"backend": {"type": "torus", "n": size["torus"], "side": 1.0,
                           "lambda0": 1.0},
               "cubic": {"constant": [c.real, c.imag]},
               "dt0": 0.01 / a, "tol": FOLD_TOL}
        return [Command("continue", cfg, "curve",
                        _fold_gate(TORUS_T0 / a, 1e-4, TORUS_BOUND / a))]

    r = size["octagon"]
    ref = OCTAGON_REFERENCE[r]
    base = {"backend": {"type": "octagon", "refinement": r},
            "cubic": {"zeros": _octagon_zeros(r), "amplitude": a}}
    t0 = ref["T0"] / a
    if workload == "fold-octagon-r3":
        return [Command("continue", dict(base, dt0=0.5 / a, tol=FOLD_TOL),
                        "curve", _fold_gate(t0, 1e-6, ref["bound"] / a))]

    commands = [Command("mpass", dict(base, t=f * t0, tol=FOLD_TOL),
                        f"mpass-{f}.json", _mpass_gate(ref["lambda_min"][f]))
                for f in FOLD_FRACTIONS]
    commands.append(Command(
        "frame", dict(base, t=FRAME_FRACTION * t0, tol=FOLD_TOL,
                      frame={"path": FRAME_LOOP, "step": 0.005}),
        "frame.json", _frame_gate))
    commands.append(Command(
        "wpcheck", dict(base, tol=WP_TOL, wpcheck={"h": 0.5 / a}),
        "wpcheck", _wpcheck_gate(ref["rel_err"])))
    return commands
