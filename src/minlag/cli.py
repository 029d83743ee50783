"""Command-line interface: JSON-configured runs with JSON/CSV results.

Subcommands: mesh, solve, continue, mpass, frame, wpcheck.
Exit codes: 0 success, 1 configuration or domain error, 2 numerical failure.
Commands raise; `main` holds the only exception-to-exit-code map.  Every
subclass of a class on `NUMERICAL_FAILURES` exits 2 as `<command> failed`,
and every other `ValueError` exits 1 as a config error.  The tuple is tested
first because it holds `numpy.linalg.LinAlgError`, a `ValueError` raised by
a failed dense eigen solve.  A new failure class must either derive from a
class on that tuple or from `ValueError`.

Every command but `mesh` needs a `cubic`.  `continue` reads `dt0`, its
first step in t (default 0.01); the step then grows by
`continuation.STEP_GROWTH` after each accepted point, so curve.csv samples
the branch ever more coarsely toward the fold.  `solve`, `mpass` and `frame`
take the stable field at `t` from `continuation.branch_point`, and exit 2
when `t` is at or beyond the fold.  Only `solve` classifies that field
(`pde.newton_solve`, one eigen solve); `mpass` pays one eigen solve, to
verify its second critical point, and `frame` none.

Every number in a config must be a finite float: the NaN and Infinity
literals, and numbers beyond the float range such as 1e400, exit 1.  A
config key the schema does not name exits 1 as an unknown key.

`wpcheck` reads `wpcheck.h` (default 0.01) and samples the area A(t) along
the branch at t = 0 and h, with u(h) from `continuation.branch_point`, so
only h must lie below the fold.  Past it, wpcheck exits 2 and prints
`wpcheck failed: no stable solution from u = 0 at t = <h> (at or beyond the
fold): ...`.  Its CSV holds the `t,area` table, then the rows
`# fd1`, `# fd2` (with the exact 16 <q, q> and `rel_err`) and `# udd_gap`,
the pointwise gap of 2 (u(h) - u(0)) / h^2 to u_tt(0) = `wp.udotdot(q)`.
A vanishing cubic exits 1.

Outputs embed the sha256 hash of the canonicalized config for provenance and
are byte-identical across reruns except for the timestamp field.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import sys

import numpy as np
import jsonschema

from . import continuation, frame, mpass, pde, surface, wp
from .cubic import constant_cubic, synthetic_cubic

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class ConfigError(ValueError):
    pass


# the bases of every exception class minlag defines that is not a ValueError
# (pde.SingularJacobian is a NonConvergence), and the ValueError a failed
# dense eigen solve raises: exit 2
NUMERICAL_FAILURES = (
    pde.ResidualBlowup, pde.NonConvergence, pde.EigenFailure,
    surface.MeshError, continuation.StallBeforeFold,
    continuation.NoFoldDetected, mpass.PathCollapse, mpass.VerificationFailure,
    frame.StepTooLarge, np.linalg.LinAlgError)


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["backend"],
    "properties": {
        "backend": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "n"],
                    "properties": {
                        "type": {"const": "torus"},
                        "n": {"type": "integer", "minimum": 4},
                        "side": {"type": "number", "exclusiveMinimum": 0},
                        "lambda0": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["type", "refinement"],
                    "properties": {
                        "type": {"const": "octagon"},
                        "refinement": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
        "cubic": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["constant"],
                    "properties": {
                        "constant": {
                            "type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "number"},
                        },
                    },
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["zeros"],
                    "properties": {
                        "zeros": {
                            "type": "array", "minItems": 1,
                            "items": {
                                "type": "array", "minItems": 2, "maxItems": 2,
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                        "amplitude": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            ]
        },
        "t": {"type": "number", "minimum": 0},
        "dt0": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "frame": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {
                    "type": "array", "minItems": 2,
                    "items": {"type": "array", "minItems": 2, "maxItems": 2,
                              "items": {"type": "number"}},
                },
                "step": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "wpcheck": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


def _finite(parse):
    """A json number hook: `parse(text)`, or ConfigError when the number is
    not a finite float (the NaN and Infinity literals, or beyond 1.8e308)."""
    def hook(text):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config holds the non-finite number {text}")
        return parse(text)
    return hook


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_finite(float),
                            parse_float=_finite(float), parse_int=_finite(int))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # the error jsonschema.validate would raise, without re-checking the schema
    exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc
    return cfg


@functools.lru_cache(maxsize=None)
def _config_validator():
    """The CONFIG_SCHEMA validator, built and its schema checked once."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_backend(cfg: dict) -> surface.DiscreteSurface:
    b = cfg["backend"]
    if b["type"] == "torus":
        return surface.build_flat_torus(b["n"], b.get("side", 1.0),
                                        b.get("lambda0", 1.0))
    return surface.build_genus2_octagon(b["refinement"])


def build_cubic(cfg: dict, s: surface.DiscreteSurface):
    if "cubic" not in cfg:
        raise ConfigError("this command requires a 'cubic' differential")
    c = cfg["cubic"]
    if "constant" in c:
        re, im = c["constant"]
        return constant_cubic(s, complex(re, im))
    zeros = [(int(a), int(b)) for a, b in c["zeros"]]
    return synthetic_cubic(s, zeros, c.get("amplitude", 1.0))


def emit(payload: dict, cfg: dict, out_path: str | None) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash(cfg)
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_path(args, default: str) -> str:
    """The -o argument (or `default`) with a .csv suffix."""
    base = args.output or default
    return base if base.endswith(".csv") else base + ".csv"


def _require_t(cfg):
    if "t" not in cfg:
        raise ConfigError("this command requires a single 't' value")
    return float(cfg["t"])


def cmd_mesh(cfg, args) -> int:
    s = build_backend(cfg)
    payload = surface.mesh_to_json(s)
    payload["euler_characteristic"] = s.euler_characteristic()
    if s.genus >= 2:
        payload["area_error_vs_hyperbolic"] = abs(s.area - 4 * math.pi * (s.genus - 1))
    emit(payload, cfg, args.output)
    return EXIT_OK


def cmd_solve(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    t = _require_t(cfg)
    tol = cfg.get("tol", 1e-10)
    u = continuation.branch_point(q, t, tol)
    emit(pde.newton_solve(u, t, q, tol).to_json(), cfg, args.output)
    return EXIT_OK


def cmd_continue(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    tol = cfg.get("tol", 1e-10)
    dt0 = cfg.get("dt0", 0.01)
    bound = continuation.nonexistence_bound(q)
    curve = continuation.trace_curve(q, dt0=dt0, tol=tol)
    t0 = continuation.detect_fold(curve, tol=tol)
    csv_path = _csv_path(args, "curve")
    json_path = csv_path[:-4] + ".json"
    continuation.write_curve_csv(curve, csv_path,
                                 comment=f"config_hash={config_hash(cfg)}")
    payload = continuation.curve_to_json(curve)
    payload["nonexistence_bound"] = bound
    emit(payload, cfg, json_path)
    print(f"T0 estimate: {t0:.8g}")
    print(f"nonexistence bound T: {bound:.8g}")
    print(f"curve written to {csv_path} and {json_path}")
    return EXIT_OK


def cmd_mpass(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    t = _require_t(cfg)
    tol = cfg.get("tol", 1e-10)
    u_stable = continuation.branch_point(q, t, tol)
    p2 = mpass.find_mountain_pass(u_stable, t, q, tol=tol)
    payload = {
        "t": p2.t,
        "u2": [float(v) for v in p2.u],
        "residual_norm": p2.residual_norm,
        "lambda_min": p2.lambda_min,
        "vnorm_separation": p2.meta["vnorm_separation"],
        "path_iterations": p2.meta["path_iterations"],
        "sup_norm": float(np.abs(p2.u).max()),
    }
    emit(payload, cfg, args.output)
    return EXIT_OK


def cmd_frame(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    fcfg = cfg.get("frame", {})
    step = fcfg.get("step", 0.005)
    tol = cfg.get("tol", 1e-10)
    if fcfg.get("path"):
        path = [complex(a, b) for a, b in fcfg["path"]]
    elif q.surface.genus >= 2:
        path = [0j, complex(math.tanh(0.5), 0.0)]   # hyperbolic length 1
    else:
        side = cfg["backend"].get("side", 1.0)
        path = [side * (0.25 + 0.25j), side * (0.75 + 0.25j)]

    u = continuation.branch_point(q, float(cfg.get("t", 0.0)), tol)
    sheet = frame.integrate_frame(frame.MeshCoefficients(u, q), path,
                                  step=step)
    payload = sheet.to_json()
    payload["max_unitarity_defect"] = float(sheet.defects[:, 0].max())
    payload["max_det_defect"] = float(sheet.defects[:, 1].max())
    emit(payload, cfg, args.output)
    return EXIT_OK


def cmd_wpcheck(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    h = cfg.get("wpcheck", {}).get("h", 0.01)
    rec = wp.area_record(q, h, tol=cfg.get("tol", 1e-12))
    csv_path = _csv_path(args, "wpcheck")
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write("t,area\n")
        for t, a in rec.rows():
            fh.write(f"{t!r},{a!r}\n")
        fh.write(f"# fd1,{rec.fd1!r}\n")
        fh.write(f"# fd2,{rec.fd2!r},exact,{rec.exact_second!r},"
                 f"rel_err,{rec.rel_err!r}\n")
        fh.write(f"# udd_gap,{rec.udd_gap!r}\n")
    print(f"area(0) = {rec.areas[0]:.8g}")
    print(f"first-variation estimate: {rec.fd1:.3e}")
    print(f"second variation: fd2 = {rec.fd2:.8g}, exact = "
          f"{rec.exact_second:.8g}, rel_err = {rec.rel_err:.3e}")
    print(f"pointwise u_tt(0) gap: udd_gap = {rec.udd_gap:.3e}")
    print(f"table written to {csv_path}")
    return EXIT_OK


COMMANDS = {
    "mesh": cmd_mesh,
    "solve": cmd_solve,
    "continue": cmd_continue,
    "mpass": cmd_mpass,
    "frame": cmd_frame,
    "wpcheck": cmd_wpcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minlag",
        description="Structure-equation solver for minimal Lagrangian "
                    "surface data (u, t, q) with continuation, mountain-pass "
                    "and frame tooling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("-o", "--output", default=None,
                       help="output file (JSON; or CSV base name for "
                            "continue/wpcheck)")
    args = parser.parse_args(argv)

    try:
        return COMMANDS[args.command](load_config(args.config), args)
    except NUMERICAL_FAILURES as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
