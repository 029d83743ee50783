"""Command-line interface: JSON-configured runs with JSON/CSV results.

Subcommands: mesh, solve, continue, mpass, frame, wpcheck.
This module is the one writer of outputs: the other modules return results
(arrays, `SolutionPoint`s, `FrameSheet`s, `AreaRecord`s) and each command
builds its JSON payload or CSV table from them and writes it.
Exit codes: 0 success (and `-h`, and a standard output that its reader
closed), 1 a usage error, a configuration or domain error or an unwritable
output, 2 numerical failure.
Commands raise; `main` holds the only exception-to-exit-code map.  A usage
error exits 1 with argparse's message.  A `surface.NumericalFailure`, the
base of every failure class of a numerical method, exits 2 as `<command>
failed`, a `ValueError` exits 1 as a config error, and an `OSError` (an
unreadable config is a config error) exits 1 as `cannot write output`;
`main` tries the output file before the command runs, so only a write that
fails later (a full disk) exits 1 after the work.  A `BrokenPipeError` is
not a failed write but a reader that closed standard output (as in
`minlag continue c.json | head -1`), which costs `continue` and `wpcheck`
only the summary printed after their record: `main` flushes standard
output before it returns, so the error comes there whether or not the
stream is buffered, then exits 0 with file descriptor 1 on os.devnull for
the interpreter's exit flush.

Every command but `mesh` needs a `cubic`, and `solve`, `mpass` and
`frame` need `t`; a config that lacks one exits 1 before any mesh is
built.  `continue` traces the branch on the coarsest level of the mesh
hierarchy, every level with at least `surface.MIN_CLASSES` = 16 classes,
with q taken at that level's chart vertices, and then solves the fold
once per level up to the configured mesh (`continuation.detect_fold`).
Each step, from t = 0 on, goes `continuation.FOLD_STEP_FRACTION` of the
way to the fold that the branch's power series in t^2 gives on that level
(`continuation.branch_series`), capped at the nonexistence bound T.  So
the trace holds two points, t = 0 and one just short of the fold, unless
a step is rejected and halved.  `continue` writes one JSON record,
curve.json unless `-o` names another (a missing .json suffix is added).
Its `points` hold the trace, each with its t, u, residual_norm,
lambda_min and `area_induced`, the area of the induced metric, the
integral of e^u; they lie on the mesh of `levels[0]`, the coarsest
level, not on the configured one.
`T0_estimate` and `fold_point` are the configured mesh's fold, and the
`fold` block says how it was classified and what its normal form is
(`continuation.normal_form`, with phi the fold point's M-normalized
eigenvector, signed so that sum m phi > 0):

    lambda_bounds  [lo, hi], the Collatz-Wielandt enclosure of lambda_min
                   where the mesh's K is a Z-matrix (every torus), or null
                   where an eigen solve classified (the octagon)
    phi_ratio      min phi / max phi, positive when phi is
    a, b           <phi, F_uu[phi, phi]>_M and <phi, F_t>_M, both
                   negative at a quadratic, transversal fold

No payload carries a `stable` flag: it would repeat the sign of
lambda_min, which is positive on every traced point by construction and
zero to rounding at the fold.  `levels` lists each level's `classes`,
`T0` and `fold_newton_iterations`, coarsest first.
The `diagnostics` are the trace's: `rejected_steps` and
`newton_iterations` (summed over the points).  A level whose fold solve
fails exits 2 naming that level.
`solve`, `mpass` and `frame` take the stable field at `t` from
`continuation.branch_point`, and exit 2 when `t` is at or beyond the
fold.  Only `solve` classifies that
field (`pde.newton_solve`, one eigen solve); `mpass` pays one eigen solve,
when `pde.newton_solve` verifies and classifies its second critical point,
and `frame` none.  An eigen solve that fails exits 2.  `frame` integrates
the connection of the immersion's cubic differential t q, not of q, in
chart steps of at most `frame.step` (default 0.005) along `frame.path`;
the default path runs from 0 to tanh(1/2) (hyperbolic length 1) on the
octagon, and from side (0.25 + 0.25i) to side (0.75 + 0.25i) on the torus.
On the torus the flatness column of `defects` measures the hyperbolic
Gauss equation, which a flat chart does not satisfy: 0.50 at t = 0.1, q = 1.
Every command's Newton tolerance is `tol`, default 1e-10 (1e-12 for
`wpcheck`).

`validate_config` checks every config before its command runs.  A config
holds only these keys, and needs `backend` and, within backend and cubic,
every key but "side", "lambda0" and "amplitude":

    backend  {"type": "torus", "n": integer >= 4, "side" > 0, "lambda0" > 0}
             or {"type": "octagon", "refinement": integer >= 1}
    cubic    {"constant": [re, im]}, nonzero only on the torus, or
             {"zeros": one or more [class, order] pairs of integers,
             class >= 0 and order >= 1, "amplitude" > 0}
    t >= 0, tol > 0, dt0 > 0 (no command reads it; bench configs carry it)
    frame    {"path": two or more [x, y] points, "step" > 0}
    wpcheck  {"h" > 0}

An integer is a JSON integer literal (16, not 16.0), and true and false are
not numbers.  Every number must be a finite float: the NaN and Infinity
literals, and numbers beyond the float range such as 1e400, exit 1 as
`config holds the non-finite number ...`.  Every other breach exits 1 as
`config invalid at <path>: ...`, the path naming the offending key, as in
`backend/n` or `cubic/zeros/0/1`.

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
import csv
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import continuation, frame, mpass, pde, surface, wp
from .cubic import CubicDifferential, constant_cubic, synthetic_cubic

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class ConfigError(ValueError):
    pass


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
    validate_config(cfg)
    return cfg


def validate_config(cfg) -> None:
    """ConfigError naming the offending key unless `cfg` follows the config
    rules of the module docstring."""
    _keys(cfg, "", ("backend", "cubic", "t", "frame", "wpcheck"), ("backend",),
          positive=("dt0", "tol"))
    b = cfg["backend"]
    kind = b.get("type") if isinstance(b, dict) else None
    if kind == "torus":
        _keys(b, "backend/", ("type", "n"), ("n",),
              positive=("side", "lambda0"))
        _number(b["n"], "backend/n", 4, integer=True)
    elif kind == "octagon":
        _keys(b, "backend/", ("type", "refinement"), ("refinement",))
        _number(b["refinement"], "backend/refinement", 1, integer=True)
    else:
        raise ConfigError("config invalid at backend: expected an object "
                          "whose 'type' is 'torus' or 'octagon'")
    c = cfg.get("cubic")
    if isinstance(c, dict) and "constant" in c:
        _keys(c, "cubic/", ("constant",))
        _pair(c["constant"], "cubic/constant")
        if kind != "torus" and any(c["constant"]):
            raise ConfigError("config invalid at cubic/constant: a nonzero "
                              "constant is only holomorphic on the torus")
    elif "cubic" in cfg:
        _keys(c, "cubic/", ("zeros",), ("zeros",), positive=("amplitude",))
        if not isinstance(c["zeros"], list) or not c["zeros"]:
            raise ConfigError("config invalid at cubic/zeros: not 1+ pairs")
        for i, zero in enumerate(c["zeros"]):
            _pair(zero, f"cubic/zeros/{i}", lows=(0, 1))
    if "t" in cfg:
        _number(cfg["t"], "t", 0)
    f = _keys(cfg.get("frame", {}), "frame/", ("path",), positive=("step",))
    if "path" in f:
        if not isinstance(f["path"], list) or len(f["path"]) < 2:
            raise ConfigError("config invalid at frame/path: not 2+ pairs")
        for i, point in enumerate(f["path"]):
            _pair(point, f"frame/path/{i}")
    _keys(cfg.get("wpcheck", {}), "wpcheck/", (), positive=("h",))


def _keys(obj, where: str, allowed: tuple, required: tuple = (),
          positive: tuple = ()) -> dict:
    """`obj` if it is an object with every `required` key, no key outside
    `allowed` and `positive`, and a number > 0 at each `positive` key; `where`
    is its path with a trailing slash, "" at the root."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config invalid at {where[:-1] or '<root>'}: "
                          f"{json.dumps(obj)} is not an object")
    for key in obj:
        if key in positive:
            _number(obj[key], where + key, 0, strict=True)
        elif key not in allowed:
            raise ConfigError(f"config invalid at {where}{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"config invalid at {where}{key}: missing")
    return obj


def _number(x, where: str, low=None, strict=False, integer=False) -> None:
    """ConfigError unless `x` is a number, a JSON integer literal if
    `integer`, at least `low` (above it if `strict`).  A bool is neither."""
    kind = int if integer else (int, float)
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ConfigError(f"config invalid at {where}: {json.dumps(x)} is not "
                          + ("an integer" if integer else "a number"))
    if low is not None and (x <= low if strict else x < low):
        raise ConfigError(f"config invalid at {where}: {json.dumps(x)} is not "
                          + ("above" if strict else "at least") + f" {low}")


def _pair(x, where: str, lows=None) -> None:
    """ConfigError unless `x` is a list of two numbers, integers at least
    `lows` if given."""
    if not isinstance(x, list) or len(x) != 2:
        raise ConfigError(f"config invalid at {where}: {json.dumps(x)} is "
                          "not a pair")
    for i, v in enumerate(x):
        _number(v, f"{where}/{i}", lows and lows[i], integer=bool(lows))


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
    c = cfg["cubic"]
    if "constant" in c:
        re, im = c["constant"]
        return constant_cubic(s, complex(re, im))
    return synthetic_cubic(s, c["zeros"], c.get("amplitude", 1.0))


def emit(payload: dict, cfg: dict, out_path: str | None) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash(cfg)
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(payload, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _output(args) -> str | None:
    """The one file the command writes: the path at -o, or None for
    standard output; `continue` writes curve.json and `wpcheck`
    wpcheck.csv by default, and each adds its suffix to an -o without it."""
    default = {"continue": "curve.json",
               "wpcheck": "wpcheck.csv"}.get(args.command)
    if default is None:
        return args.output
    suffix = os.path.splitext(default)[1]
    return (args.output or default).removesuffix(suffix) + suffix


def _single_t(cfg):
    """(q, t, tol, u) of a command at one t: the config's cubic, t and tol,
    and the stable field u at t from `continuation.branch_point`."""
    if "t" not in cfg:
        raise ConfigError("this command requires a single 't' value")
    q = build_cubic(cfg, build_backend(cfg))
    t, tol = float(cfg["t"]), cfg.get("tol", 1e-10)
    return q, t, tol, continuation.branch_point(q, t, tol)


def _point(p: pde.SolutionPoint) -> dict:
    """JSON of a solved point: t, u, residual_norm, lambda_min."""
    return {"t": float(p.t), "u": p.u.tolist(),
            "residual_norm": float(p.residual_norm),
            "lambda_min": float(p.lambda_min)}


def cmd_mesh(cfg, args) -> int:
    s = build_backend(cfg)
    payload = {
        "vertices": [[float(z.real), float(z.imag)] for z in s.vertices],
        "triangles": s.triangles.tolist(),
        "classes": s.class_of.tolist(),
        "lambda": s.conformal_factor.tolist(),
        "genus": int(s.genus),
        "area": float(s.area),
        "euler_characteristic": s.euler_characteristic(),
    }
    emit(payload, cfg, args.output)
    return EXIT_OK


def cmd_solve(cfg, args) -> int:
    q, t, tol, u = _single_t(cfg)
    emit(_point(pde.newton_solve(u, t, q, tol)), cfg, args.output)
    return EXIT_OK


def cmd_continue(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    tol = cfg.get("tol", 1e-10)
    bound = continuation.nonexistence_bound(q)
    qs = continuation.nested_cubics(q)
    curve = continuation.trace_curve(qs[0], tol=tol)
    fold, levels = continuation.detect_fold(curve, qs[1:], tol=tol)
    points = [dict(_point(p), area_induced=float(
        surface.integrate(qs[0].surface, np.exp(p.u)))) for p in curve.points]
    phi, a, b = continuation.normal_form(q, fold)
    path = _output(args)
    emit({"points": points, "T0_estimate": fold.t, "fold_point": _point(fold),
          "fold": {"lambda_bounds": fold.meta.get("lambda_bounds"),
                   "phi_ratio": float(phi.min() / phi.max()), "a": a, "b": b},
          "levels": levels, "diagnostics": curve.diagnostics,
          "nonexistence_bound": bound}, cfg, path)
    print(f"T0 estimate: {fold.t:.8g}")
    print(f"nonexistence bound T: {bound:.8g}")
    print(f"curve written to {path}")
    return EXIT_OK


def cmd_mpass(cfg, args) -> int:
    q, t, tol, u_stable = _single_t(cfg)
    p2 = mpass.find_mountain_pass(u_stable, t, q, tol=tol)
    payload = {
        "t": p2.t,
        "u2": p2.u.tolist(),
        "residual_norm": p2.residual_norm,
        "lambda_min": p2.lambda_min,
        "vnorm_separation": p2.meta["vnorm_separation"],
        "path_iterations": p2.meta["path_iterations"],
    }
    emit(payload, cfg, args.output)
    return EXIT_OK


def cmd_frame(cfg, args) -> int:
    q, t, tol, u = _single_t(cfg)
    fcfg = cfg.get("frame", {})
    if fcfg.get("path"):
        path = [complex(a, b) for a, b in fcfg["path"]]
    elif q.surface.genus >= 2:
        path = [0j, complex(math.tanh(0.5), 0.0)]   # hyperbolic length 1
    else:
        side = cfg["backend"].get("side", 1.0)
        path = [side * (0.25 + 0.25j), side * (0.75 + 0.25j)]

    # the connection takes t q: u solves (log s^2)_{z zbar} = s^2 + |tq|^2 s^-4
    tq = CubicDifferential(values=t * q.values, surface=q.surface)
    sheet = frame.integrate_frame(frame.MeshCoefficients(u, tq), path,
                                  step=fcfg.get("step", 0.005))
    frames = sheet.frames.reshape(len(sheet.frames), 9)
    emit({"path": np.stack([sheet.path.real, sheet.path.imag], -1).tolist(),
          "frames": np.stack([frames.real, frames.imag], -1).tolist(),
          "defects": sheet.defects.tolist(),
          "max_unitarity_defect": float(sheet.defects[:, 0].max()),
          "max_det_defect": float(sheet.defects[:, 1].max())},
         cfg, args.output)
    return EXIT_OK


def cmd_wpcheck(cfg, args) -> int:
    q = build_cubic(cfg, build_backend(cfg))
    h = cfg.get("wpcheck", {}).get("h", 0.01)
    rec = wp.area_record(q, h, tol=cfg.get("tol", 1e-12))
    csv_path = _output(args)
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        csv.writer(fh, lineterminator="\n").writerows([
            ["t", "area"], *zip(rec.ts.tolist(), rec.areas.tolist()),
            ["# fd1", rec.fd1],
            ["# fd2", rec.fd2, "exact", rec.exact_second, "rel_err",
             rec.rel_err],
            ["# udd_gap", rec.udd_gap]])
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


def _parser() -> argparse.ArgumentParser:
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
                       help="output file (JSON, or CSV for wpcheck; "
                            "continue and wpcheck add a missing suffix)")
    return parser


PARSER = _parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help or the error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    try:
        cfg = load_config(args.config)
        if args.command != "mesh" and "cubic" not in cfg:
            raise ConfigError("this command requires a 'cubic' differential")
        # try the output before any work, and leave it as it was
        path = _output(args)
        if path:
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)
        code = COMMANDS[args.command](cfg, args)
        # a closed reader must raise here, buffered or not, not at exit
        sys.stdout.flush()
        return code
    except surface.NumericalFailure as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader closed standard output after the work; the interpreter's
        # exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
