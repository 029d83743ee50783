import importlib
import inspect
import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from minlag import cli, cubic, pde
from minlag.cli import main
from minlag.surface import build_flat_torus

from conftest import octagon_zero_classes


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


TORUS = {
    "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
    "cubic": {"constant": [1.0, 0.0]},
    "t": 0.0,
    "tol": 1e-10,
}


def test_solve_trivial(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", TORUS)
    out = tmp_path / "sol.json"
    assert main(["solve", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert max(abs(v) for v in payload["u"]) <= 1e-10
    assert payload["stable"] is True
    assert "config_hash" in payload and "timestamp" in payload


def _wrong_pair(A, **kwargs):
    return np.array([5.0]), np.ones((A.shape[0], 1))


def _no_convergence(A, **kwargs):
    raise pde.spla.ArpackNoConvergence("injected", np.empty(0),
                                       np.empty((A.shape[0], 0)))


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("injected singular pencil")


def test_eigen_failure_exits_2(tmp_path, capsys, monkeypatch):
    # an eigenpair that misses its residual check is a numerical failure, and
    # so is a failed dense fallback, though LinAlgError is a ValueError
    cfg = write_cfg(tmp_path, "c.json",
                    dict(TORUS, backend=dict(TORUS["backend"], n=32), t=0.1))
    for eigsh, eigh, message in (
            (_wrong_pair, pde.sla.eigh, "eigen residual"),
            (_no_convergence, _singular, "injected singular pencil")):
        monkeypatch.setattr(pde.spla, "eigsh", eigsh)
        monkeypatch.setattr(pde.sla, "eigh", eigh)
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed:") and message in err


def test_malformed_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["solve", str(p)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_reports_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"backend": {"type": "torus", "n": 2},
                     "cubic": {"constant": [1, 0]}})
    assert main(["solve", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "backend" in err


@pytest.mark.parametrize("cfg, where", [
    (dict(TORUS, backend=dict(TORUS["backend"], n=16.0)), "backend/n"),
    ({"backend": {"type": "octagon", "refinement": 2.0}}, "backend/refinement"),
    ({"backend": {"type": "octagon", "refinement": 1},
      "cubic": {"zeros": [[5, 3], [11, 3.0]]}}, "cubic/zeros/1/1"),
    (dict(TORUS, t=True), "t")],
    ids=["n-16.0", "refinement-2.0", "order-3.0", "t-true"])
def test_integer_fields_take_json_integers(tmp_path, capsys, cfg, where):
    # 16.0 is a number but not a JSON integer literal, and a bool is neither
    assert main(["mesh", write_cfg(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config invalid at {where}:")


@pytest.mark.parametrize("command", ["solve", "mpass", "frame"])
def test_single_t_commands_require_t(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in TORUS.items() if k != "t"})
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'t'" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    # an `mpass` block is unknown too: the mountain-pass path size and sweep
    # budget are constants of minlag.mpass, as is the cutoff exponent theta;
    # nothing reads a seed, the frame is never reprojected nor built from
    # trivial coefficients, and wpcheck has the centred stencil only
    for extra, key in (({"mystery": 1}, "mystery"),
                       ({"mpass": {"path_nodes": 40}}, "mpass"),
                       ({"wpcheck": {"stencil": "oneside"}}, "stencil"),
                       ({"wpcheck": {"n_points": 2}}, "n_points"),
                       ({"frame": {"project": True}}, "project"),
                       ({"seed": 0}, "seed"),
                       ({"theta": 3}, "theta"),
                       ({"frame": {"trivial": True}}, "trivial")):
        cfg = write_cfg(tmp_path, "c.json", dict(TORUS, **extra))
        assert main(["solve", cfg]) == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, raw", [
    ("solve", "NaN"), ("solve", "Infinity"), ("solve", "-Infinity"),
    ("solve", "1e400"), ("mpass", "NaN"),
    pytest.param("solve", "1" + "0" * 400, id="solve-401-digit-int")])
def test_non_finite_numbers_rejected(tmp_path, capsys, command, raw):
    # json reads the NaN/Infinity literals, 1e400 as inf and a 401-digit
    # integer as an int no float holds; every bound check passes NaN
    text = json.dumps(dict(TORUS, t=0.5)).replace('"t": 0.5', f'"t": {raw}')
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and raw in err


def test_continue_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in dict(TORUS, dt0=0.01).items()
                     if k != "t"})
    base = tmp_path / "curve"
    assert main(["continue", cfg, "-o", str(base)]) == 0
    out = capsys.readouterr().out
    assert "T0 estimate" in out and "0.136" in out
    assert "0.3535" in out
    rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# config_hash=")
    assert rows[1] == "t,lambda_min,residual_norm,u_min,u_max,area_induced"
    ts = [float(r.split(",")[0]) for r in rows[2:]]
    assert ts == sorted(ts)
    sidecar = json.loads((tmp_path / "curve.json").read_text())
    assert sidecar["T0_estimate"] == pytest.approx(0.13608276, rel=1e-4)
    assert sidecar["nonexistence_bound"] == pytest.approx(0.35355339, rel=1e-6)
    iterations = sidecar["diagnostics"]["newton_iterations"]
    assert isinstance(iterations, int) and iterations > 0


def test_continue_orders_the_surface_once(tmp_path, monkeypatch):
    # one ordering LU, of K + M; every other LU reuses its column order
    runs = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        runs.append((kwargs["permc_spec"], A.copy()))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in dict(TORUS, dt0=0.01).items()
                     if k != "t"})
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 0
    ordered = [A for spec, A in runs if spec != "NATURAL"]
    assert len(ordered) == 1 and len(runs) > 20
    k_plus_m = build_flat_torus(16, 1.0, 1.0).shifted(1.0)
    assert abs(ordered[0] - k_plus_m).max() == 0.0


def test_continue_zero_cubic_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    dict(TORUS, cubic={"constant": [0.0, 0.0]}))
    assert main(["continue", cfg]) == 1


def test_mpass_report(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    out = tmp_path / "mp.json"
    assert main(["mpass", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= {"t", "u2", "residual_norm", "lambda_min",
                            "vnorm_separation", "path_iterations"}
    assert payload["u2"][0] == pytest.approx(-1.04660440632, abs=1e-6)
    assert payload["lambda_min"] < 0.0


def test_mpass_t_zero_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.0))
    assert main(["mpass", cfg]) == 1


def test_mpass_beyond_fold_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.15))
    assert main(["mpass", cfg]) == 2
    assert "fold" in capsys.readouterr().err


def test_solve_beyond_fold_exits_2(tmp_path, capsys):
    # 0.15 and 0.2 are past the torus fold T0 = 1/sqrt(54) = 0.136
    for t in (0.15, 0.2):
        cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=t))
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed:") and "fold" in err


def test_eigen_solves_per_command(tmp_path, monkeypatch):
    # `solve` classifies the stable field and `mpass` verifies its second
    # critical point; the stable field itself costs no eigen solve
    calls = []
    eigsh = pde.spla.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(args)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "eigsh", counting_eigsh)
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    for command, expected in (("solve", 1), ("mpass", 1), ("frame", 0)):
        calls.clear()
        out = str(tmp_path / f"{command}.json")
        assert main([command, cfg, "-o", out]) == 0
        assert len(calls) == expected, command


def test_frame_computes_the_norm_once(tmp_path, monkeypatch):
    # the stable solve reads ||q||^2; the t q the frame is built from never does
    calls = []
    norm_field = cubic.norm_field

    def counting(q):
        calls.append(q)
        return norm_field(q)

    monkeypatch.setattr(cubic, "norm_field", counting)
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    assert main(["frame", cfg, "-o", str(tmp_path / "frame.json")]) == 0
    assert len(calls) == 1


# the benchmark's frame loop, on octagon r2 at 0.55 of its fold T0
FRAME_LOOP = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5],
              [0.5, 0.0], [0.0, 0.0]]
OCTAGON2_MESH = {
    "backend": {"type": "octagon", "refinement": 2},
    "t": 0.55 * 43.498131284,
    "tol": 1e-10,
    "frame": {"path": FRAME_LOOP, "step": 0.005},
}


def test_frame_mesh_coefficients_loop(tmp_path, octagon2):
    cubic = {"zeros": [list(z) for z in octagon_zero_classes(octagon2)],
             "amplitude": 1.0}
    cfg = write_cfg(tmp_path, "c.json", dict(OCTAGON2_MESH, cubic=cubic))
    runs = []
    for name in ("a.json", "b.json"):
        assert main(["frame", cfg, "-o", str(tmp_path / name)]) == 0
        runs.append(json.loads((tmp_path / name).read_text()))
        runs[-1].pop("timestamp")
    assert runs[0] == runs[1]
    assert runs[0]["max_unitarity_defect"] <= 1e-8
    assert runs[0]["max_det_defect"] <= 1e-8
    assert len(runs[0]["path"]) == 769


def test_frame_takes_t_times_q(tmp_path, octagon2):
    # (t / c, c q) is the same data as (t, q): both give u and the cubic
    # differential t q of the immersion, so both give the same frame
    zeros = [list(z) for z in octagon_zero_classes(octagon2)]
    frames = []
    for c in (1.0, 1.3):
        cfg = write_cfg(tmp_path, "c.json", dict(
            OCTAGON2_MESH, t=OCTAGON2_MESH["t"] / c,
            cubic={"zeros": zeros, "amplitude": c},
            frame={"path": [[0.0, 0.0], [0.3, 0.1]], "step": 0.01}))
        out = tmp_path / "frame.json"
        assert main(["frame", cfg, "-o", str(out)]) == 0
        frames.append(np.array(json.loads(out.read_text())["frames"]))
    assert np.abs(frames[0] - frames[1]).max() <= 1e-12


def test_frame_path_leaving_patch_exits_2(tmp_path, capsys, octagon2):
    cubic = {"zeros": [list(z) for z in octagon_zero_classes(octagon2)],
             "amplitude": 1.0}
    cfg = write_cfg(tmp_path, "c.json", dict(
        OCTAGON2_MESH, cubic=cubic, t=1.0,
        frame={"path": [[0.0, 0.0], [0.95, 0.0]], "step": 0.01}))
    assert main(["frame", cfg]) == 2
    assert "outside the meshed patch" in capsys.readouterr().err


def test_frame_bad_zero_class(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "octagon", "refinement": 1},
        "cubic": {"zeros": [[10000, 6]], "amplitude": 1.0},
    })
    assert main(["frame", cfg]) == 1
    assert "out of range" in capsys.readouterr().err


def test_wpcheck_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]},
        "wpcheck": {"h": 0.01},
    })
    base = tmp_path / "wpt"
    assert main(["wpcheck", cfg, "-o", str(base)]) == 0
    out = capsys.readouterr().out
    assert "rel_err" in out
    rows = (tmp_path / "wpt.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# config_hash=")
    assert rows[1] == "t,area"
    assert rows[2].startswith("0.0,")
    assert len([r for r in rows if not r.startswith("#")]) == 3
    assert any(r.startswith("# fd2") for r in rows)
    assert rows[-1].startswith("# udd_gap,")
    assert float(rows[-1].split(",")[1]) <= 0.01
    assert "udd_gap" in out


def test_wpcheck_zero_cubic_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    dict(TORUS, cubic={"constant": [0.0, 0.0]}))
    # was a ZeroDivisionError traceback from the rel_err division
    assert main(["wpcheck", cfg, "-o", str(tmp_path / "wpt")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: the cubic differential vanishes")


def test_wpcheck_h_below_the_fold_suffices(tmp_path, capsys):
    # 3h = 0.15 is past the torus fold T0 = 0.136, but the checks read only
    # t = 0 and h
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]},
        "wpcheck": {"h": 0.05},
    })
    assert main(["wpcheck", cfg, "-o", str(tmp_path / "wpt")]) == 0
    rows = (tmp_path / "wpt.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[2:4]] == ["0.0", "0.05"]


def test_wpcheck_beyond_fold_exits_2(tmp_path, capsys):
    # h = 0.2 is past the torus fold T0 = 1/sqrt(54) = 0.136
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]},
        "wpcheck": {"h": 0.2},
    })
    assert main(["wpcheck", cfg, "-o", str(tmp_path / "wpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wpcheck failed:")
    assert "at t = 0.2" in err and "fold" in err


def test_mesh_octagon_reports_topology_and_area(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "octagon", "refinement": 1},
        "cubic": {"constant": [1.0, 0.0]},
    })
    out = tmp_path / "mesh.json"
    assert main(["mesh", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["euler_characteristic"] == -2
    assert payload["area_error_vs_hyperbolic"] == pytest.approx(3.79, abs=0.01)


def test_mesh_needs_no_cubic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"backend": {"type": "octagon", "refinement": 1}})
    out = tmp_path / "mesh.json"
    assert main(["mesh", cfg, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["euler_characteristic"] == -2


def test_solve_without_cubic_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in TORUS.items() if k != "cubic"})
    assert main(["solve", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'cubic'" in err


def test_mesh_torus_has_no_hyperbolic_area_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", TORUS)
    out = tmp_path / "mesh.json"
    assert main(["mesh", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["euler_characteristic"] == 0
    assert "area_error_vs_hyperbolic" not in payload


def _minlag_exception_classes():
    found = []
    for name in ("surface", "cubic", "pde", "continuation", "mpass", "frame",
                 "wp", "cli"):
        module = importlib.import_module(f"minlag.{name}")
        found += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, Exception)
                  and obj.__module__ == module.__name__]
    return found


def test_every_minlag_exception_has_an_exit_code():
    # the rule of the cli docstring: a ValueError exits 1, and every other
    # class derives from one on NUMERICAL_FAILURES and exits 2
    classes = _minlag_exception_classes()
    assert len(classes) >= 13
    for exc_cls in classes:
        assert (issubclass(exc_cls, ValueError)
                or issubclass(exc_cls, cli.NUMERICAL_FAILURES)), exc_cls


@pytest.mark.parametrize("exc_cls", _minlag_exception_classes(),
                         ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_main_maps_every_minlag_exception(tmp_path, capsys, monkeypatch,
                                          exc_cls):
    def command(cfg, args):
        raise exc_cls("injected")

    monkeypatch.setitem(cli.COMMANDS, "solve", command)
    cfg = write_cfg(tmp_path, "c.json", TORUS)
    expected = 1 if issubclass(exc_cls, ValueError) else 2
    assert main(["solve", cfg]) == expected
    prefix = "config error:" if expected == 1 else "solve failed:"
    assert capsys.readouterr().err == f"{prefix} injected\n"


def test_continue_octagon_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "octagon", "refinement": 1},
        "cubic": {"zeros": [[5, 3], [11, 3]], "amplitude": 30.0},
        "dt0": 0.2,
        "tol": 1e-10,
    })
    base = tmp_path / "oct"
    assert main(["continue", cfg, "-o", str(base)]) == 0
    rows = (tmp_path / "oct.csv").read_text().strip().splitlines()
    ts = [float(r.split(",")[0]) for r in rows[2:]]
    assert ts == sorted(ts) and len(ts) >= 3


def test_determinism_modulo_timestamp(tmp_path):
    # both configs take the ARPACK path, whose fixed start vector keeps
    # lambda_min repeatable
    sparse = dict(TORUS, backend=dict(TORUS["backend"], n=32), t=0.1)
    for i, cfg_dict in enumerate((TORUS, sparse)):
        cfg = write_cfg(tmp_path, f"c{i}.json", cfg_dict)
        o1, o2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert main(["solve", cfg, "-o", str(o1)]) == 0
        assert main(["solve", cfg, "-o", str(o2)]) == 0
        d1, d2 = json.loads(o1.read_text()), json.loads(o2.read_text())
        d1.pop("timestamp"), d2.pop("timestamp")
        assert d1 == d2

