import importlib
import inspect
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from minlag import cli, continuation, cubic, frame, pde, surface
from minlag.cli import main
from minlag.surface import build_flat_torus
from minlag.wp import area_record

from conftest import octagon_zero_classes
from reference import assembled_operator


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
    # stable: lambda_min is the only record of it
    assert payload["lambda_min"] > 0.0
    assert set(payload) == {"t", "u", "residual_norm", "lambda_min",
                            "config_hash", "timestamp"}


def _wrong_pair(A, **kwargs):
    return np.array([5.0]), np.ones((A.shape[0], 1))


def _no_convergence(A, **kwargs):
    raise pde.spla.ArpackNoConvergence("injected", np.empty(0),
                                       np.empty((A.shape[0], 0)))


def test_eigen_failure_exits_2(tmp_path, capsys, monkeypatch):
    # an eigenpair that misses its residual check is a numerical failure, and
    # so is an ARPACK run that does not converge: nothing falls back
    cfg = write_cfg(tmp_path, "c.json",
                    dict(TORUS, backend=dict(TORUS["backend"], n=32), t=0.1))
    for eigsh, message in (
            (_wrong_pair, "eigen residual"),
            (_no_convergence, "smallest eigenpair failed: ARPACK error -1: "
                              "injected")):
        monkeypatch.setattr(pde.spla, "eigsh", eigsh)
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed:") and message in err


def test_singular_fit_exits_2(tmp_path, capsys, monkeypatch):
    # the stacked solve of the frame's derivative fits raises numpy's
    # LinAlgError, a ValueError, for a singular fit; the frame turns it into
    # a MeshError, a numerical failure
    def singular(*args):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "solve", singular)
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    assert main(["frame", cfg]) == 2
    assert (capsys.readouterr().err
            == "frame failed: singular derivative fit: injected\n")


@pytest.mark.parametrize("argv, code", [
    (["bogus", "c.json"], 1), (["solve"], 1), (["-h"], 0),
    (["solve", "-h"], 0)],
    ids=["unknown-command", "no-config", "help", "command-help"])
def test_usage_exit_codes(capsys, argv, code):
    # argparse prints its help or its message; main returns, it does not exit
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: minlag")


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


@pytest.mark.parametrize("action", ["error", "always"])
def test_nonzero_constant_off_the_torus_is_a_config_error(tmp_path, capsys,
                                                         action):
    # the config check comes before constant_cubic, so its UserWarning is
    # not reached, whether warnings are errors or only shown; q = 0 is
    # holomorphic on every surface and solves
    octagon = {"backend": {"type": "octagon", "refinement": 2}, "t": 0.5}
    nonzero = write_cfg(tmp_path, "c.json",
                        dict(octagon, cubic={"constant": [1.0, 0.0]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        for command in ("solve", "mesh"):    # every command checks it
            assert main([command, nonzero]) == 1
            assert capsys.readouterr().err == (
                "config error: config invalid at cubic/constant: a nonzero "
                "constant is only holomorphic on the torus\n")
        assert main(["solve", write_cfg(tmp_path, "z.json", dict(
            octagon, cubic={"constant": [0.0, 0.0]}))]) == 0
    assert not caught


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


CONTINUE_TORUS = {k: v for k, v in dict(TORUS, dt0=0.01).items() if k != "t"}


def test_continue_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", CONTINUE_TORUS)
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 0
    out = capsys.readouterr().out
    assert "T0 estimate" in out and "0.136" in out
    assert "0.3535" in out
    record = json.loads((tmp_path / "curve.json").read_text())
    assert record["T0_estimate"] == pytest.approx(0.13608276, rel=1e-4)
    assert record["nonexistence_bound"] == pytest.approx(0.35355339, rel=1e-6)
    iterations = record["diagnostics"]["newton_iterations"]
    assert isinstance(iterations, int) and iterations > 0
    ts = [p["t"] for p in record["points"]]
    assert ts[0] == 0.0 and ts == sorted(ts) and len(ts) >= 3
    # traced on torus 4, the fold solved on 4, 8 and 16
    assert len(record["points"][0]["u"]) == 16
    assert len(record["fold_point"]["u"]) == 256
    levels = record["levels"]
    assert [lv["classes"] for lv in levels] == [16, 64, 256]
    assert levels[-1]["T0"] == record["T0_estimate"]
    assert all(isinstance(lv["fold_newton_iterations"], int) for lv in levels)


@pytest.mark.parametrize("output", [None, "x", "x.json"])
def test_continue_writes_one_record(tmp_path, capsys, monkeypatch, output):
    # the JSON record is the one file: -o gains a .json suffix if it lacks
    # one, and the default is curve.json
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "c.json", CONTINUE_TORUS)
    assert main(["continue", cfg] + (["-o", output] if output else [])) == 0
    name = "x.json" if output else "curve.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", name]
    assert capsys.readouterr().out.endswith(f"curve written to {name}\n")
    assert "points" in json.loads((tmp_path / name).read_text())


def test_fold_point_has_no_stable_flag(tmp_path, capsys):
    # lambda_min > 0 is what stable means, so no payload repeats it as a
    # flag: every traced point is stable by construction, and lambda_min is
    # zero to rounding at the fold, where a flag read from its sign would
    # flip with any change of the fold solve's path
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    payloads = {}
    for command in ("solve", "continue", "mpass"):
        out = tmp_path / f"{command}.json"
        assert main([command, cfg, "-o", str(out)]) == 0
        payloads[command] = json.loads(out.read_text())
    assert all("stable" not in json.dumps(p) for p in payloads.values())
    record = payloads["continue"]
    fold = record["fold_point"]
    assert sorted(fold) == ["lambda_min", "residual_norm", "t", "u"]
    assert sorted(record["diagnostics"]) == [
        "final_step", "newton_iterations", "rejected_steps"]
    assert abs(fold["lambda_min"]) <= 1e-8
    assert all(p["lambda_min"] > 0.0 for p in record["points"])


def test_curve_points_carry_the_induced_area(tmp_path, capsys):
    # each point holds its t, u, residual_norm, lambda_min and the area of
    # its induced metric on the traced mesh, torus 4 of area 1; a constant
    # q gives a constant u, so that area is e^u
    cfg = write_cfg(tmp_path, "c.json", CONTINUE_TORUS)
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 0
    points = json.loads((tmp_path / "curve.json").read_text())["points"]
    torus4 = build_flat_torus(4, 1.0, 1.0)
    for p in points:
        assert sorted(p) == ["area_induced", "lambda_min", "residual_norm",
                             "t", "u"]
        u = np.array(p["u"])
        assert p["area_induced"] == surface.integrate(torus4, np.exp(u))
        assert p["area_induced"] == pytest.approx(math.exp(u[0]), rel=1e-14)
    areas = [p["area_induced"] for p in points]
    assert areas[0] == pytest.approx(1.0, rel=1e-14)
    assert areas == sorted(areas, reverse=True)


def test_csv_lines_end_in_newline_only(tmp_path, capsys):
    # the comment lines and the rows of a table share one line ending, and
    # the continue record is one line
    cfg = {k: v for k, v in TORUS.items() if k != "t"}
    for command, name in (("continue", "curve.json"), ("wpcheck", "wpt.csv")):
        path = write_cfg(tmp_path, f"{name}.config.json", cfg)
        assert main([command, path, "-o", str(tmp_path / name)]) == 0
        text = (tmp_path / name).read_bytes()
        assert b"\r" not in text
        assert text.count(b"\n") == (1 if command == "continue" else 7)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_unwritable_output_exits_1(tmp_path, capsys, monkeypatch, command):
    # the output is tried before the command computes: no LU is made
    lus, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: lus.append(a) or splu(*a, **k))
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=0.1))
    out = tmp_path / "missing" / "out"
    assert main([command, cfg, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and str(out) in err
    assert lus == []


def test_output_check_leaves_files_as_they_were(tmp_path, capsys):
    # trying an output neither creates it when the command then fails nor
    # empties a file already there
    cfg = write_cfg(tmp_path, "c.json", dict(TORUS, t=100.0))
    (tmp_path / "old.json").write_text("kept\n")
    assert main(["solve", cfg, "-o", str(tmp_path / "new.json")]) == 2
    assert main(["solve", cfg, "-o", str(tmp_path / "old.json")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json",
                                                          "old.json"]
    assert (tmp_path / "old.json").read_text() == "kept\n"


def test_continue_failing_level_exits_2(tmp_path, capsys, monkeypatch):
    # a fold solve that fails on one level is a numerical failure naming that
    # level, with no fallback to a trace on the configured mesh
    damped = continuation.damped_newton

    def fail_on_64(x0, *args):
        if len(x0) == 2 * 64 + 1:
            raise pde.NonConvergence("forced failure")
        return damped(x0, *args)

    monkeypatch.setattr(continuation, "damped_newton", fail_on_64)
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in dict(TORUS, dt0=0.01).items()
                     if k != "t"})
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("continue failed:")
    assert "level 2 of 3 (64 classes)" in err and "forced failure" in err
    assert not (tmp_path / "curve.json").exists()


def test_continue_orders_the_surface_once(tmp_path, monkeypatch):
    # continue traces on torus 4 and solves the fold on 8 and 16: at most one
    # ordering ILU per level surface, of that level's K + M, and every LU
    # reuses its column order; the n = 8 solve starts converged (constant
    # q gives a constant u), so it factorizes nothing
    orderings, lus = [], []
    spilu, splu = spla.spilu, spla.splu

    def recording_spilu(A, *args, **kwargs):
        orderings.append(A.copy())
        return spilu(A, *args, **kwargs)

    def recording_splu(A, *args, **kwargs):
        lus.append(kwargs["permc_spec"])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "spilu", recording_spilu)
    monkeypatch.setattr(spla, "splu", recording_splu)
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in dict(TORUS, dt0=0.01).items()
                     if k != "t"})
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 0
    assert [A.shape[0] for A in orderings] == [16, 256]
    assert set(lus) == {"NATURAL"} and len(lus) > 20
    for A, n in zip(orderings, (4, 16)):
        ref = assembled_operator(build_flat_torus(n, 1.0, 1.0), 1.0)
        assert abs(A - ref).max() == 0.0


def test_torus_continue_builds_the_torus_once(tmp_path, monkeypatch):
    # the coarser levels, torus 4 and 8, are slices of the one build of 16
    calls = []
    build = surface.build_flat_torus

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(surface, "build_flat_torus", counting_build)
    cfg = write_cfg(tmp_path, "c.json",
                    {k: v for k, v in TORUS.items() if k != "t"})
    assert main(["continue", cfg, "-o", str(tmp_path / "curve")]) == 0
    levels = json.loads((tmp_path / "curve.json").read_text())["levels"]
    assert [lv["classes"] for lv in levels] == [16, 64, 256]
    assert calls == [(16, 1.0, 1.0)]


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


# continue on torus 16 and octagon r2, and the fold T0 each gives
CONTINUE_CASES = {
    "torus16": (dict(TORUS, dt0=0.01), 0.1360827634879544),
    "octagon2": ({"backend": {"type": "octagon", "refinement": 2},
                  "cubic": {"zeros": [[5, 3], [11, 3]], "amplitude": 30.0},
                  "dt0": 0.2, "tol": 1e-10}, 0.4937185908639932),
}


@pytest.mark.parametrize("case", sorted(CONTINUE_CASES))
def test_continue_solves_each_eigenpair_once(tmp_path, capsys, monkeypatch,
                                             case):
    # each classified point costs one eigen solve, and the fold solve starts
    # from the eigenvector the last traced point kept: no other eigen solve
    eigsh, newton_solve = pde.spla.eigsh, continuation.newton_solve
    solves, classified = [], []

    def counting_eigsh(*args, **kwargs):
        solves.append(args)
        return eigsh(*args, **kwargs)

    def counting_newton(*args, **kwargs):
        classified.append(newton_solve(*args, **kwargs))
        return classified[-1]

    monkeypatch.setattr(pde.spla, "eigsh", counting_eigsh)
    monkeypatch.setattr(continuation, "newton_solve", counting_newton)
    cfg, t0 = CONTINUE_CASES[case]
    assert main(["continue", write_cfg(tmp_path, "c.json", cfg),
                 "-o", str(tmp_path / "curve")]) == 0
    payload = json.loads((tmp_path / "curve.json").read_text())
    assert payload["T0_estimate"] == pytest.approx(t0, rel=1e-12)
    assert len(classified) >= len(payload["points"]) + 1
    assert len(solves) == len(classified)


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


FRAME_TORUS = dict(TORUS, t=0.1,
                   frame={"path": [[0.25, 0.25], [0.45, 0.25]], "step": 0.05})


def test_frame_sheet_json(tmp_path):
    out = tmp_path / "frame.json"
    assert main(["frame", write_cfg(tmp_path, "c.json", FRAME_TORUS),
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"path", "frames", "defects",
                            "max_unitarity_defect", "max_det_defect",
                            "config_hash", "timestamp"}
    assert len(payload["path"]) == 5
    assert len(payload["frames"]) == len(payload["defects"]) == 5
    assert all(len(f) == 9 for f in payload["frames"])
    assert payload["max_unitarity_defect"] == max(
        d[0] for d in payload["defects"])
    assert payload["max_det_defect"] == max(d[1] for d in payload["defects"])


def test_frame_sheet_json_matches_elementwise(tmp_path, monkeypatch):
    # each complex entry is written as its [re, im] pair, signed zeros too
    integrate, sheets = frame.integrate_frame, []

    def signed_zeros(*args, **kwargs):
        sheets.append(integrate(*args, **kwargs))
        sheets[-1].path[1] = complex(-0.0, 0.5)
        sheets[-1].frames[2, 1, 0] = complex(0.25, -0.0)
        return sheets[-1]

    monkeypatch.setattr(frame, "integrate_frame", signed_zeros)
    out = tmp_path / "frame.json"
    assert main(["frame", write_cfg(tmp_path, "c.json", FRAME_TORUS),
                 "-o", str(out)]) == 0
    sheet = sheets[0]
    elementwise = {
        "path": [[float(z.real), float(z.imag)] for z in sheet.path],
        "frames": [[[float(v.real), float(v.imag)] for v in F.ravel()]
                   for F in sheet.frames],
        "defects": sheet.defects.tolist(),
    }
    text = out.read_text()
    payload = json.loads(text)
    assert json.dumps({k: payload[k] for k in elementwise}) == json.dumps(
        elementwise)
    assert "[-0.0, 0.5]" in text and "[0.25, -0.0]" in text


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


def test_wpcheck_table_matches_area_record(tmp_path, unit_cubic):
    # the t,area rows are area_record's samples, in plain float reprs
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "torus", "n": 16, "side": 1.0, "lambda0": 1.0},
        "cubic": {"constant": [1.0, 0.0]},
        "wpcheck": {"h": 0.01},
    })
    assert main(["wpcheck", cfg, "-o", str(tmp_path / "wpt")]) == 0
    rows = (tmp_path / "wpt.csv").read_text().splitlines()
    rec = area_record(unit_cubic, 0.01, tol=1e-12)     # wpcheck's default tol
    assert rows[2:4] == [f"{t!r},{a!r}" for t, a in
                         zip(rec.ts.tolist(), rec.areas.tolist())]
    assert rows[2].startswith("0.0,") and "np." not in "".join(rows)


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
        "cubic": {"constant": [0.0, 0.0]},
    })
    out = tmp_path / "mesh.json"
    assert main(["mesh", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["euler_characteristic"] == -2
    # the coarse mesh overshoots the hyperbolic area 4 pi (g - 1)
    assert payload["genus"] == 2
    assert payload["area"] - 4 * math.pi == pytest.approx(3.79, abs=0.01)


MESH_KEYS = {"vertices", "triangles", "classes", "lambda", "genus", "area",
             "euler_characteristic", "config_hash", "timestamp"}


def test_mesh_export_schema(tmp_path, octagon2):
    cfg = write_cfg(tmp_path, "c.json",
                    {"backend": {"type": "octagon", "refinement": 2}})
    out = tmp_path / "mesh.json"
    assert main(["mesh", cfg, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == MESH_KEYS
    assert len(payload["vertices"]) == len(payload["classes"])
    assert len(payload["lambda"]) == len(payload["vertices"])
    assert len(payload["triangles"]) == len(octagon2.triangles)
    assert payload["genus"] == 2
    assert payload["area"] == pytest.approx(octagon2.area)


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
    assert set(payload) == MESH_KEYS


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
    # class is a NumericalFailure and exits 2; the base is a RuntimeError,
    # so a caller's `except RuntimeError` still catches every failure
    classes = _minlag_exception_classes()
    assert len(classes) >= 14
    assert issubclass(surface.NumericalFailure, RuntimeError)
    for exc_cls in classes:
        assert (issubclass(exc_cls, ValueError)
                != issubclass(exc_cls, surface.NumericalFailure)), exc_cls


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


def test_continue_octagon_record(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "backend": {"type": "octagon", "refinement": 1},
        "cubic": {"zeros": [[5, 3], [11, 3]], "amplitude": 30.0},
        "dt0": 0.2,
        "tol": 1e-10,
    })
    assert main(["continue", cfg, "-o", str(tmp_path / "oct.json")]) == 0
    points = json.loads((tmp_path / "oct.json").read_text())["points"]
    ts = [p["t"] for p in points]
    assert ts == sorted(ts) and len(ts) >= 3
    # the induced area starts at the mesh's area and falls as u does
    octagon1 = surface.build_genus2_octagon(1)
    areas = [p["area_induced"] for p in points]
    assert areas[0] == pytest.approx(octagon1.area, rel=1e-12)
    assert areas == sorted(areas, reverse=True)


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

