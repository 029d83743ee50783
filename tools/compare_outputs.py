"""Run the same CLI commands in two checkouts and compare their output files.

Usage: python tools/compare_outputs.py OTHER_CHECKOUT

The commands are every command of `bench/workloads.build_commands`, for
every workload at seeds 0 and 7, full and smoke size, plus `solve`, `mesh`,
`mpass` and `frame` (with its default path) on the smoke torus and octagon.
Their configs come from this checkout's `bench/`, which is only read.  Each
checkout then runs all of them in one child process with its own `src/` on
the path and one BLAS thread, and every output file is compared byte for
byte after its JSON `timestamp` field is blanked.  For a file that
differs, the entries of the two versions are paired by where they occur
(the JSON path, or the CSV row and column), and the report gives the
largest absolute and relative difference over their numbers, each with
where it occurs, the first mismatch that is not numeric, if there is
one, and how many entries only one version holds, with the first of
them.  Below that line come the file's key results, one a line, here and
there with their relative difference: `T0_estimate`, each `levels[k].T0`
and `levels[k].fold_newton_iterations`, `fold_point.lambda_min`, the
`diagnostics` `rejected_steps` and `newton_iterations` and the number of
`points` of a curve, the `lambda_min` of a solved or mountain-pass point
with the `path_iterations` and `vnorm_separation` of the latter, and the
`rel_err` of a wpcheck table.  A change that moves the traced curve on
purpose moves its largest difference too, and these lines show whether
the results and the work counts moved with it.  Exit status 0 when every
command exits alike and every file is identical, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
KEY_RESULTS = re.compile(
    r"\.(T0_estimate|levels\[\d+\]\.(T0|fold_newton_iterations)"
    r"|fold_point\.lambda_min|diagnostics\.(rejected_steps|newton_iterations)"
    r"|lambda_min|path_iterations|vnorm_separation)")

# runs the jobs of argv[1] in the directory argv[2]; one exit code per line
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from minlag.cli import main
out = Path(sys.argv[2])
for job in json.loads(Path(sys.argv[1]).read_text()):
    d = out / job["dir"]
    d.mkdir(parents=True, exist_ok=True)
    cfg = d / (job["output"] + ".config.json")
    cfg.write_text(json.dumps(job["config"]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([job["command"], str(cfg), "-o", str(d / job["output"])])
    cfg.unlink()
    print(job["dir"], job["output"], code, flush=True)
"""


def jobs() -> list:
    """(dir, command, config, output) of every command to compare."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from workloads import SMOKE_SIZE, WORKLOADS, build_commands

    found = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for smoke in (False, True):
                d = f"{workload}-seed{seed}-{'smoke' if smoke else 'full'}"
                found += [{"dir": d, "command": c.family, "config": c.config,
                           "output": c.output}
                          for c in build_commands(workload, seed, smoke)]
    torus = {"backend": {"type": "torus", "n": SMOKE_SIZE["torus"]},
             "cubic": {"constant": [1.0, 0.0]}, "t": 0.1}
    octagon = {"backend": {"type": "octagon",
                           "refinement": SMOKE_SIZE["octagon"]},
               "cubic": {"zeros": [[5, 3], [11, 3]], "amplitude": 1.0},
               "t": 5.0}
    for name, cfg in (("torus", torus), ("octagon", octagon)):
        found += [{"dir": f"{command}-{name}", "command": command,
                   "config": cfg, "output": f"{command}.json"}
                  for command in ("solve", "mesh", "mpass", "frame")]
    return found


def run(checkout: Path, job_file: Path, out: Path) -> list:
    """Exit code lines of every job, run in `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(job_file),
                           str(out)], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{checkout}: the commands did not run:\n{done.stderr}")
    return done.stdout.splitlines()


def files(out: Path) -> dict:
    """Relative path -> bytes with the timestamp blanked."""
    return {str(p.relative_to(out)): TIMESTAMP.sub(b'"timestamp": ""',
                                                   p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def entries(name: str, data: bytes) -> list:
    """(where, value) of every leaf of a JSON file or cell of a CSV file,
    in file order; a value is a float when it is numeric."""
    if name.endswith(".json"):
        found = []

        def walk(node, where):
            if isinstance(node, dict):
                for key in node:
                    walk(node[key], f"{where}.{key}")
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    walk(item, f"{where}[{i}]")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found.append((where, float(node)))
            else:
                found.append((where, node))

        walk(json.loads(data), "")
        return found
    found = []
    for i, row in enumerate(csv.reader(io.StringIO(data.decode()))):
        for j, cell in enumerate(row):
            try:
                found.append((f"row {i} col {j}", float(cell)))
            except ValueError:
                found.append((f"row {i} col {j}", cell))
    return found


def difference(name: str, ours: bytes, theirs: bytes) -> str:
    """How two versions of one output file differ: the largest absolute and
    relative difference of their numbers, with where each occurs, the
    first non-numeric mismatch, and the entries found in one file only.
    Entries are paired by where they occur, not by their position."""
    a, b = dict(entries(name, ours)), dict(entries(name, theirs))
    worst_abs, worst_rel, mismatch = (0.0, None), (0.0, None), None
    for where, va in a.items():
        if where not in b:
            continue
        vb = b[where]
        if va == vb or va != va and vb != vb:    # NaN too
            continue
        numeric = isinstance(va, float) and isinstance(vb, float)
        if not numeric or math.isnan(va - vb):
            mismatch = mismatch or f"{where} {va!r} | {where} {vb!r}"
            continue
        d = abs(va - vb)
        worst_abs = max(worst_abs, (d, where), key=lambda x: x[0])
        worst_rel = max(worst_rel, (d / max(abs(va), abs(vb)), where),
                        key=lambda x: x[0])
    report = (f"max abs diff {worst_abs[0]:.3g} at {worst_abs[1]}, "
              f"max rel diff {worst_rel[0]:.3g} at {worst_rel[1]}"
              if worst_abs[1] else "no numeric difference")
    if mismatch is not None:
        report += f"; first non-numeric mismatch: {mismatch}"
    for side, here, there in (("here", a, b), ("there", b, a)):
        only = [where for where in here if where not in there]
        if only:
            report += f"; only {side}: {len(only)} (first {only[0]})"
    return report


def key_results(name: str, data: bytes) -> dict:
    """Key result name -> value of one output file: the JSON leaves that
    KEY_RESULTS matches in full and the length of a top-level `points`
    list, and the cell after each `rel_err` cell of a CSV file."""
    found = entries(name, data)
    if name.endswith(".json"):
        keys = {where[1:]: value for where, value in found
                 if KEY_RESULTS.fullmatch(where)}
        points = json.loads(data).get("points")
        if isinstance(points, list):
            keys["points"] = len(points)
        return keys
    return {"rel_err": value for (_, label), (_, value)
            in zip(found, found[1:]) if label == "rel_err"}


def key_lines(name: str, ours: bytes, theirs: bytes) -> list:
    """One line per key result of a file: its value here and there, and
    their relative difference."""
    a, b = key_results(name, ours), key_results(name, theirs)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key), b.get(key)
        line = f"  {key}: {va!r} | {vb!r}"
        if isinstance(va, float) and isinstance(vb, float):
            scale = max(abs(va), abs(vb))
            line += f", rel diff {abs(va - vb) / scale if scale else 0.0:.3g}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "minlag").is_dir():
        sys.exit(__doc__.split("\n\n")[1])
    other = Path(args[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        job_file = tmp / "jobs.json"
        job_file.write_text(json.dumps(jobs()))
        codes = {c: run(c, job_file, tmp / name)
                 for c, name in ((ROOT, "this"), (other, "other"))}
        ours, theirs = files(tmp / "this"), files(tmp / "other")
    common = ours.keys() & theirs.keys()
    differing = sorted(name for name in common if ours[name] != theirs[name])
    problems = [f"exit codes differ: {a} | {b}"
                for a, b in zip(codes[ROOT], codes[other]) if a != b]
    problems += [f"{line}: nonzero exit" for line in codes[ROOT]
                 if not line.endswith(" 0")]
    problems += [f"{name}: only in {ROOT if name in ours else other}"
                 for name in sorted(ours.keys() ^ theirs.keys())]
    for name in differing:
        problems.append(f"{name}: differs; "
                        f"{difference(name, ours[name], theirs[name])}")
        problems += key_lines(name, ours[name], theirs[name])
    for line in problems:
        print(line)
    print(f"{len(codes[ROOT])} commands, {len(ours)} output files here, "
          f"{len(theirs)} there; {len(common) - len(differing)} identical "
          "apart from timestamp")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
