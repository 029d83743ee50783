"""Run the same CLI commands in two checkouts and compare their output files.

Usage: python tools/compare_outputs.py OTHER_CHECKOUT

The commands are every command of `bench/workloads.build_commands`, for
every workload at seeds 0 and 7, full and smoke size, plus `solve` and
`mesh` on the smoke torus and octagon.  Their configs come from this
checkout's `bench/`, which is only read.  Each checkout then runs all of
them in one child process with its own `src/` on the path and one BLAS
thread, and every output file is compared byte for byte after its JSON
`timestamp` field is blanked.  Exit status 0 when every command exits alike
and every file is identical, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

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
                  for command in ("solve", "mesh")]
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
    problems += [f"{name}: differs" for name in differing]
    for line in problems:
        print(line)
    print(f"{len(codes[ROOT])} commands, {len(ours)} output files here, "
          f"{len(theirs)} there; {len(common) - len(differing)} identical "
          "apart from timestamp")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
