"""End-to-end benchmark of the `minlag` CLI, with an optional traced pass.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fold-octagon-r3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run is one fresh process.  It writes the workload's configs, times
`minlag.cli.main` on each command until `--seconds` have passed (at least
once), checks every output against its reference gate, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (median time
of one pass over the workload's commands), `setup_s` (median over fresh
processes of importing `minlag` and building the workload's surface and
cubic) and `peak_rss_mb`.  With `--trace 1` they are the per-layer ones from
`tracing.py`, taken from two traced passes whose work counters must agree
exactly, plus per-command-family times and the tracing overhead.  All
seconds are given at the reference core speed of `speed.py`, which removes
the drift in speed of the shared machine.

`--smoke` runs every workload on the small meshes (torus 16, octagon r2) in
both modes, prints one result line per run, and exits non-zero if any run is
not correct.  BLAS threads are capped at one so counts repeat exactly.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse                                        # noqa: E402
import contextlib                                      # noqa: E402
import io                                              # noqa: E402
import json                                            # noqa: E402
import resource                                        # noqa: E402
import shutil                                          # noqa: E402
import signal                                          # noqa: E402
import statistics                                      # noqa: E402
import subprocess                                      # noqa: E402
import sys                                             # noqa: E402
import tempfile                                        # noqa: E402
import time                                            # noqa: E402
import traceback                                       # noqa: E402
from pathlib import Path                               # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5          # fresh processes per run for setup_s
TRACED_PASSES = 2         # traced passes whose counters must agree

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- set-up probe ------------------------------------------------------------

def setup_probe(config_paths) -> None:
    """Child process: time importing minlag and building surfaces/cubics.

    Prints the time at reference speed, calibrated right after the timed
    region so that the region imports nothing ahead of minlag.
    """
    configs = [json.loads(Path(p).read_text()) for p in config_paths]
    start = time.perf_counter()
    from minlag import cli
    for cfg in configs:
        cli.build_cubic(cfg, cli.build_backend(cfg))
    elapsed = time.perf_counter() - start

    from speed import SpeedSampler
    from workloads import SETUP_MIX
    print(elapsed * SpeedSampler(SETUP_MIX).scale())


def measure_setup(config_paths, probes: int) -> float:
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             *map(str, config_paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- passes over the workload -----------------------------------------------

class Workload:
    """A workload's commands with their config files in a work directory."""

    def __init__(self, name, seed, smoke, work: Path):
        from workloads import MIX, build_commands

        self.commands = build_commands(name, seed, smoke)
        self.mix = MIX[name]
        self.work = work
        self.config_paths = []
        for i, cmd in enumerate(self.commands):
            path = work / f"config-{i}.json"
            path.write_text(json.dumps(cmd.config))
            self.config_paths.append(path)
        # every command of a workload uses one backend and cubic
        self.setup_configs = self.config_paths[:1]

    def run_pass(self, tracer, sampler):
        """Time each command once.

        Returns raw seconds per command family, less the time `sampler`
        spent in its kernel, and one message per command that exited
        non-zero or failed its gate.
        """
        from minlag import cli

        family_s, failures = {}, []
        for cmd, cfg_path in zip(self.commands, self.config_paths):
            out = self.work / cmd.output
            argv = [cmd.family, str(cfg_path), "-o", str(out)]
            span = (tracer.command(f"cli.{cmd.family}") if tracer
                    else contextlib.nullcontext())
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(captured):
                    code = cli.main(argv)
            except Exception:
                code = None
                log(traceback.format_exc())
            end = time.perf_counter()
            elapsed = end - start - sampler.kernel_seconds(start, end)
            family_s[cmd.family] = family_s.get(cmd.family, 0.0) + elapsed
            if code != 0:
                errors = [f"exit code {code}"]
            else:
                try:
                    errors = cmd.gate(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
            if errors:
                failures.append(f"{cmd.family} {cmd.output}: "
                                + "; ".join(errors))
        return family_s, failures


def sampled_pass(wl: Workload, tracer=None):
    """One pass under a speed sampler.

    Returns seconds per command family at reference speed, the raw total,
    the failure messages and the sampler.
    """
    from speed import SpeedSampler

    with SpeedSampler(wl.mix) as sampler:
        family_s, failed = wl.run_pass(tracer, sampler)
    scale = sampler.scale()
    return ({f: v * scale for f, v in family_s.items()},
            sum(family_s.values()), failed, sampler)


def run_untraced(wl: Workload, seconds: float, probes: int) -> dict:
    setup_s = measure_setup(wl.setup_configs, probes)
    raw, walls, attempted, failures = [], [], 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        family_s, raw_s, failed, _ = sampled_pass(wl)
        raw.append(raw_s)
        walls.append(sum(family_s.values()))
        attempted += len(wl.commands)
        failures += failed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"passes: {len(walls)}; seconds per pass, raw: "
        + ", ".join(f"{w:.3f}" for w in raw) + "; at reference speed: "
        + ", ".join(f"{w:.3f}" for w in walls) + f"; setup {setup_s:.3f} s")
    return {"attempted": attempted, "failures": failures, "errors": [],
            "metrics": {"wall_s": (statistics.median(walls), "s"),
                        "setup_s": (setup_s, "s"),
                        "peak_rss_mb": (rss_mb, "MB")}}


def run_traced(wl: Workload, seconds: float) -> dict:
    from tracing import Tracer, layer_metrics

    untraced, traced, families = [], [], []
    counts, secs = [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    while (len(traced) < TRACED_PASSES
           or time.perf_counter() - start < seconds):
        family_s, _, failed, _ = sampled_pass(wl)
        untraced.append(sum(family_s.values()))
        families.append(family_s)
        attempted += len(wl.commands)
        failures += failed
        for _ in range(TRACED_PASSES if not traced else 1):
            with Tracer() as tracer:
                family_s, _, failed, sampler = sampled_pass(wl, tracer)
            traced.append(sum(family_s.values()))
            attempted += len(wl.commands)
            failures += failed
            c, s = layer_metrics(tracer, sampler)
            counts.append(c)
            secs.append(s)

    errors = []
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0])
                          if c.get(k) != counts[0].get(k))
            errors.append(f"work counters of traced pass {i} differ from "
                          f"pass 0: {diff}")

    metrics = {k: (v, "ratio" if isinstance(v, float) else "count")
               for k, v in counts[0].items()}
    for key in secs[0]:
        metrics[key] = (statistics.median(s[key] for s in secs), "s")
    for family in ("continue", "mpass", "frame", "wpcheck"):
        metrics[f"cli.{family}_s"] = (
            statistics.median(f.get(family, 0.0) for f in families), "s")
    base, with_trace = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = (base, "s")
    metrics["trace.traced_wall_s"] = (with_trace, "s")
    metrics["trace.overhead_s"] = (with_trace - base, "s")
    log(f"untraced passes {len(untraced)}, traced passes {len(traced)}, "
        f"overhead {with_trace - base:+.3f} s on {base:.3f} s")
    return {"attempted": attempted, "failures": failures, "errors": errors,
            "metrics": metrics}


def run(name, seed, seconds, trace, smoke, work, probes=SETUP_PROBES) -> dict:
    wl = Workload(name, seed, smoke, work)
    raw = run_traced(wl, seconds) if trace else run_untraced(wl, seconds, probes)
    for msg in raw["failures"] + raw["errors"]:
        log(f"FAILED {msg}")
    return {
        "correct": not raw["failures"] and not raw["errors"],
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(raw["metrics"].items())},
    }


def environment(args) -> dict:
    import numpy
    import scipy
    from workloads import Variant

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": args.workload, "seed": args.seed,
            "variant": vars(Variant.from_seed(args.seed)),
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "git_commit": commit,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload on small meshes, both modes")
    parser.add_argument("--setup-probe", nargs="+", metavar="CONFIG",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "minlag" / "__init__.py").is_file():
        log(f"minlag sources not found under {SRC}")
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        print("# " + json.dumps(environment(args)), flush=True)
        if not args.smoke:
            result = run(args.workload, args.seed, args.seconds, args.trace,
                         False, work)
            print(json.dumps(result), flush=True)
            return 0
        results = []
        for name in WORKLOADS:
            for trace in (0, 1):
                results.append(run(name, args.seed, 0.0, trace, True, work,
                                   probes=1))
                print(f"# smoke {name} trace={trace} "
                      + json.dumps(results[-1]), flush=True)
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {}}), flush=True)
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
