"""Span tracing and per-layer work counters, applied from outside `minlag`.

`Tracer.install` replaces each target function with a wrapper that records
a span (name, start, end, parent, command) and restores the originals on
`uninstall`.  A function is replaced by object identity in every loaded
`minlag` module that binds it, since `pde`, `mpass`, `continuation` and `wp`
import names like `residual` and `newton_solve` directly.  scipy's `splu`,
`eigsh` and `eigh` are replaced on their scipy module, which `minlag` calls
through.  A target that no longer exists is skipped with a warning, and the
metrics derived from it are left out of the result.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics: call counts, inclusive seconds, work counters read from return
values, and self time per layer (a span's duration minus its children's).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import warnings

# span name -> (module, attribute path) of every function it wraps
TARGETS = {
    "surface.build": [("minlag.surface", "build_flat_torus"),
                      ("minlag.surface", "build_genus2_octagon")],
    "surface.class_representative": [
        ("minlag.surface", "DiscreteSurface.class_representative")],
    "cubic.norm_field": [("minlag.cubic", "norm_field")],
    "pde.residual": [("minlag.pde", "residual")],
    "pde.linearize": [("minlag.pde", "linearize")],
    "pde.newton": [("minlag.pde", "newton_solve")],
    "pde.eig": [("minlag.pde", "smallest_eigenvalue")],
    "scipy.splu": [("scipy.sparse.linalg", "splu")],
    "scipy.eigsh": [("scipy.sparse.linalg", "eigsh")],
    "scipy.eigh": [("scipy.linalg", "eigh")],
    "continuation.trace": [("minlag.continuation", "trace_curve")],
    "continuation.fold": [("minlag.continuation", "detect_fold")],
    "mpass.find": [("minlag.mpass", "find_mountain_pass")],
    "mpass.value": [("minlag.mpass", "functional_value")],
    "mpass.gradient": [("minlag.mpass", "functional_gradient")],
    "frame.coeffs": [("minlag.frame", "MeshCoefficients.__init__")],
    "frame.integrate": [("minlag.frame", "integrate_frame")],
    "frame.flatness": [("minlag.frame", "flatness_defect")],
    "wp.area_record": [("minlag.wp", "area_record")],
}


def _count_newton(result=None, exc=None):
    if exc is not None:
        iters = getattr(exc, "iterations", None)
        return {"pde.newton_iters": iters or 0}
    return {"pde.newton_iters": result.meta["newton_iterations"]}


def _count_trace(result=None, exc=None):
    if exc is not None:
        return {}
    return {"continuation.points": len(result.points),
            "continuation.rejected_steps":
                result.diagnostics["rejected_steps"]}


def _count_mpass(result=None, exc=None):
    if exc is not None:
        return {}
    return {"mpass.path_sweeps": result.meta["path_iterations"],
            "mpass.path_nodes": result.meta["path_nodes"]}


def _count_frame(result=None, exc=None):
    if exc is not None:
        return {}
    return {"frame.rk4_steps": len(result.path) - 1}


# span name -> function reading work counters off a return value or error
HOOKS = {
    "pde.newton": _count_newton,
    "continuation.trace": _count_trace,
    "mpass.find": _count_mpass,
    "frame.integrate": _count_frame,
}


def layer_of(name: str) -> str:
    """Self-time layer of a span: its module, with LU and eigen split out."""
    if name == "scipy.splu":
        return "pde.lu"
    if name in ("pde.eig", "scipy.eigh", "scipy.eigsh"):
        return "pde.eig"
    if name.startswith("pde."):
        return name
    return name.split(".")[0]


LAYERS = ("surface", "cubic", "pde.residual", "pde.linearize", "pde.newton",
          "pde.lu", "pde.eig", "continuation", "mpass", "frame", "wp", "cli")


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, command, raised]
        self.counts = {}       # counter -> int, summed over hook results
        self.broken = set()    # counters whose hook failed
        self.wrapped = set()   # span names with at least one live target
        self._stack = []
        self._command = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._command, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, raised):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[5] = raised
        self._stack.pop()

    def _hook(self, name, result=None, exc=None):
        hook = HOOKS.get(name)
        if hook is None:
            return
        try:
            found = hook(result=result, exc=exc)
        except (AttributeError, KeyError, TypeError) as err:
            if name not in self.broken:
                warnings.warn(f"counter hook for {name} failed: {err!r}")
            self.broken.add(name)
            return
        for key, value in found.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    @contextlib.contextmanager
    def command(self, name):
        """Root span of one CLI command; its descendants share a new id."""
        self._command += 1
        idx = self._open(name)
        try:
            yield
        except Exception:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, True)
                tracer._hook(name, exc=exc)
                raise
            tracer._close(idx, False)
            tracer._hook(name, result=result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                try:
                    owner, attr, original = _resolve(module_name, path)
                except (ImportError, AttributeError, KeyError):
                    warnings.warn(f"trace target {module_name}:{path} not "
                                  f"found; metrics from {name} are left out")
                    continue
                if isinstance(original, property):
                    self._set(owner, attr, property(
                        self._wrap(name, original.fget)))
                elif isinstance(owner, type):
                    self._set(owner, attr, self._wrap(name, original))
                else:
                    wrapper = self._wrap(name, original)
                    self._set(owner, attr, wrapper)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod is owner or not (
                                mod_name == "minlag"
                                or mod_name.startswith("minlag.")):
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)
                self.wrapped.add(name)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()


def layer_metrics(tracer: Tracer, sampler):
    """(counters, seconds) of one traced pass, keyed by metric name.

    Span durations exclude the time `sampler` spent in its kernel and are
    given at reference speed.  A metric whose span names were not wrapped,
    or whose counter hook failed, is absent.
    """
    spans = tracer.spans
    names = [s[0] for s in spans]
    scale = sampler.scale()
    dur = [(s[2] - s[1] - sampler.kernel_seconds(s[1], s[2])) * scale
           for s in spans]
    have = tracer.wrapped

    def ancestor(i, among):
        """Index of the nearest enclosing span named in `among`, or -1."""
        p = spans[i][3]
        while p >= 0 and names[p] not in among:
            p = spans[p][3]
        return p

    def nearest(i, among):
        p = ancestor(i, among)
        return names[p] if p >= 0 else None

    def idx(name):
        return [i for i, n in enumerate(names) if n == name]

    counts, secs = {}, {}
    for span in ("surface.class_representative", "cubic.norm_field",
                 "pde.residual", "pde.linearize", "pde.eig", "mpass.value",
                 "mpass.gradient", "frame.flatness"):
        if span in have:
            ids = idx(span)
            counts[span + "_calls"] = len(ids)
            secs[span + "_s"] = float(sum(dur[i] for i in ids))
    for span, metric in (("surface.build", "surface.build_s"),
                         ("continuation.trace", "continuation.trace_s"),
                         ("continuation.fold", "continuation.fold_s"),
                         ("mpass.find", "mpass.find_s"),
                         ("frame.coeffs", "frame.coeffs_s"),
                         ("frame.integrate", "frame.integrate_s"),
                         ("wp.area_record", "wp.area_record_s")):
        if span in have:
            secs[metric] = float(sum(dur[i] for i in idx(span)))

    newton = idx("pde.newton")
    if "pde.newton" in have:
        counts["pde.newton_solves"] = len(newton)
        counts["pde.newton_failures"] = sum(spans[i][5] for i in newton)
        secs["pde.newton_s"] = float(sum(dur[i] for i in newton))

    owners = {"pde.newton", "mpass.find"}
    if {"scipy.splu"} | owners <= have:
        lu = [(i, nearest(i, owners)) for i in idx("scipy.splu")]
        counts["pde.lu_calls"] = sum(o == "pde.newton" for _, o in lu)
        secs["pde.lu_s"] = float(sum(dur[i] for i, o in lu
                                     if o == "pde.newton"))
        counts["mpass.lu_calls"] = sum(o == "mpass.find" for _, o in lu)

    if {"pde.eig", "scipy.eigh", "scipy.eigsh"} <= have:
        dense = [ancestor(i, {"pde.eig"}) for i in idx("scipy.eigh")]
        sparse = [ancestor(i, {"pde.eig"}) for i in idx("scipy.eigsh")]
        dense = [p for p in dense if p >= 0]
        sparse = [p for p in sparse if p >= 0]
        counts["pde.eig_dense_calls"] = len(dense)
        counts["pde.eig_sparse_calls"] = len(sparse)
        # an eigen solve that ran ARPACK and then the dense path fell back
        counts["pde.eig_fallbacks"] = len(set(dense) & set(sparse))

    if {"pde.residual", "pde.linearize"} <= have:
        lin = counts["pde.linearize_calls"]
        counts["pde.residuals_per_iter"] = (
            counts["pde.residual_calls"] / lin if lin else 0.0)

    walkers = {"continuation.trace", "continuation.fold", "mpass.find",
               "wp.area_record"}
    if {"pde.newton"} | walkers <= have:
        under = [nearest(i, walkers) for i in newton]
        counts["continuation.fold_solves"] = under.count("continuation.fold")
        counts["wp.branch_solves"] = under.count("wp.area_record")
        counts["cli.branch_walk_solves"] = under.count(None)
        trace_solves = under.count("continuation.trace")
        if "continuation.trace" not in tracer.broken:
            points = tracer.counts.get("continuation.points", 0)
            counts["continuation.accept_ratio"] = (
                points / trace_solves if trace_solves else 0.0)

    for span, keys in (("pde.newton", ["pde.newton_iters"]),
                       ("continuation.trace", ["continuation.points",
                                               "continuation.rejected_steps"]),
                       ("mpass.find", ["mpass.path_sweeps",
                                       "mpass.path_nodes"]),
                       ("frame.integrate", ["frame.rk4_steps"])):
        if span in have and span not in tracer.broken:
            for key in keys:
                counts[key] = tracer.counts.get(key, 0)

    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        self_s[layer_of(name)] += dur[i] - child[i]
    for layer, value in self_s.items():
        secs[f"self.{layer}_s"] = value
    counts["trace.spans"] = len(spans)
    return counts, secs
