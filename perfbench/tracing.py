"""Span tracer that wraps the package's public entry points from outside.

Each wrapped call records a span: name, start, end, parent span and the
job it ran for.  Spans stay in memory and are written out once, at the
end of the run.  A span's self time is its duration minus the time its
children cover; calls are sequential (the CLI runs with ``--jobs 1``),
so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("solver", "nfunction", "quadrature", "funcspace", "regularity",
          "cli")

# span name -> metric stem for the calls/time pairs of single checks
REGULARITY_CHECKS = {
    "caccioppoli": "caccioppoli_check",
    "sobolev_poincare": "sobolev_poincare_check",
    "logarithmic": "log_estimate_check",
    "boundedness": "boundedness_check",
    "holder_decay": "holder_decay_fit",
    "de_giorgi": "de_giorgi_iterate",
}
FUNCSPACE_CALLS = {"tail": "tail", "luxemburg": "luxemburg_norm",
                   "membership": "membership_check"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, job, counters]
        self._stack = []
        self._undo = []
        self.job = None

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """Traced version of ``fn``; ``attrs(args, result)`` may return
        counters to add to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else None,
                    tracer.job, {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span[5].update(attrs(args, out))
            return out

        return traced

    def count(self, key, n):
        """Add ``n`` to counter ``key`` of the innermost open span."""
        attrs = self.spans[self._stack[-1]][5]
        attrs[key] = attrs.get(key, 0) + n

    def patch_function(self, name, fn, attrs=None, impl=None):
        """Replace ``fn`` by a traced ``impl`` (default ``fn`` itself) in
        every loaded fracglap module that bound it, so ``from x import f``
        callers see the traced version too."""
        traced = self.wrap(name, impl or fn, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fracglap") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, traced)
        return traced

    def patch_method(self, name, cls, attr, attrs=None):
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), attrs))

    def patch_table(self, prefix, table):
        for key, fn in list(table.items()):
            table[key] = self.wrap(f"{prefix}.{key}", fn)
            self._undo.append((table.__setitem__, key, fn))

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr,
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    # -- output ---------------------------------------------------------

    def dump(self, path):
        rows = [{"name": n, "start": a, "end": b, "parent": p, "job": j,
                 "attrs": at} for n, a, b, p, j, at in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def install(tracer, fracglap):
    """Wrap the public entry points of every package module."""
    cli, solver, nfm, quad, fsp, rg = (
        fracglap.cli, fracglap.solver, fracglap.nfunction,
        fracglap.quadrature, fracglap.funcspace, fracglap.regularity)

    tracer.patch_function("cli.run", cli.run)
    tracer.patch_function("cli.build_problem", cli.build_problem)
    tracer.patch_table("cli.stage.verify", cli.VERIFY_STAGES)
    tracer.patch_table("cli.stage.sweep", cli.SWEEP_STAGES)
    tracer.patch_function("cli.write", cli._write_json)
    tracer.patch_function("cli.write", cli._write_sweep_csv)
    tracer.patch_method("cli.write", fsp.GridFunction, "to_csv")

    for name in ("solve", "energy", "gradient", "weak_residual",
                 "assemble_quadratic"):
        tracer.patch_function(f"solver.{name}", getattr(solver, name),
                              _solve_attrs if name == "solve" else None)

    tracer.patch_method("nfunction.G", nfm.NFunction, "G",
                        lambda args, out: {"points": int(np.size(args[1]))})
    tracer.patch_method("nfunction.g", nfm.NFunction, "g")
    tracer.patch_method("nfunction.inverse", nfm.NFunction, "inv_G")
    tracer.patch_method("nfunction.inverse", nfm.NFunction, "inv_g")
    tracer.patch_function("nfunction.from_config", nfm.from_config)

    radial = quad.integrate_radial

    def counted_radial(integrand, r0, *args, **kwargs):
        def counted(rho):
            out = integrand(rho)
            tracer.count("points", int(np.size(out)))
            return out
        return radial(counted, r0, *args, **kwargs)

    tracer.patch_function("quadrature.integrate_radial", radial,
                          impl=functools.wraps(radial)(counted_radial))
    tracer.patch_function("quadrature.integrate_zero_to",
                          quad.integrate_zero_to)
    tracer.patch_function("quadrature.bisect_increasing",
                          quad.bisect_increasing)

    for fn_name in FUNCSPACE_CALLS.values():
        tracer.patch_function(f"funcspace.{fn_name}", getattr(fsp, fn_name))
    for fn_name in REGULARITY_CHECKS.values():
        tracer.patch_function(f"regularity.{fn_name}", getattr(rg, fn_name))


def _solve_attrs(args, report):
    return {"iterations": report.iterations,
            "line_search_failures": report.line_search_failures}


# -- metrics --------------------------------------------------------------

def layer_metrics(spans):
    """Per-layer totals from one traced pass: call counts, inclusive
    times by entry point and self time by layer."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    points = defaultdict(int)
    child = defaultdict(float)
    for name, a, b, parent, _job, attrs in spans:
        dur[name] += b - a
        calls[name] += 1
        points[name] += attrs.get("points", 0)
        if parent is not None:
            child[parent] += b - a
    self_time = defaultdict(float)
    for sid, (name, a, b, *_rest) in enumerate(spans):
        self_time[name.split(".")[0]] += (b - a) - child[sid]

    solves = [s for s in spans if s[0] == "solver.solve"]
    iterations = sum(s[5]["iterations"] for s in solves)
    solve_s = dur["solver.solve"]
    m = {
        "solver.solve_s": solve_s,
        "solver.iterations": iterations,
        "solver.line_search_failures":
            sum(s[5]["line_search_failures"] for s in solves),
        "solver.s_per_iter": solve_s / iterations if iterations else 0.0,
        "nfunction.G_calls": calls["nfunction.G"],
        "nfunction.G_points": points["nfunction.G"],
        "nfunction.G_s": dur["nfunction.G"],
        "nfunction.g_s": dur["nfunction.g"],
        "nfunction.inverse_s": dur["nfunction.inverse"],
        "nfunction.build_s": dur["nfunction.from_config"],
        "quadrature.radial_calls": calls["quadrature.integrate_radial"],
        "quadrature.radial_points": points["quadrature.integrate_radial"],
        "quadrature.radial_s": dur["quadrature.integrate_radial"],
        "quadrature.zero_to_s": dur["quadrature.integrate_zero_to"],
        "quadrature.bisect_s": dur["quadrature.bisect_increasing"],
        "cli.build_problem_s": dur["cli.build_problem"],
        "cli.write_s": dur["cli.write"],
    }
    for key, fn_name in FUNCSPACE_CALLS.items():
        m[f"funcspace.{key}_s"] = dur[f"funcspace.{fn_name}"]
        m[f"funcspace.{key}_calls"] = calls[f"funcspace.{fn_name}"]
    for key, fn_name in REGULARITY_CHECKS.items():
        m[f"regularity.{key}_s"] = dur[f"regularity.{fn_name}"]
        m[f"regularity.{key}_calls"] = calls[f"regularity.{fn_name}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


def stage_metrics(spans, verify_stages, sweep_stages):
    dur = defaultdict(float)
    for name, a, b, *_rest in spans:
        dur[name] += b - a
    m = {}
    for kind, names in (("verify", verify_stages), ("sweep", sweep_stages)):
        for n in names:
            m[f"cli.stage.{kind}.{n}_s"] = dur[f"cli.stage.{kind}.{n}"]
    return m


def solve_spans_by_job(spans):
    """job id -> (solve seconds, iterations) of the job's solve."""
    out = {}
    for name, a, b, _parent, job, attrs in spans:
        if name == "solver.solve":
            out[job] = (b - a, attrs["iterations"])
    return out
