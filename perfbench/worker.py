"""One workload in one fresh process.

``worker.py setup`` times a clean interpreter's ``import fracglap`` plus
building every job's problem up to its first energy, and prints
``{"setup_s": ...}``.

``worker.py run`` times passes over the workload's jobs through
``fracglap.cli.run`` for the given number of seconds and reports as
``run_s`` the sum over jobs of each job's median pass, checks that reruns
give byte-identical artifacts (apart from ``timestamp``), runs the
correctness gate after timing, and with ``--trace 1`` adds one traced
pass for the per-layer metrics.  It writes ``result.json`` (and
``spans.json`` when traced) into ``--out``.

Both modes expect PYTHONPATH to point at the checkout's ``src`` and the
BLAS thread variables to be 1; ``run.py`` starts them that way.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import time

import workloads

ORACLE_TOL = 1e-8          # sup error against the dense p = 2 solve
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_package(root):
    import fracglap
    import fracglap.cli

    src = os.path.realpath(os.path.join(root, "src", "fracglap"))
    if os.path.dirname(os.path.realpath(fracglap.__file__)) != src:
        raise SystemExit(f"fracglap imported from {fracglap.__file__}, "
                         f"not from {src}")
    return fracglap


def _build(cli, job):
    import numpy as np

    # the rng RunContext hands to build_problem for the same config
    return cli.build_problem(job.config,
                             np.random.default_rng([job.config["seed"], 1]))


# -- set-up probe -----------------------------------------------------------

def setup_probe(args):
    jobs = workloads.make_jobs(args.workload, args.seed, args.tiny)
    t0 = time.perf_counter()
    fracglap = _import_package(args.root)
    for job in jobs:
        prob = _build(fracglap.cli, job)
        fracglap.solver.energy(prob, prob.datum_extension())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


# -- timed passes -------------------------------------------------------------

class Bench:
    def __init__(self, fracglap, jobs, out):
        self.fg = fracglap
        self.jobs = jobs
        self.cfg_paths = []
        self.dirs = []
        for job in jobs:
            path = os.path.join(out, "configs", f"{job.name}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(job.config, fh, indent=2, sort_keys=True)
            self.cfg_paths.append(path)
            self.dirs.append(os.path.join(out, "jobs", job.name))
        self.failures = [[] for _ in jobs]     # distinct reasons per job
        self.job_times = [[] for _ in jobs]
        self.digests = None
        self.solve_reports = [None] * len(jobs)

    def run_pass(self, tracer=None):
        """One pass over every job; returns its wall time."""
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t_pass = time.perf_counter()
            for i, path in enumerate(self.cfg_paths):
                if tracer is not None:
                    tracer.job = i
                t0 = time.perf_counter()
                codes.append(self.fg.cli.run(path, out_override=self.dirs[i],
                                             jobs=1))
                self.job_times[i].append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_pass
        self.check_pass(codes)
        return elapsed

    def check_pass(self, codes):
        digests = [artifact_digest(d) for d in self.dirs]
        for i, rc in enumerate(codes):
            if rc != 0:
                self.fail(i, f"exit code {rc}")
            report_path = os.path.join(self.dirs[i], "SolveReport.json")
            try:
                with open(report_path) as fh:
                    self.solve_reports[i] = json.load(fh)
            except (OSError, ValueError):
                self.fail(i, "no readable SolveReport.json")
                self.solve_reports[i] = None
                continue
            if not self.solve_reports[i]["converged"]:
                self.fail(i, "converged: false")
            if self.digests is not None and digests[i] != self.digests[i]:
                self.fail(i, "artifacts differ from the previous pass")
        self.digests = digests

    def fail(self, i, reason):
        if reason not in self.failures[i]:
            self.failures[i].append(reason)

    def passes(self, budget, min_passes):
        """Passes until the next would end after ``budget`` seconds."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.run_pass())
            spent = time.perf_counter() - start
            if len(times) >= min_passes and spent + times[-1] > budget:
                return times


def artifact_digest(directory):
    """sha256 over the job's artifacts with the timestamp values blanked;
    None when the job wrote nothing."""
    if not os.path.isdir(directory):
        return None
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + TIMESTAMP.sub(b'"timestamp": ""',
                                                       data) + b"\0")
    return h.hexdigest()


def artifact_bytes(dirs):
    return sum(os.path.getsize(os.path.join(d, n))
               for d in dirs if os.path.isdir(d) for n in os.listdir(d))


# -- correctness gate ---------------------------------------------------------

def gate(bench):
    """Rebuild each job's problem, read back minimizer.csv and check it;
    returns per-job pair counts and computed pair-array bytes."""
    import numpy as np

    solver = bench.fg.solver
    shape = []
    for i, job in enumerate(bench.jobs):
        prob = _build(bench.fg.cli, job)
        ia, ja, dist, weight = prob._pairs
        shape.append({"pairs": int(ia.size),
                      "pair_bytes": int(ia.nbytes + ja.nbytes + dist.nbytes
                                        + weight.nbytes
                                        + prob._inv_ds.nbytes)})
        report = bench.solve_reports[i]
        if report is None:
            continue
        try:
            u = bench.fg.GridFunction.from_csv(
                os.path.join(bench.dirs[i], "minimizer.csv"), prob.lattice,
                prob.exterior_datum.exterior)
        except (OSError, ValueError, IndexError) as exc:
            bench.fail(i, f"minimizer.csv unreadable: {exc}")
            continue
        threshold = report["details"].get("threshold", 0.0)
        wres = solver.weak_residual(prob, u)
        shape[i]["weak_residual"] = wres
        if not wres <= threshold:
            bench.fail(i, f"weak residual {wres:.3e} above threshold "
                           f"{threshold:.3e}")
        if job.oracle:
            A, b, _, _ = solver.assemble_quadratic(prob)
            direct = np.linalg.solve(A, b)
            err = float(np.abs(u.values[prob.omega_mask] - direct).max())
            shape[i]["oracle_sup_error"] = err
            if not err < ORACLE_TOL:
                bench.fail(i, f"sup error {err:.3e} against the dense solve")
    return shape


# -- traced run ------------------------------------------------------------

def micro_timings(bench):
    """Summed over jobs: the first energy on a fresh problem (pair build
    included) and the median of five energy and gradient calls on a
    ready one, all through the public API."""
    solver = bench.fg.solver
    first = energy = grad = 0.0
    for job in bench.jobs:
        prob = _build(bench.fg.cli, job)
        v = prob.datum_extension()
        t0 = time.perf_counter()
        solver.energy(prob, v)
        first += time.perf_counter() - t0
        energy += _median_time(lambda: solver.energy(prob, v))
        grad += _median_time(lambda: solver.gradient(prob, v))
    return {"solver.first_energy_s": first, "solver.energy_s": energy,
            "solver.gradient_s": grad}


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_pass(bench):
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, bench.fg)
    try:
        elapsed = bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    return elapsed, tracer


def refinement(bench, shape, solve_times=None):
    """Per ladder family: one rung per h (pairs, and iterations and
    seconds averaged over the jobs at that h) and the log-log slopes of
    seconds and iterations against 1/h.  Seconds are the traced solve
    spans when given, else the median cli.run wall time of each job (the
    whole job: solve plus any verify stages)."""
    rungs = {}
    for i, job in enumerate(bench.jobs):
        rep = bench.solve_reports[i]
        if job.family is None or rep is None:
            continue
        seconds = solve_times[i][0] if solve_times else \
            statistics.median(bench.job_times[i])
        rungs.setdefault(job.family, {}).setdefault(job.h, []).append(
            (shape[i]["pairs"], rep["iterations"], seconds))
    out = {}
    for fam, by_h in rungs.items():
        rows = [{"h": h, "jobs": len(v), "pairs": v[0][0],
                 "iterations": statistics.mean(r[1] for r in v),
                 "seconds": statistics.mean(r[2] for r in v)}
                for h, v in sorted(by_h.items(), reverse=True)]
        inv_h = [1.0 / r["h"] for r in rows]
        out[fam] = {
            "seconds_of": "solver.solve span" if solve_times
            else "cli.run wall time (median over passes)",
            "rungs": rows,
            "time_slope": loglog_slope(inv_h, [r["seconds"] for r in rows]),
            "iteration_slope": loglog_slope(
                inv_h, [r["iterations"] for r in rows]),
            "iter_growth": rows[-1]["iterations"] / rows[0]["iterations"],
        }
    return out


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x; 0 with one point."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def per_layer(bench, spans, shape, ladders, micro, untraced_s, traced_s):
    import tracing

    m = tracing.layer_metrics(spans)
    m.update(tracing.stage_metrics(spans, workloads.VERIFY_STAGES,
                                 workloads.SWEEP_STAGES))
    m.update(micro)
    m["solver.pair_bytes"] = sum(s["pair_bytes"] for s in shape)
    m["cli.artifact_bytes"] = artifact_bytes(bench.dirs)
    for fam in workloads.FAMILIES:
        entry = ladders.get(fam, {})
        m[f"solver.iter_growth.{fam}"] = entry.get("iter_growth", 0.0)
        m[f"solver.time_slope.{fam}"] = entry.get("time_slope", 0.0)
    m["trace.overhead"] = traced_s / untraced_s - 1.0
    return m


# -- environment record ----------------------------------------------------

def environment(root, shape):
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
    largest = max(s["pair_bytes"] for s in shape)
    env["bandwidth"] = (
        f"not reported: a bandwidth figure needs arrays of at least 4x the "
        f"L3 ({env['caches'].get('L3')} bytes); the largest pair set here "
        f"is {largest} bytes (computed)")
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    """Cache sizes in bytes by level (data/unified caches of cpu0)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        info = {}
        try:
            for key in ("type", "level", "size"):
                with open(os.path.join(base, entry, key)) as fh:
                    info[key] = fh.read().strip()
            size = info["size"]
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            if info["type"] != "Instruction":
                out[f"L{info['level']}"] = int(size.rstrip("KM")) * mult
        except (OSError, ValueError):
            continue
    return out


def _git_commit(root):
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "fracglap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# -- main ----------------------------------------------------------------------

def run(args):
    jobs = workloads.make_jobs(args.workload, args.seed, args.tiny)
    bench = Bench(_import_package(args.root), jobs, args.out)
    result = {"workload": args.workload, "seed": args.seed,
              "jobs": [j.name for j in jobs]}
    if args.trace:
        untraced = bench.passes(args.seconds / 2.0, 1)
        micro = micro_timings(bench)
        traced_s, tracer = traced_pass(bench)
        result["untraced_pass_s"] = untraced
        result["traced_pass_s"] = traced_s
    else:
        untraced = bench.passes(args.seconds, 3)
        result["pass_s"] = untraced
    result["median_pass_s"] = statistics.median(untraced)
    # One pass's wall time, each job at its median over the passes.  On a
    # shared host every job's speed moves by up to 40% over spells of
    # seconds to minutes; over ten seeds this sum spread least between
    # runs (IQR/median 0.04 to 0.12, against 0.04 to 0.15 for the median
    # pass and 0.10 to 0.25 for the sum of each job's fastest run).
    # job_times also holds the traced pass, if any, last.
    result["run_s"] = sum(statistics.median(t[:len(untraced)])
                          for t in bench.job_times)
    # peak of the timed passes; the gate below only rebuilds and re-reads
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shape = gate(bench)
    if args.trace:
        import tracing

        ladders = refinement(bench, shape,
                             tracing.solve_spans_by_job(tracer.spans))
        result["per_layer"] = per_layer(bench, tracer.spans, shape, ladders,
                                        micro, result["median_pass_s"],
                                        traced_s)
        tracer.dump(os.path.join(args.out, "spans.json"))
    else:
        ladders = refinement(bench, shape)
    result["refinement"] = ladders
    result["job_details"] = [
        {"name": j.name, "iterations": (r or {}).get("iterations"),
         "job_s": t, "failures": f, **s}
        for j, r, t, f, s in zip(jobs, bench.solve_reports, bench.job_times,
                                 bench.failures, shape)]
    result["attempted"] = len(jobs)
    result["failed"] = sum(1 for f in bench.failures if f)
    result["environment"] = environment(args.root, shape)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
