"""fracglap benchmark.

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 50
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload verify-2d --trace 1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  Each workload runs in fresh single-threaded
processes: several set-up probes (``setup_s`` is their median) and one
worker that times passes over the workload's jobs through
``fracglap.cli.run`` (``run_s`` is the sum over jobs of each job's
median pass) and then checks every job's output.  With ``--trace 1``
the worker instead reports per-layer metrics from one traced pass and
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  Job artifacts, spans and the full
``result.json`` land in ``.perfbench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5       # at least this many set-up probes ...
SETUP_PROBE_S = 5.0    # ... and more until this much time went into them
DEADLINE_S = 170.0   # whole run, per workload


class BenchError(RuntimeError):
    pass


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root, mode, args, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--root", root, "--workload", args.workload_name,
           "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        res = subprocess.run(cmd, env=_child_env(root), capture_output=True,
                             text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the deadline") from exc
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        raise BenchError(f"{mode} worker exited with {res.returncode}")
    return res.stdout


def run_workload(root, args):
    """Run one workload; returns the worker's result dict."""
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(root, ".perfbench_out",
                       f"{args.workload_name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    setups = []
    if not args.trace:
        start = time.monotonic()
        floor = 0.0 if args.tiny else SETUP_PROBE_S
        while len(setups) < SETUP_PROBES or time.monotonic() - start < floor:
            line = _worker(root, "setup", args, deadline).strip().splitlines()
            setups.append(json.loads(line[-1])["setup_s"])
    _worker(root, "run", args, deadline,
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out])
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    if setups:
        result["setup_probes_s"] = setups
        result["setup_s"] = statistics.median(setups)
        with open(os.path.join(out, "result.json"), "w") as fh:
            json.dump(result, fh, indent=2)
    result["out"] = out
    return result


def report(result, trace):
    """Human-readable lines for one workload."""
    wl = result["workload"]
    print(f"== {wl} (seed {result['seed']}, {len(result['jobs'])} jobs) ==")
    if trace:
        print(f"  untraced passes {result['untraced_pass_s']} s, "
              f"traced pass {result['traced_pass_s']} s")
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:36s} {value:.6g}")
    else:
        print(f"  run_s        {result['run_s']:.4f} s   "
              f"(each job's median of {len(result['pass_s'])} passes; "
              f"median pass {result['median_pass_s']:.4f} s, "
              f"passes {result['pass_s']})")
        print(f"  setup_s      {result['setup_s']:.4f} s   "
              f"(median of probes {result['setup_probes_s']})")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {result['failed'] / result['attempted']:.4g} "
          f"ratio ({result['failed']} of {result['attempted']} jobs)")
    for job in result["job_details"]:
        if job["failures"]:
            print(f"  FAILED {job['name']}: {'; '.join(job['failures'])}")
    for fam, entry in sorted(result["refinement"].items()):
        print(f"  refinement {fam}: time slope {entry['time_slope']:.3f}, "
              f"iteration slope {entry['iteration_slope']:.3f} vs 1/h "
              f"(seconds: {entry['seconds_of']})")
        for r in entry["rungs"]:
            print(f"    h=1/{1 / r['h']:.0f} jobs={r['jobs']} "
                  f"pairs={r['pairs']} iterations={r['iterations']:g} "
                  f"seconds={r['seconds']:.4f}")
    print(f"  environment {json.dumps(result['environment'])}")
    print(f"  details in {result['out']}")


def summary(results, spec, trace, prefix):
    """The final JSON line: the metrics BENCHMARK.json names for this
    mode, with its units."""
    metrics = {}
    for res in results:
        values = res["per_layer"] if trace else res
        pre = f"{res['workload']}." if prefix else ""
        for m in spec["per_layer" if trace else "end_to_end"]:
            if m["name"] not in values:
                raise BenchError(f"{res['workload']} did not report "
                                 f"{m['name']}")
            metrics[pre + m["name"]] = {"value": values[m["name"]],
                                        "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fracglap benchmark (see the module docstring)")
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50,
                        help="measuring time of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small job per workload (harness self-test)")
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "fracglap", "__init__.py")):
        print(f"no fracglap sources under {root}/src", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = []
    try:
        for name in names:
            args.workload_name = name
            results.append(run_workload(root, args))
            report(results[-1], args.trace)
        line = json.dumps(summary(results, spec, args.trace, len(names) > 1))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
