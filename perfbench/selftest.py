"""Self-test of the benchmark harness at a tiny scale (a few seconds):

    python3 perfbench/selftest.py

Runs one small job per workload untraced and traced (twice, so that the
exact counts can be compared), checks the printed metrics against
BENCHMARK.json, and checks that the correctness gate and the rerun
comparison catch a corrupted artifact.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run_bench(*extra):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "1", "--seed", "3", *extra],
        capture_output=True, text=True, timeout=170)
    check(res.returncode == 0, f"run.py {extra} exited {res.returncode}: "
                               f"{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def check_metrics(result, spec, workload):
    names = {m["name"]: m["unit"] for m in spec}
    check(set(result["metrics"]) == set(names),
          f"{workload}: metric names differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        check(entry["unit"] == names[name], f"{workload}: unit of {name}")
        check(isinstance(entry["value"], (int, float)),
              f"{workload}: {name} is not a number")


def check_outputs(spec):
    for wl in sorted(workloads.WORKLOADS):
        res = run_bench("--workload", wl)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              f"{wl}: untraced run not correct: {res}")
        check_metrics(res, spec["end_to_end"], wl)
        check(all(m["value"] > 0 for m in res["metrics"].values()),
              f"{wl}: an end-to-end metric is not positive")
        first = run_bench("--workload", wl, "--trace", "1")
        second = run_bench("--workload", wl, "--trace", "1")
        for res in (first, second):
            check(res["correct"], f"{wl}: traced run not correct")
            check_metrics(res, spec["per_layer"], wl)
        its = [r["metrics"]["solver.iterations"]["value"]
               for r in (first, second)]
        check(its[0] == its[1] and its[0] > 0,
              f"{wl}: solver.iterations differs between runs: {its}")
        print(f"selftest: {wl} untraced and traced runs ok")


def check_gate():
    """A corrupted minimizer fails the gate; a changed artifact fails the
    rerun comparison."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker

    fracglap = worker._import_package(ROOT)
    job = workloads.make_jobs("solve-1d", 3, tiny=True)[:1]   # p = 2
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        bench = worker.Bench(fracglap, job, out)
        bench.run_pass()
        worker.gate(bench)
        check(bench.failures == [[]], f"clean pass failed: {bench.failures}")

        csv = os.path.join(bench.dirs[0], "minimizer.csv")
        with open(csv) as fh:
            rows = fh.read().splitlines()
        # perturb one domain value: the middle row is a domain node
        mid = len(rows) // 2
        *idx, value = rows[mid].split(",")
        rows[mid] = ",".join(idx + [repr(float(value) + 1e-3)])
        with open(csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        bench.check_pass([0])
        worker.gate(bench)
        reasons = " | ".join(bench.failures[0])
        check("differ from the previous pass" in reasons,
              f"rerun comparison missed the change: {reasons}")
        check("weak residual" in reasons and "sup error" in reasons,
              f"gate missed the corrupted minimizer: {reasons}")
    print("selftest: gate and rerun comparison catch a corrupted minimizer")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_outputs(spec)
    check_gate()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
