import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracglap
from fracglap import GridFunction, Lattice
from fracglap import cli
from fracglap import solver as sl
from fracglap.cli import (EXIT_CONFIG, EXIT_ESTIMATE, EXIT_IO, EXIT_OK,
                          EXIT_SOLVER, SCHEMA, build_problem, generate_corpus,
                          main, run, validate_config)


def base_config(**overrides):
    cfg = {
        "problem": {
            "dim": 1,
            "h": 0.0625,
            "omega": {"lo": [-0.5], "hi": [0.5]},
            "s": 0.5,
            "nfunction": {"family": "power", "p": 2.0},
            "kernel": {"form": "pure"},
            "datum": {"family": "sin", "frequency": 2.0, "amplitude": 1.0},
            "exterior": {"kind": "constant", "value": 0.3},
            "truncation_radius": 1.5,
        },
        "pipeline": ["solve"],
        "seed": 11,
        "tolerances": {"solve": 1e-9},
    }
    cfg.update(overrides)
    return cfg


# the stages that sample randomly, so that a pipeline with any of them
# needs a seed
SEEDED = ["verify:gradient_fd", "verify:minimality", "verify:nfunction",
          "verify:luxemburg", "verify:de_giorgi", "sweep:sobolev_poincare"]
FULL_PIPELINE = (["solve"] + [f"verify:{n}" for n in cli.VERIFY_STAGES]
                 + [f"sweep:{n}" for n in cli.SWEEP_STAGES])


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_reports(out_dir):
    """All JSON artifacts with timestamps stripped, plus raw CSV bytes."""
    docs = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            doc.pop("timestamp", None)
            docs[path.name] = json.dumps(doc, sort_keys=True)
        elif path.suffix == ".csv":
            docs[path.name] = path.read_bytes()
    return docs


class TestConfigValidation:
    def test_schema_subcommand_prints_schema(self, capsys):
        assert main(["schema"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["required"] == SCHEMA["required"]

    def test_valid_config_passes(self):
        validate_config(base_config())
        validate_config(base_config(
            tolerances={n: 1 for n in cli.TOLERANCE_KEYS}))

    def test_tolerance_keys_are_the_names_read(self):
        source = open(cli.__file__).read()
        read = set(re.findall(r'\btol\("(\w+)"', source))
        assert read == cli.TOLERANCE_KEYS

    def test_unknown_estimate_rejected(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:does_not_exist"])
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG

    def test_unknown_stage_kind_rejected(self):
        with pytest.raises(Exception):
            validate_config(base_config(pipeline=["frobnicate:x"]))

    @pytest.mark.parametrize("stage", SEEDED)
    def test_missing_seed_for_random_stage(self, tmp_path, stage):
        cfg = base_config(pipeline=["solve", stage])
        del cfg["seed"]
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "stage", [st for st in FULL_PIPELINE[1:] if st not in SEEDED])
    def test_unseeded_stage_runs_without_seed(self, tmp_path, stage):
        cfg = base_config(pipeline=["solve", stage])
        del cfg["seed"]
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) != EXIT_CONFIG
        kind, _, name = stage.partition(":")
        prefix = "estimate" if kind == "verify" else "sweep"
        assert (out / f"{prefix}_{name}.json").exists()

    def test_schema_violation_exit_code(self, tmp_path):
        cfg = base_config()
        del cfg["problem"]["s"]
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert run(str(tmp_path / "missing.json")) == EXIT_IO

    # the last four are verify stages without a tolerance
    @pytest.mark.parametrize("key", ["sovle", "nfunction_samples",
                                     "de_giorgi_cases", "minimality",
                                     "membership", "de_giorgi",
                                     "holder_decay"])
    def test_unknown_tolerance_rejected(self, tmp_path, capsys, key):
        cfg = base_config(tolerances={"solve": 1e-9, key: 1e-12})
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown tolerance {key!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e-9", True, None])
    def test_non_numeric_tolerance_rejected(self, value):
        with pytest.raises(cli.ConfigError, match="must be a number"):
            validate_config(base_config(tolerances={"solve": value}))


class TestRun:
    def test_constant_data_solve(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["datum"] = {"family": "constant", "value": 0.3}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        report = json.loads((out / "SolveReport.json").read_text())
        assert report["converged"] and report["iterations"] == 0
        prob = build_problem(cfg)
        mini = GridFunction.from_csv(out / "minimizer.csv", prob.lattice)
        np.testing.assert_allclose(mini.values, 0.3)

    def test_constant_data_minimality_reads_solver_tol(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:minimality"],
                          solver={"tol": 1e-12})
        cfg["problem"]["datum"] = {"family": "constant", "value": 0.3}
        del cfg["tolerances"]
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        solved = json.loads((out / "SolveReport.json").read_text())
        assert solved["details"]["threshold"] == 1e-12
        rep = json.loads((out / "estimate_minimality.json").read_text())
        assert rep["details"]["threshold"] == 1e-12

    @pytest.mark.parametrize("points", [
        [[0.5, 0.4], [1.0, 1.1], [2.0, 2.5], [4.0, 6.0], [8.0, 13.0]],
        [[6.8, 10.3], [15.9, 14.5], [34.3, 30.7], [45.6, 39.9],
         [79.8, 45.4]],
    ], ids=["g_max_above_t_max", "g_max_below_t_max"])
    def test_nfunction_stage_on_table(self, tmp_path, capsys, points):
        # G(a t) and G*(s) are sampled inside the tabulated ranges only,
        # so the stage reports instead of exiting 2
        cfg = base_config(pipeline=["verify:nfunction"])
        cfg["problem"]["nfunction"] = {"family": "table", "points": points}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out / "estimate_nfunction.json").exists()

    def test_nfunction_stage_on_random_tables(self, tmp_path):
        # the indices of a table are the exact extremes of t g/G, so the
        # growth sandwich, Young, scaling and doubling checks hold to
        # rounding; with indices sampled on a grid several of these
        # tables read up to 1 + 3e-3
        rng = np.random.default_rng(11)
        codes = []
        for i in range(40):
            t = np.cumsum(rng.uniform(0.1, 3.0, 5))
            g = np.cumsum(rng.uniform(0.1, 3.0, 5))
            cfg = base_config(pipeline=["verify:nfunction"])
            cfg["problem"]["nfunction"] = {"family": "table",
                                           "points": np.c_[t, g].tolist()}
            codes.append(run(write_config(tmp_path, cfg, f"t{i}.json"),
                             out_override=str(tmp_path / f"out{i}")))
        assert codes == [EXIT_OK] * 40

    def test_linear_oracle_stage(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:linear_oracle"])
        cfg["tolerances"]["solve"] = 1e-10
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        rep = json.loads((out / "estimate_linear_oracle.json").read_text())
        assert rep["details"]["sup_error"] <= 1e-8

    def test_solver_non_convergence_exit(self, tmp_path):
        # p = 3: at p = 2 the surrogate metric is the Hessian and one
        # step converges
        cfg = base_config(solver={"max_iter": 1, "tol": 1e-14})
        cfg["problem"]["nfunction"]["p"] = 3.0
        cfg["tolerances"] = {}
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_SOLVER

    def test_unrepresentable_datum_is_config_error(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["datum"]["amplitude"] = 1e30
        path = write_config(tmp_path, cfg)
        env = dict(os.environ)
        src = str(Path(fracglap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import sys; from fracglap.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "run", path, "--out",
             str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("config error:")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("calls_before_failure", [0, 1])
    def test_quadrature_failure_is_solver_exit(self, tmp_path, monkeypatch,
                                               capsys, calls_before_failure):
        # 0: the far-tail rule fails while the problem is built (its
        # divergence check); 1: it fails inside the solve
        real = sl.integrate_graded
        calls = []

        def failing(*args, **kwargs):
            if len(calls) >= calls_before_failure:
                raise RuntimeError("graded rule did not converge")
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sl, "integrate_graded", failing)
        cfg = base_config()
        cfg["problem"]["exterior"] = {"kind": "power", "value": 0.3,
                                      "exponent": 0.25}
        code = main(["run", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("numerical failure:")
        assert err.count("\n") == 1
        assert len(calls) == calls_before_failure

    def test_estimate_failure_exit(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:boundedness"],
                          tolerances={"solve": 1e-9, "boundedness": 1e-9})
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_ESTIMATE

    def test_full_verify_and_sweep_pipeline(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:minimality",
                                    "verify:nfunction", "sweep:boundedness"])
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        assert (out / "estimate_minimality.json").exists()
        assert (out / "sweep_boundedness.csv").exists()
        header = (out / "sweep_boundedness.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["center", "radius"]

    def test_boundedness_sweep_rejects_ball_outside_domain(self, tmp_path,
                                                           capsys):
        # fraction 1.5 gives a radius-0.675 ball over the domain (-0.5, 0.5);
        # the sweep must refuse it like verify:boundedness does
        cfg = base_config(pipeline=["solve", "sweep:boundedness"],
                          sweeps={"boundedness": {"fractions": [1.0, 1.5]}})
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_CONFIG
        assert "compactly contained in the domain" in capsys.readouterr().err
        assert not (out / "sweep_boundedness.csv").exists()

    def test_jobs_flag_deterministic(self, tmp_path):
        cfg = base_config(pipeline=["solve", "sweep:boundedness"])
        p = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(p, out_override=str(out1), jobs=1) == EXIT_OK
        assert run(p, out_override=str(out2), jobs=4) == EXIT_OK
        assert read_reports(out1) == read_reports(out2)


def small_component_config():
    """2-D p = 2 config whose probed gradient components include one of
    6.5e-4 next to an energy of about 7: the central difference there
    is dominated by the rounding of the two energy sums."""
    return {
        "problem": {
            "dim": 2,
            "h": 0.0625,
            "omega": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
            "s": 0.5,
            "nfunction": {"family": "power", "p": 2.0},
            "kernel": {"form": "pure"},
            "datum": {"family": "sin", "frequency": 1.989052024830522,
                      "amplitude": 0.9958557423244019},
            "exterior": {"kind": "constant", "value": 0.3},
            "truncation_radius": 0.5,
        },
        "pipeline": ["verify:gradient_fd"],
        "seed": 1198241697,
    }


def probed_components(cfg):
    """Domain positions the gradient_fd stage probes: the stage draws
    from the config seed's second stream (the first builds the problem)."""
    prob = build_problem(cfg)
    n_om = int(prob.omega_mask.sum())
    rng = np.random.default_rng([cfg["seed"], 2])
    v = prob.datum_extension(rng.normal(size=n_om))
    probe = rng.choice(n_om, size=min(12, n_om), replace=False)
    return probe, sl._gradient_omega(prob, v.values)


class TestDegenerateExterior:
    """A power exterior with exponent 0 is the constant model and one with
    value 0 is the zero model: the same solve, and the stages that need a
    level model accept it."""

    TWINS = [({"kind": "power", "value": 0.3, "exponent": 0.0},
              {"kind": "constant", "value": 0.3}),
             ({"kind": "power", "value": 0.0, "exponent": 0.25},
              {"kind": "zero"})]
    IDS = ["exponent0-constant", "value0-zero"]

    @staticmethod
    def _run(tmp_path, cfg, exterior, name):
        cfg["problem"]["exterior"] = exterior
        out = tmp_path / name
        code = run(write_config(tmp_path, cfg, f"{name}.json"),
                   out_override=str(out))
        return code, read_reports(out)

    @pytest.mark.parametrize("power, level", TWINS, ids=IDS)
    def test_harmonic_solve_matches_level_twin(self, tmp_path, power, level):
        cfg = base_config(solver={"initial": "harmonic"})
        cfg["problem"]["nfunction"]["p"] = 3.0
        got = self._run(tmp_path, cfg, power, "power")
        want = self._run(tmp_path, cfg, level, "level")
        assert got[0] == want[0] == EXIT_OK
        assert got[1]["SolveReport.json"] == want[1]["SolveReport.json"]
        assert got[1]["minimizer.csv"] == want[1]["minimizer.csv"]

    @pytest.mark.parametrize("stage", ["linear_oracle", "logarithmic"])
    @pytest.mark.parametrize("power, level", TWINS, ids=IDS)
    def test_level_stage_accepts_power_twin(self, tmp_path, power, level,
                                            stage):
        cfg = base_config(pipeline=["solve", f"verify:{stage}"])
        got = self._run(tmp_path, cfg, power, "power")
        want = self._run(tmp_path, cfg, level, "level")
        assert got[0] == want[0] == EXIT_OK
        assert got[1] == want[1]


class TestGradientFD:
    def test_passes_with_one_blas_thread(self, tmp_path):
        path = write_config(tmp_path, small_component_config())
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        src = str(Path(fracglap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import sys; from fracglap.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "run", path, "--out",
             str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == EXIT_OK, res.stdout + res.stderr
        rep = json.loads(
            (tmp_path / "out" / "estimate_gradient_fd.json").read_text())
        assert rep["passed"]
        assert rep["details"]["tolerance"] == 1e-5

    def test_wrong_small_component_fails(self, tmp_path, monkeypatch):
        cfg = small_component_config()
        probe, g = probed_components(cfg)
        k = probe[np.argmin(np.abs(g[probe]))]
        assert abs(g[k]) < 1e-3
        exact = sl._gradient_omega

        def wrong(prob, vals):
            out = exact(prob, vals)
            out[k] *= 1.0 + 1e-4
            return out

        monkeypatch.setattr(sl, "_gradient_omega", wrong)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_ESTIMATE
        rep = json.loads((out / "estimate_gradient_fd.json").read_text())
        assert not rep["passed"]


# CSV header of each sweep artifact, part of the artifact contract
SWEEP_HEADERS = {
    "boundedness": "center,radius,lhs,rhs_local,rhs_tail,"
                   "empirical_constant,passed",
    "caccioppoli": "center,level,plateau,radius,sign,support,lhs,"
                   "rhs_cutoff_term,rhs_mass_tail_term,empirical_constant,"
                   "passed",
    "sobolev_poincare": "center,nodes,radius,theta,lhs,"
                        "rhs_pair_modular_avg,empirical_constant,passed",
    "holder_decay": "levels,sigma,lhs,rhs_unit,empirical_constant,passed",
}


class TestDeterminism:
    def test_byte_identical_reports_modulo_timestamp(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:gradient_fd",
                                    "verify:nfunction", "verify:minimality",
                                    "sweep:boundedness"])
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(path, out_override=str(out1)) == EXIT_OK
        assert run(path, out_override=str(out2)) == EXIT_OK
        r1, r2 = read_reports(out1), read_reports(out2)
        assert r1.keys() == r2.keys()
        assert r1 == r2

    def test_full_pipeline_reruns_byte_identical(self, tmp_path):
        cfg = base_config(pipeline=FULL_PIPELINE,
                          tolerances={"solve": 1e-10})
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(path, out_override=str(out1)) == EXIT_OK
        assert run(path, out_override=str(out2)) == EXIT_OK
        r1 = read_reports(out1)
        assert r1 == read_reports(out2)
        names = {f"sweep_{n}.{ext}" for n in cli.SWEEP_STAGES
                 for ext in ("csv", "json")}
        names |= {f"estimate_{n}.json" for n in cli.VERIFY_STAGES}
        assert set(r1) == names | {"SolveReport.json", "minimizer.csv"}
        headers = {name: r1[f"sweep_{name}.csv"].decode().splitlines()[0]
                   for name in cli.SWEEP_STAGES}
        assert headers == SWEEP_HEADERS

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:gradient_fd"])
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(path, out_override=str(out1)) == EXIT_OK
        assert run(path, out_override=str(out2), seed_override=99) == EXIT_OK
        d1 = json.loads((out1 / "estimate_gradient_fd.json").read_text())
        d2 = json.loads((out2 / "estimate_gradient_fd.json").read_text())
        assert d1["details"]["max_rel_error"] != d2["details"]["max_rel_error"]


def one_line(err):
    """The failure message is exactly one line, with no traceback."""
    return err.count("\n") == 1 and "Traceback" not in err


class TestFailureTable:
    def test_subclasses_precede_their_bases(self):
        classes = [row[0] for row in cli.FAILURES]
        for i, later in enumerate(classes):
            assert not any(issubclass(later, earlier)
                           for earlier in classes[:i])

    def test_output_dir_under_regular_file_is_io_error(self, tmp_path,
                                                       capsys):
        (tmp_path / "plain").write_text("x")
        path = write_config(tmp_path, base_config())
        assert main(["run", path, "--out",
                     str(tmp_path / "plain" / "out")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:") and one_line(err)

    def test_failed_artifact_write_is_io_error(self, tmp_path, monkeypatch,
                                               capsys):
        real = cli.write_atomic

        def failing(path, write, **kw):
            if os.path.basename(path).startswith("estimate_"):
                raise OSError(28, "No space left on device")
            return real(path, write, **kw)

        monkeypatch.setattr(cli, "write_atomic", failing)
        out = tmp_path / "out"
        path = write_config(
            tmp_path, base_config(pipeline=["solve", "verify:boundedness"]))
        assert main(["run", path, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:") and one_line(err)
        assert (out / "SolveReport.json").exists()
        assert not (out / "estimate_boundedness.json").exists()

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"problem": ')
        assert main(["run", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and one_line(err)


class TestArtifacts:
    def test_failed_json_write_leaves_no_file(self, tmp_path):
        from fracglap.cli import _write_json
        with pytest.raises(TypeError):
            _write_json(str(tmp_path), "x.json", {"a": object()})
        assert list(tmp_path.iterdir()) == []

    def test_json_write_replaces_existing_file(self, tmp_path):
        from fracglap.cli import _write_json
        _write_json(str(tmp_path), "x.json", {"a": 1})
        _write_json(str(tmp_path), "x.json", {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        assert json.loads((tmp_path / "x.json").read_text())["a"] == 2


def test_cli_import_pulls_no_test_dependencies():
    # the library depends on numpy and jsonschema only; a harmonic-start
    # solve runs first, so a lazy import on the solver's path shows too
    cfg = base_config()
    cfg["problem"]["nfunction"]["p"] = 3.0
    code = ("import json, sys, fracglap.cli as cli; "
            "cli.sl.solve(cli.build_problem(json.loads(sys.argv[1])), "
            "initial='harmonic'); "
            "print(sorted(m for m in ('scipy', 'pytest', 'hypothesis') "
            "if m in sys.modules))")
    src = str(Path(fracglap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip() == "[]"


class TestCorpus:
    lattice_spec = {"lo": [-1.0], "hi": [1.0], "h": 0.0625}

    def test_two_level_takes_two_values(self):
        out = generate_corpus({"family": "two-level", "low": -1.0,
                               "high": 2.0, "count": 3,
                               "lattice": self.lattice_spec}, seed=5)
        for f in out:
            assert set(np.unique(f.values)) == {-1.0, 2.0}

    def test_power_cusp_oscillation_closed_form(self):
        out = generate_corpus({"family": "power-cusp", "gamma": 0.5,
                               "center": [0.0],
                               "lattice": self.lattice_spec}, seed=0)
        (f,) = out
        # node-aligned radius: osc over the ball of radius r is r^gamma
        r = 0.5
        sel = np.abs(f.lattice.coords[:, 0]) <= r + 1e-12
        osc = f.values[sel].max() - f.values[sel].min()
        assert osc == pytest.approx(r ** 0.5, rel=1e-12)

    def test_same_seed_reproduces(self):
        spec = {"family": "random-smooth", "count": 4,
                "lattice": self.lattice_spec}
        a = generate_corpus(spec, seed=123)
        b = generate_corpus(spec, seed=123)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_unknown_family(self):
        with pytest.raises(Exception):
            generate_corpus({"family": "nope",
                             "lattice": self.lattice_spec}, seed=1)


class TestSubcommands:
    def test_solve_subcommand_filters_stages(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:nfunction"])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK
        assert (out / "SolveReport.json").exists()
        assert not (out / "estimate_nfunction.json").exists()

    def test_verify_subcommand_runs_verifies(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:nfunction",
                                    "sweep:boundedness"])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["verify", path, "--out", str(out)]) == EXIT_OK
        assert (out / "estimate_nfunction.json").exists()
        assert not (out / "sweep_boundedness.csv").exists()

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        from fracglap.cli import OUTPUT_DIR_ENV
        cfg = base_config()
        cfg["problem"]["datum"] = {"family": "constant", "value": 1.0}
        path = write_config(tmp_path, cfg)
        env_out = tmp_path / "envout"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_out))
        assert main(["run", path]) == EXIT_OK
        assert (env_out / "SolveReport.json").exists()
