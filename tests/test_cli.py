import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracglap
from fracglap import (Ball, ExteriorModel, GridFunction, Lattice,
                      make_power, make_power_log)
from fracglap import cli
from fracglap import regularity as rg
from fracglap import solver as sl
from fracglap.cli import (EXIT_CONFIG, EXIT_ESTIMATE, EXIT_IO, EXIT_OK,
                          EXIT_SOLVER, SCHEMA, build_problem, generate_corpus,
                          main, run, validate_config)

from helpers import minimality_reference


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
        "solver": {"tol": 1e-9},
    }
    cfg.update(overrides)
    return cfg


# the stages that sample randomly, so that a pipeline with any of them
# needs a seed
SEEDED = ["verify:gradient_fd", "verify:minimality", "verify:nfunction",
          "verify:luxemburg", "verify:de_giorgi", "sweep:sobolev_poincare"]
FULL_PIPELINE = (["solve"] + [f"verify:{n}" for n in cli.VERIFY_STAGES]
                 + [f"sweep:{n}" for n in cli.SWEEP_STAGES])


@functools.cache
def printed_schema():
    """The schema that ``fracglap schema`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["schema"]) == EXIT_OK
    return json.loads(out.getvalue())


def _set(path, value):
    """A config edit that sets the key at ``path``."""
    def edit(cfg):
        *parents, key = path
        for p in parents:
            cfg = cfg[p]
        cfg[key] = value
    return edit


def _without_seed(pipeline):
    def edit(cfg):
        cfg["pipeline"] = pipeline
        del cfg["seed"]
    return edit


def _without_radius(dim):
    """A config edit to a ``dim``-D box without ``truncation_radius``."""
    def edit(cfg):
        cfg["problem"].update(dim=dim, omega={"lo": [-0.5] * dim,
                                              "hi": [0.5] * dim})
        del cfg["problem"]["truncation_radius"]
    return edit


# configs that the stage and tolerance tables, the seed rule and the
# strict objects reject: case -> (edit, phrase of the one error line)
SCHEMA_REJECTS = {
    "unknown-stage": (_set(["pipeline"], ["solve", "verify:boundednes"]),
                      "at $.pipeline[1]: 'verify:boundednes' is not one of "
                      "['solve', "),
    "unknown-tolerance": (_set(["tolerances"], {"boundednes": 1.0}),
                          "at $.tolerances: Additional properties are not "
                          "allowed ('boundednes' was unexpected)"),
    "string-tolerance": (_set(["tolerances"], {"boundedness": "1e-3"}),
                         "at $.tolerances.boundedness: '1e-3' is not of type "
                         "'number'"),
    "seeded-stage-without-seed": (_without_seed(["solve",
                                                 "verify:minimality"]),
                                  "at $: 'seed' is a required property"),
    "top-level-key": (_set(["pipline"], ["solve"]),
                      "at $: Additional properties are not allowed "
                      "('pipline' was unexpected)"),
    "problem-key": (_set(["problem", "truncaton_radius"], 1.0),
                    "at $.problem: Additional properties are not allowed "
                    "('truncaton_radius' was unexpected)"),
    "omega-key": (_set(["problem", "omega", "high"], [0.5]),
                  "at $.problem.omega: Additional properties are not "
                  "allowed ('high' was unexpected)"),
    "nfunction-key": (_set(["problem", "nfunction", "exponent"], 2.0),
                      "at $.problem.nfunction: Additional properties are "
                      "not allowed ('exponent' was unexpected)"),
    "kernel-key": (_set(["problem", "kernel", "lamda"], 0.5),
                   "at $.problem.kernel: Additional properties are not "
                   "allowed ('lamda' was unexpected)"),
    "kernel-kind": (_set(["problem", "kernel", "kind"], "smooth"),
                    "at $.problem.kernel.kind: 'smooth' is not one of "
                    "['oscillating']"),
    "exterior-key": (_set(["problem", "exterior", "valeu"], 0.3),
                     "at $.problem.exterior: Additional properties are not "
                     "allowed ('valeu' was unexpected)"),
    "exterior-center": (_set(["problem", "exterior", "center"], "origin"),
                        "at $.problem.exterior.center: 'origin' is not of "
                        "type 'array'"),
    "solver-key": (_set(["solver", "max_iters"], 1),
                   "at $.solver: Additional properties are not allowed "
                   "('max_iters' was unexpected)"),
    "negative-tol": (_set(["solver", "tol"], -1.0),
                     "at $.solver.tol: -1.0 is less than or equal to the "
                     "minimum of 0"),
    "zero-tol": (_set(["solver", "tol"], 0),
                 "at $.solver.tol: 0 is less than or equal to the minimum "
                 "of 0"),
    "2d-without-radius": (_without_radius(2),
                          "at $.problem: 'truncation_radius' is a required "
                          "property"),
    "3d-without-radius": (_without_radius(3),
                          "at $.problem: 'truncation_radius' is a required "
                          "property"),
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_subprocess(tmp_path, cfg, *flags):
    """``fracglap run`` on ``cfg`` with ``flags`` in a fresh interpreter,
    so that its whole stderr, warnings included, is what a user sees."""
    path = write_config(tmp_path, cfg)
    env = dict(os.environ)
    src = str(Path(fracglap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; from fracglap.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run(
        [sys.executable, "-c", code, "run", path, "--out",
         str(tmp_path / "out"), *flags],
        env=env, capture_output=True, text=True, timeout=300)


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
        for cfg in (base_config(), base_config(
                tolerances={n: 1 for n in cli.TOLERANCE_KEYS})):
            validate_config(cfg)
            jsonschema.validate(cfg, printed_schema())

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

    def test_seed_override_satisfies_the_seed_rule(self, tmp_path):
        cfg = base_config(pipeline=["solve", "verify:gradient_fd"])
        del cfg["seed"]
        assert main(["run", write_config(tmp_path, cfg), "--seed", "3",
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_seed_override_replaces_a_malformed_seed(self, tmp_path):
        # --seed is written before the one check, so the check reads it
        cfg = base_config(pipeline=["solve", "verify:gradient_fd"],
                          seed="eleven")
        path = write_config(tmp_path, cfg)
        assert run(path, out_override=str(tmp_path / "a")) == EXIT_CONFIG
        assert main(["run", path, "--seed", "3", "--out",
                     str(tmp_path / "b")]) == EXIT_OK

    # each override writes into the config, so it must not run before the
    # schema has checked the config's shape
    @pytest.mark.parametrize("case", ["tolerances", "solver", "not_object"])
    def test_override_of_malformed_config_is_one_line(self, tmp_path, capsys,
                                                      case):
        if case == "not_object":
            cfg, flag = [1, 2], ["--seed", "3"]
        else:
            cfg, flag = base_config(**{case: []}), ["--tol", "1e-9"]
        code = main(["solve", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out")] + flag)
        err = capsys.readouterr().err
        path = "$" if case == "not_object" else f"$.{case}"
        assert code == EXIT_CONFIG
        assert err.startswith(
            f"config error: config schema violation at {path}: ")
        assert one_line(err)
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("key, spec, missing", [
        ("nfunction", {"family": "power"}, "p"),
        ("nfunction", {"family": "power_log"}, "p"),
        ("nfunction", {"family": "table"}, "points"),
        ("datum", {"family": "constant"}, "value"),
        ("datum", {"family": "power_cusp"}, "gamma"),
        ("datum", {"family": "two_level", "low": -1.0}, "high"),
    ], ids=["power-p", "power_log-p", "table-points", "constant-value",
            "power_cusp-gamma", "two_level-high"])
    def test_missing_family_key_is_config_error(self, tmp_path, capsys,
                                                key, spec, missing):
        # each family's keys without a default are required by the schema
        cfg = base_config()
        cfg["problem"][key] = spec
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config schema violation at $.problem.{key}: "
            f"'{missing}' is a required property\n")

    def test_unknown_datum_family_is_schema_violation(self, tmp_path,
                                                      capsys):
        cfg = base_config()
        cfg["problem"]["datum"] = {"family": "cosine"}
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config schema violation at "
                              "$.problem.datum.family: 'cosine' is not one of")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family", ["power", "power_log"])
    def test_overflowing_exponent_is_one_line(self, tmp_path, family):
        # p = 60 takes the validation samples past the float range: one
        # line that names the overflow, with no floating-point warning
        cfg = base_config()
        cfg["problem"]["nfunction"] = {"family": family, "p": 60.0}
        res = run_subprocess(tmp_path, cfg)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert res.stderr.startswith("config error: the profile overflows")
        assert res.stderr.count("\n") == 1

    def test_schema_violation_exit_code(self, tmp_path):
        cfg = base_config()
        del cfg["problem"]["s"]
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG

    @pytest.mark.parametrize("initial", ["zero-extension",
                                         "halo-harmonic-guess"])
    def test_removed_initial_alias_rejected(self, tmp_path, initial):
        cfg = base_config(solver={"initial": initial})
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG

    def test_unreadable_config_is_io_error(self, tmp_path):
        assert run(str(tmp_path / "missing.json")) == EXIT_IO

    # the solve's tolerance is solver.tol; the last four are verify
    # stages without a tolerance
    @pytest.mark.parametrize("key", ["sovle", "nfunction_samples",
                                     "de_giorgi_cases", "solve",
                                     "minimality", "membership",
                                     "de_giorgi", "holder_decay"])
    def test_unknown_tolerance_rejected(self, tmp_path, capsys, key):
        cfg = base_config(tolerances={"boundedness": 1e-9, key: 1e-12})
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config schema violation at $.tolerances: "
            f"Additional properties are not allowed ({key!r} was "
            "unexpected)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e-9", True, None])
    def test_non_numeric_tolerance_rejected(self, value):
        with pytest.raises(cli.ConfigError, match=re.escape(
                "config schema violation at $.tolerances.boundedness: "
                f"{value!r} is not of type 'number'")):
            validate_config(base_config(tolerances={"boundedness": value}))

    def test_sweeps_schema_names_the_sweep_stages(self):
        assert set(SCHEMA["properties"]["sweeps"]["properties"]) \
            == set(cli.SWEEP_STAGES)

    @pytest.mark.parametrize("sweeps", [
        {"boundedness": {"fractions": 5}},
        {"boundedness": {"fractions": ["a"]}},
        {"caccioppoli": [1]},
        {"caccioppoli": {"sign": ["plus"]}},
        {"bounded": {}},
        {"sobolev_poincare": {"count": 0}},
        {"holder_decay": {"sigmas": []}},
    ])
    def test_malformed_sweep_params_rejected(self, tmp_path, capsys, sweeps):
        cfg = base_config(pipeline=["solve"] + [f"sweep:{n}" for n in
                                                cli.SWEEP_STAGES],
                          sweeps=sweeps)
        code = main(["run", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: config schema violation at "
                              "$.sweeps")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # the stage, tolerance and seed rules, and a misspelled key at each
    # strict level: each edit, the phrase the one error line must hold
    @pytest.mark.parametrize("case", sorted(SCHEMA_REJECTS))
    def test_printed_schema_rejects_what_run_rejects(self, tmp_path, capsys,
                                                     case):
        edit, phrase = SCHEMA_REJECTS[case]
        cfg = base_config()
        edit(cfg)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, printed_schema())
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config schema violation at $")
        assert one_line(err), err
        assert phrase in err
        assert not out.exists()


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# keys the builders read without a default, by parent object
REQUIRED_KEYS = [
    ((), "problem"), ((), "pipeline"),
    *((("problem",), k) for k in ("dim", "h", "omega", "s", "nfunction",
                                  "datum")),
    (("problem", "omega"), "lo"), (("problem", "omega"), "hi"),
    (("problem", "nfunction"), "family"), (("problem", "nfunction"), "p"),
    (("problem", "datum"), "family"), (("problem", "exterior"), "kind"),
]
# the objects that name all their keys
STRICT_LEVELS = [(), ("problem",), ("problem", "omega"),
                 ("problem", "nfunction"), ("problem", "kernel"),
                 ("problem", "exterior"), ("solver",), ("tolerances",)]
# declared keys and values of a type the key does not take
NOT_NUMBER = ["0.5", None, True, [0.5], {}]
NOT_INTEGER = [0.5, "1", None, True]
NOT_NAME = [1, None, ["pure"]]
NOT_ARRAY = ["solve", 1, {}]
NOT_OBJECT = ["x", 1, []]
WRONG_TYPES = {
    ("problem",): NOT_OBJECT, ("problem", "dim"): NOT_INTEGER,
    ("problem", "h"): NOT_NUMBER, ("problem", "s"): NOT_NUMBER,
    ("problem", "truncation_radius"): NOT_NUMBER,
    ("problem", "omega"): NOT_OBJECT, ("problem", "omega", "lo"): NOT_ARRAY,
    ("problem", "nfunction"): NOT_OBJECT,
    ("problem", "nfunction", "family"): NOT_NAME,
    ("problem", "nfunction", "p"): NOT_NUMBER,
    ("problem", "kernel"): NOT_OBJECT, ("problem", "kernel", "form"): NOT_NAME,
    ("problem", "datum"): NOT_OBJECT,
    ("problem", "datum", "family"): NOT_NAME,
    ("problem", "exterior"): NOT_OBJECT,
    ("problem", "exterior", "kind"): NOT_NAME,
    ("problem", "exterior", "value"): NOT_NUMBER,
    ("pipeline",): NOT_ARRAY, ("seed",): NOT_INTEGER,
    ("output_dir",): NOT_NAME, ("solver",): NOT_OBJECT,
    ("solver", "tol"): NOT_NUMBER, ("solver", "initial"): NOT_NAME,
    ("tolerances",): NOT_OBJECT, ("tolerances", "boundedness"): NOT_NUMBER,
}
NAMES = st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)


@st.composite
def broken_configs(draw):
    """A tiny valid 1-D config with one rule broken at a single key."""
    cfg = base_config(tolerances={"boundedness": 1.0})
    how = draw(st.sampled_from(["drop", "unknown_key", "wrong_type",
                                "unknown_stage", "unknown_tolerance",
                                "no_seed", "no_radius", "tol_bound"]))
    if how == "drop":
        path, key = draw(st.sampled_from(REQUIRED_KEYS))
        del _node(cfg, path)[key]
    elif how == "unknown_key":
        path = draw(st.sampled_from(STRICT_LEVELS))
        declared = _node(printed_schema(), [
            part for key in path for part in ("properties", key)])
        key = draw(NAMES.filter(lambda k: k not in declared["properties"]))
        _node(cfg, path)[key] = 1.0
    elif how == "wrong_type":
        path = draw(st.sampled_from(sorted(WRONG_TYPES)))
        *parents, key = path
        _node(cfg, parents)[key] = draw(st.sampled_from(WRONG_TYPES[path]))
    elif how == "unknown_stage":
        kind = draw(st.sampled_from(["verify:", "sweep:", "solve:", ""]))
        cfg["pipeline"].append(draw(NAMES.map(kind.__add__).filter(
            lambda stage: stage not in FULL_PIPELINE)))
    elif how == "unknown_tolerance":
        key = draw(NAMES.filter(lambda k: k not in cli.TOLERANCE_KEYS))
        cfg["tolerances"][key] = 1e-6
    elif how == "no_radius":
        _without_radius(draw(st.sampled_from([2, 3])))(cfg)
    elif how == "tol_bound":
        cfg["solver"]["tol"] = draw(st.floats(max_value=0.0,
                                              allow_nan=False))
    else:
        del cfg["seed"]
        if draw(st.booleans()):
            cfg["pipeline"].append(draw(st.sampled_from(SEEDED)))
        else:
            cfg["problem"]["datum"] = {"family": "random_smooth"}
    return cfg


class TestSchemaFuzz:
    @settings(max_examples=60, deadline=None, database=None)
    @given(broken_configs())
    def test_one_break_is_one_config_error(self, cfg):
        # the printed schema and validate_config agree, and the run stops
        # at the check: exit 2, one line, no output directory
        schema = printed_schema()
        printed_ok = jsonschema.validators.validator_for(schema)(
            schema).is_valid(cfg)
        with pytest.raises(cli.ConfigError):
            validate_config(cfg)
        assert not printed_ok
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", path, "--out", os.path.join(tmp, "out")])
            assert code == EXIT_CONFIG
            assert err.getvalue().startswith("config error: ")
            assert one_line(err.getvalue()), err.getvalue()
            assert not os.path.exists(os.path.join(tmp, "out"))


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
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        solved = json.loads((out / "SolveReport.json").read_text())
        assert solved["details"]["threshold"] == 1e-12
        rep = json.loads((out / "estimate_minimality.json").read_text())
        assert rep["details"]["threshold"] == 1e-12

    def test_tol_flag_beats_solver_tol(self, tmp_path):
        cfg = base_config(solver={"tol": 1e-12})
        cfg["problem"]["datum"] = {"family": "constant", "value": 0.3}
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, cfg), "--tol", "1e-7",
                     "--out", str(out)]) == EXIT_OK
        solved = json.loads((out / "SolveReport.json").read_text())
        assert solved["details"]["threshold"] == 1e-7

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", write_config(tmp_path, base_config()), "--jobs",
                  "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err

    def test_run_takes_one_job(self, tmp_path):
        path = write_config(tmp_path, base_config())
        with pytest.raises(ValueError, match="jobs must be 1"):
            run(path, out_override=str(tmp_path / "o2"), jobs=2)
        assert not (tmp_path / "o2").exists()
        assert run(path, out_override=str(tmp_path / "o1"),
                   jobs=1) == EXIT_OK

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

    @pytest.mark.parametrize("nfunction", [
        {"family": "power_log", "p": 2.0},
        {"family": "table", "points": [[0.5, 0.4], [1.0, 1.1], [2.0, 2.5],
                                       [4.0, 6.0], [8.0, 13.0]]},
    ], ids=["power_log", "table"])
    def test_tail_closed_form_stage_beyond_power(self, tmp_path, nfunction):
        # the radial rule on g against G(M R^(-s)) / (s M)
        cfg = base_config(pipeline=["verify:tail_closed_form"])
        cfg["problem"]["nfunction"] = nfunction
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        rep = json.loads((out / "estimate_tail_closed_form.json").read_text())
        assert rep["passed"]
        assert rep["lhs"] < 1e-12

    @pytest.mark.parametrize("exterior", [
        {"kind": "constant", "value": 0.3},
        {"kind": "power", "value": 0.3, "exponent": 0.25},
        {"kind": "power", "value": 0.3, "exponent": -0.5},
    ], ids=["constant", "power-growing", "power-decaying"])
    def test_tail_closed_form_breaks_at_table_knots(self, tmp_path,
                                                    exterior):
        # from R = 1.25 * 1.5625 on, the tail argument 0.75 rho^(-1/2)
        # falls from 0.54 past the knot 0.5 of g; without a break there
        # the radial rule read 2.4e-6 against the closed form
        cfg = base_config(pipeline=["verify:tail_closed_form"])
        cfg["problem"]["nfunction"] = {"family": "table", "points": [
            [0.5, 0.4], [1.0, 1.0], [2.0, 2.6], [8.0, 15.0], [1e6, 3e6]]}
        cfg["problem"]["exterior"] = exterior
        cfg["problem"]["truncation_radius"] = 1.0
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        rep = json.loads((out / "estimate_tail_closed_form.json").read_text())
        assert rep["passed"]
        assert rep["lhs"] < 1e-12

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
        cfg["solver"]["tol"] = 1e-10
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
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_SOLVER

    def test_unrepresentable_datum_is_config_error(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["datum"]["amplitude"] = 1e30
        res = run_subprocess(tmp_path, cfg)
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
                          tolerances={"boundedness": 1e-9})
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

    def test_each_sweep_scores_its_points_in_one_batch(self, tmp_path,
                                                      monkeypatch):
        # every sweep passes all its points to one call of its check, a
        # Caccioppoli batch included
        cfg = base_config(pipeline=["solve"] + [f"sweep:{n}" for n in
                                                cli.SWEEP_STAGES])
        cacc, sp = cli.rg.caccioppoli_check, cli.rg.sobolev_poincare_check
        checked = cli.RunContext.checked
        calls, batches = [], {}

        def counted(u, ball, points, *args, **kw):
            calls.append(len(points))
            return cacc(u, ball, points, *args, **kw)

        def sobolev_poincare(fs, *args, **kw):
            batches.setdefault("sobolev_poincare", []).append(len(fs))
            return sp(fs, *args, **kw)

        def recorded(ctx, name, check, points):
            def batch_fn(batch):
                batches.setdefault(name, []).append(len(batch))
                return check(batch)

            return checked(ctx, name, batch_fn, points)

        monkeypatch.setattr(cli.rg, "caccioppoli_check", counted)
        monkeypatch.setattr(cli.rg, "sobolev_poincare_check",
                            sobolev_poincare)
        monkeypatch.setattr(cli.RunContext, "checked", recorded)
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_OK
        assert calls == [6]
        assert batches == {"boundedness": [4], "caccioppoli": [6],
                           "sobolev_poincare": [6], "holder_decay": [2]}

    @pytest.mark.parametrize("name", ["caccioppoli", "boundedness",
                                      "sobolev_poincare"])
    def test_sweep_reads_its_bound(self, tmp_path, name):
        cfg = base_config(pipeline=["solve", f"sweep:{name}"],
                          tolerances={name: 1e-6})
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_ESTIMATE
        assert not json.loads(
            (out / f"sweep_{name}.json").read_text())["passed"]


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
    return probe, sl._energy_gradient(prob, v.values)[1]


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
        exact = sl._energy_gradient

        def wrong(prob, vals):
            e, out = exact(prob, vals)
            out[k] *= 1.0 + 1e-4
            return e, out

        monkeypatch.setattr(sl, "_energy_gradient", wrong)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_ESTIMATE
        rep = json.loads((out / "estimate_gradient_fd.json").read_text())
        assert not rep["passed"]


    def test_small_component_wrong_at_rounding_scale_fails(self, tmp_path,
                                                          monkeypatch):
        # the smallest probed component (6.5e-4) wrong by 2e-5 relative,
        # 1.3e-8: below the rounding allowance of differences of the whole
        # energy (3.5e-8), above that of the terms that contain the probed
        # node (6.6e-9)
        cfg = small_component_config()
        probe, g = probed_components(cfg)
        k = probe[np.argmin(np.abs(g[probe]))]
        exact = sl._energy_gradient

        def wrong(prob, vals):
            e, out = exact(prob, vals)
            out[k] *= 1.0 + 2e-5
            return e, out

        monkeypatch.setattr(sl, "_energy_gradient", wrong)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_ESTIMATE
        rep = json.loads((out / "estimate_gradient_fd.json").read_text())
        assert not rep["passed"]
        assert rep["lhs"] == pytest.approx(2e-5 * abs(g[k]), rel=0.05)
        assert rep["rhs_terms"]["rounding"] < 1e-8


def assert_same_minimality(got, want):
    """Minimality reports equal but for the minimizer's energy, which the
    stage sums in its stack and the reference alone: the two agree up to
    the order of the pair sum."""
    got, want = copy.deepcopy(got), copy.deepcopy(want)
    assert got["details"].pop("energy") == pytest.approx(
        want["details"].pop("energy"), rel=1e-13, abs=0)
    assert got == want


class TestMinimality:
    """``verify:minimality`` scores the minimizer and its 100 perturbations
    in one pass; the sequential reference draws and sums them one at a
    time."""

    def test_report_matches_sequential_reference(self, tmp_path,
                                                 monkeypatch):
        cfg = small_component_config()
        cfg["pipeline"] = ["solve", "verify:minimality"]
        cfg["solver"] = {"tol": 1e-11}
        path = write_config(tmp_path, cfg)
        assert run(path, out_override=str(tmp_path / "new")) == EXIT_OK
        monkeypatch.setitem(cli.VERIFY_STAGES, "minimality",
                            minimality_reference)
        assert run(path, out_override=str(tmp_path / "ref")) == EXIT_OK
        got = read_reports(tmp_path / "new")
        want = read_reports(tmp_path / "ref")
        got_min = json.loads(got.pop("estimate_minimality.json"))
        want_min = json.loads(want.pop("estimate_minimality.json"))
        assert got == want
        assert got_min["passed"]
        assert_same_minimality(got_min, want_min)

    def test_violations_match_sequential_reference(self, tmp_path):
        # the minimizer lifted by 5 on the domain: about a third of the
        # perturbations lower its energy, and both routes must count the
        # same ones
        cfg = small_component_config()
        ctx = cli.RunContext(cfg, str(tmp_path), cfg["seed"])
        prob = ctx.problem
        rep = sl.solve(prob, tol=1e-11)
        lifted = rep.minimizer.values[prob.omega_mask] + 5.0
        ctx.solve_report = dataclasses.replace(
            rep, minimizer=prob.datum_extension(lifted))
        got = cli.VERIFY_STAGES["minimality"](
            ctx, np.random.default_rng([cfg["seed"], 2]))
        want = minimality_reference(
            ctx, np.random.default_rng([cfg["seed"], 2]))
        assert 10 < got.lhs < 90
        assert_same_minimality(got.to_dict(), want.to_dict())


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
        cfg = base_config(pipeline=FULL_PIPELINE, solver={"tol": 1e-10})
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


# estimates with a verify stage and a sweep over the same check
SHARED = ["boundedness", "caccioppoli", "holder_decay"]


class TestEstimateMemo:
    @pytest.mark.parametrize("sweep_first", [False, True])
    @pytest.mark.parametrize("name", SHARED)
    def test_pair_matches_separate_runs(self, tmp_path, name, sweep_first):
        # a verify stage is its sweep's default point, read from the memo
        # when the sweep ran first, and vice versa
        stages = [f"verify:{name}", f"sweep:{name}"]
        if sweep_first:
            stages.reverse()
        separate = {}
        for stage in stages:
            out = tmp_path / stage.replace(":", "_")
            cfg = base_config(pipeline=["solve", stage])
            assert run(write_config(tmp_path, cfg),
                       out_override=str(out)) == EXIT_OK
            separate.update(read_reports(out))
        out = tmp_path / "pair"
        cfg = base_config(pipeline=["solve"] + stages)
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        assert read_reports(out) == separate

    @pytest.mark.parametrize("sweep_first", [False, True])
    def test_each_check_point_computed_once(self, tmp_path, monkeypatch,
                                            sweep_first):
        # points that reach each check through its rg name; a
        # boundedness_check without the kernel the stages pass would be
        # one a holder_decay_fit made itself
        seen = {"caccioppoli": [], "boundedness": [], "holder_decay": [],
                "boundedness_in_fit": []}
        cacc, bnd, fit = (cli.rg.caccioppoli_check, cli.rg.boundedness_check,
                          cli.rg.holder_decay_fit)

        def caccioppoli(u, ball, points, *args, **kw):
            seen["caccioppoli"] += points
            return cacc(u, ball, points, *args, **kw)

        def boundedness(u, ball, *args, **kw):
            key = "boundedness" if "kernel" in kw else "boundedness_in_fit"
            seen[key].append(ball.radius)
            return bnd(u, ball, *args, **kw)

        def holder_decay(u, brep, sigmas, *args, **kw):
            seen["holder_decay"] += sigmas
            return fit(u, brep, sigmas, *args, **kw)

        monkeypatch.setattr(cli.rg, "caccioppoli_check", caccioppoli)
        monkeypatch.setattr(cli.rg, "boundedness_check", boundedness)
        monkeypatch.setattr(cli.rg, "holder_decay_fit", holder_decay)
        kinds = ("sweep", "verify") if sweep_first else ("verify", "sweep")
        cfg = base_config(pipeline=["solve"] + [
            f"{kind}:{n}" for kind in kinds for n in SHARED])
        assert run(write_config(tmp_path, cfg),
                   out_override=str(tmp_path / "out")) == EXIT_OK
        counts = {key: len(points) for key, points in seen.items()}
        # the verify points are the sweeps' defaults: 6 Caccioppoli
        # points, not 7; 4 balls, not 5; 2 fits, not 3.  Every fit reads
        # the run's report for the default ball, the boundedness point 1.0
        assert counts == {"caccioppoli": 6, "boundedness": 4,
                          "holder_decay": 2, "boundedness_in_fit": 0}
        for key in ("caccioppoli", "boundedness", "holder_decay"):
            assert len(set(seen[key])) == counts[key]


class TestHolderDecayVerdict:
    """``verify:holder_decay`` and each row of ``sweep:holder_decay``
    judge a decay fit by one rule (``HolderDecayResult.passed``)."""

    @staticmethod
    def _flat_fit():
        # a unit step at 0 plus 1e-13 sin(50 x): the nested balls all see
        # the jump, so the oscillations agree to the last bits, and the
        # fitted exponent is a rounding-level negative number
        lat = Lattice.from_box([-1.5], [1.5], 1 / 256)
        x = lat.coords[:, 0]
        u = GridFunction(lat, (x >= 0.0) + 1e-13 * np.sin(50.0 * x),
                         ExteriorModel(value=0.5).resolved(lat))
        nf = make_power(2.0)
        brep = rg.boundedness_check(u, Ball((0.0,), 0.5), 0.5, nf)
        return rg.holder_decay_fit(u, brep, [0.8], 10, 0.5, nf)[0]

    def test_negative_exponent_fails_both_stages(self, tmp_path,
                                                 monkeypatch, capsys):
        res = self._flat_fit()
        assert -1e-28 < res.alpha_hat < 0.0
        assert res.osc_monotone and res.schedule_ok and not res.passed
        monkeypatch.setattr(cli.rg, "holder_decay_fit",
                            lambda u, brep, sigmas, *args: [res] * len(sigmas))
        out = tmp_path / "out"
        cfg = base_config(pipeline=["solve", "verify:holder_decay",
                                    "sweep:holder_decay"])
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_ESTIMATE
        for name in ("estimate_holder_decay.json", "sweep_holder_decay.json"):
            assert json.loads((out / name).read_text())["passed"] is False
        rows = (out / "sweep_holder_decay.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(r.endswith(",False") for r in rows)
        assert "holder_decay: FAIL" in capsys.readouterr().out


class TestDatumFamilies:
    """The ``linear`` and ``two_level`` data against their formulas at
    every lattice node."""

    @staticmethod
    def _problem(datum):
        cfg = base_config()
        cfg["problem"].update({
            "dim": 2, "h": 0.125, "truncation_radius": 0.25,
            "omega": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}, "datum": datum})
        return build_problem(cfg)

    @pytest.mark.parametrize("keys, grad, offset", [
        ({}, (1.0, 1.0), 0.0),
        ({"gradient": [0.5, -2.0], "offset": 0.25}, (0.5, -2.0), 0.25)])
    def test_linear(self, keys, grad, offset):
        prob = self._problem({"family": "linear", **keys})
        want = [grad[0] * x + grad[1] * y + offset
                for x, y in prob.lattice.coords]
        np.testing.assert_allclose(prob.exterior_datum.values, want,
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("keys, freq", [({}, 3.0),
                                            ({"frequency": 5.0}, 5.0)])
    def test_two_level(self, keys, freq):
        prob = self._problem({"family": "two_level", "low": -0.5,
                              "high": 2.0, **keys})
        want = [-0.5 if math.sin(freq * (x + y)) < 0 else 2.0
                for x, y in prob.lattice.coords]
        np.testing.assert_array_equal(prob.exterior_datum.values, want)
        assert set(want) == {-0.5, 2.0}


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

    def test_line_search_failure_is_solver_failure(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(sl, "MAX_BACKTRACKS", 0)
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config())
        assert main(["run", path, "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == "solver did not converge\n"
        report = json.loads((out / "SolveReport.json").read_text())
        assert report["line_search_failures"] == 1
        assert report["converged"] is False

    def test_certification_miss_is_config_error(self, tmp_path, monkeypatch,
                                                capsys):
        # every power_log exponent that can be built certifies; a miss,
        # forced here by a target of 0, names p
        monkeypatch.setattr(cli.nfm, "CERTIFY_TOL", 0.0)
        with pytest.raises(ValueError, match="certification at p=2:"):
            make_power_log(2.0)
        cfg = base_config()
        cfg["problem"]["nfunction"] = {"family": "power_log", "p": 2.0}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the power_log accelerator "
                              "misses its certification at p=2:")
        assert one_line(err)

    def test_logarithmic_on_power_exterior_is_config_error(self, tmp_path,
                                                           capsys):
        cfg = base_config(pipeline=["solve", "verify:logarithmic"])
        cfg["problem"]["exterior"] = {"kind": "power", "value": 0.3,
                                      "exponent": 0.25}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: logarithmic stage needs a "
                              "level exterior model")
        assert one_line(err)

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"problem": ')
        assert main(["run", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and one_line(err)


def strict_json(text):
    """``json.loads`` that rejects Infinity, -Infinity and NaN, which are
    not JSON (RFC 8259)."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# configs that each end in one config error line: a datum that is
# infinite at its cusp, a datum whose square overflows in the surrogate,
# profiles whose constants ell = 2^(1/(p-1)) and kappa = 2^q overflow,
# and exterior models, growing and level, whose far energy overflows
CONFIG_ERRORS = {
    "cusp_datum": ({"datum": {"family": "power_cusp", "gamma": -0.4}},
                   "power_cusp datum"),
    "huge_sin_datum": ({"datum": {"family": "sin", "amplitude": 1e200}},
                       "representable range"),
    "p_near_one": ({"nfunction": {"family": "power", "p": 1.0001}},
                   "ell = 2^(1/(p-1)) overflows at p=1.0001"),
    "table_q_2000": ({"nfunction": {"family": "table",
                                    "points": [[0.5, 0.4], [1, 1], [2, 2.6],
                                               [8, 15], [1e6, 3e6]],
                                    "q": 2000}},
                     "kappa = 2^q overflows at q=2000"),
    "exterior_overflow_power": (
        {"exterior": {"kind": "power", "value": 1e300, "exponent": 0.25}},
        "config error: exterior model overflows the interaction tail\n"),
    "exterior_overflow_level": (
        {"exterior": {"kind": "power", "value": 1e300, "exponent": 0.0}},
        "config error: exterior model overflows the interaction tail\n"),
}


class TestConfigErrors:
    @pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
    def test_one_line_and_no_warning(self, tmp_path, case):
        edit, phrase = CONFIG_ERRORS[case]
        cfg = base_config()
        cfg["problem"].update(edit)
        res = run_subprocess(tmp_path, cfg)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert one_line(res.stderr), res.stderr
        assert res.stderr.startswith("config error:")
        assert phrase in res.stderr
        assert "(34," not in res.stderr

    def test_huge_datum_fails_before_the_surrogate(self, tmp_path):
        # 2-D, h = 1/16: N = 289 domain nodes.  The stopping scale rejects
        # the datum by name before the N x N surrogate is assembled.
        cfg = base_config()
        cfg["problem"].update({
            "dim": 2, "omega": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
            "truncation_radius": 0.25,
            "datum": {"family": "sin", "amplitude": 1e200}})
        res = run_subprocess(tmp_path, cfg)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert one_line(res.stderr), res.stderr
        assert res.stderr.startswith("config error: the datum's oscillation")
        assert "overflows the growth profile" in res.stderr
        assert "representable range" in res.stderr
        prob = build_problem(cfg)
        n = int(prob.omega_mask.sum())
        assert n == 289
        prob._inv_ds
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="oscillation"):
                sl.solve(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_power_q_is_declared(self):
        cfg = base_config()
        cfg["problem"]["nfunction"] = {"family": "power", "p": 2.0, "q": 3.0}
        prob = build_problem(cfg)
        assert (prob.nf.p, prob.nf.q, prob.nf.kappa) == (2.0, 3.0, 8.0)
        # the profile is still t^2/2, which the linear oracle solves
        sl.assemble_quadratic(prob)

    def test_power_q_below_p_is_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["nfunction"] = {"family": "power", "p": 2.0, "q": 1.5}
        assert main(["run", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: declared upper index q=1.5")
        assert one_line(err)


# solver tolerances that are not a positive finite number, as --tol or
# as solver.tol: case -> (flags, solver.tol, phrase of the error line).
# -1, NaN and 0 used to run every iteration and exit 3; inf exited 0,
# "converged" at the start
BAD_TOLERANCES = {
    "flag-negative": (["--tol", "-1"], None,
                      "solver.tol must be a positive finite number, not "
                      "-1.0"),
    "flag-nan": (["--tol", "nan"], None, "not nan"),
    "flag-zero": (["--tol", "0"], None, "not 0.0"),
    "flag-inf": (["--tol", "inf"], None, "not inf"),
    "config-negative": ([], -1.0, "at $.solver.tol: -1.0 is less than or "
                                  "equal to the minimum of 0"),
    "config-inf": ([], math.inf, "not inf"),
    "config-nan": ([], math.nan, "not nan"),
}


class TestRunRules:
    """A rule on values that the run states before any stage: the
    solver tolerance is a positive finite number, and a 2-D or 3-D
    config names its truncation radius."""

    @staticmethod
    def _config(case):
        flags, tol, phrase = BAD_TOLERANCES[case]
        cfg = base_config()
        cfg["problem"]["datum"] = {"family": "constant", "value": 0.3}
        if tol is not None:
            cfg["solver"]["tol"] = tol
        return cfg, flags, phrase

    def test_schema_states_the_tolerance_bound(self):
        tol = printed_schema()["properties"]["solver"]["properties"]["tol"]
        assert tol == {"type": "number", "exclusiveMinimum": 0}

    @pytest.mark.parametrize("case", sorted(BAD_TOLERANCES))
    def test_bad_tolerance_in_process(self, tmp_path, capsys, monkeypatch,
                                      case):
        cfg, flags, phrase = self._config(case)

        def built(*args):
            raise AssertionError("problem built")

        monkeypatch.setattr(cli, "build_problem", built)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out),
                     *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and one_line(err), err
        assert phrase in err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_TOLERANCES))
    def test_bad_tolerance_through_fracglap_run(self, tmp_path, case):
        cfg, flags, phrase = self._config(case)
        res = run_subprocess(tmp_path, cfg, *flags)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert res.stderr.startswith("config error: ")
        assert one_line(res.stderr), res.stderr
        assert phrase in res.stderr

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radius_required_from_2d(self, tmp_path, capsys, monkeypatch,
                                     dim):
        cfg = base_config()
        _without_radius(dim)(cfg)
        want = ("config error: config schema violation at $.problem: "
                "'truncation_radius' is a required property\n")
        res = run_subprocess(tmp_path, cfg)
        assert res.returncode == EXIT_CONFIG, res.stderr
        assert res.stderr == want

        def built(*args):
            raise AssertionError("lattice built")

        monkeypatch.setattr(cli.Lattice, "from_box", built)
        out = tmp_path / "in-process"
        assert main(["run", write_config(tmp_path, cfg), "--out",
                     str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == want
        assert not out.exists()
        cfg["problem"]["truncation_radius"] = 0.25
        validate_config(cfg)

    def test_1d_keeps_the_default_radius(self, tmp_path):
        cfg = base_config()
        del cfg["problem"]["truncation_radius"]
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg),
                   out_override=str(out)) == EXIT_OK
        assert json.loads((out / "SolveReport.json").read_text())["converged"]
        assert build_problem(cfg).truncation_radius == 8.0


class TestArtifacts:
    def test_non_finite_floats_are_strings(self, tmp_path):
        from fracglap.cli import _write_json
        _write_json(str(tmp_path), "x.json",
                    {"a": [math.inf, -math.inf, math.nan, 1.5],
                     "b": np.array([np.inf, 2.0]), "c": np.float64(-np.inf),
                     "d": {"e": np.nan}})
        doc = strict_json((tmp_path / "x.json").read_text())
        assert doc["a"] == ["inf", "-inf", "nan", 1.5]
        assert doc["b"] == ["inf", 2.0]
        assert doc["c"] == "-inf"
        assert doc["d"] == {"e": "nan"}

    def test_full_pipeline_writes_strict_json(self, tmp_path):
        path = write_config(tmp_path, base_config(pipeline=FULL_PIPELINE))
        out = tmp_path / "out"
        assert run(path, out_override=str(out)) == EXIT_OK
        docs = {p.name: strict_json(p.read_text())
                for p in out.glob("*.json")}
        assert len(docs) == 1 + len(cli.VERIFY_STAGES) + len(cli.SWEEP_STAGES)
        # verify stages without a declared tolerance accept any constant
        assert docs["estimate_boundedness.json"]["tolerance"] == "inf"

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
