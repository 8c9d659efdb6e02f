import configparser
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harnack_lab import cli
from harnack_lab.cli import SCHEMA, main
from harnack_lab.operators import CylinderDomain
from harnack_lab.sde import SimConfig


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


SMALL_SIM = ["--set", "sim.n_paths=300", "--set", "sim.t_max=0.5"]


def test_check_exit_codes(tmp_path, capsys):
    rc, out = run(tmp_path / "a", "check", "--set", "check.r=1")
    assert rc == 0
    report = json.loads((out / "hormander_report.json").read_text())
    assert report["pass"] is True
    assert report["r"] == 1
    assert report["sign_witnesses"] == [[-2.0], [2.0]]

    rc, out = run(tmp_path / "b", "check", "--set", "operator.beta=y1^2")
    assert rc == 1
    report = json.loads((out / "hormander_report.json").read_text())
    assert report["pass"] is False

    rc, _ = run(tmp_path / "c", "check", "--set", "operator.beta=q1")
    assert rc == 2
    assert "unknown identifier" in capsys.readouterr().err


def test_config_errors_are_aggregated(tmp_path, capsys):
    rc, _ = run(tmp_path, "check",
                "--set", "operator.beta=q1",
                "--set", "sim.dt=fast",
                "--set", "domain.y_outer_radius=-2")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("config error:") >= 3


# harnack, counterexample and make-solution have no box keys of their own:
# they work on [domain]'s inner subcylinder
BOX_KEYS = [(command, f"{section}.{key}=0.5", f"{section}.{key}: unknown key")
            for command, section, keys in (
                ("harnack", "harnack", ("sub_x_lo", "sub_x_hi", "sub_y_radius")),
                ("counterexample", "counterexample", ("sub_x_lo", "sub_x_hi", "sub_y_radius")),
                ("make-solution", "make_solution", ("grid_x_lo", "grid_x_hi", "grid_y_radius")))
            for key in keys]


@pytest.mark.parametrize("command, item, named", [
    ("counterexample", "counterexample.lambdaz=1,2", "counterexample.lambdaz"),
    ("check", "chek.r=9", "[chek]"),
    *BOX_KEYS,
])
def test_unknown_key_or_section_is_an_error(tmp_path, capsys, command, item, named):
    rc, out = run(tmp_path, command, "--set", item)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, env, message", [
    (["--workers", "0"], None, "--workers must be at least 1"),
    ([], "abc", "HARNACK_LAB_SEED must be an integer, got 'abc'"),
    (["--set", "sim.dt=0"], None, "sim: dt must be positive"),
    (["--config", "{ini}"], None, "bad config syntax"),
], ids=["workers", "env-seed", "sim-dt", "ini-syntax"])
def test_bad_flag_environment_or_file_exits_2(tmp_path, capsys, monkeypatch, flags, env,
                                               message):
    ini = tmp_path / "bad.ini"
    ini.write_text("[operator\nbeta = y1\n")
    if env is None:
        monkeypatch.delenv("HARNACK_LAB_SEED", raising=False)
    else:
        monkeypatch.setenv("HARNACK_LAB_SEED", env)
    rc, out = run(tmp_path, "check", *[f.format(ini=ini) for f in flags])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_values_in_one_section_are_all_reported(tmp_path, capsys):
    rc, _ = run(tmp_path, "evaluate", "--set", "evaluate.t=abc", "--set", "evaluate.k_sigma=x")
    assert rc == 2
    err = capsys.readouterr().err
    assert "evaluate.t: not a number: 'abc'" in err
    assert "evaluate.k_sigma: not a number: 'x'" in err


@pytest.mark.parametrize("command, item, message", [
    ("check", "check.r=9", "check.r: order must be between 1 and 4, got 9"),
    ("simulate", "simulate.start_y=1,2", "simulate.start_y: expected 1 value(s)"),
    ("evaluate", "evaluate.solution=bogus", "evaluate.solution: unknown solution 'bogus'"),
    ("make-solution", "make_solution.boundary=x+", "make_solution.boundary: unexpected end"),
    ("harnack", "harnack.family=catalog", "harnack.solutions: empty catalog list"),
    ("simulate", "simulate.bins=0", "simulate.bins: must be at least 1, got 0"),
    ("check", "operator.dim_n=1", "operator.dim_n: must be at least 2, got 1"),
    ("evaluate", "evaluate.mode=bogus", "evaluate.mode: expected one of value, sandwich"),
], ids=["check", "simulate", "evaluate", "make-solution", "harnack", "simulate-bins",
        "dim-n", "evaluate-mode"])
def test_checks_across_values_join_the_one_error_pass(tmp_path, capsys, command, item, message):
    rc, out = run(tmp_path, command, "--set", item, "--set", "sim.dt=fast")
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: sim.dt: not a number: 'fast'" in err
    assert f"config error: {message}" in err
    assert not out.exists()


def test_catalog_list_takes_two_argument_names(tmp_path):
    rc, out = run(tmp_path, "harnack", "--set", "harnack.family=catalog",
                  "--set", "harnack.solutions=separable(1.5,2),kolmogorov(5)")
    assert rc == 0
    with open(out / "harnack.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][0] == "separable(lambda=1.5,gamma=2)"
    assert rows[1][0] == "kolmogorov(5)"


def test_subcommand_help_lists_its_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harnack", "--help"])
    assert exc.value.code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "harnack.grid" in ln]
    assert len(lines) == 1 and "101" in lines[0]


def test_malformed_set_flag(tmp_path, capsys):
    rc, _ = run(tmp_path, "check", "--set", "nonsense")
    assert rc == 2
    assert "SECTION.KEY=VALUE" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[operator]\nbeta = y1^2\n\n[check]\nr = 2\n")
    rc, _ = run(tmp_path / "x", "check", "--config", str(ini))
    assert rc == 1  # config beta never changes sign
    rc, _ = run(tmp_path / "y", "check", "--config", str(ini),
                "--set", "operator.beta=y1")
    assert rc == 0  # flag wins over file


def test_missing_config_file(tmp_path, capsys):
    rc, _ = run(tmp_path, "check", "--config", str(tmp_path / "absent.ini"))
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_row_count_and_zero_drift(tmp_path):
    rc, out = run(tmp_path, "simulate", *SMALL_SIM,
                  "--set", "operator.beta=0",
                  "--set", "simulate.start_x=1.25")
    assert rc == 0
    lines = (out / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,stopped_x,stopped_y1,stop_time,gamma_integral,exited"
    assert len(lines) == 1 + 300
    xs = {line.split(",")[1] for line in lines[1:]}
    assert xs == {"1.25"}


def test_simulate_rerun_bitwise_identical(tmp_path):
    rc_a, out_a = run(tmp_path / "a", "simulate", *SMALL_SIM, "--seed", "7")
    rc_b, out_b = run(tmp_path / "b", "simulate", *SMALL_SIM, "--seed", "7",
                      "--workers", "4")
    assert rc_a == rc_b == 0
    for name in ("paths.csv", "measure.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_sources(tmp_path, monkeypatch):
    monkeypatch.setenv("HARNACK_LAB_SEED", "5")
    _, out_env = run(tmp_path / "env", "simulate", *SMALL_SIM)
    _, out_flag = run(tmp_path / "flag", "simulate", *SMALL_SIM, "--seed", "5")
    _, out_other = run(tmp_path / "other", "simulate", *SMALL_SIM, "--seed", "8")
    env_bytes = (out_env / "paths.csv").read_bytes()
    assert env_bytes == (out_flag / "paths.csv").read_bytes()
    assert env_bytes != (out_other / "paths.csv").read_bytes()


def test_evaluate_value_mode(tmp_path):
    rc, out = run(tmp_path, "evaluate", "--set", "sim.n_paths=2000")
    assert rc == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert payload["mode"] == "value"
    assert payload["solution"] == "kolmogorov(10)"
    est = payload["estimate"]
    assert abs(est["value"] - 10.0) < 5 * est["std_error"] + 0.01


def test_evaluate_sandwich_mode(tmp_path):
    rc, out = run(tmp_path, "evaluate", "--set", "sim.n_paths=2000",
                  "--set", "evaluate.mode=sandwich")
    assert rc == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert payload["passed"] is True
    assert payload["lower"] <= payload["value_at_start"] <= payload["upper"]


def test_evaluate_unknown_solution(tmp_path, capsys):
    rc, _ = run(tmp_path, "evaluate", "--set", "evaluate.solution=fourier(2)")
    assert rc == 2
    assert "unknown solution" in capsys.readouterr().err


def test_make_solution_unit_field(tmp_path):
    rc, out = run(tmp_path, "make-solution", "--svg",
                  "--set", "sim.n_paths=100",
                  "--set", "make_solution.grid_nx=3",
                  "--set", "make_solution.grid_ny=3")
    assert rc == 0
    rows = (out / "solution.csv").read_text().strip().split("\n")
    assert rows[0] == "x,y1,value"
    vals = {row.split(",")[-1] for row in rows[1:]}
    assert vals == {"1"}
    assert (out / "solution.json").exists()
    assert (out / "solution.svg").read_text().startswith("<svg")


def test_make_solution_refuses_a_nonpositive_field(tmp_path, capsys):
    rc, out = run(tmp_path, "make-solution", *SMALL_SIM,
                  "--set", "make_solution.boundary=0-1",
                  "--set", "make_solution.grid_nx=2", "--set", "make_solution.grid_ny=2")
    assert rc == 1
    assert "manufactured field is not positive" in capsys.readouterr().err
    assert not out.exists()


def test_harnack_constants_family(tmp_path):
    rc, out = run(tmp_path, "harnack", "--set", "harnack.family=constants")
    assert rc == 0
    payload = json.loads((out / "harnack.json").read_text())
    assert payload == {"family": "constants", "max_ratio": 1.0, "verdict": None}


@pytest.mark.parametrize("argv", [
    ["harnack", "--set", "harnack.family=constants"],
    ["regions", "--set", "regions.solution=constant(2)"],
], ids=["harnack", "regions"])
def test_constant_solutions_need_the_configured_gamma_zero(tmp_path, capsys, argv):
    rc, _ = run(tmp_path, *argv, "--set", "operator.gamma=0.5")
    assert rc == 1
    assert "only when gamma = 0" in capsys.readouterr().err


def test_constant_family_lives_on_the_configured_dimension(tmp_path):
    rc, out = run(tmp_path, "harnack", "--set", "harnack.family=constants",
                  "--set", "operator.dim_n=3")
    assert rc == 0
    header = (out / "harnack.csv").read_text().split("\n", 1)[0].split(",")
    assert [h for h in header if h.startswith("argmax_")] == [
        "argmax_x", "argmax_y1", "argmax_y2"]


def test_harnack_kolmogorov_family_max(tmp_path):
    rc, out = run(tmp_path, "harnack")
    assert rc == 0
    payload = json.loads((out / "harnack.json").read_text())
    assert payload["max_ratio"] == pytest.approx(19 / 11, rel=1e-12)
    lines = (out / "harnack.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 offsets


def test_harnack_positivity_failure(tmp_path, capsys):
    rc, _ = run(tmp_path, "harnack",
                "--set", "harnack.family=catalog",
                "--set", "harnack.solutions=kolmogorov(0)")
    assert rc == 1
    assert "not positive" in capsys.readouterr().err


def test_counterexample_verdict(tmp_path):
    rc, out = run(tmp_path, "counterexample", "--svg")
    assert rc == 0
    payload = json.loads((out / "counterexample.json").read_text())
    assert payload["verdict"] == "divergent"
    assert payload["max_ratio"] == pytest.approx(np.exp(8) * np.cosh(np.sqrt(8)), rel=1e-9)
    assert (out / "counterexample.svg").exists()
    lines = (out / "counterexample.csv").read_text().strip().split("\n")
    assert len(lines) == 5


def test_regions_outputs(tmp_path):
    rc, out = run(tmp_path, "regions", "--set", "regions.d=0.5")
    assert rc == 0
    payload = json.loads((out / "regions.json").read_text())
    assert payload["plus_count"] == 49
    assert payload["minus_count"] == 49
    lines = (out / "regions.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 49 + 49


def test_regions_with_cap_check(tmp_path):
    rc, out = run(tmp_path, "regions",
                  "--set", "regions.solution=kolmogorov(10)",
                  "--set", "regions.cap=2")
    assert rc == 0
    payload = json.loads((out / "regions.json").read_text())
    assert payload["check"]["passed"] is True
    rc, _ = run(tmp_path / "tight", "regions",
                "--set", "regions.solution=kolmogorov(10)",
                "--set", "regions.cap=1.01")
    assert rc == 1


def test_failed_run_removes_only_the_empty_out_dirs_it_made(tmp_path):
    bad = ["harnack", "--set", "harnack.grid=1", "--out"]
    assert main([*bad, str(tmp_path / "new" / "deeper")]) == 1
    assert not (tmp_path / "new").exists()
    (tmp_path / "kept").mkdir()
    assert main([*bad, str(tmp_path / "kept" / "made")]) == 1
    assert (tmp_path / "kept").is_dir() and not (tmp_path / "kept" / "made").exists()
    assert main([*bad, str(tmp_path / "kept")]) == 1
    assert (tmp_path / "kept").is_dir()


def test_average_output_and_bad_z(tmp_path, capsys):
    rc, out = run(tmp_path, "average")
    assert rc == 0
    rows = (out / "average.csv").read_text().strip().split("\n")
    assert rows[0] == "x,y1,value"
    rc, _ = run(tmp_path / "bad", "average", "--set", "average.z=0.4")
    assert rc == 1
    assert "1/3" in capsys.readouterr().err


def test_harnack_rerun_bitwise_identical(tmp_path):
    _, out_a = run(tmp_path / "a", "harnack", "--svg")
    _, out_b = run(tmp_path / "b", "harnack", "--svg")
    for name in ("harnack.csv", "harnack.json", "harnack.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter in which importing scipy fails: the commands that
    # interpolate a field or build a separable profile still run
    code = f"""
import sys
sys.modules["scipy"] = None
from harnack_lab import cli
out = {str(tmp_path)!r}
runs = [
    ["make-solution", "--set", "sim.n_paths=200", "--set", "make_solution.grid_nx=5",
     "--set", "make_solution.grid_ny=5"],
    ["harnack", "--set", "harnack.family=catalog", "--set", "harnack.solutions=separable(1.5)"],
    ["average", "--svg"],
]
for argv in runs:
    assert cli.main([*argv, "--out", out]) == 0, argv
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# the runs that between them read every key of every subcommand section
SCHEMA_RUNS = [
    ["check"],
    ["simulate", *SMALL_SIM],
    ["evaluate", *SMALL_SIM],
    ["evaluate", *SMALL_SIM, "--set", "evaluate.mode=sandwich"],
    ["make-solution", *SMALL_SIM, "--set", "make_solution.grid_nx=3",
     "--set", "make_solution.grid_ny=3"],
    ["harnack"],
    ["harnack", "--set", "harnack.family=constants"],
    ["harnack", "--set", "harnack.family=catalog", "--set", "harnack.solutions=kolmogorov(5)"],
    ["counterexample"],
    ["regions"],
    ["regions", "--set", "regions.solution=kolmogorov(10)"],
    ["average"],
]


def test_schema_is_the_only_config_schema(tmp_path, monkeypatch):
    table = {(s, k): default for s, k, _kind, default, _help in SCHEMA}
    assert len(table) == len(SCHEMA)
    # the domain and sim keys are exactly the fields they construct
    for section, cls in (("domain", CylinderDomain), ("sim", SimConfig)):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert {k for s, k in table if s == section} == fields
    # README's config block holds shared keys only, at their table defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert set(parser.sections()) == {"operator", "domain", "sim"}
    for section in parser.sections():
        for key, text in parser.items(section):
            default = table[section, key]
            assert type(default)(text) == default, (section, key)
    # every key a subcommand reads is in the table, and none goes unread
    reads = set()
    get = cli.RunConfig.get

    def spy(self, section, key):
        reads.add((section, key))
        return get(self, section, key)

    monkeypatch.setattr(cli.RunConfig, "get", spy)
    for i, argv in enumerate(SCHEMA_RUNS):
        rc, _ = run(tmp_path / str(i), *argv)
        assert rc == 0, argv
    shared = {(s, k) for s, k in table if s in ("domain", "sim")}
    assert reads | shared == set(table)


# --set text of an unset start_y (the origin)
UNSET_TEXT = {"start_y": "0.0"}


def _default_text(key, default):
    if default is None:
        return UNSET_TEXT[key]
    if isinstance(default, tuple):
        return ",".join(map(repr, default))
    return repr(default) if isinstance(default, float) else str(default)


# in sandwich mode an unset evaluate.t means 1/sup|beta|, not the default 0.5
DEFAULT_RUNS = [argv for argv in SCHEMA_RUNS if "evaluate.mode=sandwich" not in argv]


@pytest.mark.parametrize("argv", DEFAULT_RUNS,
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(DEFAULT_RUNS)])
def test_every_key_accepts_its_default(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("HARNACK_LAB_SEED", raising=False)
    # regions.solution has no default value: unset means no check
    defaults = [f"{s}.{k}={_default_text(k, d)}" for s, k, _kind, d, _help in SCHEMA
                if (s, k) != ("regions", "solution")]
    rc_a, out_a = run(tmp_path / "a", *argv)
    rc_b, out_b = run(tmp_path / "b", argv[0], *[a for d in defaults for a in ("--set", d)],
                      *argv[1:])
    assert rc_a == rc_b == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
