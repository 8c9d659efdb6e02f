import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from harnack_lab import cli, harnack
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


@pytest.mark.parametrize("beta, message", [
    ("1/y1", "division by zero"),
    ("-1e999", "non-finite value"),
    ("sqrt(y1)", "sqrt of negative value"),
])
def test_check_reports_an_evaluation_failure_and_exits_1(tmp_path, capsys, beta, message):
    rc, out = run(tmp_path, "check", "--set", f"operator.beta={beta}")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation failed at y=(") and message in err
    report = json.loads((out / "hormander_report.json").read_text())
    assert report["pass"] is False and report["min_derivative_mass"] is None
    assert err == f"error: {report['error']}\n"
    # regions raises the same located error and leaves no output directory
    rc, out = run(tmp_path / "regions", "regions", "--set", f"operator.beta={beta}")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation failed at y=(") and message in err
    assert not out.exists()


def test_config_errors_are_aggregated(tmp_path, capsys):
    rc, _ = run(tmp_path, "check",
                "--set", "operator.beta=q1",
                "--set", "sim.dt=fast",
                "--set", "domain.y_outer_radius=-2",
                "--set", "regions.cap=0.5")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("config error:") >= 4
    assert "config error: regions.cap: must be at least 1, got 0.5" in err


@pytest.mark.parametrize("cap", ["-1", "0", "0.5"])
def test_a_regions_cap_below_1_is_a_config_error(tmp_path, capsys, cap):
    # A_d lies in the inner-ball lattice, so no restricted ratio is below 1
    rc, out = run(tmp_path, "regions", "--set", "regions.solution=kolmogorov(10)",
                  "--set", f"regions.cap={cap}")
    assert rc == 2
    assert f"config error: regions.cap: must be at least 1, got {cap}" in capsys.readouterr().err
    assert not out.exists()


def test_make_solution_names_a_start_outside_the_ball(tmp_path, capsys):
    # dim_n = 3: the y-box corner (-1.5, -1.5) lies outside the ball of radius 2
    rc, out = run(tmp_path, "make-solution", "--set", "operator.dim_n=3",
                  "--set", "domain.y_inner_radius=1.5", "--set", "make_solution.grid_nx=2",
                  "--set", "make_solution.grid_ny=2", "--set", "sim.n_paths=10")
    assert rc == 1
    assert capsys.readouterr().err == ("error: start y = (-1.5, -1.5) must lie strictly inside "
                                       "the outer ball of radius 2\n")
    assert not out.exists()


# harnack, counterexample and make-solution have no box keys of their own:
# they work on [domain]'s inner subcylinder
BOX_KEYS = [(command, f"{section}.{key}=0.5", f"{section}.{key}: unknown key")
            for command, section, keys in (
                ("harnack", "harnack", ("sub_x_lo", "sub_x_hi", "sub_y_radius")),
                ("counterexample", "counterexample", ("sub_x_lo", "sub_x_hi", "sub_y_radius")),
                ("make-solution", "make_solution", ("grid_x_lo", "grid_x_hi", "grid_y_radius")))
            for key in keys]


# simulate and evaluate have no start keys of their own: both read sim.start_x
# and sim.start_y
START_KEYS = [(command, f"{command}.{key}=1", f"{command}.{key}: unknown key")
              for command in ("simulate", "evaluate") for key in ("start_x", "start_y")]


@pytest.mark.parametrize("command, item, named", [
    ("counterexample", "counterexample.lambdaz=1,2", "counterexample.lambdaz"),
    ("check", "chek.r=9", "[chek]"),
    ("harnack", "harnack.constants=1,5", "harnack.constants: unknown key"),
    *BOX_KEYS,
    *START_KEYS,
])
def test_unknown_key_or_section_is_an_error(tmp_path, capsys, command, item, named):
    rc, out = run(tmp_path, command, "--set", item)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, env, message", [
    (["--workers", "0"], None, "--workers must be at least 1"),
    ([], "5", "HARNACK_LAB_SEED is not read; set sim.master_seed"),
    (["--set", "sim.dt=0"], None, "sim: dt must be positive"),
    (["--config", "{ini}"], None, "bad config syntax"),
    (["--set", "sim.dt=1e-300"], None,
     "sim: t_max/dt must be under 2**32 steps, got 1e+300 (t_max 1, dt 1e-300)"),
], ids=["workers", "env-seed", "sim-dt", "ini-syntax", "sim-horizon"])
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
    ("simulate", "sim.start_y=1,2", "sim.start_y: expected 1 value(s)"),
    ("evaluate", "evaluate.solution=bogus", "evaluate.solution: unknown solution 'bogus'"),
    ("make-solution", "make_solution.boundary=x+", "make_solution.boundary: unexpected end"),
    ("harnack", "harnack.family=catalog", "harnack.solutions: empty catalog list"),
    ("simulate", "simulate.bins=0", "simulate.bins: must be at least 1, got 0"),
    ("check", "operator.dim_n=1", "operator.dim_n: must be at least 2, got 1"),
    ("evaluate", "evaluate.mode=bogus", "evaluate.mode: expected one of value, sandwich"),
    ("harnack", "harnack.family=constants",
     "harnack.family: expected one of kolmogorov, catalog, got 'constants'"),
], ids=["check", "simulate", "evaluate", "make-solution", "harnack", "simulate-bins",
        "dim-n", "evaluate-mode", "harnack-family"])
def test_checks_across_values_join_the_one_error_pass(tmp_path, capsys, command, item, message):
    rc, out = run(tmp_path, command, "--set", item, "--set", "sim.dt=fast")
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: sim.dt: not a number: 'fast'" in err
    assert f"config error: {message}" in err
    assert not out.exists()


def test_catalog_list_takes_two_argument_names(tmp_path):
    # separable(1.5,2) is one name with two arguments (test_one_operator_per_run);
    # a row name that holds a comma is quoted, so every row has the header's fields
    rc, out = run(tmp_path, "harnack", "--set", "harnack.family=catalog",
                  "--set", "harnack.solutions=separable(1.5),kolmogorov(5)")
    assert rc == 0
    with open(out / "harnack.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][0] == "separable(lambda=1.5,gamma=0)"
    assert rows[1][0] == "kolmogorov(5)"


@pytest.mark.parametrize("argv, code, message", [
    (["harnack", "--set", "operator.beta=1"], 1, "error: kolmogorov(2) solves beta = y1,"),
    (["harnack", "--set", "operator.dim_n=3", "--set", "harnack.family=catalog",
      "--set", "harnack.solutions=kolmogorov(5),constant(2)"], 1,
     "error: kolmogorov(5) solves beta = y1, gamma = 0.0, dim_n = 2, not the configured "
     "beta = y1, gamma = 0.0, dim_n = 3"),
    (["harnack", "--set", "harnack.family=catalog",
      "--set", "harnack.solutions=counterexample(2)"], 1,
     "error: counterexample(2) solves beta = 1.0, gamma = 0.0, dim_n = 2, not the configured "
     "beta = y1, gamma = 0.0, dim_n = 2"),
    (["evaluate", "--set", "operator.beta=1"], 1, "error: kolmogorov(10) solves"),
    (["regions", "--set", "regions.solution=counterexample(1)"], 1,
     "error: counterexample(1) solves"),
    (["average", "--set", "operator.gamma=0.5"], 1,
     "error: kolmogorov(10) solves beta = y1, gamma = 0.0, dim_n = 2, not the configured "
     "beta = y1, gamma = 0.5, dim_n = 2"),
    (["evaluate", *SMALL_SIM, "--set", "operator.beta=1",
      "--set", "evaluate.solution=counterexample(2)"], 0, ""),
    (["harnack", "--set", "harnack.family=catalog", "--set", "harnack.solutions=separable(1.5,2)"],
     2, "config error: harnack.solutions: separable takes 1 to 1 argument(s), got 2"),
], ids=["harnack-beta", "harnack-dim", "harnack-catalog", "evaluate", "regions", "average",
        "evaluate-on-its-operator", "separable-two-arguments"])
def test_one_operator_per_run(tmp_path, capsys, argv, code, message):
    # every catalog solution a command builds must solve [operator]
    rc, out = run(tmp_path, *argv)
    assert rc == code
    assert message in capsys.readouterr().err
    assert out.exists() == (code == 0)


def test_subcommand_help_lists_its_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["harnack", "--help"])
    assert exc.value.code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "harnack.grid" in ln]
    assert len(lines) == 1 and "101" in lines[0]


# a lattice step of 1e-17 asks for about 2.8 EiB, more than any hardware
# address space holds, so the allocation fails at once
@pytest.mark.parametrize("command", ["check", "regions"])
def test_a_lattice_too_large_to_allocate_exits_1(tmp_path, capsys, command):
    rc, out = run(tmp_path, command, "--set", f"{command}.grid_step=1e-17")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# 5e-324 leaves the span over the step infinite: refused before any allocation
@pytest.mark.parametrize("command", ["check", "regions"])
def test_a_lattice_step_with_no_finite_node_count_exits_1(tmp_path, capsys, command):
    rc, out = run(tmp_path, command, "--set", f"{command}.grid_step=5e-324")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a step of 4.94066e-324 over ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --help stdout at 80 columns; main, simulate and evaluate list the start as
# sim.start_x and sim.start_y, main and harnack list no constants family or
# key, the others are as recorded while main still built its argparse tree
# on every call
HELP_SHA = {
    None: "cb49f839c48b0300dafad98dab010dffc273a6bcee22d004c7e3286c0923fa16",
    "check": "20afbafdf5a91e0164c219da82a515ab9890c3768f2ee3bd441feab677bd8bbb",
    "simulate": "a15a4220eb7479e2ada90fefa5b4670131acb15fd0d1645b7c5a58a1803b0148",
    "evaluate": "02ffba685ced78de96613ad313e316ef969bd2e1dad1ea88ebae3a203450ea96",
    "make-solution": "83ee6a7cd658e4ddec058b6bfdd067ceba17cdc3594bc5339d03ae3320caa58b",
    "harnack": "03f18016f6dd3e4143f52b84488c5f5aa3608fddae2738d6a2f375e63ce8d9c3",
    "counterexample": "e9b6ee437fe023c62a0639229622b1e9b42b309d258f5b05ec0d7e904a8c713b",
    "regions": "3da04df3aad42c96ca0b082173f38b4ac2b5e697ef493ea04e83758984a82561",
    "average": "a2f2d433130d2ee5b42c548974cd6bc573854218eddb236d5ba7e4689456e3a0",
}


@pytest.mark.parametrize("command", HELP_SHA, ids=lambda c: c or "main")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):  # the second call reuses whatever the first one built
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert sha(capsys.readouterr().out.encode()) == HELP_SHA[command]


# ``average --svg`` outputs, recorded before the field CSV writer formatted
# each axis value once and window_average_x built its weights in one pass
AVERAGE_SHA = {
    None: ("z=0.25: 105", {
        "average.csv": "38ccd230616d3ab321eb6b2e7cf0ca882bef0ad8b56a78165fc8f7d0c9d47619",
        "average.json": "a1e75a914bd1ed78f1d576fb47cbe928604d95c01c665dc40dab5d0362b3737a",
        "average.svg": "259dd5408baa074374092fe230afc566b27ee126c3f4db9ed2a131889f78d446"}),
    repr(1 / 3): ("z=0.333333: 103", {
        "average.csv": "9937431e5407a423572fbba30e5759d12549f58b6f6b9558cfd3f6f2861703c5",
        "average.json": "508fdd11e3a379b2ae51294610b3264a1d77fa943ac21e9a231ac544fd2b49e6",
        "average.svg": "48545f36f756e4b944fada470d7984313ede866f2275f38bae5c52d1c7f34f82"}),
    "0.05": ("z=0.05: 109", {
        "average.csv": "67f3315bec6e9ad15a7e6211ed9ed0b1d2c784917698fe64b3a35f65c21f3984",
        "average.json": "bef2d64911081afb7be66684b827663c7631f30d2e75f83b7705c52473a5b1b0",
        "average.svg": "a08e1bb95f451773bf0c978e5ce71638bcf26d7a2dfb61b7ca874d4b6b5add6b"}),
}


@pytest.mark.parametrize("z", AVERAGE_SHA, ids=lambda z: f"z={z or 'default'}")
def test_average_bytes_are_pinned(tmp_path, capsys, z):
    rc, out = run(tmp_path, "average", "--svg", *(["--set", f"average.z={z}"] if z else []))
    assert rc == 0
    said, want = AVERAGE_SHA[z]
    assert capsys.readouterr().out == (f"window average of kolmogorov(10) with {said} "
                                       "x-node(s) kept\n")
    assert {p.name: sha(p.read_bytes()) for p in out.iterdir()} == want


DEFAULT_CHECK_SHA = "c9310bd89490d721b1a523a89d02903fc37d2e653f5cfceaaeddfd4dca9d45e3"


# outputs of the deterministic grid work: the check lattices, the catalog
# samples and the separable profiles; recorded before the ball lattice and
# the samples were built from their axes and the RK4 sweep hoisted its
# constants, except harnack.csv of harnack-separable and both average-separable
# files, recorded again when the sweep became per-step increments (its
# profiles moved at rounding level)
GRID_SHA = {
    "check-2": (["check"], "hypothesis pass: r=2 min_derivative_mass=1\n", {
        "hormander_report.json": DEFAULT_CHECK_SHA}),
    "check-3": (["check", "--set", "operator.dim_n=3",
                 "--set", "operator.beta=sin(1.3*y1)*y2 + 0.7*y1"],
                "hypothesis pass: r=2 min_derivative_mass=1.302\n", {
        "hormander_report.json": "722c1a3e688d41210530c72acace72791bde168f371bde27a23e7e1aafc494fa"}),
    "harnack-separable": (["harnack", "--svg", "--set", "harnack.family=catalog",
                           "--set", "harnack.solutions=separable(0.8),separable(-1.6)"],
                          "family catalog: max sup/inf ratio 8.49237 over 2 solution(s)\n", {
        "harnack.csv": "945242239a48347ffc1e7a2065d6f8ca2d7560980f173240a5f5db158425ed15",
        "harnack.json": "21c33a1b7eb5aa7f4f1900a522f8684281c41988ec6167fb6e86e0cae0693fd3",
        "harnack.svg": "0ba6804cf4ff7729df7e8ecc5369343d0431c7fb84a07ead3390cbdea1e4ae99"}),
    "regions-kolmogorov": (["regions", "--set", "regions.solution=kolmogorov(20)"],
                           "restricted ratio 1.06698 vs cap 10: pass\n"
                           "level 0.5: 49 plus node(s), 49 minus node(s)\n", {
        "regions.csv": "611f1aeac3d120c6bcaca9c1588f65298dff2a24f17fa75a6160a6f721a362b5",
        "regions.json": "1c36d4703d760a8899f6d5bfb6c775f8b9cdd3be4640106b3d3e015185446779"}),
    "average-constant": (["average", "--set", "average.solution=constant(2)"],
                         "window average of constant(2) with z=0.25: 105 x-node(s) kept\n", {
        "average.csv": "b9af71a8f2fa823483b1aed9cbce878759fdb2b9173fe9199528af39c0196b89",
        "average.json": "5a46b65df63ad429648440b5bed041a60fbbd80ab5e10657ef34903ac9bba4ba"}),
    "average-separable": (["average", "--set", "average.solution=separable(1.2)"],
                          "window average of separable(lambda=1.2,gamma=0) with z=0.25: "
                          "105 x-node(s) kept\n", {
        "average.csv": "19af384fe022cef09dfdb77beeb028205f9e7d0c80371effcedacb25938d3cce",
        "average.json": "eab07eb66e523759515748815ff76d3ec12e86d55074bd75a0e2c3c7fcbae2a5"}),
}


@pytest.mark.parametrize("case", GRID_SHA)
def test_grid_work_bytes_are_pinned(tmp_path, capsys, case):
    argv, said, want = GRID_SHA[case]
    rc, out = run(tmp_path, *argv)
    assert rc == 0
    assert capsys.readouterr().out == said
    assert {p.name: sha(p.read_bytes()) for p in out.iterdir()} == want


def test_in_process_runs_share_one_parser_and_no_state(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "harnack-lab":  # the top level; subparsers add the command
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    reports = []
    for i, argv in enumerate([["check", "--set", "operator.beta=y1+1"],
                              ["check", "--set", "operator.beta=2*y1"],
                              ["check"]]):
        assert run(tmp_path / str(i), *argv)[0] == 0
        reports.append(sha((tmp_path / str(i) / "out" / "hormander_report.json").read_bytes()))
    assert len(built) <= 1
    # an earlier run's --set values do not leak into a later plain run
    assert reports[1] != DEFAULT_CHECK_SHA
    assert reports[2] == DEFAULT_CHECK_SHA


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
                  "--set", "sim.start_x=1.25")
    assert rc == 0
    lines = (out / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,stopped_x,stopped_y1,stop_time,gamma_integral,exited"
    assert len(lines) == 1 + 300
    xs = {line.split(",")[1] for line in lines[1:]}
    assert xs == {"1.25"}


@pytest.mark.parametrize("argv, names", [
    (["simulate"], ("paths.csv", "measure.csv")),
    (["evaluate"], ("evaluate.json",)),
    (["evaluate", "--set", "evaluate.mode=sandwich"], ("evaluate.json",)),
], ids=["simulate", "evaluate-value", "evaluate-sandwich"])
def test_simulate_rerun_bitwise_identical(tmp_path, argv, names):
    seed = ["--set", "sim.master_seed=7"]
    rc_a, out_a = run(tmp_path / "a", *argv, *SMALL_SIM, *seed)
    rc_b, out_b = run(tmp_path / "b", *argv, *SMALL_SIM, *seed, "--workers", "4")
    assert rc_a == rc_b == 0
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# outputs from a start off the origin at 3,000 paths, recorded when simulate
# and evaluate each read their own start_x and start_y keys; the paths.csv
# digests since a path's y became its start plus its key's Brownian sum
START_SHA = {
    "simulate": (["simulate", "--set", "sim.start_x=1.25", "--set", "sim.start_y=0.5"], {
        "measure.csv": "da83fece469d6a53c1b83632aed85a155c66783f520f10ed34a61fa360dc4434",
        "paths.csv": "cc82f68be74109e8a6db67e7f215db6c08612a66a0e681a2d071d100d0432137"}),
    "simulate-3d": (["simulate", "--set", "operator.dim_n=3", "--set", "sim.start_x=-2",
                     "--set", "sim.start_y=0.3,-0.4"], {
        "measure.csv": "834e528e8017d46b1d62312281c1acfb338ca9d29e567b4e2d8d4a24e6848df5",
        "paths.csv": "ed94c4d501eca4441eac995f17a8cb1e191f45d0041fe1dc61fd44d6b0ad0e84"}),
    "evaluate-value": (["evaluate", "--set", "sim.start_x=0.4", "--set", "sim.start_y=-0.6"], {
        "evaluate.json": "97089603ab9782e985280c479ae2f8fbbc7edd8c33b13dbc51b9b5702256dd28"}),
    "evaluate-sandwich": (["evaluate", "--set", "evaluate.mode=sandwich",
                           "--set", "sim.start_x=0.4", "--set", "sim.start_y=-0.6"], {
        "evaluate.json": "50dd65acd2d253d14438afb5b4dc87a8d4f1bd7cbf19540d54b5d4fcc459683d"}),
}


@pytest.mark.parametrize("case", START_SHA)
def test_start_bytes_are_pinned(tmp_path, case):
    argv, want = START_SHA[case]
    rc, out = run(tmp_path, *argv, "--set", "sim.n_paths=3000")
    assert rc == 0
    assert {p.name: sha(p.read_bytes()) for p in out.iterdir()} == want


def test_seed_sources(tmp_path):
    ini = tmp_path / "seed.ini"
    ini.write_text("[sim]\nmaster_seed = 5\n")
    _, out_file = run(tmp_path / "file", "simulate", *SMALL_SIM, "--config", str(ini))
    _, out_set = run(tmp_path / "set", "simulate", *SMALL_SIM, "--set", "sim.master_seed=5")
    # --set beats the file
    _, out_both = run(tmp_path / "both", "simulate", *SMALL_SIM, "--config", str(ini),
                      "--set", "sim.master_seed=8")
    _, out_other = run(tmp_path / "other", "simulate", *SMALL_SIM, "--set", "sim.master_seed=8")
    file_bytes = (out_file / "paths.csv").read_bytes()
    assert file_bytes == (out_set / "paths.csv").read_bytes()
    other_bytes = (out_other / "paths.csv").read_bytes()
    assert (out_both / "paths.csv").read_bytes() == other_bytes
    assert file_bytes != other_bytes


@pytest.mark.parametrize("argv, env, want", [
    (["simulate", *SMALL_SIM, "--seed", "5"], None, "unrecognized arguments: --seed 5"),
    (["simulate", *SMALL_SIM], "5", "set sim.master_seed"),
    (["average", "--set", "domain.y_outer_radius=2.5", "--set", "domain.x_hi=3"], None, None),
], ids=["seed-flag", "seed-env", "average-domain"])
def test_a_run_reads_only_its_config(tmp_path, capsys, monkeypatch, argv, env, want):
    # the seed is sim.master_seed alone, and average samples [domain]'s cylinder
    if env is None:
        monkeypatch.delenv("HARNACK_LAB_SEED", raising=False)
    else:
        monkeypatch.setenv("HARNACK_LAB_SEED", env)
    try:
        rc, out = run(tmp_path, *argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        rc, out = exc.code, tmp_path / "out"
    if want is not None:
        assert rc == 2
        assert want in capsys.readouterr().err
        assert not out.exists()
        return
    assert rc == 0
    head = json.loads((out / "average.json").read_text())
    assert head["axis_lo"][1] == -2.5 and head["axis_hi"][1] == 2.5
    assert -5.0 <= head["axis_lo"][0] < head["axis_hi"][0] <= 3.0


@pytest.mark.parametrize("argv, key, text", [
    (["simulate", "--set", "sim.t_max=inf"], "sim.t_max", "inf"),
    (["make-solution", "--set", "make_solution.t_solve=inf"], "make_solution.t_solve", "inf"),
    (["evaluate", "--set", "evaluate.t=inf"], "evaluate.t", "inf"),
    (["evaluate", "--set", "evaluate.mode=sandwich", "--set", "evaluate.k_sigma=inf"],
     "evaluate.k_sigma", "inf"),
    (["simulate", *SMALL_SIM, "--set", "sim.start_x=nan"], "sim.start_x", "nan"),
    (["regions", "--set", "regions.d=nan"], "regions.d", "nan"),
    (["check", "--set", "check.grid_step=nan"], "check.grid_step", "nan"),
    (["harnack", "--set", "harnack.offsets=2,-inf"], "harnack.offsets", "2,-inf"),
    (["average", "--set", "average.solution=separable(nan)"], "average.solution", "nan"),
    (["average", "--set", "average.solution=kolmogorov(inf)"], "average.solution", "inf"),
    (["regions", "--set", "regions.solution=constant(inf)"], "regions.solution", "inf"),
    (["harnack", "--set", "harnack.family=catalog",
      "--set", "harnack.solutions=separable(1.5),separable( -inf )"], "harnack.solutions", "-inf"),
], ids=["t_max", "t_solve", "evaluate-t", "k_sigma", "start_x", "regions-d", "grid_step",
        "offsets", "separable-nan", "kolmogorov-inf", "constant-inf", "catalog-list"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, key, text):
    rc, out = run(tmp_path, *argv)
    assert rc == 2
    assert f"config error: {key}: not a finite number: {text!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, text", [
    ("harnack", "harnack.offsets", "5,,7"),
    ("harnack", "harnack.offsets", ""),
    ("harnack", "harnack.offsets", "1,5,"),
    ("counterexample", "counterexample.lambdas", ",1"),
    ("simulate", "sim.start_y", " "),
], ids=["inner", "whole-list", "trailing", "leading", "blank"])
def test_empty_number_list_entry_exits_2(tmp_path, capsys, command, key, text):
    rc, out = run(tmp_path, command, "--set", f"{key}={text}")
    assert rc == 2
    # --set strips the value around "="
    want = f"{key}: empty entry in a number list: {text.strip()!r}"
    assert want in capsys.readouterr().err
    assert not out.exists()


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


CONSTANTS = ["--set", "harnack.family=catalog",
             "--set", "harnack.solutions=constant(1),constant(5),constant(100)"]


def test_harnack_constants_family(tmp_path):
    # the catalog of constants writes the harnack.csv bytes of the constants
    # family it replaced, recorded before that family went
    rc, out = run(tmp_path, "harnack", *CONSTANTS)
    assert rc == 0
    payload = json.loads((out / "harnack.json").read_text())
    assert payload == {"family": "catalog", "max_ratio": 1.0, "verdict": None}
    assert sha((out / "harnack.csv").read_bytes()) == (
        "c8602f7cb069e222617d542956629be77c0fb4997c85a464db64e876768c0ddd")


@pytest.mark.parametrize("argv", [
    ["harnack", "--set", "harnack.family=catalog", "--set", "harnack.solutions=constant(2)"],
    ["regions", "--set", "regions.solution=constant(2)"],
], ids=["harnack", "regions"])
def test_constant_solutions_need_the_configured_gamma_zero(tmp_path, capsys, argv):
    rc, _ = run(tmp_path, *argv, "--set", "operator.gamma=0.5")
    assert rc == 1
    assert "only when gamma = 0" in capsys.readouterr().err


def test_constant_family_lives_on_the_configured_dimension(tmp_path):
    rc, out = run(tmp_path, "harnack", "--set", "harnack.family=catalog",
                  "--set", "harnack.solutions=constant(2)", "--set", "operator.dim_n=3")
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


def test_regions_with_a_solution_classifies_once(tmp_path, monkeypatch):
    # the restricted check reads A_d off the RegionSet that regions.csv is
    # written from
    calls = []
    classify = cli.classify_regions

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(cli, "classify_regions", counted)
    monkeypatch.setattr(harnack, "classify_regions", counted)
    rc, out = run(tmp_path, "regions", "--set", "regions.solution=kolmogorov(10)")
    assert rc == 0
    assert len(calls) == 1
    assert "check" in json.loads((out / "regions.json").read_text())


@pytest.mark.parametrize("items", [
    ["regions.solution=kolmogorov(0)"],
    ["regions.d=5", "regions.solution=kolmogorov(10)"],
], ids=["not-positive", "empty-drift-regions"])
def test_regions_rejected_solution_writes_no_file(tmp_path, capsys, items):
    rc, out = run(tmp_path, "regions", *[a for item in items for a in ("--set", item)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_regions_lattice_must_resolve_the_inner_ball(tmp_path, capsys):
    rc, out = run(tmp_path, "regions", "--set", "regions.grid_step=5")
    assert rc == 1
    assert "resolve the inner ball with at least 10 points" in capsys.readouterr().err
    assert not out.exists()


def test_harnack_grid_with_an_empty_ball_fails_cleanly(tmp_path, capsys):
    rc, out = run(tmp_path, "harnack", "--set", "operator.dim_n=3",
                  "--set", "harnack.family=catalog", "--set", "harnack.solutions=constant(2)",
                  "--set", "harnack.grid=2")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid 2 leaves the closed y-ball") and "Traceback" not in err
    assert not out.exists()


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


def test_separable_overflowing_off_the_inner_interval_fails_without_a_warning(tmp_path, capsys):
    # on beta = y1^2, separable(-5e5)'s profile grows like cosh and overflows
    # past |y| ~ 1.3 while it is finite and positive on the inner interval
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(tmp_path, "average", "--set", "operator.beta=y1^2",
                      "--set", "average.solution=separable(-5e5)")
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("error: separable(lambda=-500000,gamma=0) is not finite "
                                       "on its certified region: nan at (-5, -2)\n")
    assert not out.exists()


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
    ["harnack", *CONSTANTS],
    ["harnack", "--set", "harnack.family=catalog", "--set", "harnack.solutions=kolmogorov(5)"],
    ["counterexample"],
    ["regions"],
    ["regions", "--set", "regions.solution=kolmogorov(10)"],
    ["average"],
]


def test_schema_is_the_only_config_schema(tmp_path, monkeypatch):
    table = {(s, k): default for s, k, _kind, default, _help in SCHEMA}
    assert len(table) == len(SCHEMA)
    # the domain keys are exactly the fields of CylinderDomain, and the sim
    # keys those of SimConfig plus the start of simulate and evaluate
    for section, cls, extra in (("domain", CylinderDomain, set()),
                                ("sim", SimConfig, {"start_x", "start_y"})):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert {k for s, k in table if s == section} == fields | extra
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
