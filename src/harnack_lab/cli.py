"""Command-line runner: wires an INI config plus flag overrides into the
library modules and writes machine-readable reports.

Subcommands: check, simulate, evaluate, make-solution, harnack,
counterexample, regions, average.  Every run is reproducible: outputs are a
pure function of (config, seed), independent of --workers, and contain no
timestamps.  Exit codes: 0 success/pass, 1 domain-level failure (hypothesis
fails, sandwich fails, positivity violated), 2 usage or config error.

Config layout (all keys optional; shown with defaults):

    [operator]              [domain]                [sim]
    beta = y1               x_lo = -5               dt = 0.001
    gamma = 0               x_hi = 6                t_max = 1.0
    dim_n = 2               inner_x_lo = 0          n_paths = 100000
                            inner_x_hi = 1          master_seed = 0
                            y_outer_radius = 2
                            y_inner_radius = 1

plus one section per subcommand (see the command functions below).  Any
key is overridable with --set SECTION.KEY=VALUE; --seed overrides
sim.master_seed; the HARNACK_LAB_SEED environment variable is the fallback
when neither is given.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import expressions
from .feynman_kac import evaluate as fk_evaluate
from .feynman_kac import make_solution, sandwich_check
from .fields import FLOAT_FMT, box_axes, heatmap_svg, write_csv, write_json
from .harnack import (
    SubCylinder,
    counterexample_scan,
    ratio_plot_svg,
    region_inequality_check,
    scan_family,
    scan_to_csv,
    window_average_x,
)
from .operators import (
    CylinderDomain,
    OperatorSpec,
    check_hypothesis,
    classify_regions,
)
from .sde import SimConfig, measure_from_batch, simulate_batch
from .solutions import catalog_entry, constant, kolmogorov_poly, parse_solution_name

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(Exception):
    """Aggregated configuration problems; maps to exit code 2."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class RunConfig:
    """Merged view of config file, --set overrides, flags, and environment."""

    def __init__(self, args):
        errors = []
        sections: dict[str, dict[str, str]] = {}

        if args.config is not None:
            parser = configparser.ConfigParser(interpolation=None)
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    parser.read_file(fh)
                sections = {s: dict(parser.items(s)) for s in parser.sections()}
            except OSError as exc:
                errors.append(f"cannot read config {args.config}: {exc.strerror}")
            except configparser.Error as exc:
                errors.append(f"bad config syntax: {exc}")

        for item in args.overrides:
            head, eq, value = item.partition("=")
            section, dot, key = head.partition(".")
            if not eq or not dot or not section or not key:
                errors.append(f"--set needs SECTION.KEY=VALUE, got {item!r}")
                continue
            sections.setdefault(section.strip(), {})[key.strip()] = value.strip()

        self.sections = sections
        self._errors = errors
        self.out_dir = Path(args.out)
        self.svg = bool(args.svg)
        self.workers = args.workers
        if self.workers < 1:
            errors.append("--workers must be at least 1")

        seed = args.seed
        if seed is None and "master_seed" in sections.get("sim", {}):
            seed = self._parse_int("sim", "master_seed", 0)
        if seed is None and "HARNACK_LAB_SEED" in os.environ:
            raw = os.environ["HARNACK_LAB_SEED"]
            try:
                seed = int(raw)
            except ValueError:
                errors.append(f"HARNACK_LAB_SEED must be an integer, got {raw!r}")
        if seed is None:
            seed = 0
        if not 0 <= seed < 2**64:
            errors.append(f"seed must be an unsigned 64-bit integer, got {seed}")
            seed = 0
        self.seed = seed

        # each block validates independently so one bad value does not hide
        # problems elsewhere; everything is reported in one pass
        beta = self.get("operator", "beta", "y1")
        gamma = self.get("operator", "gamma", "0")
        dim_n = self._parse_int("operator", "dim_n", 2)
        self.op = None
        try:
            self.op = OperatorSpec.from_strings(beta, gamma, dim_n=max(dim_n, 2))
        except (expressions.ExprError, ValueError) as exc:
            errors.append(f"operator: {exc}")
        if dim_n < 2:
            errors.append(f"operator.dim_n: must be at least 2, got {dim_n}")

        dom_kwargs = {}
        for key in ("x_lo", "x_hi", "inner_x_lo", "inner_x_hi",
                    "y_outer_radius", "y_inner_radius"):
            if key in sections.get("domain", {}):
                dom_kwargs[key] = self._parse_float("domain", key, 0.0)
        self.dom = None
        try:
            self.dom = CylinderDomain(**dom_kwargs)
        except ValueError as exc:
            errors.append(f"domain: {exc}")

        self.sim = None
        try:
            self.sim = SimConfig(
                t_max=self._parse_float("sim", "t_max", 1.0),
                dt=self._parse_float("sim", "dt", 1e-3),
                n_paths=self._parse_int("sim", "n_paths", 100_000),
                master_seed=self.seed if 0 <= self.seed < 2**64 else 0,
            )
        except ValueError as exc:
            errors.append(f"sim: {exc}")

        if errors:
            raise ConfigError(errors)

    # -- typed getters; failures raise ConfigError with the offending key ----

    def get(self, section, key, default):
        return self.sections.get(section, {}).get(key, default)

    def _parse_float(self, section, key, default):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self._errors.append(f"{section}.{key}: not a number: {raw!r}")
            return default

    def _parse_int(self, section, key, default):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self._errors.append(f"{section}.{key}: not an integer: {raw!r}")
            return default

    def req_float(self, section, key, default):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError([f"{section}.{key}: not a number: {raw!r}"]) from None

    def req_int(self, section, key, default):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError([f"{section}.{key}: not an integer: {raw!r}"]) from None

    def req_floats(self, section, key, default):
        raw = self.get(section, key, None)
        if raw is None:
            return list(default)
        try:
            return [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError([f"{section}.{key}: not a number list: {raw!r}"]) from None

    def start_point(self, section):
        x = self.req_float(section, "start_x", 0.0)
        ys = self.req_floats(section, "start_y", [0.0] * self.op.n_y)
        if len(ys) != self.op.n_y:
            raise ConfigError([f"{section}.start_y: expected {self.op.n_y} value(s)"])
        return x, np.array(ys)

    def subcylinder(self, section):
        return SubCylinder(
            self.req_float(section, "sub_x_lo", self.dom.inner_x_lo),
            self.req_float(section, "sub_x_hi", self.dom.inner_x_hi),
            self.req_float(section, "sub_y_radius", self.dom.y_inner_radius),
        )

    def solution(self, text):
        """Catalog solution with parse problems reported as config errors."""
        try:
            parse_solution_name(text)
        except ValueError as exc:
            raise ConfigError([str(exc)]) from None
        return catalog_entry(text, op=self.op, dom=self.dom)

    def boundary_fn(self, text):
        names = ("x",) + self.op.y_names
        try:
            expr = expressions.parse(text, names)
        except expressions.ExprError as exc:
            raise ConfigError([f"boundary data: {exc}"]) from None

        def fn(x, y):
            env = {"x": x}
            env.update({n: y[:, k] for k, n in enumerate(self.op.y_names)})
            return expressions.evaluate(expr, env)

        return fn


# -- commands ----------------------------------------------------------------


def cmd_check(cfg: RunConfig) -> int:
    """[check] r = 2, grid_step = 0.01 -> hormander_report.json"""
    order = cfg.req_int("check", "r", 2)
    if not 1 <= order <= 4:
        raise ConfigError([f"check.r: order must be between 1 and 4, got {order}"])
    grid_step = cfg.req_float("check", "grid_step", 0.01)
    report = check_hypothesis(cfg.op, cfg.dom, order=order, grid_step=grid_step)
    write_json(cfg.out_dir / "hormander_report.json", report.to_json_dict())
    status = "pass" if report.passed else "fail"
    print(f"hypothesis {status}: r={order} min_derivative_mass={report.min_derivative_mass:g}")
    return 0 if report.passed else 1


def cmd_simulate(cfg: RunConfig) -> int:
    """[simulate] start_x, start_y, bins = 20 -> paths.csv, measure.csv"""
    start = cfg.start_point("simulate")
    bins = cfg.req_int("simulate", "bins", 20)
    batch = simulate_batch(cfg.op, cfg.dom, start, cfg.sim, workers=cfg.workers)
    batch.to_csv(cfg.out_dir / "paths.csv")
    measure = measure_from_batch(batch, cfg.dom, bins)
    measure.to_csv(cfg.out_dir / "measure.csv")
    exited = float(np.mean(batch.exited))
    print(f"simulated {batch.n_paths} paths: mean stop_time "
          f"{float(np.mean(batch.stop_time)):.6g}, exited {exited:.1%}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """[evaluate] solution, start_x/start_y, t, mode = value|sandwich,
    k_sigma = 3 -> evaluate.json"""
    mode = cfg.get("evaluate", "mode", "value")
    if mode not in ("value", "sandwich"):
        raise ConfigError([f"evaluate.mode: expected value or sandwich, got {mode!r}"])
    sol = cfg.solution(cfg.get("evaluate", "solution", "kolmogorov(10)"))
    start = cfg.start_point("evaluate")
    payload = {"mode": mode, "solution": sol.name,
               "start": [start[0], *map(float, start[1])]}

    if mode == "value":
        t = cfg.req_float("evaluate", "t", 0.5)
        est = fk_evaluate(sol.op, cfg.dom, sol, start, t, cfg.sim, workers=cfg.workers)
        payload["estimate"] = est.to_json_dict()
        write_json(cfg.out_dir / "evaluate.json", payload)
        print(f"value {est.value:.6g} +/- {est.std_error:.3g} (t={t:g})")
        return 0

    t = cfg.req_float("evaluate", "t", None)
    rep = sandwich_check(sol.op, cfg.dom, sol, start, t=t, cfg=cfg.sim,
                         k_sigma=cfg.req_float("evaluate", "k_sigma", 3.0),
                         workers=cfg.workers)
    payload.update(rep.to_json_dict())
    write_json(cfg.out_dir / "evaluate.json", payload)
    status = "pass" if rep.passed else "fail"
    print(f"sandwich {status}: {rep.lower:.6g} <= {rep.value_at_start:.6g} "
          f"<= {rep.upper:.6g} (t={rep.estimate.horizon:g})")
    return 0 if rep.passed else 1


def cmd_make_solution(cfg: RunConfig) -> int:
    """[make_solution] boundary = 1 (expression in x, y1, ...), t_solve = 2,
    grid_x_lo/hi, grid_nx = 11, grid_y_radius, grid_ny = 11
    -> solution.csv, solution.json [, solution.svg]"""
    g = cfg.boundary_fn(cfg.get("make_solution", "boundary", "1"))
    t_solve = cfg.req_float("make_solution", "t_solve", 2.0)
    nx = cfg.req_int("make_solution", "grid_nx", 11)
    ny = cfg.req_int("make_solution", "grid_ny", 11)
    axes = box_axes(
        cfg.req_float("make_solution", "grid_x_lo", cfg.dom.inner_x_lo),
        cfg.req_float("make_solution", "grid_x_hi", cfg.dom.inner_x_hi),
        nx,
        cfg.req_float("make_solution", "grid_y_radius", cfg.dom.y_inner_radius),
        ny,
        n_y_axes=cfg.op.n_y,
    )
    field = make_solution(cfg.op, cfg.dom, g, t_solve, cfg.sim, axes,
                          workers=cfg.workers, name="fk_solution")
    if not np.all(field.values > 0):
        raise ValueError("manufactured field is not positive; boundary data must be > 0")
    field.save(cfg.out_dir, "solution")
    if cfg.svg and cfg.op.n_y == 1:
        (cfg.out_dir / "solution.svg").write_text(
            heatmap_svg(field, title="fk_solution"), encoding="ascii")
    print(f"solution field on {'x'.join(str(len(a)) for a in field.axes)} grid: "
          f"min {field.values.min():.6g}, max {field.values.max():.6g}")
    return 0


def _family_solutions(cfg: RunConfig):
    family = cfg.get("harnack", "family", "kolmogorov")
    if family == "constants":
        values = cfg.req_floats("harnack", "constants", [1.0, 5.0, 100.0])
        return family, [constant(c, dom=cfg.dom) for c in values]
    if family == "kolmogorov":
        offsets = cfg.req_floats("harnack", "offsets", [2.0, 5.0, 10.0, 100.0])
        return family, [kolmogorov_poly(c) for c in offsets]
    if family == "catalog":
        names = [s.strip() for s in cfg.get("harnack", "solutions", "").split(",")
                 if s.strip()]
        if not names:
            raise ConfigError(["harnack.solutions: empty catalog list"])
        return family, [cfg.solution(n) for n in names]
    raise ConfigError(
        [f"harnack.family: expected constants, kolmogorov, or catalog, got {family!r}"])


def cmd_harnack(cfg: RunConfig) -> int:
    """[harnack] family = kolmogorov | constants | catalog, offsets/constants/
    solutions, sub_*, grid = 101 -> harnack.csv, harnack.json [, harnack.svg]"""
    family, solutions = _family_solutions(cfg)
    sub = cfg.subcylinder("harnack")
    grid = cfg.req_int("harnack", "grid", 101)
    scan = scan_family(solutions, sub, grid, family=family)
    scan_to_csv(scan, cfg.out_dir / "harnack.csv")
    write_json(cfg.out_dir / "harnack.json", scan.to_json_dict())
    if cfg.svg:
        (cfg.out_dir / "harnack.svg").write_text(ratio_plot_svg(scan), encoding="ascii")
    print(f"family {family}: max sup/inf ratio {scan.max_ratio:.6g} "
          f"over {len(scan.reports)} solution(s)")
    return 0


def cmd_counterexample(cfg: RunConfig) -> int:
    """[counterexample] lambdas = 1,2,4,8, sub_*, grid = 101
    -> counterexample.csv, counterexample.json [, counterexample.svg]"""
    lams = cfg.req_floats("counterexample", "lambdas", [1.0, 2.0, 4.0, 8.0])
    sub = SubCylinder(
        cfg.req_float("counterexample", "sub_x_lo", cfg.dom.inner_x_lo),
        cfg.req_float("counterexample", "sub_x_hi", cfg.dom.inner_x_hi),
        cfg.req_float("counterexample", "sub_y_radius", cfg.dom.y_inner_radius),
    )
    grid = cfg.req_int("counterexample", "grid", 101)
    scan = counterexample_scan(lams, sub, grid, dom=cfg.dom)
    scan_to_csv(scan, cfg.out_dir / "counterexample.csv")
    write_json(cfg.out_dir / "counterexample.json", scan.to_json_dict())
    if cfg.svg:
        (cfg.out_dir / "counterexample.svg").write_text(
            ratio_plot_svg(scan), encoding="ascii")
    print(f"counterexample scan over {len(lams)} lambda(s): "
          f"max ratio {scan.max_ratio:.6g}, verdict {scan.verdict}")
    return 0


def cmd_regions(cfg: RunConfig) -> int:
    """[regions] d = 0.5, grid_step = 0.01 [, solution + cap]
    -> regions.csv, regions.json"""
    level = cfg.req_float("regions", "d", 0.5)
    grid_step = cfg.req_float("regions", "grid_step", 0.01)
    regions = classify_regions(cfg.op, cfg.dom, level, grid_step)

    names = [f"y{k+1}" for k in range(cfg.op.n_y)]
    fmt = ",".join(["%s"] + [FLOAT_FMT] * cfg.op.n_y)
    rows = [("plus", *p) for p in regions.plus_points.tolist()]
    rows += [("minus", *p) for p in regions.minus_points.tolist()]
    write_csv(cfg.out_dir / "regions.csv", ["side"] + names, fmt, rows)

    payload = {
        "level": regions.level,
        "grid_step": regions.grid_step,
        "plus_count": regions.plus_count,
        "minus_count": regions.minus_count,
        "warning": regions.warning,
    }
    exit_code = 0
    sol_text = cfg.get("regions", "solution", None)
    if sol_text is not None:
        cap = cfg.req_float("regions", "cap", 10.0)
        check = region_inequality_check(
            cfg.solution(sol_text), cfg.op, cfg.dom, level, cap, grid_step)
        payload["check"] = check.to_json_dict()
        exit_code = 0 if check.passed else 1
        print(f"restricted ratio {check.ratio:.6g} vs cap {cap:g}: "
              f"{'pass' if check.passed else 'fail'}")
    write_json(cfg.out_dir / "regions.json", payload)
    print(f"level {level:g}: {regions.plus_count} plus node(s), "
          f"{regions.minus_count} minus node(s)")
    return exit_code


def cmd_average(cfg: RunConfig) -> int:
    """[average] solution = kolmogorov(10), z = 0.25, grid_nx = 111,
    grid_ny = 61 -> average.csv, average.json [, average.svg]"""
    sol = cfg.solution(cfg.get("average", "solution", "kolmogorov(10)"))
    z = cfg.req_float("average", "z", 0.25)
    nx = cfg.req_int("average", "grid_nx", 111)
    ny = cfg.req_int("average", "grid_ny", 61)
    field = sol.as_field(nx, ny)
    averaged = window_average_x(field, z)
    averaged.save(cfg.out_dir, "average")
    if cfg.svg and averaged.n_y == 1:
        (cfg.out_dir / "average.svg").write_text(
            heatmap_svg(averaged, title=averaged.name), encoding="ascii")
    print(f"window average of {sol.name} with z={z:g}: "
          f"{len(averaged.axes[0])} x-node(s) kept")
    return 0


COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "make-solution": cmd_make_solution,
    "harnack": cmd_harnack,
    "counterexample": cmd_counterexample,
    "regions": cmd_regions,
    "average": cmd_average,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="harnack-lab",
        description="Simulation and verification toolkit for degenerate-drift "
                    "elliptic operators on a cylinder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").split("->")[0].strip())
        p.add_argument("--config", type=Path, default=None,
                       help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config and environment)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads; never changes output bytes")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")
        p.add_argument("--svg", action="store_true",
                       help="also emit SVG plots")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except (ValueError, expressions.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
