"""Command-line runner: wires an INI config plus flag overrides into the
library modules and writes machine-readable reports.

Outputs are a pure function of the config (the seed is sim.master_seed),
independent of --workers, and contain no timestamps.  Exit codes: 0
success/pass, 1 domain-level failure (hypothesis fails, sandwich fails,
positivity violated, a grid too large to allocate), 2 usage or config
error.  ``SCHEMA`` declares every config key.  A value comes from, in
rising precedence, its default, --config and --set SECTION.KEY=VALUE;
nothing else enters a run.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import expressions
from .feynman_kac import evaluate as fk_evaluate, make_solution, sandwich_check
from .fields import FLOAT_FMT, box_axes, heatmap_svg, write_csv, write_json, write_text
from .harnack import (SubCylinder, counterexample_scan, ratio_plot_svg, region_inequality_check,
                      scan_family, scan_to_csv, window_average_x)
from .operators import CylinderDomain, OperatorSpec, check_hypothesis, classify_regions
from .sde import SimConfig, measure_from_batch, simulate_batch
# ``constant`` stays bound here for perfbench, which wraps it at this lookup site
from .solutions import catalog_entry, constant, kolmogorov_poly, parse_solution_name

__all__ = ["main", "RunConfig", "ConfigError"]

FLOATS = "floats"  # type of a comma-separated list of numbers

# (section, key, type, default, help).  The type is float, int, str, FLOATS
# or a tuple of allowed strings; a default of None is resolved as the help
# says.  The domain keys are the fields of CylinderDomain, the sim keys those
# of SimConfig plus the start of simulate and evaluate; a subcommand reads the
# section named after it.
SCHEMA = [
    ("operator", "beta", str, "y1", "drift beta(y1, ...)"),
    ("operator", "gamma", str, "0", "zero-order coefficient gamma(x, y1, ...)"),
    ("operator", "dim_n", int, 2, "dimension: x plus dim_n - 1 y axes"),
    ("domain", "x_lo", float, -5.0, "lower x end of the cylinder"),
    ("domain", "x_hi", float, 6.0, "upper x end of the cylinder"),
    ("domain", "inner_x_lo", float, 0.0, "lower x end of the inner subcylinder"),
    ("domain", "inner_x_hi", float, 1.0, "upper x end of the inner subcylinder"),
    ("domain", "y_outer_radius", float, 2.0, "radius of the y ball where paths stop"),
    ("domain", "y_inner_radius", float, 1.0, "y radius of the inner subcylinder"),
    ("sim", "dt", float, 1e-3, "time step"),
    ("sim", "t_max", float, 1.0, "horizon of simulate"),
    ("sim", "n_paths", int, 100_000, "paths per start"),
    ("sim", "master_seed", int, 0, "master seed of every path stream"),
    ("sim", "start_x", float, 0.0, "start x of simulate and evaluate"),
    ("sim", "start_y", FLOATS, None, "start y, one value per y axis (default: origin)"),
    ("check", "r", int, 2, "derivative order, 1 to 4"),
    ("check", "grid_step", float, 0.01, "y grid step"),
    ("simulate", "bins", int, 20, "histogram bins of measure.csv"),
    ("evaluate", "solution", str, "kolmogorov(10)", "catalog solution"),
    ("evaluate", "mode", ("value", "sandwich"), "value", "estimate, or weight inequality"),
    ("evaluate", "t", float, 0.5, "horizon (unset in sandwich mode: 1/sup|beta|)"),
    ("evaluate", "k_sigma", float, 3.0, "sandwich margin in standard errors"),
    ("make_solution", "boundary", str, "1", "boundary data g > 0 in x, y1, ..."),
    ("make_solution", "t_solve", float, 2.0, "horizon"),
    ("make_solution", "grid_nx", int, 11, "grid nodes in x"),
    ("make_solution", "grid_ny", int, 11, "grid nodes per y axis"),
    ("harnack", "family", ("kolmogorov", "catalog"), "kolmogorov", "family to scan"),
    ("harnack", "offsets", FLOATS, (2.0, 5.0, 10.0, 100.0), "kolmogorov offsets C"),
    ("harnack", "solutions", str, "", "comma-separated catalog solutions (family catalog)"),
    ("harnack", "grid", int, 101, "grid nodes per axis of the inner subcylinder"),
    ("counterexample", "lambdas", FLOATS, (1.0, 2.0, 4.0, 8.0), "increasing lambdas > 0"),
    ("counterexample", "grid", int, 101, "grid nodes per axis of the inner subcylinder"),
    ("regions", "d", float, 0.5, "drift level"),
    ("regions", "grid_step", float, 0.01, "y grid step"),
    ("regions", "solution", str, None, "catalog solution to check (unset: no check)"),
    ("regions", "cap", float, 10.0, "bound on the checked sup/inf ratio"),
    ("average", "solution", str, "kolmogorov(10)", "catalog solution"),
    ("average", "z", float, 0.25, "window half-width, at most 1/3"),
    ("average", "grid_nx", int, 111, "sample nodes in x"),
    ("average", "grid_ny", int, 61, "sample nodes per y axis"),
]
_TYPES = {(s, k): kind for s, k, kind, _default, _help in SCHEMA}
_SECTIONS = dict.fromkeys(s for s, *_ in SCHEMA)
_WHAT = {float: "a number", int: "an integer", FLOATS: "a number list"}


def _parse(kind, text):
    """The typed value of one config string; ValueError says what is wrong."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"expected one of {', '.join(kind)}, got {text!r}")
        return text
    entries = text.split(",")
    if kind == FLOATS and not all(v.strip() for v in entries):
        raise ValueError(f"empty entry in a number list: {text!r}")
    try:
        value = tuple(map(float, entries)) if kind == FLOATS else kind(text)
    except ValueError:
        raise ValueError(f"not {_WHAT[kind]}: {text!r}") from None
    if kind in (float, FLOATS) and not np.isfinite(value).all():
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _catalog_names(text) -> list[str]:
    """The names of a comma-separated catalog list; commas inside
    parentheses separate arguments, not names."""
    return [n.strip() for n in re.split(r",(?![^(]*\))", text) if n.strip()]


def _key_lines(section) -> str:
    """--help lines for the keys of one section: name, help, choices, default."""
    lines = []
    for s, key, kind, default, text in SCHEMA:
        if s == section:
            if isinstance(kind, tuple):
                text += f" ({' | '.join(kind)})"
            if default not in (None, ""):
                text += f"; default {','.join(map(str, default)) if kind == FLOATS else default}"
            lines.append(f"  {s + '.' + key:<28} {text}")
    return "\n".join(lines)


class ConfigError(Exception):
    """Aggregated configuration problems; maps to exit code 2."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class RunConfig:
    """Typed config values merged from SCHEMA defaults, the config file and
    --set overrides (a set HARNACK_LAB_SEED is refused, never read).  Every
    given value is checked against SCHEMA (numbers must be finite), and the
    values are checked together (ranges, the start_y length, catalog names, the
    boundary expression), in one pass; every problem is in one ConfigError."""

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

        self.values = {(s, k): default for s, k, _kind, default, _help in SCHEMA}
        self.given = set()
        for section, items in sections.items():
            if section not in _SECTIONS:
                errors.append(f"unknown section [{section}]; known: {', '.join(_SECTIONS)}")
                continue
            for key, text in items.items():
                kind = _TYPES.get((section, key))
                if kind is None:
                    known = ", ".join(k for s, k in _TYPES if s == section)
                    errors.append(f"{section}.{key}: unknown key; [{section}] has {known}")
                    continue
                self.given.add((section, key))
                try:
                    self.values[section, key] = _parse(kind, text)
                except ValueError as exc:
                    errors.append(f"{section}.{key}: {exc}")

        self.out_dir = Path(args.out)
        self.svg = bool(args.svg)
        self.workers = args.workers
        if self.workers < 1:
            errors.append("--workers must be at least 1")

        if "HARNACK_LAB_SEED" in os.environ:
            errors.append("HARNACK_LAB_SEED is not read; set sim.master_seed")

        # each block validates independently so one bad value does not hide
        # problems elsewhere; everything is reported in one pass
        dim_n = self.get("operator", "dim_n")
        self.op = None
        try:
            self.op = OperatorSpec.from_strings(self.get("operator", "beta"),
                                                self.get("operator", "gamma"),
                                                dim_n=max(dim_n, 2))
        except (expressions.ExprError, ValueError) as exc:
            errors.append(f"operator: {exc}")
        if dim_n < 2:
            errors.append(f"operator.dim_n: must be at least 2, got {dim_n}")

        self.dom = None
        try:
            self.dom = self._build("domain", CylinderDomain)
        except ValueError as exc:
            errors.append(f"domain: {exc}")

        self.sim = None
        try:
            self.sim = self._build("sim", SimConfig)
        except ValueError as exc:
            errors.append(f"sim: {exc}")

        order = self.get("check", "r")
        if not 1 <= order <= 4:
            errors.append(f"check.r: order must be between 1 and 4, got {order}")
        bins = self.get("simulate", "bins")
        if bins < 1:
            errors.append(f"simulate.bins: must be at least 1, got {bins}")
        cap = self.get("regions", "cap")
        if cap < 1:  # A_d lies in the inner-ball lattice: no restricted ratio is below 1
            errors.append(f"regions.cap: must be at least 1, got {cap:g}")
        catalog = _catalog_names(self.get("harnack", "solutions"))
        if self.get("harnack", "family") == "catalog" and not catalog:
            errors.append("harnack.solutions: empty catalog list")
        names = [("harnack.solutions", n) for n in catalog]
        names += [(f"{s}.solution", self.get(s, "solution"))
                  for s in ("evaluate", "regions", "average")]
        for key, text in names:
            if text is None:  # regions.solution unset: no check
                continue
            try:
                parse_solution_name(text)
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        # these need the y axes of a valid operator; a bad one is reported above
        if self.op is not None:
            ys = self.get("sim", "start_y")
            if ys is not None and len(ys) != self.op.n_y:
                errors.append(f"sim.start_y: expected {self.op.n_y} value(s)")
            try:
                self.boundary = expressions.parse(self.get("make_solution", "boundary"),
                                                  ("x",) + self.op.y_names)
            except expressions.ExprError as exc:
                errors.append(f"make_solution.boundary: {exc}")

        if errors:
            raise ConfigError(errors)

    def get(self, section, key):
        """The typed value of SECTION.KEY: as given, else its SCHEMA default."""
        return self.values[section, key]

    def _build(self, section, cls):
        """CLS from the SECTION keys named after its fields."""
        return cls(**{f.name: self.get(section, f.name) for f in dataclasses.fields(cls)})

    def start_point(self):
        """(sim.start_x, sim.start_y), an unset start_y being the origin."""
        ys = self.get("sim", "start_y")
        return self.get("sim", "start_x"), np.array(ys or [0.0] * self.op.n_y)

    def solution(self, text):
        """The catalog solution TEXT on this run's domain; see ``solves``."""
        return self.solves(catalog_entry(text, op=self.op, dom=self.dom))

    def solves(self, sol):
        """SOL, refused unless its beta, gamma (simplified) and dim_n are this run's."""
        have, want = (f"beta = {expressions.to_string(expressions.simplify(o.beta))}, gamma = "
                      f"{expressions.to_string(expressions.simplify(o.gamma))}, dim_n = {o.dim_n}"
                      for o in (sol.op, self.op))
        if have != want:
            raise ValueError(f"{sol.name} solves {have}, not the configured {want}")
        return sol

    def boundary_fn(self):
        """make_solution.boundary as a function of x (k,) and y (k, n_y)."""

        def fn(x, y):
            env = {"x": x}
            env.update({n: y[:, k] for k, n in enumerate(self.op.y_names)})
            return expressions.evaluate(self.boundary, env)

        return fn


# -- commands ----------------------------------------------------------------


def cmd_check(cfg: RunConfig) -> int:
    """sign-change and derivative-mass hypothesis on beta -> hormander_report.json"""
    order = cfg.get("check", "r")
    report = check_hypothesis(cfg.op, cfg.dom, order=order,
                              grid_step=cfg.get("check", "grid_step"))
    write_json(cfg.out_dir / "hormander_report.json", report.to_json_dict())
    if report.error is not None:  # no mass to print; the report carries the error
        print(f"error: {report.error}", file=sys.stderr)
        return 1
    status = "pass" if report.passed else "fail"
    print(f"hypothesis {status}: r={order} min_derivative_mass={report.min_derivative_mass:g}")
    return 0 if report.passed else 1


def cmd_simulate(cfg: RunConfig) -> int:
    """stopped paths from one start -> paths.csv, measure.csv"""
    start = cfg.start_point()
    batch = simulate_batch(cfg.op, cfg.dom, start, cfg.sim, workers=cfg.workers)
    batch.to_csv(cfg.out_dir / "paths.csv")
    measure = measure_from_batch(batch, cfg.dom, cfg.get("simulate", "bins"))
    measure.to_csv(cfg.out_dir / "measure.csv")
    exited = float(np.mean(batch.exited))
    print(f"simulated {batch.n_paths} paths: mean stop_time "
          f"{float(np.mean(batch.stop_time)):.6g}, exited {exited:.1%}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Feynman-Kac value or sandwich check of a catalog solution -> evaluate.json"""
    mode = cfg.get("evaluate", "mode")
    sol = cfg.solution(cfg.get("evaluate", "solution"))
    start = cfg.start_point()
    payload = {"mode": mode, "solution": sol.name,
               "start": [start[0], *map(float, start[1])]}

    if mode == "value":
        t = cfg.get("evaluate", "t")
        est = fk_evaluate(cfg.op, cfg.dom, sol, start, t, cfg.sim, workers=cfg.workers)
        payload["estimate"] = est.to_json_dict()
        write_json(cfg.out_dir / "evaluate.json", payload)
        print(f"value {est.value:.6g} +/- {est.std_error:.3g} (t={t:g})")
        return 0

    t = cfg.get("evaluate", "t") if ("evaluate", "t") in cfg.given else None
    rep = sandwich_check(cfg.op, cfg.dom, sol, start, t=t, cfg=cfg.sim,
                         k_sigma=cfg.get("evaluate", "k_sigma"), workers=cfg.workers)
    payload.update(rep.to_json_dict())
    write_json(cfg.out_dir / "evaluate.json", payload)
    status = "pass" if rep.passed else "fail"
    print(f"sandwich {status}: {rep.lower:.6g} <= {rep.value_at_start:.6g} "
          f"<= {rep.upper:.6g} (t={rep.estimate.horizon:g})")
    return 0 if rep.passed else 1


def cmd_make_solution(cfg: RunConfig) -> int:
    """positive field from boundary data -> solution.csv, solution.json [, solution.svg]"""
    g = cfg.boundary_fn()
    dom = cfg.dom
    axes = box_axes(dom.inner_x_lo, dom.inner_x_hi, cfg.get("make_solution", "grid_nx"),
                    dom.y_inner_radius, cfg.get("make_solution", "grid_ny"), n_y_axes=cfg.op.n_y)
    field = make_solution(cfg.op, dom, g, cfg.get("make_solution", "t_solve"), cfg.sim,
                          axes, workers=cfg.workers, name="fk_solution")
    if not np.all(field.values > 0):
        raise ValueError("manufactured field is not positive; boundary data must be > 0")
    field.save(cfg.out_dir, "solution")
    if cfg.svg and cfg.op.n_y == 1:
        write_text(cfg.out_dir / "solution.svg", heatmap_svg(field))
    print(f"solution field on {'x'.join(str(len(a)) for a in field.axes)} grid: "
          f"min {field.values.min():.6g}, max {field.values.max():.6g}")
    return 0


def _family_solutions(cfg: RunConfig, family):
    if family == "kolmogorov":
        return [cfg.solves(kolmogorov_poly(c, dom=cfg.dom)) for c in cfg.get("harnack", "offsets")]
    return [cfg.solution(n) for n in _catalog_names(cfg.get("harnack", "solutions"))]


def _write_scan(cfg: RunConfig, scan, stem: str) -> None:
    """A family scan -> STEM.csv, STEM.json [, STEM.svg]"""
    scan_to_csv(scan, cfg.out_dir / f"{stem}.csv")
    write_json(cfg.out_dir / f"{stem}.json", scan.to_json_dict())
    if cfg.svg:
        write_text(cfg.out_dir / f"{stem}.svg", ratio_plot_svg(scan))


def cmd_harnack(cfg: RunConfig) -> int:
    """sup/inf ratios of a solution family -> harnack.csv, harnack.json [, harnack.svg]"""
    family = cfg.get("harnack", "family")
    solutions = _family_solutions(cfg, family)
    scan = scan_family(solutions, SubCylinder.from_domain(cfg.dom),
                       cfg.get("harnack", "grid"), family=family)
    _write_scan(cfg, scan, "harnack")
    print(f"family {family}: max sup/inf ratio {scan.max_ratio:.6g} "
          f"over {len(scan.reports)} solution(s)")
    return 0


def cmd_counterexample(cfg: RunConfig) -> int:
    """ratios along the one-signed-drift family
    -> counterexample.csv, counterexample.json [, counterexample.svg]"""
    lams = cfg.get("counterexample", "lambdas")
    scan = counterexample_scan(lams, SubCylinder.from_domain(cfg.dom),
                               cfg.get("counterexample", "grid"), dom=cfg.dom)
    _write_scan(cfg, scan, "counterexample")
    print(f"counterexample scan over {len(lams)} lambda(s): "
          f"max ratio {scan.max_ratio:.6g}, verdict {scan.verdict}")
    return 0


def cmd_regions(cfg: RunConfig) -> int:
    """drift regions, with an optional restricted ratio check -> regions.csv, regions.json"""
    level = cfg.get("regions", "d")
    regions = classify_regions(cfg.op, cfg.dom, level, cfg.get("regions", "grid_step"))
    sol_text = cfg.get("regions", "solution")
    check = None if sol_text is None else region_inequality_check(
        cfg.solution(sol_text), cfg.op, cfg.dom, regions, cfg.get("regions", "cap"))

    fmt = ",".join(["%s"] + [FLOAT_FMT] * cfg.op.n_y)
    rows = [("plus", *p) for p in regions.plus_points.tolist()]
    rows += [("minus", *p) for p in regions.minus_points.tolist()]
    write_csv(cfg.out_dir / "regions.csv", ["side", *cfg.op.y_names], fmt, rows)

    payload = {
        "level": regions.level,
        "grid_step": regions.grid_step,
        "plus_count": regions.plus_count,
        "minus_count": regions.minus_count,
        "warning": regions.warning,
    }
    if check is not None:
        payload["check"] = check.to_json_dict()
        print(f"restricted ratio {check.ratio:.6g} vs cap {check.cap:g}: "
              f"{'pass' if check.passed else 'fail'}")
    write_json(cfg.out_dir / "regions.json", payload)
    print(f"level {level:g}: {regions.plus_count} plus node(s), "
          f"{regions.minus_count} minus node(s)")
    return 0 if check is None or check.passed else 1


def cmd_average(cfg: RunConfig) -> int:
    """window average in x of a catalog solution -> average.csv, average.json [, average.svg]"""
    sol = cfg.solution(cfg.get("average", "solution"))
    z = cfg.get("average", "z")
    field = sol.as_field(cfg.get("average", "grid_nx"), cfg.get("average", "grid_ny"))
    averaged = window_average_x(field, z)
    averaged.save(cfg.out_dir, "average")
    if cfg.svg and averaged.n_y == 1:
        write_text(cfg.out_dir / "average.svg", heatmap_svg(averaged))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built on the first call and
    reused by every later one in the process."""
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="harnack-lab",
        description="Simulation and verification toolkit for degenerate-drift "
                    "elliptic operators on a cylinder.",
        epilog="config keys shared by the subcommands (each subcommand's --help "
               "lists its own):\n" + "\n".join(map(_key_lines, ("operator", "domain", "sim"))),
        formatter_class=raw,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        section = name.replace("-", "_")
        doc = " ".join((fn.__doc__ or "").split())
        keys = ", ".join(k for s, k in _TYPES if s == section)
        p = sub.add_parser(name, help=f"{doc}; [{section}] {keys}", description=doc,
                           epilog=f"config keys (--set {section}.KEY=VALUE or [{section}] "
                                  f"in --config):\n{_key_lines(section)}",
                           formatter_class=raw)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads; never changes output bytes")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # directories this run makes, deepest first; an exit-1 run removes the empty ones
    made = [d for d in (args.out, *args.out.parents) if not d.exists()]

    try:
        cfg = RunConfig(args)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except (ValueError, expressions.ExprError, MemoryError) as exc:
        # a MemoryError is a lattice or grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        for d in made:
            try:
                d.rmdir()  # fails on a directory that holds anything
            except OSError:
                break
        return 1


if __name__ == "__main__":
    sys.exit(main())
