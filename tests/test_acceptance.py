"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single summary line ("criterion N ... : PASS") on
success; run with -v to get one PASSED/FAILED line per criterion from
pytest itself.  Monte Carlo checks use fixed seeds, so outcomes are
reproducible bit for bit.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from harnack_lab.cli import main as cli_main
from harnack_lab.feynman_kac import evaluate as fk_evaluate
from harnack_lab.feynman_kac import make_solution, sandwich_check
from harnack_lab.fields import ScalarField
from harnack_lab.harnack import counterexample_scan, scan_family, sup_inf_ratio
from harnack_lab.operators import CylinderDomain, OperatorSpec, check_hypothesis, residual
from harnack_lab.sde import SimConfig, simulate_batch
from harnack_lab.solutions import (
    constant,
    counterexample_family,
    kolmogorov_poly,
    separable,
)

DOM = CylinderDomain()
BALL3 = dataclasses.replace(DOM, y_outer_radius=3.0)
NARROW = dataclasses.replace(DOM, y_outer_radius=1.5)
DRIFT_Y = OperatorSpec.from_strings("y1", "0")
NO_DRIFT = OperatorSpec.from_strings("0", "0")


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(n, label, detail, t):
    print(f"criterion {n} ({label}): PASS in {t:.1f}s -- {detail}")


def test_criterion_1_hypothesis_checker():
    """Exact verdicts: beta=y passes at r=1, beta=y^2 fails the sign change,
    beta=sin(y1) passes on the radius-3 ball; under 1 s each."""
    with timer() as t1:
        lin = check_hypothesis(DRIFT_Y, BALL3, order=1)
    with timer() as t2:
        square = check_hypothesis(OperatorSpec.from_strings("y1^2", "0"), BALL3)
    with timer() as t3:
        wave = check_hypothesis(
            OperatorSpec.from_strings("sin(y1)", "0", dim_n=3), BALL3, grid_step=0.05)
    assert lin.passed and lin.order_used == 1
    assert not square.passed and not square.sign_change_ok
    assert wave.passed
    for t in (t1, t2, t3):
        assert t.seconds < 1.0
    report(1, "hypothesis checker",
           f"verdicts pass/fail/pass as required", max(t1.seconds, t2.seconds, t3.seconds))


def test_criterion_2_translation_equivariance():
    """With shared seeds, 1e5 paths from (1.5, y0) and (0, y0) differ in
    stopped_x by exactly 1.5 path-for-path; Y outputs are identical."""
    y0 = 0.5
    cfg = SimConfig(t_max=1.0, dt=1e-3, n_paths=100_000, master_seed=0)
    with timer() as t:
        moved = simulate_batch(DRIFT_Y, DOM, (1.5, y0), cfg)
        origin = simulate_batch(DRIFT_Y, DOM, (0.0, y0), cfg)
    assert np.array_equal(moved.stopped_x, origin.stopped_x + 1.5)
    assert np.array_equal(moved.stopped_y, origin.stopped_y)
    assert np.array_equal(moved.stop_time, origin.stop_time)
    assert np.array_equal(moved.exited, origin.exited)
    assert t.seconds < 30
    report(2, "translation equivariance",
           "stopped_x difference exactly 1.5 on all 100000 paths", t.seconds)


def test_criterion_3_exit_time_law():
    """Mean exit time from the center of the radius-2 ball: 2 in dimension
    N=2 and 1 in N=3, within 3 standard errors at dt=1e-3 and 1e5 paths;
    the discretization bias halves when dt does."""
    with timer() as t:
        results = {}
        for dim_n, want in ((2, 2.0), (3, 1.0)):
            op = OperatorSpec.from_strings("0", "0", dim_n=dim_n)
            cfg = SimConfig(t_max=40.0, dt=1e-3, n_paths=100_000, master_seed=1)
            batch = simulate_batch(op, DOM, (0.0, np.zeros(dim_n - 1)), cfg)
            assert np.all(batch.exited)
            mean = float(np.mean(batch.stop_time))
            se = float(np.std(batch.stop_time, ddof=1) / np.sqrt(batch.n_paths))
            assert abs(mean - want) <= 3 * se, (dim_n, mean, se)
            results[dim_n] = (mean, se)

        # bias-halving at coarse steps, where the bias dominates the noise
        biases = []
        for dt in (0.16, 0.08):
            cfg = SimConfig(t_max=40.0, dt=dt, n_paths=400_000, master_seed=2)
            batch = simulate_batch(NO_DRIFT, DOM, (0.0, 0.0), cfg)
            biases.append(float(np.mean(batch.stop_time)) - 2.0)
        ratio = biases[1] / biases[0]
        assert 0.3 < ratio < 0.7, (biases, ratio)
    assert t.seconds < 300
    report(3, "exit-time law",
           f"means {results[2][0]:.4f} (N=2), {results[3][0]:.4f} (N=3); "
           f"bias ratio at dt/2: {ratio:.2f}", t.seconds)


def test_criterion_4_feynman_kac_consistency():
    """evaluate() of u = x - y^3/6 + 10 at 10 random interior starts with
    t = 0.5 matches the analytic value within 3 standard errors at >= 9
    of the 10 starts."""
    rng = np.random.default_rng(2024)
    hits = 0
    with timer() as t:
        for k in range(10):
            x0 = float(rng.uniform(-1.0, 1.5))
            y0 = float(rng.uniform(-1.2, 1.2))
            est = fk_evaluate(
                DRIFT_Y, DOM, lambda x, y: x - y[:, 0] ** 3 / 6 + 10.0,
                (x0, y0), t=0.5,
                cfg=SimConfig(t_max=1.0, dt=1e-3, n_paths=30_000, master_seed=k))
            want = x0 - y0**3 / 6 + 10.0
            if abs(est.value - want) <= 3 * est.std_error:
                hits += 1
    assert hits >= 9, hits
    assert t.seconds < 300
    report(4, "stochastic-representation consistency",
           f"{hits}/10 starts within 3 standard errors", t.seconds)


def test_criterion_5_sandwich_inequality():
    """sandwich_check passes for catalog solutions with |gamma| <= 1 at the
    default horizon 1/sup|beta|, and fails on the corrupted-field control."""
    catalog = [
        (kolmogorov_poly(10.0), DOM),
        (constant(5.0), DOM),
        (counterexample_family(4.0), DOM),
        (separable(0.0, OperatorSpec.from_strings("y1", "-1")), DOM),
        (separable(0.0, OperatorSpec.from_strings("y1", "1"), dom=NARROW), NARROW),
    ]
    with timer() as t:
        for sol, dom in catalog:
            rep = sandwich_check(sol.op, dom, sol, (0.5, 0.0),
                                 cfg=SimConfig(t_max=1.0, n_paths=20_000))
            assert rep.passed, (sol.name, rep)

        # corrupted control: a tall narrow bump at the start breaks the bound
        field = kolmogorov_poly(10.0).as_field(111, 121)
        start = (0.2, -0.3)
        xs, ys = field.node_points()
        bump = 10.0 * np.exp(
            -((xs - start[0]) ** 2 + (ys[:, 0] - start[1]) ** 2) / (2 * 0.15**2))
        corrupted = ScalarField(
            field.axes, field.values + bump.reshape(field.values.shape))
        bad = sandwich_check(DRIFT_Y, DOM, corrupted, start,
                             cfg=SimConfig(t_max=1.0, n_paths=20_000))
        assert not bad.passed
    assert t.seconds < 300
    report(5, "sandwich inequality",
           f"{len(catalog)} catalog solutions pass; corrupted control fails",
           t.seconds)


def test_criterion_6_residual_oracle():
    """Kolmogorov polynomial residual stays at rounding level (<= 1e-9) on
    several grids; e^{-4x} cosh(2y) shows clean O(h^2) decay (ratio 4 +/- 20%)."""
    sol = kolmogorov_poly(10.0)
    with timer() as t:
        for nx, ny in ((25, 31), (101, 101), (64, 200)):
            res = residual(sol.as_field(nx, ny), sol.op)
            assert np.abs(res.values).max() <= 1e-9, (nx, ny)

        ce = counterexample_family(4.0)
        r_coarse = residual(ce.as_field(21, 21, x_span=(0.0, 1.0), y_radius=1.0), ce.op)
        r_fine = residual(ce.as_field(41, 41, x_span=(0.0, 1.0), y_radius=1.0), ce.op)
        ratio = np.abs(r_coarse.values).max() / np.abs(r_fine.values).max()
        assert 3.2 <= ratio <= 4.8, ratio
    assert t.seconds < 10
    report(6, "residual oracle",
           f"polynomial exact to 1e-9; refinement ratio {ratio:.3f}", t.seconds)


def _random_boundary_fields(seed: int):
    """Positive Feynman-Kac fields for drift beta=y from random boundary data."""
    rng = np.random.default_rng(seed)
    fields = []
    axes = (np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))
    for k in range(6):
        a = rng.uniform(2.0, 6.0)
        b = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-1.0, 1.0)
        w = rng.uniform(0.5, 2.0)

        def g(x, y, a=a, b=b, c=c, w=w):
            return a + b * np.sin(w * x) + c * np.cos(w * y[:, 0])

        cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=600, master_seed=seed + 17 * k)
        fields.append(make_solution(DRIFT_Y, DOM, g, 1.5, cfg, axes,
                                    name=f"fk_{seed}_{k}"))
    return fields


def test_criterion_7_harnack_dichotomy():
    """counterexample_scan ratios match e^lam cosh(sqrt(lam)) to 1e-6 and are
    ruled divergent; the sign-changing beta=y family keeps a finite maximal
    ratio, stable within a factor 2 across two independent seeds."""
    with timer() as t:
        scan = counterexample_scan([1.0, 2.0, 4.0, 8.0])
        lams = np.array([1.0, 2.0, 4.0, 8.0])
        want = np.exp(lams) * np.cosh(np.sqrt(lams))
        got = np.array([r.ratio for r in scan.reports])
        assert np.all(np.abs(got - want) / want < 1e-6), got
        assert scan.verdict == "divergent"

        maxima = []
        for seed in (101, 202):
            sols = [kolmogorov_poly(C) for C in (2.0, 5.0, 10.0, 100.0)]
            sols += _random_boundary_fields(seed)
            result = scan_family(sols, grid=101, family=f"drift-y-{seed}")
            assert np.isfinite(result.max_ratio)
            maxima.append(result.max_ratio)
        spread = max(maxima) / min(maxima)
        assert spread <= 2.0, maxima
    assert t.seconds < 600
    report(7, "ratio dichotomy",
           f"divergent family matches closed form; sign-changing maxima "
           f"{maxima[0]:.3f}/{maxima[1]:.3f} (spread {spread:.2f}x)", t.seconds)


def test_criterion_8_cli_determinism(tmp_path):
    """Reruns of a command with the same config and seed but different
    --workers produce byte-identical output files."""
    jobs = [
        ("simulate", ["--set", "sim.n_paths=5000"], ("paths.csv", "measure.csv")),
        ("make-solution",
         ["--set", "sim.n_paths=400", "--set", "make_solution.grid_nx=3",
          "--set", "make_solution.grid_ny=3",
          "--set", "make_solution.boundary=x - y1^3/6 + 10"],
         ("solution.csv", "solution.json")),
        ("harnack", ["--svg"], ("harnack.csv", "harnack.json", "harnack.svg")),
    ]
    with timer() as t:
        for cmd, extra, outputs in jobs:
            dirs = []
            for tag, workers in (("a", "1"), ("b", "3")):
                out = tmp_path / f"{cmd}-{tag}"
                rc = cli_main([cmd, *extra, "--set", "sim.master_seed=42",
                               "--workers", workers, "--out", str(out)])
                assert rc == 0
                dirs.append(out)
            for name in outputs:
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), \
                    (cmd, name)
    assert t.seconds < 60
    report(8, "determinism", "3 commands byte-identical across worker counts",
           t.seconds)
