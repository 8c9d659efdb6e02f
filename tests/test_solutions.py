import dataclasses
import decimal
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import airy

from harnack_lab import solutions
from harnack_lab.fields import ScalarField
from harnack_lab.harnack import sup_inf_ratio
from harnack_lab.operators import CylinderDomain, OperatorSpec, residual
from harnack_lab.solutions import (
    AnalyticSolution,
    _cubic_hermite,
    _integrate_profile,
    catalog_entry,
    constant,
    counterexample_family,
    kolmogorov_poly,
    separable,
)

NARROW = dataclasses.replace(CylinderDomain(), y_outer_radius=1.5)


def max_residual(sol: AnalyticSolution, nx, ny, x_span=None, y_radius=None):
    field = sol.as_field(nx, ny, x_span=x_span, y_radius=y_radius)
    return float(np.abs(residual(field, sol.op).values).max())


def grid_min(sol: AnalyticSolution, x_span=None, y_radius=None) -> float:
    """Minimum of u on the 101 x 101 grid of a region (default: the cylinder)."""
    return float(sol.as_field(x_span=x_span, y_radius=y_radius).values.min())


def profile_step_error(sol: AnalyticSolution, lam: float) -> float:
    """Endpoint change of a separable profile (gamma = 0) when the RK4
    step is halved."""
    radius = sol.domain.y_outer_radius
    _, phi, _ = _integrate_profile(sol.op, lam, 0.0, radius, 1e-3)
    _, phi_h, _ = _integrate_profile(sol.op, lam, 0.0, radius, 5e-4)
    # both runs share their first and last node (the interval endpoints)
    return float(max(abs(phi_h[0] - phi[0]), abs(phi_h[-1] - phi[-1])))


def test_kolmogorov_values_and_certificate():
    sol = kolmogorov_poly(10.0)
    assert sol.at(2.0, -1.0) == pytest.approx(2.0 + 1.0 / 6.0 + 10.0, abs=1e-12)
    xs = np.array([0.0, 1.0, -5.0])
    ys = np.array([[0.0], [2.0], [3.0]])
    np.testing.assert_allclose(sol.at(xs, ys), xs - ys[:, 0] ** 3 / 6 + 10.0, rtol=1e-15)
    # full-cylinder margin: minimum sits at the corner x=-5, y=3
    assert grid_min(sol) == pytest.approx(0.5, abs=1e-12)
    # margin on the enforced region, the inner subcylinder
    assert grid_min(sol, (0.0, 1.0), 1.0) == pytest.approx(10.0 - 1.0 / 6.0, abs=1e-12)


def test_kolmogorov_offset_bounds():
    with pytest.raises(ValueError, match="not positive"):
        kolmogorov_poly(0.0)
    # small offsets are fine on the inner subcylinder even though the
    # full cylinder dips negative (positivity is enforced there only)
    sol = kolmogorov_poly(2.0)
    assert grid_min(sol, (0.0, 1.0), 1.0) == pytest.approx(2.0 - 1.0 / 6.0, abs=1e-12)
    assert grid_min(sol) == pytest.approx(2.0 - 9.5, abs=1e-12)


def test_kolmogorov_residual_exact():
    sol = kolmogorov_poly(10.0)
    assert max_residual(sol, 101, 101) < 1e-9


def test_constant_solution():
    sol = constant(5.0)
    assert sol.at(1.0, 0.3) == 5.0
    assert grid_min(sol) == 5.0
    assert max_residual(sol, 21, 21) == 0.0
    with pytest.raises(ValueError):
        constant(0.0)
    with pytest.raises(ValueError, match="gamma"):
        constant(1.0, op=OperatorSpec.from_strings("y1", "1"))


def test_counterexample_closed_form():
    sol = counterexample_family(4.0)
    rng = np.random.default_rng(77)
    xs = rng.uniform(-5, 6, size=40)
    ys = rng.uniform(-2, 2, size=(40, 1))
    np.testing.assert_allclose(
        sol.at(xs, ys), np.exp(-4 * xs) * np.cosh(2 * ys[:, 0]), rtol=1e-14
    )
    assert grid_min(sol) > 0
    with pytest.raises(ValueError):
        counterexample_family(0.0)
    with pytest.raises(ValueError):
        counterexample_family(-1.0)


def test_separable_matches_cosh():
    op = OperatorSpec.from_strings("1", "0")
    sol = separable(-4.0, op)
    ys = np.linspace(-2, 2, 401)
    got = sol.at(np.zeros_like(ys), ys[:, None])
    want = np.cosh(2 * ys)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-8
    assert profile_step_error(sol, -4.0) < 1e-8
    # and with the x factor it reproduces the constant-drift family
    ce = counterexample_family(4.0)
    xs = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        sol.at(xs, np.full((9, 1), 0.7)), ce.at(xs, np.full((9, 1), 0.7)), rtol=1e-8
    )


def test_separable_lambda_zero_is_constant():
    sol = separable(0.0, OperatorSpec.from_strings("y1", "0"))
    ys = np.linspace(-2, 2, 101)
    np.testing.assert_allclose(sol.at(np.ones_like(ys), ys[:, None]), 1.0, atol=1e-13)


def test_separable_gamma_negative_cosh():
    sol = separable(0.0, OperatorSpec.from_strings("y1", "-1"))
    ys = np.linspace(-2, 2, 301)
    got = sol.at(np.zeros_like(ys), ys[:, None])
    assert np.abs(got - np.cosh(ys)).max() < 1e-8


def test_separable_gamma_positive_cos_inner_only():
    # phi = cos(y): dips negative past pi/2, so only the inner interval is
    # certified on the default cylinder, and on NARROW the whole interval
    # (test_whole_cylinder_certificate_samples_one_grid checks both regions)
    sol = separable(0.0, OperatorSpec.from_strings("y1", "1"))
    ys = np.linspace(-1, 1, 201)
    got = sol.at(np.zeros_like(ys), ys[:, None])
    assert np.abs(got - np.cos(ys)).max() < 1e-8
    assert grid_min(sol, y_radius=1.0) == pytest.approx(np.cos(1.0), rel=1e-8)
    assert grid_min(sol) < 0  # cos goes negative before the outer radius


def test_separable_rejects_inner_zero():
    with pytest.raises(ValueError, match=r"first zero near y = -?0.78539"):
        separable(0.0, OperatorSpec.from_strings("y1", "4"))


def test_separable_airy_oracle():
    # beta = y, lam = 1: phi'' = -y phi, an Airy equation; compare against
    # the scipy Ai/Bi pair fitted to the initial data
    sol = separable(1.0, OperatorSpec.from_strings("y1", "0"))
    ai0, aip0, bi0, bip0 = airy(0.0)
    coef = np.linalg.solve(np.array([[ai0, bi0], [-aip0, -bip0]]), np.array([1.0, 0.0]))
    ys = np.linspace(-2, 2, 401)
    ai, _, bi, _ = airy(-ys)
    want = coef[0] * ai + coef[1] * bi
    got = sol.at(np.zeros_like(ys), ys[:, None])
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-6
    assert profile_step_error(sol, 1.0) < 1e-6


def test_separable_input_validation():
    with pytest.raises(ValueError, match="constant gamma"):
        separable(1.0, OperatorSpec.from_strings("y1", "sin(x)"))
    with pytest.raises(ValueError, match="one-dimensional"):
        separable(1.0, OperatorSpec.from_strings("y1", "0", dim_n=3))


def test_residual_second_order_on_separable():
    sol = separable(-4.0, OperatorSpec.from_strings("1", "0"))
    coarse = max_residual(sol, 101, 101, x_span=(0.0, 1.0), y_radius=1.0)
    fine = max_residual(sol, 201, 201, x_span=(0.0, 1.0), y_radius=1.0)
    assert coarse < 5e-3
    assert 3.0 < coarse / fine < 5.2


def test_catalog_entry_forms():
    assert catalog_entry("kolmogorov").name == "kolmogorov(10)"
    sol = catalog_entry("kolmogorov(12.5)")
    assert sol.at(0.0, 0.0) == pytest.approx(12.5)
    ce = catalog_entry("counterexample(4)")
    assert ce.at(0.0, 1.0) == pytest.approx(np.cosh(2.0), rel=1e-14)
    const5 = catalog_entry("constant(5)")
    assert const5.at(-3.0, 0.2) == 5.0
    sep = catalog_entry(" separable(-4) ", op=OperatorSpec.from_strings("1", "0"))
    assert sep.at(0.0, 1.0) == pytest.approx(np.cosh(2.0), rel=1e-8)
    # separable takes gamma from op, the one operator it is built on
    op = OperatorSpec.from_strings("y1", "-1")
    assert catalog_entry("separable(0)", op=op).op is op


def test_catalog_entry_rejects_malformed():
    for bad in ("fourier", "kolmogorov(2", "separable(a)", "separable()", "constant()",
                "counterexample(1,2)", "separable(1.5,2)", "separable(nan)", "kolmogorov(inf)",
                "constant(inf)", "counterexample(-inf)", "separable(1e999)"):
        with pytest.raises(ValueError):
            catalog_entry(bad)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_separable_refuses_a_non_finite_lambda_before_integrating(lam, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept a non-finite lambda")

    monkeypatch.setattr(solutions, "_rk4_sweep", no_sweep)
    with pytest.raises(ValueError, match=f"lambda must be finite, got {lam}"):
        separable(lam, OperatorSpec.from_strings("y1", "0"))


def test_separable_refuses_an_overflowing_profile_without_a_warning():
    # at lambda = 1e300, h^2 q^2 overflows the step coefficients; at 1e10 the
    # profile overflows on most nodes and has nodes <= 0 on the inner
    # interval.  Each is refused as not finite at the non-finite node
    # nearest 0, not as a zero at y = nan, and no RuntimeWarning escapes
    for lam, y_bad in ((1e300, r"-0\.002"), (1e10, r"-0\.084")):
        with pytest.raises(ValueError, match=r"separable profile is not finite on the inner "
                                             rf"interval; first non-finite node at y = {y_bad}$"):
            separable(lam, OperatorSpec.from_strings("y1", "0"))


def test_separable_zero_location_skips_crossings_next_to_non_finite_nodes(monkeypatch):
    # a profile finite on the inner interval, vanishing there at y = +-pi/6,
    # and not finite past y = 1.9: the crossing into the nans is skipped
    def profile(op, lam, gamma0, radius, h):
        nodes = np.linspace(-radius, radius, 401)
        phi = np.where(nodes > 1.9, np.nan, np.cos(3 * nodes))
        return nodes, phi, np.zeros_like(phi)

    monkeypatch.setattr(solutions, "_integrate_profile", profile)
    with pytest.raises(ValueError, match="separable profile vanishes") as err:
        separable(1.0, OperatorSpec.from_strings("y1", "0"))
    zero = float(str(err.value).rsplit("= ", 1)[1])
    assert abs(abs(zero) - np.pi / 6) < 1e-3


@pytest.mark.parametrize("text, name", [
    ("counterexample(200)", r"counterexample\(200\)"),
    ("separable(-200)", r"separable\(lambda=-200,gamma=0\)"),
], ids=["counterexample", "separable"])
def test_certify_refuses_an_overflowing_solution_without_a_warning(text, name):
    # on beta = 1, e^{200*5} overflows at x = -5: the first grid point in C
    # order is named
    message = name + r" is not finite on its certified region: inf at \(-5, -2\)$"
    with pytest.raises(ValueError, match=message):
        catalog_entry(text, OperatorSpec.from_strings("1", "0"))


def test_cubic_hermite_matches_scipy_bitwise():
    # scipy is the reference only: the same coefficients, summed in PPoly's
    # order, at random points, the nodes and beyond both ends
    from scipy.interpolate import CubicHermiteSpline

    rng = np.random.default_rng(8)
    for _ in range(200):
        nodes = np.unique(rng.uniform(-2, 2, rng.integers(2, 50)))
        if nodes.size < 2:
            continue
        phi, dphi = rng.normal(size=(2, nodes.size))
        y = np.concatenate([rng.uniform(-2.5, 2.5, 300), nodes])
        want = CubicHermiteSpline(nodes, phi, dphi)(y)
        assert np.array_equal(_cubic_hermite(nodes, phi, dphi)(y), want)


def test_separable_profile_matches_scipy_bitwise():
    from scipy.interpolate import CubicHermiteSpline

    op = OperatorSpec.from_strings("y1", "0.5")
    dom = CylinderDomain()
    sol = separable(1.5, op, dom=dom)
    nodes, phi, dphi = _integrate_profile(op, 1.5, 0.5, 2.0, 1e-3)
    ys = np.concatenate([np.linspace(-2.0, 2.0, 301), nodes[::97]])
    xs = np.linspace(-1.0, 1.0, ys.size)
    want = np.exp(1.5 * xs) * CubicHermiteSpline(nodes, phi, dphi)(ys)
    assert np.array_equal(sol.at(xs, ys[:, None]), want)


@pytest.mark.parametrize("build, region", [
    (lambda: counterexample_family(2.0), (-5.0, 6.0, 2.0)),
    (lambda: separable(0.5, OperatorSpec.from_strings("y1", "0")), (-5.0, 6.0, 2.0)),
    (lambda: kolmogorov_poly(10.0), (0.0, 1.0, 1.0)),
    (lambda: separable(0.0, OperatorSpec.from_strings("y1", "1")), (-5.0, 6.0, 1.0)),
    (lambda: separable(-4.0, OperatorSpec.from_strings("1", "0")), (-5.0, 6.0, 2.0)),
    (lambda: separable(0.0, OperatorSpec.from_strings("y1", "-1")), (-5.0, 6.0, 2.0)),
    (lambda: separable(0.0, OperatorSpec.from_strings("y1", "1"), dom=NARROW),
     (-5.0, 6.0, 1.5)),
    (lambda: constant(3.0), None),
], ids=["counterexample", "separable", "kolmogorov", "separable-cos", "separable-cosh",
        "separable-cosh-gamma", "separable-narrow", "constant"])
def test_whole_cylinder_certificate_samples_one_grid(monkeypatch, build, region):
    # construction samples the 101 x 101 grid of the region it certifies,
    # (x_lo, x_hi, y_radius): the whole cylinder, or the inner ball where
    # positivity holds there only; a constant samples nothing
    calls = []
    sample = ScalarField.sample

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(ScalarField, "sample", classmethod(counted))
    build()
    if region is None:
        assert calls == []
        return
    (_, axes), = calls
    x, y = axes
    assert (x.size, y.size) == (101, 101)
    assert (x[0], x[-1], -y[0], y[-1]) == (region[0], region[1], region[2], region[2])


def test_separable_sweeps_once_per_direction(monkeypatch):
    steps = []
    sweep = solutions._rk4_sweep

    def counted(q_half, h, p0, v0):
        steps.append(abs(h))
        return sweep(q_half, h, p0, v0)

    monkeypatch.setattr(solutions, "_rk4_sweep", counted)
    separable(1.3, OperatorSpec.from_strings("y1", "0"))
    assert steps == [1e-3, 1e-3]


def rk4_sweep_as_written_before(q_half, h, p0, v0):
    """_rk4_sweep before 0.5 * h was hoisted and k1p read as cv."""
    q = q_half.tolist()
    h = float(h)
    cp, cv = float(p0), float(v0)
    p = [cp]
    v = [cv]
    for qa, qm, qb in zip(q[::2], q[1::2], q[2::2]):
        k1p = cv
        k1v = qa * cp
        k2p = cv + 0.5 * h * k1v
        k2v = qm * (cp + 0.5 * h * k1p)
        k3p = cv + 0.5 * h * k2v
        k3v = qm * (cp + 0.5 * h * k2p)
        k4p = cv + h * k3v
        k4v = qb * (cp + h * k3p)
        cp += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        cv += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        p.append(cp)
        v.append(cv)
    return np.array(p), np.array(v)


def rk4_sweep_plain_matrix(q_half, h, p0, v0):
    """_rk4_sweep with M_n = I + E_n stored and applied: each step's increment
    is rounded against the 1 on M_n's diagonal."""
    qa, qm, qb = q_half[:-1:2], q_half[1::2], q_half[2::2]
    e_pp, e_vp = solutions._rk4_increment(qa, qm, qb, h, 1.0, 0.0)
    e_pv, e_vv = solutions._rk4_increment(qa, qm, qb, h, 0.0, 1.0)
    m = [1.0 + e_pp, e_pv, e_vp, 1.0 + e_vv]
    cp, cv = float(p0), float(v0)
    p = [cp]
    v = [cv]
    for ma, mb, mc, md in zip(*(c.tolist() for c in m)):
        cp, cv = ma * cp + mb * cv, mc * cp + md * cv
        p.append(cp)
        v.append(cv)
    return np.array(p), np.array(v)


def rk4_sweep_decimal(q_half, h, p0, v0):
    """The step expressions of rk4_sweep_as_written_before in 40-digit decimal
    arithmetic on the same float inputs: the exact RK4 map, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = [Decimal(x) for x in q_half.tolist()]
        h = Decimal(float(h))
        hh = h / 2
        cp, cv = Decimal(float(p0)), Decimal(float(v0))
        p = [cp]
        v = [cv]
        for qa, qm, qb in zip(q[::2], q[1::2], q[2::2]):
            k1v = qa * cp
            k2p = cv + hh * k1v
            k2v = qm * (cp + hh * cv)
            k3p = cv + hh * k2v
            k3v = qm * (cp + hh * k2p)
            k4p = cv + h * k3v
            k4v = qb * (cp + h * k3p)
            cp += h * (cv + 2 * k2p + 2 * k3p + k4p) / 6
            cv += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6
            p.append(cp)
            v.append(cv)
    return p, v


def sweep_inputs(beta, lam, y0, target, h):
    """(q_half, step) of the sweep from y0 to target at a step of at most h,
    as _integrate_profile builds them (gamma = 0)."""
    op = OperatorSpec.from_strings(beta, "0")
    n = int(np.ceil(abs(target - y0) / h - 1e-9))
    step = (target - y0) / n
    half_grid = y0 + step * np.arange(2 * n + 1) / 2.0
    return -(lam * op.beta_at(half_grid[:, None])), step


@pytest.mark.parametrize("beta, lam, y0, target, h", [
    ("y1", 1.3, 0.0, 2.0, 1e-3),
    ("y1", 1.3, 0.0, -2.0, 1e-3),     # a downward sweep: negative step
    ("y1^3 - y1", -2.4, 0.4, -1.7, 7e-3),
    ("sin(3*y1)", 0.8, -0.5, 1.9, 5e-4),
])
def test_rk4_sweep_equals_the_old_step_expressions(beta, lam, y0, target, h):
    # the increment form reorders each step's arithmetic, so the arrays move
    # by rounding only: at most 4 n eps of the array's largest magnitude
    q_half, step = sweep_inputs(beta, lam, y0, target, h)
    n = (q_half.size - 1) // 2
    for p0, v0 in [(1.0, 0.0), (0.3, -1.7)]:
        got = solutions._rk4_sweep(q_half, step, p0, v0)
        want = rk4_sweep_as_written_before(q_half, step, p0, v0)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 4 * n * np.finfo(float).eps * np.abs(w).max()


def ulps_off(got, exact) -> float:
    """Largest distance of got from the decimal sweep exact, in ulps of the
    largest |exact|."""
    err = max(abs(Decimal(float(g)) - e) for g, e in zip(got, exact))
    return float(err) / np.spacing(max(abs(float(e)) for e in exact))


# the n_y = 1 drifts of the drift matrix, lambda of both signs, and the two
# steep cases: cosh(4y) at beta = 1, lambda = -16, and y1^2 - 0.25 at -15.9
SWEEP_ACCURACY = [(b, lam) for b in ("y1", "y1^2 - 0.25", "y1^3", "1", "y1^2")
                  for lam in (-2.5, 2.5)] + [("1", -16.0), ("y1^2 - 0.25", -15.9)]


def sweep_accuracy_gate(sweep, beta, lam):
    """(ulps off, bound) of each array of both sweep directions: sweep may be
    off the exact RK4 map by twice the old loop's error plus 16 ulps."""
    out = []
    for target in (-2.0, 2.0):
        q_half, step = sweep_inputs(beta, lam, 0.0, target, 1e-3)
        exact = rk4_sweep_decimal(q_half, step, 1.0, 0.0)
        old = rk4_sweep_as_written_before(q_half, step, 1.0, 0.0)
        new = sweep(q_half, step, 1.0, 0.0)
        out += [(ulps_off(g, e), 2 * ulps_off(o, e) + 16) for g, o, e in zip(new, old, exact)]
    return out


@pytest.mark.parametrize("beta, lam", SWEEP_ACCURACY)
def test_rk4_sweep_keeps_the_old_rounding_error(beta, lam):
    for off, bound in sweep_accuracy_gate(solutions._rk4_sweep, beta, lam):
        assert off <= bound


@pytest.mark.parametrize("beta, lam", [("1", -16.0), ("y1^2 - 0.25", -15.9)])
def test_a_stored_step_matrix_fails_the_accuracy_gate(beta, lam):
    # M_n's diagonal is 1 + O(h^2 q): storing it rounds every increment
    # against 1, and on a constant q the same rounding recurs each step
    gate = sweep_accuracy_gate(rk4_sweep_plain_matrix, beta, lam)
    assert any(off > bound for off, bound in gate)


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0, 8.0])
def test_separable_on_constant_drift_is_the_counterexample_family(lam):
    # beta = 1: phi'' = lam phi from phi(0) = 1 is cosh(sqrt(lam) y), so
    # separable(-lam) is e^{-lam x} cosh(sqrt(lam) y) up to RK4 and Hermite error
    sep = separable(-lam, OperatorSpec.from_strings("1", "0"))
    ce = counterexample_family(lam)
    a, b = sep.as_field().values, ce.as_field().values
    assert np.abs(a / b - 1.0).max() <= 1e-10
    ratio_sep, ratio_ce = sup_inf_ratio(sep).ratio, sup_inf_ratio(ce).ratio
    assert abs(ratio_sep / ratio_ce - 1.0) <= 1e-10


CATALOG = [
    lambda: kolmogorov_poly(10.0),
    lambda: counterexample_family(2.5),
    lambda: separable(1.2, OperatorSpec.from_strings("y1", "0")),
    lambda: separable(-0.7, OperatorSpec.from_strings("y1^2 - 0.5", "-0.2")),
    lambda: constant(2.0),
    lambda: constant(3.0, OperatorSpec.from_strings("y1 - y2", "0", dim_n=3)),
]
CATALOG_IDS = ["kolmogorov", "counterexample", "separable", "separable-gamma", "constant",
               "constant-3d"]


@pytest.mark.parametrize("build", CATALOG, ids=CATALOG_IDS)
def test_sampled_field_equals_the_flat_node_evaluation(build):
    # sample evaluates fn once per x-node and once per y-node, broadcast;
    # each node's value has the bits of fn at that node as one flat point
    sol = build()
    field = sol.as_field(23, 17)
    x, y = field.node_points()
    assert field.values.reshape(-1).tobytes() == np.asarray(sol.fn(x, y), float).tobytes()


@pytest.mark.parametrize("build", CATALOG, ids=CATALOG_IDS)
def test_grid_at_equals_flat_at_bit_for_bit(build):
    sol = build()
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0, 1.0], rng.uniform(-1.0, 2.0, 7)])[:, None]
    y = np.concatenate([np.zeros((1, sol.n_y)), rng.uniform(-1.0, 1.0, (30, sol.n_y))])
    got = sol.at(x, y)
    assert got.shape == (9, 31)
    flat = sol.at(np.repeat(x[:, 0], 31), np.tile(y, (9, 1)))
    assert got.reshape(-1).tobytes() == flat.tobytes()
    # one point and k points keep their forms
    one = sol.at(float(x[2, 0]), y[1])
    assert isinstance(one, float) and one == got[2, 1]
    assert sol.at(np.full(31, x[3, 0]), y).tobytes() == got[3].tobytes()


def test_constant_grid_values_are_broadcast_and_writable():
    sol = constant(2.0)
    got = sol.at(np.array([[0.0], [0.5]]), np.zeros((4, 1)))
    assert got.shape == (2, 4) and np.all(got == 2.0)
    got[0, 0] = 1.0  # a grid result is an array of its own, not a read-only view
