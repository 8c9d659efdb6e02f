import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest

from harnack_lab import expressions, operators
from harnack_lab.expressions import (
    EvalDomainError,
    UnknownIdentifierError,
    evaluate,
    parse,
)
from harnack_lab.fields import ScalarField, box_axes, grid_points, step_axis
from harnack_lab.operators import (
    MASS_TOLERANCE,
    _SLAB_NODES,
    CylinderDomain,
    HormanderReport,
    OperatorSpec,
    _derivative_exprs,
    _locate_eval_failure,
    ball_lattice,
    check_hypothesis,
    classify_regions,
    estimate_sups,
    residual,
    smallest_passing_order,
    with_estimated_sups,
)

BALL3 = dataclasses.replace(CylinderDomain(), y_outer_radius=3.0)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec.from_strings("y1", dim_n=1)
    with pytest.raises(UnknownIdentifierError):
        OperatorSpec.from_strings("x + y1")  # beta must not use x
    with pytest.raises(ValueError, match="beta may depend only on"):
        OperatorSpec(beta=parse("x + y1", ("x", "y1")))
    with pytest.raises(UnknownIdentifierError):
        OperatorSpec.from_strings("y1", gamma="y3", dim_n=2)
    op = OperatorSpec.from_strings("y1*y2", gamma="x*y2", dim_n=3)
    assert op.y_names == ("y1", "y2")
    assert op.beta_at(np.array([[0.5, 2.0]]))[0] == 1.0
    assert op.gamma_at(np.array([3.0]), np.array([[0.5, 2.0]]))[0] == 6.0


def test_beta_at_broadcasts_constants():
    op = OperatorSpec.from_strings("1")
    vals = op.beta_at(np.zeros((17, 1)))
    assert vals.shape == (17,)
    assert np.all(vals == 1.0)


def test_cylinder_domain_validation():
    with pytest.raises(ValueError):
        CylinderDomain(x_lo=0.0, inner_x_lo=-1.0)
    with pytest.raises(ValueError):
        CylinderDomain(y_inner_radius=3.0)
    dom = CylinderDomain()
    assert (dom.x_lo, dom.inner_x_lo, dom.inner_x_hi, dom.x_hi) == (-5.0, 0.0, 1.0, 6.0)
    assert (dom.y_outer_radius, dom.y_inner_radius) == (2.0, 1.0)


def test_check_hypothesis_linear_drift_passes():
    op = OperatorSpec.from_strings("y1")
    report = check_hypothesis(op, BALL3, order=1)
    assert report.passed and report.sign_change_ok
    assert report.sign_witnesses[0] == (-3.0,)
    assert report.sign_witnesses[1] == (3.0,)
    # mass = |y| + 1, minimum 1 near y = 0
    assert report.min_derivative_mass == pytest.approx(1.0, abs=1e-9)
    assert report.error is None


def test_check_hypothesis_square_drift_fails_sign_change():
    op = OperatorSpec.from_strings("y1^2")
    report = check_hypothesis(op, BALL3, order=2)
    assert not report.passed
    assert not report.sign_change_ok
    # the grid minimum of beta sits at y = 0, where y^2 = 0 is not negative
    assert report.sign_witnesses[0][0] == pytest.approx(0.0, abs=1e-12)
    # derivative mass itself is fine: y^2 + 2|y| + 2 >= 2
    assert report.min_derivative_mass > 1.9


def test_check_hypothesis_sine_drift_two_y_axes():
    op = OperatorSpec.from_strings("sin(y1)", dim_n=3)
    report = check_hypothesis(op, BALL3, order=1)
    assert report.passed and report.sign_change_ok
    # |sin| + |cos| has minimum 1, attained where y1 is a multiple of pi/2
    assert report.min_derivative_mass == pytest.approx(1.0, abs=1e-9)


def test_check_hypothesis_json_shape():
    op = OperatorSpec.from_strings("y1")
    d = check_hypothesis(op, BALL3, order=1).to_json_dict()
    assert set(d) == {"pass", "r", "min_derivative_mass", "sign_witnesses", "grid_step"}
    assert d["pass"] is True and d["r"] == 1
    assert d["sign_witnesses"] == [[-3.0], [3.0]]


def test_check_hypothesis_reports_expression_failures():
    op = OperatorSpec.from_strings("sqrt(y1 - 5)")
    report = check_hypothesis(op, BALL3, order=1)
    assert not report.passed
    assert "evaluation failed at y=" in report.error

    op = OperatorSpec.from_strings("(2 + y1) ^ y1")
    report = check_hypothesis(op, BALL3, order=1)
    assert not report.passed
    assert "cannot differentiate" in report.error


def check_each_derivative_alone(op, dom, order, grid_step):
    """check_hypothesis as a sweep of the whole ball_lattice's points, with
    every derivative evaluated on its own and the mass summed over the kept
    arrays; a failure is named at the first failing point in C order."""
    pts, step = ball_lattice(dom.y_outer_radius, grid_step, op.n_y, closed=True)
    exprs = _derivative_exprs(op.beta, op.y_names, order)

    def evaluate_all(p):
        env = {name: p[:, k] for k, name in enumerate(op.y_names)}
        return [evaluate(e, env) for e in exprs]

    try:
        values = evaluate_all(pts)
    except EvalDomainError:
        # the shortest failing prefix of the points ends at the first failing point
        ok, bad = 0, pts.shape[0]
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                evaluate_all(pts[:mid])
                ok = mid
            except EvalDomainError:
                bad = mid
        return HormanderReport(
            passed=False, order_used=order, sign_change_ok=False, sign_witnesses=None,
            min_derivative_mass=None, grid_step=step,
            error=_locate_eval_failure(derivative_sweep(exprs), op.y_names, pts[bad - 1:bad]))
    values = [np.full(pts.shape[0], v) if np.ndim(v) == 0 else v for v in values]
    mass = np.zeros(pts.shape[0])
    for v in values:
        mass += np.abs(v)
    i_min, i_max = int(np.argmin(values[0])), int(np.argmax(values[0]))
    sign_ok = values[0][i_min] < 0 < values[0][i_max]
    return HormanderReport(
        passed=bool(sign_ok and mass.min() > MASS_TOLERANCE), order_used=order,
        sign_change_ok=bool(sign_ok), sign_witnesses=(tuple(pts[i_min]), tuple(pts[i_max])),
        min_derivative_mass=float(mass.min()), grid_step=step)


# the scan beta, one beta per function of the expression language, a
# fourth-order check, betas undefined at box nodes off the ball (N = 3 and 4)
# but defined on it, and one undefined on the ball; N = 2, 3 and 4, at steps
# that give N = 3 and 4 several slabs (N = 4 at 0.1: 41 nodes per axis, 19
# first-axis nodes a slab)
_FUNCTION_BETAS = {
    "sin": ("sin(2*y1) + 0.2", 2),
    "cos": ("cos(y1)*y2 - 0.3*y1", 3),
    "exp": ("exp(0.5*y1 - y2) - 1", 3),
    "cosh": ("cosh(y1*y2) - 1.5 + y3", 4),
    "sinh": ("sinh(y1) - y2^2", 3),
    "sqrt": ("sqrt(5 + y1)*y1 - 1/(4 - y1)", 2),
}


def test_check_cases_cover_every_function():
    assert set(_FUNCTION_BETAS) == set(expressions._FUNCTIONS)
    for name, (beta, _dim_n) in _FUNCTION_BETAS.items():
        assert f"{name}(" in beta


@pytest.mark.parametrize("beta, dim_n, order", [
    ("sin(1.3*y1)*y2 + 0.7*y1", 3, 2),
    ("sin(1.3*y1)*y2 + 0.7*y1", 3, 3),
    ("exp(0.5*y1)*cos(y2) - sin(y1*y2)", 3, 2),
    ("sqrt(5 + y1)*y1 - 1/(4 - y1)", 2, 4),
    ("(y1^2 - 0.25)*cosh(y1)", 2, 3),
    ("y1 + 0.3", 2, 0),
    ("-(y1*y2*y3) + y3", 4, 2),
    ("sin(1.37*y1)*y2 + 1.1*y1", 3, 2),
    ("sin(1.37*y1)*y2 + 1.1*y1 - y3", 4, 2),
    *((beta, dim_n, 2) for beta, dim_n in _FUNCTION_BETAS.values()),
    ("y1^3*y2 - y2", 3, 4),
    ("y1^3*y2 - y2", 4, 4),
    ("sqrt(4.5 - y1^2)*y1", 2, 2),
    ("sqrt(4.5 - y1^2 - y2^2)*y1", 3, 2),
    ("sqrt(4.5 - y1^2 - y2^2 - y3^2)*y1", 4, 2),
    ("1/(y1 - 1)", 2, 2),
    ("1/(y1 - 1)", 3, 2),
    ("1/(y1 - 1)", 4, 2),
])
def test_check_hypothesis_equals_each_derivative_alone(beta, dim_n, order):
    op = OperatorSpec.from_strings(beta, dim_n=dim_n)
    step = 0.02 if dim_n < 4 else 0.1
    want = check_each_derivative_alone(op, CylinderDomain(), order, step)
    got = check_hypothesis(op, CylinderDomain(), order=order, grid_step=step)
    assert got == want
    if want.error is None:
        assert struct.pack("<d", got.min_derivative_mass) == struct.pack(
            "<d", want.min_derivative_mass)
        assert np.array(got.sign_witnesses).tobytes() == np.array(want.sign_witnesses).tobytes()
    if beta.startswith("sqrt(4.5"):
        # the slabs' boxes hold nodes off the ball, where beta is undefined
        assert got.passed
    if beta == "1/(y1 - 1)":
        assert got.error.startswith("evaluation failed at y=(1")


@pytest.mark.parametrize("beta, witnesses", [
    # the minimum -1 (the maximum 1) ties along y2 = 0 in every slab: the
    # first in C order wins
    ("y2^2 - 1", ((-2.0, 0.0), (0.0, -2.0))),
    ("1 - y2^2", ((0.0, -2.0), (-2.0, 0.0))),
    # both witnesses lie in slabs after the first
    ("y1*y2 - 0.3*y2^2", ((1.2, -1.6), (1.6, 1.2))),
])
def test_slab_sweep_is_the_whole_lattice_sweep(beta, witnesses):
    op = OperatorSpec.from_strings(beta, dim_n=3)
    assert 401 ** 2 > 4 * _SLAB_NODES  # the lattice at step 0.01 spans several slabs
    want = check_each_derivative_alone(op, CylinderDomain(), 2, 0.01)
    got = check_hypothesis(op, CylinderDomain(), order=2)
    assert got == want
    assert np.allclose(got.sign_witnesses, witnesses, rtol=0, atol=1e-12)


def test_slab_sweep_names_the_first_failing_point():
    op = OperatorSpec.from_strings("1/(y1 - 1)", dim_n=3)
    report = check_hypothesis(op, CylinderDomain(), order=2)
    assert not report.passed
    assert report.error == "evaluation failed at y=(1, -1.73): division by zero"


def derivative_sweep(exprs):
    """A sweep function for ``_locate_eval_failure``: every expression in
    order, each through ``operators.evaluate``, so that a monkeypatched
    ``evaluate`` there sees every call."""
    return lambda env, shape: [operators.evaluate(e, env) for e in exprs]


def scalar_scan_failure(exprs, names, pts) -> str:
    """The first failing point found by evaluating every point on scalars,
    expression by expression, in order."""
    for i in range(pts.shape[0]):
        env = {name: float(pts[i, k]) for k, name in enumerate(names)}
        for e in exprs:
            try:
                evaluate(e, env)
            except EvalDomainError as err:
                loc = ", ".join(format(v, ".6g") for v in pts[i])
                return f"evaluation failed at y=({loc}): {err}"
    return "evaluation failed on the grid"


@pytest.mark.parametrize("beta, dim_n, step", [
    ("1/(y1 - 1)", 2, 0.05),
    ("1/(y1 - 1)", 3, 0.1),
    ("1/(y1 - 1)", 4, 0.25),
    # sqrt of a negative before the derivatives' division by zero at y2 = -1
    ("sqrt(y2 + 1)*y1", 3, 0.05),
    ("y1/(y3 - 0.5) + y2", 4, 0.1),
])
def test_eval_failure_is_located_by_bisection(monkeypatch, beta, dim_n, step):
    op = OperatorSpec.from_strings(beta, dim_n=dim_n)
    exprs = _derivative_exprs(op.beta, op.y_names, 2)
    pts, _ = ball_lattice(2.0, step, op.n_y)
    want = scalar_scan_failure(exprs, op.y_names, pts)
    assert want.startswith("evaluation failed at y=(")
    calls = {"array": 0, "scalar": 0}

    def counted(e, env):
        calls["array" if np.ndim(next(iter(env.values()))) else "scalar"] += 1
        return evaluate(e, env)

    monkeypatch.setattr(operators, "evaluate", counted)
    assert _locate_eval_failure(derivative_sweep(exprs), op.y_names, pts) == want
    assert 0 < calls["array"] <= len(exprs) * math.ceil(math.log2(pts.shape[0]))
    assert 0 < calls["scalar"] <= len(exprs)


@pytest.mark.parametrize("beta, dim_n", [
    ("sin(1.37*y1)*y2 + 1.1*y1", 3),
    ("cos(3*y1) - 0.1", 2),
    ("exp(y1)*y2 - sinh(y2) + cosh(y1) - 1.2", 3),
    # undefined at the box corners and on the sphere, which the open ball leaves out
    ("sqrt(1.2 - y1^2 - y2^2)*y1", 3),
    ("1/(1 - y1^2) - 1.5", 2),
    ("1", 2),
])
def test_grid_form_regions_are_the_point_split(beta, dim_n):
    op = OperatorSpec.from_strings(beta, dim_n=dim_n)
    pts, step = ball_lattice(1.0, 0.01, op.n_y, closed=False)
    beta_vals = op.beta_at(pts)
    for level in (0.3, 0.7):
        got = classify_regions(op, CylinderDomain(), level, 0.01)
        assert got.grid_step == step
        for got_pts, want_pts in ((got.plus_points, pts[beta_vals > level]),
                                  (got.minus_points, pts[beta_vals < -level])):
            assert got_pts.shape == want_pts.shape
            assert got_pts.tobytes() == want_pts.tobytes()


def test_grid_form_regions_raise_the_whole_lattice_error():
    # the first slab fails only at 1/y2, the whole lattice first there too:
    # the error names the first failing lattice point, as check does
    op = OperatorSpec.from_strings("sqrt(0.7 - y1) + 1/y2", dim_n=3)
    pts, _ = ball_lattice(1.0, 0.01, 2, closed=False)
    want = scalar_scan_failure([op.beta], op.y_names, pts)
    with pytest.raises(EvalDomainError) as got:
        classify_regions(op, CylinderDomain(), 0.5, 0.01)
    assert str(got.value) == want == "evaluation failed at y=(-0.99, 0): division by zero"


def test_check_hypothesis_working_set():
    # the lattice is reduced slab by slab, so one slab's derivative values,
    # not the 126k-point lattice's, set the traced peak
    op = OperatorSpec.from_strings("sin(1.3*y1)*y2 + 0.7*y1", dim_n=3)
    tracemalloc.start()
    try:
        report = check_hypothesis(op, CylinderDomain(), order=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 3.5e6, f"traced peak {peak / 1e6:.2f} MB"


def test_check_hypothesis_evaluates_each_shared_function_once(monkeypatch):
    op = OperatorSpec.from_strings("sin(1.3*y1)*y2 + 0.7*y1", dim_n=3)
    # the lattice is swept in slabs in grid form, and sin(1.3*y1) and
    # cos(1.3*y1) depend on y1 alone: count the elements each function sees
    n_y1 = step_axis(-2.0, 2.0, 0.01).size
    seen = {"sin": 0, "cos": 0}

    def counted(name, fn):
        def wrapper(a):
            seen[name] += np.size(a)
            return fn(a)
        return wrapper

    for name in seen:
        fn = expressions._FUNCTIONS[name]
        monkeypatch.setitem(expressions._FUNCTIONS, name, counted(name, fn))
    report = check_hypothesis(op, CylinderDomain(), order=2)
    # beta, d2/dy1^2 and d/dy2 hold sin(1.3*y1); d/dy1 and d2/dy1dy2 hold
    # cos(1.3*y1)*1.3: each use is computed once per first-axis node, where a
    # flat sweep would see the lattice's 125,629 points per use
    assert seen == {"sin": 3 * n_y1, "cos": 2 * n_y1}
    assert report.passed


def test_check_hypothesis_precondition_errors():
    op = OperatorSpec.from_strings("y1")
    with pytest.raises(ValueError):
        check_hypothesis(op, BALL3, order=-1)
    with pytest.raises(ValueError):
        check_hypothesis(op, BALL3, order=1, grid_step=1.0)  # < 10 points per axis


def test_verdicts_stable_under_grid_refinement():
    cases = ["y1", "y1^2", "sin(y1)", "y1^3 - y1"]
    for beta in cases:
        op = OperatorSpec.from_strings(beta)
        coarse = check_hypothesis(op, BALL3, order=2, grid_step=0.05)
        fine = check_hypothesis(op, BALL3, order=2, grid_step=0.025)
        assert coarse.passed == fine.passed


def test_smallest_passing_order():
    dom = BALL3
    assert smallest_passing_order(OperatorSpec.from_strings("y1"), dom) == 1
    assert smallest_passing_order(OperatorSpec.from_strings("y1^2"), dom) is None
    # y^3: beta, beta', beta'' all vanish at 0; third derivative is 6
    assert smallest_passing_order(OperatorSpec.from_strings("y1^3"), dom) == 3


def test_order_zero_never_passes_with_a_sign_change():
    # beta = (y1 - 0.0123)^3 vanishes between lattice nodes, so |beta| stays
    # above the mass tolerance on the lattice while beta changes sign
    op = OperatorSpec.from_strings("(y1-0.0123)^3")
    zero = check_hypothesis(op, CylinderDomain(), order=0)
    assert zero.sign_change_ok and zero.min_derivative_mass > MASS_TOLERANCE
    assert not zero.passed
    assert smallest_passing_order(op, CylinderDomain()) == 1


def test_classify_regions_linear_drift():
    op = OperatorSpec.from_strings("y1")
    dom = CylinderDomain()
    regions = classify_regions(op, dom, level=0.5, grid_step=0.01)
    assert regions.warning is None
    assert regions.plus_count > 0 and regions.minus_count > 0
    assert np.all(regions.plus_points[:, 0] > 0.5)
    assert np.all(regions.plus_points[:, 0] < 1.0)
    assert np.all(regions.minus_points[:, 0] < -0.5)
    # strict inequalities: the lattice point at exactly 0.5 is excluded
    assert not np.any(np.isclose(regions.plus_points[:, 0], 0.5))


def test_classify_regions_empty_sides_warn():
    op = OperatorSpec.from_strings("y1")
    regions = classify_regions(op, CylinderDomain(), level=2.0)
    assert regions.plus_count == 0 and regions.minus_count == 0
    assert "empty" in regions.warning

    # sin on the unit inner ball: |sin| <= sin(1) < 0.9, so both sides empty
    op = OperatorSpec.from_strings("sin(y1)", dim_n=3)
    regions = classify_regions(op, CylinderDomain(), level=0.9, grid_step=0.02)
    assert regions.plus_count == 0 and regions.minus_count == 0
    # at 0.8 both sides exist (arcsin(0.8) < 1)
    regions = classify_regions(op, CylinderDomain(), level=0.8, grid_step=0.02)
    assert regions.plus_count > 0 and regions.minus_count > 0
    assert regions.warning is None


def test_classify_regions_monotone_in_level():
    op = OperatorSpec.from_strings("sin(3*y1)")
    dom = CylinderDomain()
    low = classify_regions(op, dom, level=0.3, grid_step=0.01)
    high = classify_regions(op, dom, level=0.6, grid_step=0.01)
    low_plus = {tuple(p) for p in low.plus_points}
    high_plus = {tuple(p) for p in high.plus_points}
    assert high_plus <= low_plus
    low_minus = {tuple(p) for p in low.minus_points}
    high_minus = {tuple(p) for p in high.minus_points}
    assert high_minus <= low_minus


def test_classify_regions_level_must_be_positive():
    with pytest.raises(ValueError):
        classify_regions(OperatorSpec.from_strings("y1"), CylinderDomain(), level=0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        classify_regions(OperatorSpec.from_strings("y1"), CylinderDomain(), level=float("nan"))


def test_classify_regions_lattice_must_resolve_the_inner_ball():
    # the rule of check_hypothesis: 2 * radius / grid_step >= 10
    op, dom = OperatorSpec.from_strings("y1"), CylinderDomain()
    assert classify_regions(op, dom, level=0.5, grid_step=0.2).plus_count > 0
    for step in (0.21, 5.0, 0.0, -0.1):
        with pytest.raises(ValueError, match="inner ball with at least 10 points per axis"):
            classify_regions(op, dom, level=0.5, grid_step=step)


def test_residual_annihilates_constants():
    op = OperatorSpec.from_strings("y1")
    u = ScalarField(box_axes(-2, 2, 9, 1.5, 9), np.ones((9, 9)))
    r = residual(u, op)
    assert np.all(r.values == 0.0)
    assert r.values.shape == (7, 7)

    op1 = OperatorSpec.from_strings("y1", gamma="1")
    r1 = residual(u, op1)
    assert np.all(r1.values == 1.0)


def test_residual_exact_for_cubic_solution():
    op = OperatorSpec.from_strings("y1")
    axes = box_axes(-5.0, 6.0, 45, 3.0, 25)
    u = ScalarField.sample(lambda x, y: x - y[:, 0] ** 3 / 6 + 10, axes)
    r = residual(u, op)
    assert np.abs(r.values).max() <= 1e-9


def test_residual_second_order_convergence():
    op = OperatorSpec.from_strings("1")

    def u(x, y):
        return np.exp(-4 * x) * np.cosh(2 * y[:, 0])

    coarse = residual(ScalarField.sample(u, box_axes(0, 1, 21, 1, 21)), op)
    fine = residual(ScalarField.sample(u, box_axes(0, 1, 41, 1, 41)), op)
    ratio = np.abs(coarse.values).max() / np.abs(fine.values).max()
    assert 3.2 < ratio < 4.8


def test_residual_grid_too_small():
    op = OperatorSpec.from_strings("y1")
    u = ScalarField((np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        residual(u, op)
    with pytest.raises(ValueError, match="the operator expects 2"):
        residual(u, OperatorSpec.from_strings("y1", dim_n=3))


def test_estimate_sups():
    op = OperatorSpec.from_strings("y1", gamma="sin(x)")
    beta_sup, gamma_sup = estimate_sups(op, CylinderDomain())
    assert beta_sup == pytest.approx(2.1)
    assert 1.0 <= gamma_sup <= 1.06

    filled = with_estimated_sups(op, CylinderDomain())
    assert filled.beta_sup == beta_sup and filled.gamma_sup == gamma_sup


X_GAMMA = "0.2*sin(x)*y1"


def per_node_sups(op, dom):
    """estimate_sups as a loop over single x-nodes: one gamma_at call per
    x-node on the whole sup lattice."""
    y_pts, _ = ball_lattice(dom.y_outer_radius, operators._SUP_GRID_STEP, op.n_y)
    gamma_max = max(float(np.abs(op.gamma_at(np.full(y_pts.shape[0], x), y_pts)).max())
                    for x in step_axis(dom.x_lo, dom.x_hi, operators._SUP_GRID_STEP))
    return (operators._SUP_MARGIN * float(np.abs(op.beta_at(y_pts)).max()),
            operators._SUP_MARGIN * gamma_max)


def counted_gamma_calls(monkeypatch) -> list:
    calls = []
    gamma_at = OperatorSpec.gamma_at

    def counted(self, x, y):
        calls.append(np.shape(x))
        return gamma_at(self, x, y)

    monkeypatch.setattr(OperatorSpec, "gamma_at", counted)
    return calls


@pytest.mark.parametrize("dim_n, slab_nodes, n_calls", [
    (2, _SLAB_NODES, 1),  # 221 x-nodes times 81 lattice points fit one slab
    (3, _SLAB_NODES, 37),  # 5,025 lattice points: 6 x-nodes a slab
    (2, 500, 37),  # 81 lattice points: 6 x-nodes a slab
    (3, 10, 221),  # the lattice alone exceeds a slab: one x-node each
])
def test_gamma_sup_sweep_is_one_call_per_slab_of_x_nodes(monkeypatch, dim_n, slab_nodes,
                                                          n_calls):
    # the bits of a loop over single x-nodes, one gamma_at call per slab
    op = OperatorSpec.from_strings("y1", X_GAMMA, dim_n=dim_n)
    want = per_node_sups(op, CylinderDomain())
    monkeypatch.setattr(operators, "_SLAB_NODES", slab_nodes)
    calls = counted_gamma_calls(monkeypatch)
    got = estimate_sups(op, CylinderDomain())
    assert struct.pack("<2d", *got) == struct.pack("<2d", *want)
    assert len(calls) == n_calls and sum(shape[0] for shape in calls) == 221


@pytest.mark.parametrize("beta, dim_n, where", [
    ("1/y1", 2, "y=(0): division by zero"),
    ("sqrt(1-y1^2)", 2, "y=(-2): sqrt of negative value"),
    # the first lattice point in C order on the line y1 = 1 of the radius-2 ball
    ("1/(y1 - 1)", 3, "y=(1, -1.7): division by zero"),
])
def test_sup_sweep_names_where_beta_fails(beta, dim_n, where):
    # the first failing point of the sup lattice, as check names it on its own
    op = OperatorSpec.from_strings(beta, dim_n=dim_n)
    with pytest.raises(EvalDomainError) as err:
        estimate_sups(op, CylinderDomain())
    assert str(err.value) == f"evaluation failed at {where}"


def test_sup_bounds_are_measured_never_given():
    with pytest.raises(TypeError):
        OperatorSpec(parse("y1", ("y1",)), beta_sup=1.0)
    op = OperatorSpec.from_strings("y1", gamma="0.4*y1")
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(op, gamma_sup=0.5)
    assert op.beta_sup is None and op.gamma_sup is None
    filled = with_estimated_sups(op, CylinderDomain())
    assert (filled.beta_sup, filled.gamma_sup) == estimate_sups(op, CylinderDomain())
    assert filled.beta_sup == pytest.approx(2.1) and filled.gamma_sup == pytest.approx(0.84)
    # a filled op is its own fill; a copy of it is measured afresh
    assert with_estimated_sups(filled, CylinderDomain()) is filled
    assert dataclasses.replace(filled).beta_sup is None


def meshgrid_ball_lattice(radius, grid_step, n_axes, closed):
    """ball_lattice as it was built before it read the nodes off the axis:
    the whole (n^d, d) node table, r^2 by einsum, and a boolean row gather."""
    axis = step_axis(-radius, radius, grid_step)
    actual = 2 * radius / (axis.size - 1)
    pts = grid_points([axis] * n_axes)
    r2 = np.einsum("ij,ij->i", pts, pts)
    keep = r2 <= radius * radius + 1e-12 if closed else r2 < radius * radius - 1e-12
    return pts[keep], actual


# (radius, step) pairs with nodes on the sphere: (3, 4) and (0, 5) on
# radius 5, (1, 2, 2) on radius 3, and the axis ends on every radius;
# (2, 0.05) and (2, 0.01) are the sup-estimate and check lattices, and 0.33
# does not divide its span.  No 3-D case past 101 nodes per axis: it only
# repeats the 2-D one
@pytest.mark.parametrize("radius, grid_step, n_axes", [
    (radius, grid_step, n_axes)
    for radius, grid_step in [(5.0, 1.0), (5.0, 0.5), (3.0, 1.0), (1.0, 0.5), (2.0, 0.05),
                              (2.0, 0.01), (1.0, 0.33)]
    for n_axes in (1, 2, 3) if n_axes < 3 or radius / grid_step <= 50
])
@pytest.mark.parametrize("closed", [True, False])
def test_ball_lattice_equals_the_meshgrid_construction(radius, grid_step, n_axes, closed):
    pts, actual = ball_lattice(radius, grid_step, n_axes, closed)
    want, want_actual = meshgrid_ball_lattice(radius, grid_step, n_axes, closed)
    assert pts.shape == want.shape and pts.dtype == want.dtype
    assert pts.tobytes() == want.tobytes()  # the same points in the same C order
    assert actual == want_actual
    on_sphere = np.abs(np.sum(pts * pts, axis=1) - radius * radius) <= 1e-12
    assert np.any(on_sphere) == closed
