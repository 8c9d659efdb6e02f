import dataclasses
import math

import numpy as np
import pytest

from harnack_lab.expressions import UnknownIdentifierError, parse
from harnack_lab.fields import ScalarField, box_axes
from harnack_lab.operators import (
    CylinderDomain,
    OperatorSpec,
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
    assert report.beta_min >= 0.0
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
    # user-provided bounds are kept
    op2 = OperatorSpec.from_strings("y1", beta_sup=5.0)
    filled2 = with_estimated_sups(op2, CylinderDomain())
    assert filled2.beta_sup == 5.0 and filled2.gamma_sup == 0.0
