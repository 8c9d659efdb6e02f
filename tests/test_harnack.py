import csv
import dataclasses
import io
import types

import numpy as np
import pytest

from harnack_lab.fields import ScalarField, box_axes
from harnack_lab.harnack import (
    FamilyScan,
    SubCylinder,
    _eval_subgrid,
    counterexample_scan,
    ratio_plot_svg,
    region_inequality_check,
    scan_family,
    scan_to_csv,
    sup_inf_ratio,
    window_average_x,
)
from harnack_lab.operators import CylinderDomain, OperatorSpec
from harnack_lab.solutions import (
    constant,
    counterexample_family,
    kolmogorov_poly,
    separable,
)

DOM = CylinderDomain()


def test_constant_ratio_is_one():
    rep = sup_inf_ratio(constant(7.0))
    assert rep.ratio == 1.0
    assert rep.sup == 7.0
    assert rep.inf == 7.0
    assert rep.subdomain == SubCylinder()


def test_kolmogorov_extrema_and_ratio():
    rep = sup_inf_ratio(kolmogorov_poly(10.0))
    assert rep.sup == pytest.approx(1 + 1 / 6 + 10, abs=1e-12)
    assert rep.inf == pytest.approx(10 - 1 / 6, abs=1e-12)
    assert rep.ratio == pytest.approx(67 / 59, rel=1e-12)
    assert rep.argmax == (1.0, -1.0)
    assert rep.argmin == (0.0, 1.0)


def test_counterexample_ratio_closed_form():
    rep = sup_inf_ratio(counterexample_family(4.0))
    assert rep.ratio == pytest.approx(np.exp(4) * np.cosh(2.0), rel=1e-9)
    assert rep.argmax[0] == 0.0
    assert abs(rep.argmax[1]) == 1.0
    assert rep.argmin == (1.0, 0.0)


@pytest.mark.parametrize("radius, n_y, grid", [(1.7, 2, 41), (2.0, 1, 101)])
def test_subgrid_is_the_masked_box_lattice(radius, n_y, grid):
    # the points and their order, so argmin and argmax stay where they were
    sub = SubCylinder(-0.3, 0.8, radius)
    probe = types.SimpleNamespace(n_y=n_y, at=lambda x, y: x + y.sum(axis=-1))
    axes = (np.linspace(sub.x_lo, sub.x_hi, grid),) + (np.linspace(-radius, radius, grid),) * n_y
    mesh = np.meshgrid(*axes, indexing="ij")
    x = mesh[0].reshape(-1)
    y = np.stack([m.reshape(-1) for m in mesh[1:]], axis=-1)
    keep = (y * y).sum(axis=-1) <= radius**2 * (1 + 1e-12)
    got_x, got_y, vals = _eval_subgrid(probe, sub, grid)
    assert np.array_equal(got_x, x[keep])
    assert np.array_equal(got_y, y[keep])
    assert np.array_equal(vals, x[keep] + y[keep].sum(axis=-1))


def test_refuses_nonpositive_field():
    axes = box_axes(-0.2, 1.2, 15, 1.0, 11)
    dipped = ScalarField.sample(lambda x, y: x - 0.5, axes, name="dipped")
    with pytest.raises(ValueError, match="not positive"):
        sup_inf_ratio(dipped)


def test_scan_family_constants():
    scan = scan_family([constant(c) for c in (1.0, 5.0, 100.0)], family="constants")
    assert scan.max_ratio == 1.0
    assert len(scan.reports) == 3
    assert scan.verdict is None
    assert scan.to_json_dict() == {"family": "constants", "max_ratio": 1.0, "verdict": None}


def test_scan_family_kolmogorov_decreasing_in_offset():
    sols = [kolmogorov_poly(C) for C in (2.0, 5.0, 10.0, 100.0)]
    scan = scan_family(sols, family="kolmogorov")
    ratios = [r.ratio for r in scan.reports]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert scan.max_ratio == ratios[0]
    assert scan.max_ratio == pytest.approx(19 / 11, rel=1e-12)


def test_scan_family_rejects_empty():
    with pytest.raises(ValueError):
        scan_family([])


def test_counterexample_scan_divergent():
    scan = counterexample_scan([1.0, 2.0, 4.0, 8.0])
    want = [np.exp(l) * np.cosh(np.sqrt(l)) for l in (1.0, 2.0, 4.0, 8.0)]
    got = [r.ratio for r in scan.reports]
    np.testing.assert_allclose(got, want, rtol=1e-9)
    assert scan.verdict == "divergent"
    assert scan.params == (1.0, 2.0, 4.0, 8.0)
    assert scan.max_ratio == pytest.approx(want[-1], rel=1e-9)


def test_counterexample_scan_edge_cases():
    assert counterexample_scan([3.0]).verdict is None
    # increasing but shallow: no tenfold growth
    assert counterexample_scan([1.0, 1.1]).verdict == "bounded"
    with pytest.raises(ValueError, match="empty"):
        counterexample_scan([])
    with pytest.raises(ValueError, match="positive"):
        counterexample_scan([-1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        counterexample_scan([2.0, 1.0])


def test_ratio_scale_invariance_exact():
    field = kolmogorov_poly(10.0).as_field(41, 41)
    scaled = ScalarField(field.axes, field.values * 4.0, name="scaled")
    assert sup_inf_ratio(field).ratio == sup_inf_ratio(scaled).ratio


def test_ratio_translation_invariance_exact():
    def f(x, y):
        return x - y[:, 0] ** 3 / 6 + 10.0

    axes = (np.linspace(-0.5, 1.5, 17), np.linspace(-1.25, 1.25, 21))
    base = ScalarField.sample(f, axes)
    moved = ScalarField.sample(lambda x, y: f(x - 2.0, y), (axes[0] + 2.0, axes[1]))
    rep_a = sup_inf_ratio(base, SubCylinder(0.0, 1.0, 1.0), grid=9)
    rep_b = sup_inf_ratio(moved, SubCylinder(2.0, 3.0, 1.0), grid=9)
    assert rep_a.ratio == rep_b.ratio
    assert rep_a.sup == rep_b.sup


def test_ratio_stable_under_grid_doubling():
    sol = separable(1.0, OperatorSpec.from_strings("y1", "0"))
    coarse = sup_inf_ratio(sol, grid=101).ratio
    fine = sup_inf_ratio(sol, grid=201).ratio
    assert abs(coarse - fine) / fine <= 0.05


def test_region_check_constant():
    op = OperatorSpec.from_strings("y1", "0")
    chk = region_inequality_check(constant(1.0), op, DOM, level=0.5, cap=10.0)
    assert chk.ratio == 1.0
    assert chk.passed
    assert chk.plus_count > 0 and chk.minus_count > 0


def test_region_check_kolmogorov_closed_form():
    op = OperatorSpec.from_strings("y1", "0")
    chk = region_inequality_check(kolmogorov_poly(10.0), op, DOM, level=0.5, cap=2.0)
    # strict level sets at step 0.01 top out at y = +/-0.99
    assert chk.sup == pytest.approx(1 + 0.99**3 / 6 + 10, abs=1e-12)
    assert chk.inf == pytest.approx(10 - 1 / 6, abs=1e-12)
    assert chk.passed  # ratio about 1.135


def test_bad_subcylinder_and_mismatched_dimensions():
    with pytest.raises(ValueError, match="x_lo must be below x_hi"):
        SubCylinder(1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="y_radius must be positive"):
        SubCylinder(0.0, 1.0, 0.0)
    op = OperatorSpec.from_strings("y1", "0", dim_n=3)
    with pytest.raises(ValueError, match="dimensions differ"):
        region_inequality_check(constant(1.0), op, DOM, level=0.5, cap=10.0)


def test_region_check_one_signed_drift_errors():
    op = OperatorSpec.from_strings("1", "0")
    with pytest.raises(ValueError, match="empty"):
        region_inequality_check(constant(1.0, op=op), op, DOM, level=0.5, cap=10.0)


def test_window_average_constant_and_linear():
    axes = box_axes(0.0, 1.0, 41, 1.0, 9)
    const3 = ScalarField.sample(lambda x, y: np.full(x.shape, 3.0), axes)
    v = window_average_x(const3, 0.25)
    np.testing.assert_allclose(v.values, 2 * 0.25 * 3.0, rtol=1e-13)
    assert v.axes[0][0] >= 0.25 - 1e-12
    assert v.axes[0][-1] <= 0.75 + 1e-12

    linear = ScalarField.sample(lambda x, y: x, axes)
    w = window_average_x(linear, 0.25)
    want = np.broadcast_to(2 * 0.25 * w.axes[0][:, None], w.values.shape)
    np.testing.assert_allclose(w.values, want, atol=1e-14)


def test_window_average_kolmogorov_closed_form():
    field = kolmogorov_poly(10.0).as_field(111, 61)
    z = 1.0 / 3.0
    v = window_average_x(field, z)
    xs, ys = np.meshgrid(v.axes[0], v.axes[1], indexing="ij")
    want = 2 * z * (xs + 10.0) - 2 * z * ys**3 / 6
    assert np.abs(v.values - want).max() < 1e-9


def test_window_average_validation():
    axes = box_axes(0.0, 0.5, 11, 1.0, 5)
    field = ScalarField.sample(lambda x, y: np.ones_like(x), axes)
    with pytest.raises(ValueError, match="1/3"):
        window_average_x(field, 0.4)
    with pytest.raises(ValueError, match="1/3"):
        window_average_x(field, 0.0)
    with pytest.raises(ValueError, match="margin"):
        window_average_x(field, 1.0 / 3.0)


def test_scan_csv_and_svg(tmp_path):
    scan = counterexample_scan([1.0, 2.0, 4.0])
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "solution,sup,inf,ratio,argmax_x,argmax_y1,argmin_x,argmin_y1"
    assert len(lines) == 4
    assert lines[1].startswith("counterexample(1),")
    svg = ratio_plot_svg(scan)
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert ratio_plot_svg(scan) == svg


def test_scan_csv_quotes_names_like_the_csv_module(tmp_path):
    scan = counterexample_scan([1.0, 2.0, 4.0, 8.0])
    names = ["separable(lambda=1.5,gamma=2)", 'say "hi"', "two\nlines", "kolmogorov(5)"]
    scan = dataclasses.replace(scan, reports=tuple(
        dataclasses.replace(rep, solution=name) for rep, name in zip(scan.reports, names)))
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    text = path.read_text()
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [row[0] for row in rows] == names
    assert all(len(row) == len(header) for row in rows)
    for name in names:
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\n").writerow([name])
        assert "\n" + sink.getvalue()[:-1] + "," in text
    assert "\nkolmogorov(5)," in text  # no quotes where none are needed
