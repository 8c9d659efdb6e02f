import csv
import dataclasses
import io
import tracemalloc
import types

import numpy as np
import pytest

from harnack_lab.fields import ScalarField, box_axes, step_axis
from harnack_lab.harnack import (
    FamilyScan,
    RegionCheck,
    SubCylinder,
    counterexample_scan,
    ratio_plot_svg,
    region_inequality_check,
    scan_family,
    scan_to_csv,
    sup_inf_ratio,
    window_average_x,
)
from harnack_lab.operators import (
    _SLAB_NODES,
    CylinderDomain,
    OperatorSpec,
    ball_lattice,
    classify_regions,
)
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
    # the grid calls get the x-nodes and the ball points in box-lattice
    # order, so argmin and argmax stay where they were
    sub = SubCylinder(-0.3, 0.8, radius)
    axis = np.linspace(-radius, radius, grid)
    y = np.stack([m.reshape(-1) for m in np.meshgrid(*(axis,) * n_y, indexing="ij")], axis=-1)
    ball = y[(y * y).sum(axis=-1) <= radius**2 * (1 + 1e-12)]
    for sign in (1.0, -1.0):
        calls = []

        def at(x, y):
            calls.append((x, y))
            return 10.0 + sign * (x + y.sum(axis=-1))

        rep = sup_inf_ratio(types.SimpleNamespace(n_y=n_y, at=at, name="probe"), sub, grid)
        assert np.array_equal(np.concatenate([x[:, 0] for x, _ in calls]),
                              np.linspace(sub.x_lo, sub.x_hi, grid))
        assert all(np.array_equal(y_pts, ball) for _, y_pts in calls)
        # 10 +- (x + sum(y)) is extreme at the end x-nodes, in the first and
        # the last slab of x-nodes, and the first ball point of extreme sum
        hi, lo = (sub.x_hi, sub.x_lo)[::int(sign)]
        assert rep.argmax == (hi, *ball[np.argmax(sign * ball.sum(axis=-1))])
        assert rep.argmin == (lo, *ball[np.argmin(sign * ball.sum(axis=-1))])


def test_refuses_nonpositive_field():
    axes = box_axes(-0.2, 1.2, 15, 1.0, 11)
    dipped = ScalarField.sample(lambda x, y: x - 0.5, axes, name="dipped")
    with pytest.raises(ValueError, match="not positive"):
        sup_inf_ratio(dipped)


def test_refuses_a_grid_with_an_empty_ball():
    # 2 nodes per axis are the box corners, outside the ball from n_y = 2 on
    u = constant(2.0, OperatorSpec.from_strings("y1", "0", dim_n=3))
    with pytest.raises(ValueError, match="grid 2 leaves the closed y-ball of radius 1 "
                                         "with no lattice point on 2 y axes"):
        sup_inf_ratio(u, grid=2)
    # on one y axis the corners are the ball's ends
    assert sup_inf_ratio(constant(2.0), grid=2).ratio == 1.0


def test_ratio_grid_working_set():
    # each grid slab is reduced before the next is evaluated, so the traced
    # peak stays far below the 101 x 7,845 grid's 6.3 MB of values
    u = constant(2.0, OperatorSpec.from_strings("y1", "0", dim_n=3))
    tracemalloc.start()
    try:
        rep = sup_inf_ratio(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.1e6, f"traced peak {peak / 1e6:.2f} MB"
    # every value ties: the first grid point in C order is both extremes
    assert rep.argmin == rep.argmax == (0.0, -1.0, 0.0)


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


def test_scan_family_refuses_mixed_dimensions():
    # the per-solution rows of one scan share one CSV header, so one n_y
    three_d = constant(2.0, op=OperatorSpec.from_strings("y1", "0", dim_n=3))
    with pytest.raises(ValueError, match=r"different dimensions: n_y \[1, 2\]"):
        scan_family([kolmogorov_poly(5.0), three_d])


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


def region_check_per_node(u, op, dom, level, cap, grid_step):
    """The region check as one flat ``u.at`` call per x-node and point set."""
    regions = classify_regions(op, dom, level, grid_step)
    x_nodes = step_axis(dom.inner_x_lo, dom.inner_x_hi, grid_step)
    a_d = np.concatenate([regions.plus_points, regions.minus_points])
    ball, _ = ball_lattice(dom.y_inner_radius, grid_step, op.n_y, closed=True)
    sup = max(float(np.max(u.at(np.full(a_d.shape[0], x0), a_d))) for x0 in x_nodes)
    inf = min(float(np.min(u.at(np.full(ball.shape[0], x0), ball))) for x0 in x_nodes)
    return RegionCheck(level=level, sup=sup, inf=inf, ratio=sup / inf, cap=cap,
                       passed=sup / inf <= cap, plus_count=regions.plus_count,
                       minus_count=regions.minus_count)


class AtSpy:
    """Forwards ``at`` to u and records the shapes of each call."""

    def __init__(self, u):
        self.u, self.n_y, self.name, self.calls = u, u.n_y, u.name, []

    def at(self, x, y):
        self.calls.append((np.shape(x), np.shape(y)))
        return self.u.at(x, y)


@pytest.mark.parametrize("build, beta, grid_step, calls", [
    (lambda: kolmogorov_poly(10.0), "y1", 0.01, 2),
    (lambda: separable(0.8, OperatorSpec.from_strings("y1^3 - 0.2*y1", "0")),
     "y1^3 - 0.2*y1", 0.01, 2),
    # 51 x-nodes against 4,994 points of A_d (slabs of 6 x-nodes) and the
    # 7,845 ball points (slabs of 4)
    (lambda: ScalarField.sample(lambda x, y: 3 + x * y[:, 0] - y[:, 1] ** 2,
                                box_axes(-0.1, 1.1, 13, 1.2, 25, 2), name="field-2d"),
     "y1 + 0.3*y2", 0.02, 9 + 13),
])
def test_region_check_makes_one_grid_call_per_point_set(build, beta, grid_step, calls):
    u = build()
    op = OperatorSpec.from_strings(beta, "0", dim_n=1 + u.n_y)
    spy = AtSpy(u)
    got = region_inequality_check(spy, op, DOM, level=0.3, cap=2.0, grid_step=grid_step)
    assert got == region_check_per_node(u, op, DOM, 0.3, 2.0, grid_step)
    assert len(spy.calls) == calls
    n_x = step_axis(DOM.inner_x_lo, DOM.inner_x_hi, grid_step).shape[0]
    assert sum(x_shape[0] for x_shape, _ in spy.calls) == 2 * n_x
    assert all(len(x_shape) == 2 and x_shape[0] * y_shape[0] <= _SLAB_NODES
               for x_shape, y_shape in spy.calls)


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


def _window_average_loop(u, z):
    """window_average_x as it was before it built every row's weights in
    one pass: one interpolated weight vector per kept row, then tensordot."""
    x = u.axes[0]

    def weights(lo, hi):
        def interp_row(pos):
            i = int(np.clip(np.searchsorted(x, pos, side="right") - 1, 0, x.shape[0] - 2))
            theta = (pos - x[i]) / (x[i + 1] - x[i])
            row = np.zeros(x.shape[0])
            row[i] = 1.0 - theta
            row[i + 1] = theta
            return row

        inner = np.nonzero((x > lo + 1e-15) & (x < hi - 1e-15))[0]
        positions = np.concatenate([[lo], x[inner], [hi]])
        rows = [interp_row(lo)] + [None] * inner.shape[0] + [interp_row(hi)]
        gaps = np.diff(positions)
        coeff = np.zeros(positions.shape[0])
        coeff[:-1] += gaps / 2
        coeff[1:] += gaps / 2
        w = coeff[0] * rows[0] + coeff[-1] * rows[-1]
        w[inner] += coeff[1:-1]
        return w

    span = x[-1] - x[0]
    tol = 1e-9 * max(1.0, span)
    keep = np.nonzero((x - z >= x[0] - tol) & (x + z <= x[-1] + tol))[0]
    out = np.empty((keep.shape[0],) + u.values.shape[1:])
    for row, j in enumerate(keep):
        lo = max(x[j] - z, x[0])
        hi = min(x[j] + z, x[-1])
        out[row] = np.tensordot(weights(lo, hi), u.values, axes=(0, 0))
    return x[keep], out


def _uneven_axis(rng, lo, hi, n):
    return np.concatenate([[lo], np.sort(rng.uniform(lo, hi, n - 2)), [hi]])


@pytest.mark.parametrize("case", range(8))
def test_window_average_matches_the_per_row_loop_bit_for_bit(case):
    rng = np.random.default_rng(case)
    y = np.linspace(-1.0, 1.0, 7)
    xs = [
        np.linspace(-4.7, 5.7, 111),  # the default average grid
        np.linspace(0.0, 1.0, 11),  # window ends within 1e-15 of nodes
        _uneven_axis(rng, -1.0, 2.0, 40),
        _uneven_axis(rng, 0.0, 1.0, 9),  # windows narrower than some cells
        # windows clipped by the x support: x[j] -+ z falls up to 1e-10
        # outside [x[0], x[-1]], inside the keep tolerance
        np.array([0.0, 0.1, 0.25 - 1e-10, 0.4, 0.5, 0.75 + 1e-10, 0.9, 1.0]),
        np.array([-1.0, -0.8, -2 / 3 - 1e-11, -0.2, 1 / 3 + 1e-11, 0.5, 2 / 3]),
        _uneven_axis(rng, 3.0, 3.5, 25),
        np.linspace(-4.7, 5.7, 111),
    ]
    zs = [0.25, 0.1, 1 / 3, 0.05, 0.25, 1 / 3, 0.07, 0.05]
    x, z = xs[case], zs[case]
    axes = (x, y, y[:3]) if case % 2 else (x, y)
    u = ScalarField(axes, rng.normal(size=tuple(a.size for a in axes)) * 10.0 ** case)
    v = window_average_x(u, z)
    want_x, want = _window_average_loop(u, z)
    assert v.axes[0].tobytes() == want_x.tobytes()
    assert v.values.shape == want.shape
    assert v.values.tobytes() == want.tobytes()


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
