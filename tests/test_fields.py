import numpy as np
import pytest

from harnack_lab.fields import (
    ScalarField,
    box_axes,
    grid_points,
    heatmap_svg,
    line_plot_svg,
    step_axis,
)
from harnack_lab.solutions import kolmogorov_poly


def make_field():
    axes = box_axes(-1.0, 2.0, 7, 1.5, 5)
    return ScalarField.sample(lambda x, y: 2 * x - 3 * y[:, 0] + 1, axes, name="affine")


def test_sample_and_node_values():
    f = make_field()
    assert f.values.shape == (7, 5)
    assert f.values[0, 0] == 2 * (-1) - 3 * (-1.5) + 1
    assert f.axis_names == ("x", "y1")


@pytest.mark.parametrize("axes", [
    (np.linspace(-1.0, 2.0, 7), np.linspace(-1.5, 1.5, 5)),
    (np.linspace(0.0, 1.0, 3), np.array([-0.7, 0.1, 0.4, 2.0]), np.linspace(-2.0, 2.0, 6)),
])
def test_grid_points_is_the_meshgrid_stack(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    expected = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    assert np.array_equal(grid_points(axes), expected)


@pytest.mark.parametrize("lo, hi, step", [
    (-2.0, 2.0, 0.05), (-1.7, 1.7, 0.085), (-5.0, 6.0, 0.05), (0.0, 1.0, 0.01),
    (-1.0, 1.0, 0.3),   # the step does not divide the span
    (-0.5, 0.5, 0.7),   # 1.43 intervals round to one
    (-0.5, 0.5, 3.0),   # a step larger than the span
])
def test_step_axis_equals_the_three_step_rules_it_replaces(lo, hi, step):
    # ball_lattice, on a ball as wide as the span
    r = (hi - lo) / 2
    count = max(int(round(2 * r / step)), 1) + 1
    assert np.array_equal(step_axis(-r, r, step), np.linspace(-r, r, count))
    got = step_axis(lo, hi, step)
    # estimate_sups
    nx = max(int(round((hi - lo) / step)), 1) + 1
    assert np.array_equal(got, np.linspace(lo, hi, nx))
    # region_inequality_check
    n_x = int(round((hi - lo) / step)) + 1
    assert np.array_equal(got, np.linspace(lo, hi, max(n_x, 2)))


def test_interpolation_exact_for_multilinear():
    axes = box_axes(0.0, 1.0, 6, 1.0, 6)
    f = ScalarField.sample(lambda x, y: 1 + 2 * x + 0.5 * y[:, 0] + x * y[:, 0], axes)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, 40)
    ys = rng.uniform(-1, 1, (40, 1))
    got = f.at(xs, ys)
    want = 1 + 2 * xs + 0.5 * ys[:, 0] + xs * ys[:, 0]
    assert np.allclose(got, want, atol=1e-12)
    assert f.at(0.3, np.array([0.2])) == pytest.approx(1 + 0.6 + 0.1 + 0.06)


def test_one_point_broadcasts_against_k_points():
    ys = np.array([[-0.9], [-0.2], [0.4], [0.8]])
    sol = kolmogorov_poly(10.0)
    for u in (make_field(), sol.as_field(11, 11), sol):
        assert np.array_equal(u.at(0.3, ys), u.at(np.full(4, 0.3), ys)), u.name
        # the same for one y point against k x values
        assert np.array_equal(u.at(np.full(4, 0.3), ys[2]), u.at(np.full(4, 0.3), ys[[2] * 4]))
    assert isinstance(make_field().at(0.3, ys[0]), float)


def grid_and_flat(n_y, rng):
    """x-nodes as a column and y points inside [-1.5, 1.5]^n_y, grid nodes
    and the support's ends among them, and the same pairs flat, x-major."""
    x = np.concatenate([[-1.0, 2.0, 0.5], rng.uniform(-1.0, 2.0, 6)])[:, None]
    y = np.concatenate([np.full((1, n_y), -1.5), np.full((1, n_y), 1.5),
                        np.zeros((1, n_y)), rng.uniform(-1.5, 1.5, (20, n_y))])
    return x, y, np.repeat(x[:, 0], y.shape[0]), np.tile(y, (x.shape[0], 1))


@pytest.mark.parametrize("n_y", [1, 2])
def test_grid_at_equals_flat_at_bit_for_bit(n_y):
    rng = np.random.default_rng(11)
    axes = (np.linspace(-1.0, 2.0, 7),) + (np.linspace(-1.5, 1.5, 5),) * n_y
    f = ScalarField(axes, rng.normal(size=tuple(a.size for a in axes)))
    x, y, flat_x, flat_y = grid_and_flat(n_y, rng)
    got = f.at(x, y)
    assert got.shape == (x.shape[0], y.shape[0])
    assert np.array_equal(got.reshape(-1), f.at(flat_x, flat_y))
    # one x-node, and a y side given as k numbers when n_y = 1
    assert np.array_equal(f.at(x[:1], y), f.at(flat_x[:y.shape[0]], y)[None, :])
    if n_y == 1:
        assert np.array_equal(f.at(x, y[:, 0]), got)


def test_one_point_and_flat_calls_keep_their_forms():
    f = make_field()
    ys = np.array([[-0.9], [-0.2], [0.4]])
    assert isinstance(f.at(0.3, 0.2), float)
    assert isinstance(f.at(0.3, np.array([0.2])), float)
    assert f.at(np.array([0.3]), np.array([0.2])).shape == (1,)
    assert f.at(np.full(3, 0.3), ys).shape == (3,)
    assert f.at(np.full(3, 0.3), ys[:, 0]).shape == (3,)
    assert f.at(0.3, ys).shape == (3,)
    with pytest.raises(ValueError, match="grid call needs x of shape"):
        f.at(np.zeros((3, 2)), ys)
    with pytest.raises(ValueError, match="out of bounds in dimension 0"):
        f.at(np.array([[0.0], [5.0]]), ys)


def test_interpolation_outside_support_raises():
    f = make_field()
    with pytest.raises(ValueError):
        f.at(5.0, np.array([0.0]))
    with pytest.raises(ValueError):
        f.at(0.0, np.array([2.0]))


def test_two_y_axes():
    axes = (np.linspace(0, 1, 4), np.linspace(-1, 1, 5), np.linspace(-1, 1, 6))
    f = ScalarField.sample(lambda x, y: x + y[:, 0] * y[:, 1], axes)
    assert f.n_y == 2
    assert f.at(0.5, np.array([0.5, -0.4])) == pytest.approx(0.5 - 0.2)


def test_validation_errors():
    with pytest.raises(ValueError):
        ScalarField((np.array([0.0, 1.0]),), np.zeros(2))  # no y axis
    with pytest.raises(ValueError, match="at least 2 nodes"):
        ScalarField((np.array([0.0]), np.array([0.0, 1.0])), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        box_axes(0.0, 1.0, 1, 1.0, 5)
    with pytest.raises(ValueError):
        ScalarField((np.array([1.0, 0.0]), np.array([0.0, 1.0])), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ScalarField((np.array([0.0, 1.0]), np.array([0.0, 1.0])), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ScalarField(
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            np.array([[1.0, np.nan], [0.0, 0.0]]),
        )


def assert_csv_holds(path, field):
    """The CSV at PATH holds FIELD exactly: its header, then every node's axis
    values and value in C order."""
    header = path.read_text().split("\n", 1)[0]
    assert header == ",".join(field.axis_names + ("value",))
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(rows[:, :-1], grid_points(field.axes))
    assert np.array_equal(rows[:, -1], field.values.reshape(-1))


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    axes = box_axes(-2.0, 3.0, 9, 2.0, 7)
    f = ScalarField(axes, rng.standard_normal((9, 7)) * 1e3, name="noise")
    csv_path, json_path = f.save(tmp_path, "noise")
    assert_csv_holds(csv_path, f)
    assert json_path.exists()
    # byte determinism of the writer itself
    first = csv_path.read_bytes()
    f.to_csv(csv_path)
    assert csv_path.read_bytes() == first


def test_csv_round_trip_three_axes(tmp_path):
    rng = np.random.default_rng(5)
    axes = (np.linspace(0, 1, 4), np.linspace(-1, 1, 3), np.linspace(-1, 1, 5))
    f = ScalarField(axes, rng.standard_normal((4, 3, 5)))
    p = tmp_path / "f3.csv"
    f.to_csv(p)
    assert_csv_holds(p, f)


def test_spacing_checks_uniformity():
    f = make_field()
    assert f.spacing() == pytest.approx((0.5, 0.75))
    g = ScalarField((np.array([0.0, 0.1, 0.5]), np.array([0.0, 1.0, 2.0])), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.spacing()


def test_svg_outputs_are_deterministic():
    f = make_field()
    svg1 = heatmap_svg(f)
    svg2 = heatmap_svg(f)
    assert svg1 == svg2
    assert svg1.startswith("<svg") and svg1.rstrip().endswith("</svg>")
    axes3 = (np.linspace(0, 1, 3), np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))
    f3 = ScalarField(axes3, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        heatmap_svg(f3)
    curve = line_plot_svg([1, 2, 4, 8], [4.2, 14.0, 205.0, 25000.0], log_y=True)
    assert curve == line_plot_svg([1, 2, 4, 8], [4.2, 14.0, 205.0, 25000.0], log_y=True)


@pytest.mark.parametrize("n_axes", [2, 3])
def test_interpolation_matches_scipy_bitwise(n_axes):
    # scipy is the reference only: ScalarField.at sums the same corner terms
    # in the same order, nodes and grid edges included
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(40 + n_axes)
    for _ in range(100):
        axes = tuple(np.unique(rng.uniform(-2, 2, rng.integers(2, 9))) for _ in range(n_axes))
        if any(a.size < 2 for a in axes):
            continue
        values = rng.normal(size=tuple(a.size for a in axes)) * 10
        pts = np.column_stack([rng.uniform(a[0], a[-1], 200) for a in axes])
        for k, a in enumerate(axes):
            pts[:20, k] = rng.choice(a, 20)
            pts[20:25, k] = a[0]
            pts[25:30, k] = a[-1]
        want = RegularGridInterpolator(axes, values, method="linear", bounds_error=True)(pts)
        got = ScalarField(axes, values).at(pts[:, 0], pts[:, 1:])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_y", [1, 2])
def test_sample_calls_fn_once_on_the_x_column_and_the_y_nodes(n_y):
    axes = (np.linspace(0.0, 1.0, 4),) + tuple(np.linspace(-1.0, 1.0, 3 + k) for k in range(n_y))
    m = int(np.prod([a.size for a in axes[1:]]))
    shapes = []

    def fn(x, y):
        shapes.append((x.shape, y.shape))
        return x * 10 + y[:, 0]

    f = ScalarField.sample(fn, axes)
    assert shapes == [((4, 1), (m, n_y))]
    x, y = f.node_points()
    assert np.array_equal(f.values.reshape(-1), x * 10 + y[:, 0])
    # a result that does not broadcast to (nx, m) is refused
    for bad in (lambda x, y: np.zeros(4 * m - 1), lambda x, y: np.zeros((4, m + 1))):
        with pytest.raises(ValueError):
            ScalarField.sample(bad, axes)
