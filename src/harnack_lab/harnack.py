"""Empirical Harnack-quotient estimation on subcylinders.

For a positive solution u and a subcylinder [a, b] x B_r, the quotient
sup u / inf u over the subcylinder grid is the quantity a Harnack
inequality would bound.  The toolkit measures it three ways:

* ``sup_inf_ratio`` / ``scan_family``: exact grid extrema for one solution
  or a family; the family maximum is the empirical lower bound on any
  would-be Harnack constant for that drift.
* ``counterexample_scan``: the same quotient along the constant-drift
  family u = e^{-lam x} cosh(sqrt(lam) y), whose ratio e^lam cosh(sqrt(lam))
  grows without bound — drift of one sign admits no Harnack constant.
* ``region_inequality_check``: the restricted form  sup over [a,b] x A_d
  versus inf over [a,b] x inner ball, where A_d collects the y with
  |beta(y)| > d (both signs must be populated).

``window_average_x`` provides the x-averaged field v(x,y) = integral of
u(x+s,y) over |s| <= z, the mollified quantity the sup/inf comparison can
be run against when pointwise values are too rough.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fields import FLOAT_FMT, ScalarField, csv_field, line_plot_svg, step_axis, write_csv
from .operators import _SLAB_NODES, CylinderDomain, OperatorSpec, ball_lattice, classify_regions
from .solutions import counterexample_family

__all__ = [
    "SubCylinder",
    "HarnackReport",
    "FamilyScan",
    "RegionCheck",
    "sup_inf_ratio",
    "scan_family",
    "counterexample_scan",
    "region_inequality_check",
    "window_average_x",
    "scan_to_csv",
    "ratio_plot_svg",
]


@dataclass(frozen=True)
class SubCylinder:
    """Closed subcylinder [x_lo, x_hi] x ball(y_radius)."""

    x_lo: float = 0.0
    x_hi: float = 1.0
    y_radius: float = 1.0

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("x_lo must be below x_hi")
        if not self.y_radius > 0:
            raise ValueError("y_radius must be positive")

    @classmethod
    def from_domain(cls, dom: CylinderDomain) -> "SubCylinder":
        return cls(dom.inner_x_lo, dom.inner_x_hi, dom.y_inner_radius)


@dataclass(frozen=True)
class HarnackReport:
    """Grid extrema of one positive solution over a subcylinder."""

    solution: str
    sup: float
    inf: float
    ratio: float
    argmax: tuple
    argmin: tuple


@dataclass(frozen=True)
class FamilyScan:
    """Per-solution reports plus the family-wide maximum ratio."""

    family: str
    reports: tuple
    max_ratio: float
    verdict: str | None = None
    params: tuple | None = None

    def to_json_dict(self) -> dict:
        return {"family": self.family, "max_ratio": self.max_ratio, "verdict": self.verdict}


@dataclass(frozen=True)
class RegionCheck:
    """sup over [a,b] x A_d against inf over [a,b] x inner ball."""

    level: float
    sup: float
    inf: float
    ratio: float
    cap: float
    passed: bool
    plus_count: int
    minus_count: int

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _grid_slabs(u, x_nodes, y_pts):
    """u on x_nodes x y_pts, as (first x-node, (slab, m) values) for slabs of
    consecutive x-nodes from grid ``u.at`` calls of at most _SLAB_NODES
    points each; one call when the whole grid fits."""
    rows = max(1, _SLAB_NODES // y_pts.shape[0])
    for lo in range(0, x_nodes.shape[0], rows):
        yield lo, np.asarray(u.at(x_nodes[lo:lo + rows, None], y_pts), dtype=float)


def sup_inf_ratio(u, sub: SubCylinder | None = None, grid: int = 101) -> HarnackReport:
    """Exact grid extrema and their quotient; refuses nonpositive fields.

    u is evaluated on the closed subcylinder lattice, the x-nodes times the
    points of the closed ball cut from a box lattice of the same node count,
    in slabs of x-nodes of at most _SLAB_NODES grid points; each slab is
    reduced to its extrema before the next is evaluated, and the report has
    the bits of the whole grid's first argmin and argmax in C order.  A grid
    whose ball holds no lattice point is refused."""
    if grid < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    sub = sub or SubCylinder()
    ball, _ = ball_lattice(sub.y_radius, 2 * sub.y_radius / (grid - 1), u.n_y, closed=True)
    if ball.shape[0] == 0:  # e.g. grid 2 puts only the box corners on n_y >= 2 axes
        raise ValueError(f"grid {grid} leaves the closed y-ball of radius {sub.y_radius:g} "
                         f"with no lattice point on {u.n_y} y axes")
    x_nodes = np.linspace(sub.x_lo, sub.x_hi, grid)
    lo = hi = None  # (value, x-node, ball point) at the first grid argmin / argmax so far
    for row, vals in _grid_slabs(u, x_nodes, ball):
        # strict comparisons keep the first extreme in C order, as argmin/argmax do
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if lo is None or vals[i, j] < lo[0]:
            lo = (vals[i, j], row + i, j)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if hi is None or vals[i, j] > hi[0]:
            hi = (vals[i, j], row + i, j)
    arg_min = (float(x_nodes[lo[1]]), *map(float, ball[lo[2]]))
    if lo[0] <= 0:
        loc = ", ".join(format(v, "g") for v in arg_min)
        raise ValueError(f"{u.name} is not positive on the subdomain: min {lo[0]:g} at ({loc})")
    return HarnackReport(
        solution=u.name,
        sup=float(hi[0]),
        inf=float(lo[0]),
        ratio=float(hi[0] / lo[0]),
        argmax=(float(x_nodes[hi[1]]), *map(float, ball[hi[2]])),
        argmin=arg_min,
    )


def scan_family(solutions, sub: SubCylinder | None = None, grid: int = 101,
                family: str = "family") -> FamilyScan:
    """Ratio report per solution plus the family maximum; all share one n_y."""
    solutions = list(solutions)
    if not solutions:
        raise ValueError("empty solution family")
    if len({u.n_y for u in solutions}) > 1:
        raise ValueError(f"solutions of different dimensions: n_y {[u.n_y for u in solutions]}")
    reports = tuple(sup_inf_ratio(u, sub, grid) for u in solutions)
    return FamilyScan(
        family=family,
        reports=reports,
        max_ratio=max(r.ratio for r in reports),
    )


def counterexample_scan(lams, sub: SubCylinder | None = None, grid: int = 101,
                        dom: CylinderDomain | None = None) -> FamilyScan:
    """Ratios along the non-sign-changing family, with a divergence verdict.

    Verdict "divergent" means the ratios increase monotonically and the last
    exceeds ten times the first; "bounded" otherwise.  A single-point scan
    gets no verdict.
    """
    lams = [float(v) for v in lams]
    if not lams:
        raise ValueError("empty lambda list")
    if any(v <= 0 for v in lams):
        raise ValueError("lambda values must be positive")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda values must be increasing")
    dom = dom or CylinderDomain()
    scan = scan_family((counterexample_family(lam, dom) for lam in lams), sub, grid,
                       family="counterexample")
    ratios = [r.ratio for r in scan.reports]
    verdict = None
    if len(ratios) > 1:
        rising = all(b > a for a, b in zip(ratios, ratios[1:]))
        verdict = "divergent" if rising and ratios[-1] > 10 * ratios[0] else "bounded"
    return dataclasses.replace(scan, verdict=verdict, params=tuple(lams))


def region_inequality_check(
    u,
    op: OperatorSpec,
    dom: CylinderDomain,
    level: float,
    cap: float,
    grid_step: float = 0.01,
) -> RegionCheck:
    """Compare sup over [a,b] x A_d with inf over [a,b] x inner ball.

    A_d is the union of the drift regions at the given level; both signs
    must be populated (a one-signed drift has no level-d Harnack bound).
    The x interval is the domain's inner interval, at x-nodes ``grid_step``
    apart.  u is evaluated by one grid-form ``u.at`` call per point set
    (A_d, then the inner-ball lattice) against the x-nodes, in slabs of
    x-nodes when the grid exceeds _SLAB_NODES points.
    """
    regions = classify_regions(op, dom, level, grid_step)
    missing = [tag for tag, pts in (("+", regions.plus_points), ("-", regions.minus_points))
               if pts.shape[0] == 0]
    if missing:
        sides = ", ".join(f"A_{level:g}^{tag}" for tag in missing)
        raise ValueError(f"empty drift region(s) {sides}; no restricted bound applies")

    if u.n_y != op.n_y:
        raise ValueError("solution and operator dimensions differ")
    x_nodes = step_axis(dom.inner_x_lo, dom.inner_x_hi, grid_step)
    a_d = np.concatenate([regions.plus_points, regions.minus_points], axis=0)
    sup_val = max(float(vals.max()) for _, vals in _grid_slabs(u, x_nodes, a_d))
    ball_pts, _ = ball_lattice(dom.y_inner_radius, grid_step, op.n_y, closed=True)
    inf_val = min(float(vals.min()) for _, vals in _grid_slabs(u, x_nodes, ball_pts))
    if inf_val <= 0:
        raise ValueError(f"{u.name} is not positive on the inner subcylinder: min {inf_val:g}")
    ratio = sup_val / inf_val
    return RegionCheck(
        level=float(level),
        sup=sup_val,
        inf=inf_val,
        ratio=float(ratio),
        cap=float(cap),
        passed=bool(ratio <= cap),
        plus_count=regions.plus_count,
        minus_count=regions.minus_count,
    )


def window_average_x(u: ScalarField, z: float) -> ScalarField:
    """v(x, y) = integral of u(x+s, y) ds for s in [-z, z], by trapezoid.

    Keeps the grid nodes whose window stays inside the x support; the
    half-width z must satisfy 0 < z <= 1/3.  The weights of every kept row
    are built in one array pass: the nodes strictly inside the window carry
    their trapezoid coefficient, and each window end is linearly
    interpolated from the two nodes around it.  Each row is then one dot
    product of its weights with the samples.
    """
    if not 0 < z <= 1.0 / 3.0 + 1e-12:
        raise ValueError("window half-width z must satisfy 0 < z <= 1/3")
    x = u.axes[0]
    n = x.shape[0]
    span = x[-1] - x[0]
    tol = 1e-9 * max(1.0, span)
    keep = np.nonzero((x - z >= x[0] - tol) & (x + z <= x[-1] + tol))[0]
    if keep.shape[0] == 0:
        raise ValueError(
            f"insufficient grid margin for window half-width {z:g}: "
            f"x support is [{x[0]:g}, {x[-1]:g}]"
        )
    rows = np.arange(keep.shape[0])[:, None]
    lo = np.maximum(x[keep] - z, x[0])[:, None]
    hi = np.minimum(x[keep] + z, x[-1])[:, None]
    # the nodes strictly inside each window: first..last, possibly none
    first = np.searchsorted(x, lo + 1e-15, side="right")
    last = np.searchsorted(x, hi - 1e-15, side="left") - 1
    k = np.arange(n)
    inner = (k >= first) & (k <= last)
    # the trapezoid points of a window are lo, its inner nodes, hi
    before = np.where(k == first, lo, np.concatenate([x[:1], x[:-1]]))
    after = np.where(k == last, hi, np.concatenate([x[1:], x[-1:]]))
    coeff = (after - x) / 2 + (x - before) / 2
    has_inner = first <= last
    c_lo = (np.where(has_inner, x[np.minimum(first, n - 1)], hi) - lo) / 2
    c_hi = (hi - np.where(has_inner, x[np.maximum(last, 0)], lo)) / 2

    def end_weights(pos, c):
        i = np.clip(np.searchsorted(x, pos, side="right") - 1, 0, n - 2)
        theta = (pos - x[i]) / (x[i + 1] - x[i])
        w = np.zeros((keep.shape[0], n))
        w[rows, i] = c * (1.0 - theta)
        w[rows, i + 1] = c * theta
        return w

    weights = end_weights(lo, c_lo) + end_weights(hi, c_hi)
    weights[inner] += coeff[inner]
    samples = u.values.reshape(n, -1)
    out = np.array([np.dot(w, samples) for w in weights]).reshape((-1,) + u.values.shape[1:])
    return ScalarField((x[keep],) + u.axes[1:], out, name=f"window_average({u.name})")


def scan_to_csv(scan: FamilyScan, path) -> None:
    """One row per solution: identifier, extrema, locations, ratio."""
    if not scan.reports:
        raise ValueError("nothing to write")
    n_y = len(scan.reports[0].argmax) - 1
    header = ["solution", "sup", "inf", "ratio"]
    header += [f"argmax_{n}" for n in ("x", *[f"y{k+1}" for k in range(n_y)])]
    header += [f"argmin_{n}" for n in ("x", *[f"y{k+1}" for k in range(n_y)])]
    fmt = ",".join(["%s"] + [FLOAT_FMT] * (3 + 2 * (n_y + 1)))
    rows = [(csv_field(rep.solution), rep.sup, rep.inf, rep.ratio, *rep.argmax, *rep.argmin)
            for rep in scan.reports]
    write_csv(path, header, fmt, rows)


def ratio_plot_svg(scan: FamilyScan) -> str:
    """Ratio against the family parameter (or index), log scale."""
    xs = np.asarray(scan.params if scan.params is not None
                    else np.arange(1, len(scan.reports) + 1), dtype=float)
    ys = np.array([r.ratio for r in scan.reports])
    return line_plot_svg(
        xs, ys,
        title=f"{scan.family}: sup/inf over the subcylinder",
        x_label="family parameter",
        y_label="ratio",
        log_y=bool(np.all(ys > 0)),
    )
