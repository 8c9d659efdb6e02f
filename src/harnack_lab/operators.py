"""Operator and domain descriptions, hypothesis checking, drift regions.

The operator under study is  L u = Delta_y u + beta(y) u_x + gamma(x, y) u
on a cylinder (x interval) x (y ball).  This module holds the coefficient
and geometry descriptions, verifies the structural hypothesis on beta (sign change
plus nonvanishing derivative mass, the computable surrogate for Hormander's
condition for this operator class), classifies where the drift exceeds a
threshold, and applies a finite-difference residual oracle to sampled
candidate solutions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .expressions import (
    Const,
    EvalDomainError,
    Expr,
    ExprError,
    evaluate,
    differentiate,
    free_variables,
    parse,
)
from .fields import ScalarField, grid_points, step_axis

__all__ = [
    "MASS_TOLERANCE",
    "OperatorSpec",
    "CylinderDomain",
    "RegionSet",
    "HormanderReport",
    "ball_lattice",
    "check_hypothesis",
    "smallest_passing_order",
    "classify_regions",
    "residual",
    "estimate_sups",
    "with_estimated_sups",
]

# a grid minimum of the derivative mass below this counts as vanishing
MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients and dimension of the operator.

    ``beta`` depends on the y variables only; ``gamma`` may also use x.
    ``dim_n`` is the dimension of the full state (x, y), so y has
    ``dim_n - 1`` coordinates named y1, y2, ...  The sup norms are upper
    bounds used for step-size control and horizon defaults; leave them None
    to have them estimated from a grid (see ``with_estimated_sups``).
    """

    beta: Expr
    gamma: Expr = Const(0.0)
    dim_n: int = 2
    beta_sup: float | None = None
    gamma_sup: float | None = None

    def __post_init__(self):
        if self.dim_n < 2:
            raise ValueError("dim_n must be at least 2 (one x plus at least one y)")
        y_names = set(self.y_names)
        stray = free_variables(self.beta) - y_names
        if stray:
            raise ValueError(
                f"beta may depend only on {sorted(y_names)}; found {sorted(stray)}"
            )
        stray = free_variables(self.gamma) - y_names - {"x"}
        if stray:
            raise ValueError(
                f"gamma may depend only on x and {sorted(y_names)}; found {sorted(stray)}"
            )
        for label, sup in (("beta_sup", self.beta_sup), ("gamma_sup", self.gamma_sup)):
            if sup is not None and not sup >= 0:
                raise ValueError(f"{label} must be nonnegative")

    @property
    def n_y(self) -> int:
        return self.dim_n - 1

    @property
    def y_names(self) -> tuple[str, ...]:
        return tuple(f"y{i + 1}" for i in range(self.n_y))

    @classmethod
    def from_strings(
        cls,
        beta: str,
        gamma: str = "0",
        dim_n: int = 2,
        beta_sup: float | None = None,
        gamma_sup: float | None = None,
    ) -> "OperatorSpec":
        if dim_n < 2:
            raise ValueError("dim_n must be at least 2 (one x plus at least one y)")
        y_names = tuple(f"y{i + 1}" for i in range(dim_n - 1))
        return cls(
            beta=parse(beta, y_names),
            gamma=parse(gamma, ("x",) + y_names),
            dim_n=dim_n,
            beta_sup=beta_sup,
            gamma_sup=gamma_sup,
        )

    def _y_env(self, y: np.ndarray) -> tuple[dict, tuple]:
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            y = y.reshape(1)
        if y.shape[-1] != self.n_y:
            raise ValueError(f"y must have {self.n_y} coordinates, got shape {y.shape}")
        return {name: y[..., k] for k, name in enumerate(self.y_names)}, y.shape[:-1]

    def beta_at(self, y) -> np.ndarray:
        """beta evaluated at y of shape (..., n_y); returns shape (...)."""
        env, shape = self._y_env(y)
        out = evaluate(self.beta, env)
        return np.full(shape, out) if np.ndim(out) == 0 else np.asarray(out)

    def gamma_at(self, x, y) -> np.ndarray:
        env, shape = self._y_env(y)
        env["x"] = np.asarray(x, dtype=float)
        out = evaluate(self.gamma, env)
        return np.full(shape, out) if np.ndim(out) == 0 else np.asarray(out)


@dataclass(frozen=True)
class CylinderDomain:
    """Cylinder (x_lo, x_hi) x (outer y ball), with a compact subcylinder
    (inner_x_lo, inner_x_hi) x (inner y ball) where ratios are measured and
    where make-solution samples its grid.

    Defaults follow the normalization used throughout: x interval (-5, 6),
    subinterval (0, 1), outer ball of radius 2 (where paths are stopped),
    inner ball of radius 1.
    """

    x_lo: float = -5.0
    inner_x_lo: float = 0.0
    inner_x_hi: float = 1.0
    x_hi: float = 6.0
    y_outer_radius: float = 2.0
    y_inner_radius: float = 1.0

    def __post_init__(self):
        if not (self.x_lo < self.inner_x_lo < self.inner_x_hi < self.x_hi):
            raise ValueError(
                "need x_lo < inner_x_lo < inner_x_hi < x_hi, got "
                f"{self.x_lo}, {self.inner_x_lo}, {self.inner_x_hi}, {self.x_hi}"
            )
        if not (0 < self.y_inner_radius < self.y_outer_radius):
            raise ValueError("need 0 < y_inner_radius < y_outer_radius")


@dataclass(frozen=True, eq=False)
class RegionSet:
    """Inner-ball grid points where the drift exceeds +level / falls below
    -level (both inequalities strict).  ``warning`` is set when either side
    is empty, since downstream diagnostics need both."""

    level: float
    plus_points: np.ndarray
    minus_points: np.ndarray
    grid_step: float
    warning: str | None = None

    @property
    def plus_count(self) -> int:
        return int(self.plus_points.shape[0])

    @property
    def minus_count(self) -> int:
        return int(self.minus_points.shape[0])


@dataclass(frozen=True)
class HormanderReport:
    """Outcome of the structural hypothesis check on beta.

    passed = sign change present and the derivative mass
    sum over |zeta| <= order of |D^zeta beta| stays above MASS_TOLERANCE on
    the closed outer-ball grid.  Witnesses are the grid argmin/argmax of
    beta.  ``error`` carries expression failures (with location) instead of
    raising, so a bad config still yields a machine-readable report.
    """

    passed: bool
    order_used: int
    sign_change_ok: bool
    sign_witnesses: tuple[tuple[float, ...], tuple[float, ...]] | None
    min_derivative_mass: float | None
    mass_argmin: tuple[float, ...] | None
    grid_step: float
    beta_min: float | None = None
    beta_max: float | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "pass": self.passed,
            "r": self.order_used,
            "min_derivative_mass": self.min_derivative_mass,
            "sign_witnesses": None
            if self.sign_witnesses is None
            else [list(w) for w in self.sign_witnesses],
            "grid_step": self.grid_step,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def ball_lattice(
    radius: float, grid_step: float, n_axes: int, closed: bool = True
) -> tuple[np.ndarray, float]:
    """Regular lattice points inside the ball of the given radius.

    Returns (points of shape (k, n_axes), actual step).  ``closed`` keeps
    points on the sphere (within 1e-12 of it); otherwise membership is
    strict and sphere points are excluded.
    """
    if radius <= 0 or grid_step <= 0:
        raise ValueError("radius and grid_step must be positive")
    axis = step_axis(-radius, radius, grid_step)
    actual = 2 * radius / (axis.size - 1)
    pts = grid_points([axis] * n_axes)
    r2 = np.einsum("ij,ij->i", pts, pts)
    if closed:
        keep = r2 <= radius * radius + 1e-12
    else:
        keep = r2 < radius * radius - 1e-12
    return pts[keep], actual


def _derivative_exprs(beta: Expr, names: tuple[str, ...], order: int) -> list[Expr]:
    """All distinct D^zeta beta with |zeta| <= order, order 0 included."""
    table: dict[tuple[int, ...], Expr] = {(0,) * len(names): beta}
    frontier = list(table.items())
    for _ in range(order):
        new_frontier = []
        for idx, expr in frontier:
            for j, name in enumerate(names):
                nxt = idx[:j] + (idx[j] + 1,) + idx[j + 1 :]
                if nxt not in table:
                    table[nxt] = differentiate(expr, name)
                    new_frontier.append((nxt, table[nxt]))
        frontier = new_frontier
    return list(table.values())


def _locate_eval_failure(exprs, names, pts) -> str:
    """Find the first grid point where some derivative fails to evaluate."""
    for i in range(pts.shape[0]):
        env = {name: float(pts[i, k]) for k, name in enumerate(names)}
        for e in exprs:
            try:
                evaluate(e, env)
            except EvalDomainError as err:
                loc = ", ".join(format(v, ".6g") for v in pts[i])
                return f"evaluation failed at y=({loc}): {err}"
    return "evaluation failed on the grid"


def check_hypothesis(
    op: OperatorSpec,
    dom: CylinderDomain,
    order: int = 2,
    grid_step: float = 0.01,
) -> HormanderReport:
    """Check sign change of beta and nonvanishing derivative mass on the
    closed outer ball, sampled on a regular lattice.

    The hypothesis is pointwise on the continuum; the grid check with the
    documented MASS_TOLERANCE is the computable surrogate.  Expression
    failures (domain errors, underivable powers) are reported in the
    ``error`` field with passed=False rather than raised.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    radius = dom.y_outer_radius
    if grid_step <= 0 or 2 * radius / grid_step < 10 - 1e-9:
        raise ValueError(
            "grid_step must resolve the outer ball with at least 10 points per axis"
        )
    pts, actual_step = ball_lattice(radius, grid_step, op.n_y, closed=True)

    def failed(message: str) -> HormanderReport:
        return HormanderReport(
            passed=False,
            order_used=order,
            sign_change_ok=False,
            sign_witnesses=None,
            min_derivative_mass=None,
            mass_argmin=None,
            grid_step=actual_step,
            error=message,
        )

    try:
        exprs = _derivative_exprs(op.beta, op.y_names, order)
    except ExprError as err:
        return failed(f"cannot differentiate beta: {err}")

    env = {name: pts[:, k] for k, name in enumerate(op.y_names)}
    values = []
    for e in exprs:
        try:
            v = evaluate(e, env)
        except EvalDomainError:
            return failed(_locate_eval_failure(exprs, op.y_names, pts))
        values.append(np.full(pts.shape[0], v) if np.ndim(v) == 0 else np.asarray(v))

    beta_vals = values[0]
    mass = np.zeros(pts.shape[0])
    for v in values:
        mass += np.abs(v)

    i_mass = int(np.argmin(mass))
    i_min = int(np.argmin(beta_vals))
    i_max = int(np.argmax(beta_vals))
    beta_min = float(beta_vals[i_min])
    beta_max = float(beta_vals[i_max])
    sign_ok = beta_min < 0 < beta_max
    min_mass = float(mass[i_mass])
    return HormanderReport(
        passed=bool(sign_ok and min_mass > MASS_TOLERANCE),
        order_used=order,
        sign_change_ok=bool(sign_ok),
        sign_witnesses=(tuple(pts[i_min]), tuple(pts[i_max])),
        min_derivative_mass=min_mass,
        mass_argmin=tuple(pts[i_mass]),
        grid_step=actual_step,
        beta_min=beta_min,
        beta_max=beta_max,
    )


def smallest_passing_order(
    op: OperatorSpec,
    dom: CylinderDomain,
    grid_step: float = 0.01,
    max_order: int = 4,
) -> int | None:
    """Smallest derivative order <= max_order at which the check passes."""
    for order in range(max_order + 1):
        if check_hypothesis(op, dom, order=order, grid_step=grid_step).passed:
            return order
    return None


def classify_regions(
    op: OperatorSpec,
    dom: CylinderDomain,
    level: float,
    grid_step: float = 0.01,
) -> RegionSet:
    """Split the open inner-ball lattice by the drift sign at the given level."""
    if level <= 0:
        raise ValueError("level must be positive")
    pts, actual_step = ball_lattice(dom.y_inner_radius, grid_step, op.n_y, closed=False)
    beta_vals = op.beta_at(pts)
    plus = pts[beta_vals > level]
    minus = pts[beta_vals < -level]
    empty = [name for name, p in (("plus", plus), ("minus", minus)) if p.shape[0] == 0]
    warning = None
    if empty:
        warning = (
            f"empty drift region side(s) at level {level:g}: {', '.join(empty)}; "
            "downstream region diagnostics need both sides"
        )
    return RegionSet(
        level=level,
        plus_points=plus,
        minus_points=minus,
        grid_step=actual_step,
        warning=warning,
    )


def residual(u: ScalarField, op: OperatorSpec) -> ScalarField:
    """Finite-difference application of L to a sampled field.

    Central second differences along each y axis, central first difference
    along x, plus gamma*u, evaluated at interior nodes only; the returned
    field lives on the grid with the boundary layer stripped.  Second-order
    accurate in each grid step, and exact (to rounding) when u is polynomial
    of degree <= 3 in each y coordinate and affine in x.
    """
    if u.n_y != op.n_y:
        raise ValueError(
            f"field has {u.n_y} y axes but the operator expects {op.n_y}"
        )
    for name, a in zip(u.axis_names, u.axes):
        if a.size < 3:
            raise ValueError(f"grid too small along {name}: need at least 3 nodes")
    steps = u.spacing()
    vals = u.values
    ndim = vals.ndim

    def shifted(axis: int, s: slice) -> np.ndarray:
        return vals[tuple(s if k == axis else slice(1, -1) for k in range(ndim))]

    core = vals[(slice(1, -1),) * ndim]
    out = np.zeros_like(core)
    for axis in range(1, ndim):
        h = steps[axis]
        out += (shifted(axis, slice(2, None)) - 2 * core + shifted(axis, slice(None, -2))) / (
            h * h
        )
    ux = (shifted(0, slice(2, None)) - shifted(0, slice(None, -2))) / (2 * steps[0])

    interior = tuple(a[1:-1] for a in u.axes)
    pts = grid_points(interior)
    beta_vals = op.beta_at(pts[:, 1:]).reshape(core.shape)
    gamma_vals = op.gamma_at(pts[:, 0], pts[:, 1:]).reshape(core.shape)
    out += beta_vals * ux + gamma_vals * core
    return ScalarField(interior, out, name=f"residual of {u.name}")


def estimate_sups(
    op: OperatorSpec, dom: CylinderDomain, grid_step: float = 0.05,
    margin: float = 1.05,
) -> tuple[float, float]:
    """Grid maxima of |beta| (outer ball) and |gamma| (full cylinder), each
    inflated by a safety factor; upper bounds for step-size control.  Pass
    margin=1.0 for the raw grid maximum."""
    y_pts, _ = ball_lattice(dom.y_outer_radius, grid_step, op.n_y, closed=True)
    beta_max = float(np.abs(op.beta_at(y_pts)).max())
    xs = step_axis(dom.x_lo, dom.x_hi, grid_step)
    if "x" not in free_variables(op.gamma):
        xs = xs[:1]  # every x slice gives the same values
    gamma_max = 0.0
    for x in xs:  # one x slice at a time keeps the product grid small
        g = op.gamma_at(np.full(y_pts.shape[0], x), y_pts)
        gamma_max = max(gamma_max, float(np.abs(g).max()))
    return margin * beta_max, margin * gamma_max


def with_estimated_sups(
    op: OperatorSpec, dom: CylinderDomain, grid_step: float = 0.05
) -> OperatorSpec:
    """Fill in any missing sup bounds from a grid estimate."""
    if op.beta_sup is not None and op.gamma_sup is not None:
        return op
    beta_sup, gamma_sup = estimate_sups(op, dom, grid_step)
    return dataclasses.replace(
        op,
        beta_sup=op.beta_sup if op.beta_sup is not None else beta_sup,
        gamma_sup=op.gamma_sup if op.gamma_sup is not None else gamma_sup,
    )
