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

# lattice step of the grid sup estimates in x and y
_SUP_GRID_STEP = 0.05
# safety factor on the grid maxima of the sup estimates
_SUP_MARGIN = 1.05
# grid nodes one slab of a lattice sweep covers at most: bounds the working
# set of a sweep, and of a grid ``at`` call in ``harnack``, to a few MB
_SLAB_NODES = 1 << 15


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients and dimension of the operator.

    ``beta`` depends on the y variables only; ``gamma`` may also use x.
    ``dim_n`` is the dimension of the full state (x, y), so y has
    ``dim_n - 1`` coordinates named y1, y2, ...  ``beta_sup`` and
    ``gamma_sup``, the upper bounds on |beta| and |gamma| behind step-size
    control, horizon defaults and the path checks, are measured, never
    given: they are None here and on every copy ``dataclasses.replace``
    makes, and only ``with_estimated_sups`` fills them, together with
    ``sup_domain``, the cylinder they were measured on.
    """

    beta: Expr
    gamma: Expr = Const(0.0)
    dim_n: int = 2
    beta_sup: float | None = dataclasses.field(default=None, init=False)
    gamma_sup: float | None = dataclasses.field(default=None, init=False)
    sup_domain: CylinderDomain | None = dataclasses.field(default=None, init=False)

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

    @property
    def n_y(self) -> int:
        return self.dim_n - 1

    @property
    def y_names(self) -> tuple[str, ...]:
        return tuple(f"y{i + 1}" for i in range(self.n_y))

    @classmethod
    def from_strings(cls, beta: str, gamma: str = "0", dim_n: int = 2) -> "OperatorSpec":
        if dim_n < 2:
            raise ValueError("dim_n must be at least 2 (one x plus at least one y)")
        y_names = tuple(f"y{i + 1}" for i in range(dim_n - 1))
        return cls(beta=parse(beta, y_names), gamma=parse(gamma, ("x",) + y_names), dim_n=dim_n)

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

    passed = order at least 1, sign change present and the derivative mass
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
    grid_step: float
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
    strict and sphere points are excluded.  The points are read off the
    slabs of ``_ball_slabs``, at most _SLAB_NODES grid nodes each, and
    joined: the whole lattice's points, bit for bit, in C order of the
    (n,) * n_axes box lattice.
    """
    slabs, actual = _ball_slabs(radius, grid_step, n_axes, closed)
    return np.concatenate([_nodes(axes, keep) for axes, keep in slabs]), actual


def _ball_slabs(radius: float, grid_step: float, n_axes: int, closed: bool):
    """The lattice of ``ball_lattice`` as a lazy sequence of slabs of
    consecutive first-axis nodes, at most _SLAB_NODES grid nodes each (one
    first-axis node when its nodes alone exceed that), and the actual step.

    A slab is (axes, keep): its first-axis nodes, then the whole axis once
    per later axis, and the mask of the ball's nodes over the box lattice
    of those axes.  r^2 is summed axis by axis from the first, so every
    node is kept or dropped with the bits of the whole lattice: no (n^d, d)
    node table.
    """
    if radius <= 0 or grid_step <= 0:
        raise ValueError("radius and grid_step must be positive")
    axis = step_axis(-radius, radius, grid_step)
    sq = axis * axis
    rows = max(1, _SLAB_NODES // axis.size ** (n_axes - 1))

    def slab(lo: int):
        r2 = sq[lo:lo + rows]
        for _ in range(n_axes - 1):
            r2 = np.add.outer(r2, sq)
        if closed:
            keep = r2 <= radius * radius + 1e-12
        else:
            keep = r2 < radius * radius - 1e-12
        return (axis[lo:lo + rows],) + (axis,) * (n_axes - 1), keep

    return map(slab, range(0, axis.size, rows)), 2 * radius / (axis.size - 1)


def _nodes(axes, mask) -> np.ndarray:
    """The (k, len(axes)) coordinates of the nodes ``mask`` picks from the
    box lattice of ``axes``, in C order."""
    idx = np.nonzero(mask)
    return np.stack([a[i] for a, i in zip(axes, idx)], axis=-1)


def _slab_values(fn, names, axes, keep) -> list:
    """``fn(env, shape)``, a sequence of arrays of that shape, over the box
    lattice of a slab of ``_ball_slabs`` in grid form: each name is bound
    to its axis, shaped to broadcast against the others, so a subtree that
    depends on one axis is computed once per node of that axis.

    Off the ball the values may be undefined: where the box raises
    EvalDomainError, ``fn`` runs again on the slab's ball points alone and
    its values are placed on the box, zero off the ball.  A failure there
    raises EvalDomainError with the message of ``_locate_eval_failure``:
    after slabs that evaluated everywhere, the first failing lattice point.
    """
    try:
        return fn({name: a.reshape((-1,) + (1,) * (len(axes) - 1 - k))
                   for k, (name, a) in enumerate(zip(names, axes))}, keep.shape)
    except EvalDomainError:
        pts = _nodes(axes, keep)
        try:
            vals = fn({name: pts[:, k] for k, name in enumerate(names)}, pts.shape[:1])
        except EvalDomainError:
            raise EvalDomainError(_locate_eval_failure(fn, names, pts)) from None
        boxed = np.zeros((len(vals),) + keep.shape)
        boxed[:, keep] = vals
        return list(boxed)


def _grid_slabs(fn, x_nodes, y_pts):
    """``fn(x, y_pts)`` on x_nodes x y_pts, as (first x-node, values) for
    slabs of consecutive x-nodes, x of shape (slab, 1), of at most
    _SLAB_NODES grid points each; one call when the whole grid fits."""
    rows = max(1, _SLAB_NODES // y_pts.shape[0])
    for lo in range(0, x_nodes.shape[0], rows):
        yield lo, np.asarray(fn(x_nodes[lo:lo + rows, None], y_pts), dtype=float)


def _check_resolves(radius: float, grid_step: float, ball: str) -> None:
    """Refuse a lattice step that leaves fewer than 10 points per axis of the ball."""
    if grid_step <= 0 or 2 * radius / grid_step < 10 - 1e-9:
        raise ValueError(
            f"grid_step must resolve the {ball} ball with at least 10 points per axis"
        )


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


def _locate_eval_failure(fn, names, pts) -> str:
    """Name the first of the points ``pts`` where the sweep function
    ``fn(env, shape)`` of ``_slab_values`` fails.

    The shortest failing prefix of the points is bisected with array calls
    of ``fn``; ``fn`` is then called on the scalars of the prefix's last
    point, where it raises the error of its first failing expression, which
    names the point and that error.
    """

    def error(env, shape) -> EvalDomainError | None:
        try:
            fn(env, shape)
        except EvalDomainError as err:
            return err

    ok, bad = 0, pts.shape[0]  # the first ``ok`` points evaluate
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if error({name: pts[:mid, j] for j, name in enumerate(names)}, (mid,)) is not None:
            bad = mid
        else:
            ok = mid
    for i in range(ok, pts.shape[0]):
        err = error({name: float(pts[i, k]) for k, name in enumerate(names)}, ())
        if err is not None:
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
    documented MASS_TOLERANCE is the computable surrogate.  Order 0 never
    passes: its mass is |beta|, which the required sign change forces to
    vanish somewhere in the connected ball, between lattice nodes if need
    be.  Expression failures (domain errors, underivable powers) are
    reported in the ``error`` field with passed=False rather than raised.

    The lattice is swept in the slabs of ``_ball_slabs``, at most
    _SLAB_NODES grid nodes each, and each slab is reduced before the next
    is built.  A slab is evaluated in grid form, over its box lattice from
    the axes (``_slab_values``), and reduced under the ball mask.  Off the
    ball beta may be undefined: a slab whose box fails to evaluate is
    evaluated again on its ball points alone, and only a failure there is
    reported, at its first failing point.  The report has the bits of a
    sweep of the whole lattice's points.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    _check_resolves(dom.y_outer_radius, grid_step, "outer")
    slabs, actual_step = _ball_slabs(dom.y_outer_radius, grid_step, op.n_y, closed=True)

    def failed(message: str) -> HormanderReport:
        return HormanderReport(
            passed=False,
            order_used=order,
            sign_change_ok=False,
            sign_witnesses=None,
            min_derivative_mass=None,
            grid_step=actual_step,
            error=message,
        )

    try:
        exprs = _derivative_exprs(op.beta, op.y_names, order)
    except ExprError as err:
        return failed(f"cannot differentiate beta: {err}")

    def sweep(env, shape):  # the mass is summed as each derivative arrives
        mass = np.zeros(shape)
        for i, e in enumerate(exprs):
            v = evaluate(e, env)
            if i == 0:
                beta_vals = np.broadcast_to(v, shape)
            mass += np.abs(v)
        return beta_vals, mass

    min_mass = np.inf
    lo = hi = None  # (beta, point) at the first grid argmin / argmax so far
    for axes, keep in slabs:
        if not keep.any():
            continue
        try:
            beta_vals, mass = _slab_values(sweep, op.y_names, axes, keep)
        except EvalDomainError as err:
            return failed(str(err))
        min_mass = min(min_mass, float(np.min(mass, where=keep, initial=np.inf)))
        # the first masked extreme in C order is the ball points' argmin /
        # argmax; strict comparisons keep the first across slabs
        i_min = np.unravel_index(np.argmin(np.where(keep, beta_vals, np.inf)), keep.shape)
        if lo is None or beta_vals[i_min] < lo[0]:
            lo = (beta_vals[i_min], tuple(a[i] for a, i in zip(axes, i_min)))
        i_max = np.unravel_index(np.argmax(np.where(keep, beta_vals, -np.inf)), keep.shape)
        if hi is None or beta_vals[i_max] > hi[0]:
            hi = (beta_vals[i_max], tuple(a[i] for a, i in zip(axes, i_max)))

    sign_ok = lo[0] < 0 < hi[0]
    return HormanderReport(
        passed=bool(sign_ok and order > 0 and min_mass > MASS_TOLERANCE),
        order_used=order,
        sign_change_ok=bool(sign_ok),
        sign_witnesses=(lo[1], hi[1]),
        min_derivative_mass=min_mass,
        grid_step=actual_step,
    )


def smallest_passing_order(op: OperatorSpec, dom: CylinderDomain) -> int | None:
    """Smallest derivative order, 1 to 4, at which ``check_hypothesis``
    passes at its default grid step; None when none does.  Order 0 never
    passes."""
    for order in range(1, 5):
        if check_hypothesis(op, dom, order=order).passed:
            return order
    return None


def classify_regions(
    op: OperatorSpec,
    dom: CylinderDomain,
    level: float,
    grid_step: float = 0.01,
) -> RegionSet:
    """Split the open inner-ball lattice by the drift sign at the given level;
    the lattice must resolve the inner ball as in ``check_hypothesis``.

    beta is evaluated slab by slab in the grid form of ``check_hypothesis``,
    under the open-ball mask and with its fallback to the ball points.  An
    evaluation failure raises EvalDomainError with the message ``check``
    reports: the first failing lattice point in C order and its error.  The
    plus and minus points are read off the masks in C order: the points,
    bit for bit, of splitting the whole ``ball_lattice``.
    """
    if not 0 < level < np.inf:
        raise ValueError("level must be positive and finite")
    _check_resolves(dom.y_inner_radius, grid_step, "inner")
    slabs, actual_step = _ball_slabs(dom.y_inner_radius, grid_step, op.n_y, closed=False)
    plus, minus = [], []
    for axes, keep in slabs:
        (beta_vals,) = _slab_values(lambda env, shape: [evaluate(op.beta, env)],
                                    op.y_names, axes, keep)
        plus.append(_nodes(axes, keep & (beta_vals > level)))
        minus.append(_nodes(axes, keep & (beta_vals < -level)))
    plus, minus = np.concatenate(plus), np.concatenate(minus)
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


def estimate_sups(op: OperatorSpec, dom: CylinderDomain) -> tuple[float, float]:
    """Grid maxima of |beta| (outer ball) and |gamma| (full cylinder), each
    inflated by the safety factor _SUP_MARGIN; upper bounds for step-size
    control and the path checks.  A failure of beta is named at the first
    failing lattice point, as ``check`` names it; gamma is swept over the
    x-nodes (the first alone when it does not read x) by ``_grid_slabs``."""
    y_pts, _ = ball_lattice(dom.y_outer_radius, _SUP_GRID_STEP, op.n_y, closed=True)
    try:
        beta_max = float(np.abs(op.beta_at(y_pts)).max())
    except EvalDomainError:
        raise EvalDomainError(_locate_eval_failure(
            lambda env, shape: [evaluate(op.beta, env)], op.y_names, y_pts)) from None
    xs = step_axis(dom.x_lo, dom.x_hi, _SUP_GRID_STEP)
    if "x" not in free_variables(op.gamma):
        xs = xs[:1]  # every x slice gives the same values
    gamma_max = max(float(np.abs(g).max()) for _, g in _grid_slabs(op.gamma_at, xs, y_pts))
    return _SUP_MARGIN * beta_max, _SUP_MARGIN * gamma_max


def with_estimated_sups(op: OperatorSpec, dom: CylinderDomain) -> OperatorSpec:
    """A copy of ``op`` with both sup bounds filled from ``estimate_sups`` on
    ``dom``, recorded as ``sup_domain``; ``op`` itself when it was filled on
    an equal cylinder, which costs no further sweep of the sup lattice."""
    if op.sup_domain == dom:
        return op
    filled = dataclasses.replace(op)
    for name, value in zip(("beta_sup", "gamma_sup", "sup_domain"),
                           (*estimate_sups(op, dom), dom)):
        object.__setattr__(filled, name, value)
    return filled
