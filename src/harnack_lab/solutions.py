"""Catalog of positive reference solutions of  Delta_y u + beta u_x + gamma u = 0.

Four constructors:

* ``kolmogorov_poly(C)``: u = x - y^3/6 + C with beta = y, the linear-drift
  polynomial solution, exact under the finite-difference oracle.
* ``separable(lam, op, y0, dom)``: u = e^{lam*x} * phi(y) where the profile
  solves phi'' = -(lam*beta(y) + gamma) phi, integrated by fixed-step RK4
  with Hermite dense output.
* ``counterexample_family(lam)``: u = e^{-lam*x} cosh(sqrt(lam) y) with
  beta constant 1.  beta never changes sign here, and the sup/inf ratio of
  this family over a fixed subcylinder grows like e^lam cosh(sqrt(lam)),
  which is the Harnack-failure mechanism the estimator reproduces.
* ``constant(c)``: u = c, valid whenever gamma = 0.

Each solution records a positivity certificate with margin reporting:
``positive_region`` is the subregion on which the constructor *requires*
u > 0, checked on a 101 x 101 grid at construction, and ``positivity_min``
is the grid minimum over the full validity cylinder (possibly <= 0 for
solutions that are only locally positive).  The report-only values are
computed on first read and then kept: ``positivity_min`` samples the
cylinder then unless the region is the whole cylinder (never for
``counterexample_family``, always for ``kolmogorov_poly``), and
``ode_error`` of ``separable`` reruns the profile at half the step then.
``constant`` has an exact certificate and samples nothing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import Const, simplify
from .fields import ScalarField, at_points, box_axes
from .operators import CylinderDomain, OperatorSpec

__all__ = [
    "AnalyticSolution",
    "kolmogorov_poly",
    "separable",
    "counterexample_family",
    "constant",
    "catalog_entry",
    "parse_solution_name",
]

# the polynomial solution is verified on the y-radius-3 cylinder
KOLMOGOROV_DOMAIN = dataclasses.replace(CylinderDomain(), y_outer_radius=3.0)


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """A reference solution with its operator and positivity certificate.

    ``positive_region`` is (x_lo, x_hi, y_radius): the subcylinder on which
    u > 0 was verified on a grid at construction (``positive_region_min`` is
    the margin).  Two values only report and are computed on first read:
    ``positivity_min``, the grid minimum over the full validity cylinder,
    which may be nonpositive for locally-positive solutions, and
    ``ode_error``, the profile error estimate (0 for closed forms).
    """

    name: str
    op: OperatorSpec
    domain: CylinderDomain
    fn: Callable
    positive_region: tuple
    positive_region_min: float
    # runs on the first read of ode_error; separable's reruns its profile at
    # half the step
    _ode_error: Callable[[], float] = dataclasses.field(default=lambda: 0.0, repr=False)

    @functools.cached_property
    def positivity_min(self) -> float:
        cylinder = (self.domain.x_lo, self.domain.x_hi, self.domain.y_outer_radius)
        if tuple(self.positive_region) == cylinder:
            return self.positive_region_min
        return _grid_min(self.fn, self.n_y, *cylinder)[0]

    @functools.cached_property
    def ode_error(self) -> float:
        return self._ode_error()

    @property
    def n_y(self) -> int:
        return self.op.n_y

    def at(self, x, y):
        """u at the points (x, y) of ``fields.at_points``; a float for one point."""
        x_arr, y_arr, one = at_points(x, y, self.op.n_y)
        out = np.asarray(self.fn(x_arr, y_arr), dtype=float)
        return float(out[0]) if one else out

    def as_field(self, nx: int = 101, ny: int = 101, x_span=None, y_radius=None) -> ScalarField:
        """Sample onto a regular grid (defaults to the validity cylinder)."""
        x_lo, x_hi = x_span if x_span is not None else (self.domain.x_lo, self.domain.x_hi)
        radius = y_radius if y_radius is not None else self.domain.y_outer_radius
        return ScalarField.sample(self.fn, box_axes(x_lo, x_hi, nx, radius, ny, self.op.n_y),
                                  name=self.name)


def _grid_min(fn, n_y, x_lo, x_hi, radius, nx=101, ny=101):
    """Minimum of fn over the [x_lo,x_hi] x ball grid, with its location."""
    field = ScalarField.sample(fn, box_axes(x_lo, x_hi, nx, radius, ny, n_y))
    i_min = np.unravel_index(np.argmin(field.values), field.values.shape)
    where = tuple(float(a[i]) for a, i in zip(field.axes, i_min))
    return float(field.values[i_min]), where


def _certify(name, fn, op, dom, region, **lazy) -> AnalyticSolution:
    """The solution with its certificate: positivity enforced now on the grid
    of ``region`` (x_lo, x_hi, y_radius).  ``lazy`` passes on the
    ``_ode_error`` thunk of a solution that has one."""
    region_min, where = _grid_min(fn, op.n_y, *region)
    if region_min <= 0:
        loc = ", ".join(f"{w:g}" for w in where)
        raise ValueError(
            f"{name} is not positive on its certified region: min {region_min:g} at ({loc})"
        )
    return AnalyticSolution(name=name, op=op, domain=dom, fn=fn, positive_region=region,
                            positive_region_min=region_min, **lazy)


def kolmogorov_poly(C: float, dom: CylinderDomain = KOLMOGOROV_DOMAIN) -> AnalyticSolution:
    """u = x - y^3/6 + C with beta = y, gamma = 0 (two-dimensional state).

    C must keep u positive on the inner subcylinder
    [inner_x_lo, inner_x_hi] x inner ball (C > 1/6 on the default geometry);
    the full-cylinder minimum is reported in the certificate, where staying
    positive needs C > 9.5 on the default [-5, 6] x [-3, 3].
    """
    op = OperatorSpec.from_strings("y1", "0", dim_n=2)

    def fn(x, y):
        return x - y[:, 0] ** 3 / 6 + C

    region = (dom.inner_x_lo, dom.inner_x_hi, dom.y_inner_radius)
    return _certify(f"kolmogorov({C:g})", fn, op, dom, region)


def counterexample_family(lam: float, dom: CylinderDomain = CylinderDomain()) -> AnalyticSolution:
    """u = e^{-lam x} cosh(sqrt(lam) y) with beta = 1: positive everywhere,
    yet its subcylinder sup/inf ratio e^lam cosh(sqrt(lam)) diverges in lam,
    since the constant drift never changes sign."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    op = OperatorSpec.from_strings("1", "0", dim_n=2)
    root = np.sqrt(lam)

    def fn(x, y):
        return np.exp(-lam * x) * np.cosh(root * y[:, 0])

    region = (dom.x_lo, dom.x_hi, dom.y_outer_radius)
    return _certify(f"counterexample({lam:g})", fn, op, dom, region)


def constant(c: float, op: OperatorSpec | None = None,
             dom: CylinderDomain = CylinderDomain()) -> AnalyticSolution:
    """u = c > 0; a solution exactly when gamma = 0."""
    if not c > 0:
        raise ValueError("c must be positive")
    if op is None:
        op = OperatorSpec.from_strings("y1", "0", dim_n=2)
    if simplify(op.gamma) != Const(0.0):
        raise ValueError("a nonzero constant solves the equation only when gamma = 0")

    def fn(x, y):
        return np.full(x.shape, float(c))

    return AnalyticSolution(
        name=f"constant({c:g})",
        op=op,
        domain=dom,
        fn=fn,
        positive_region=(dom.x_lo, dom.x_hi, dom.y_outer_radius),
        positive_region_min=float(c),
    )


def _rk4_sweep(q_half: np.ndarray, h: float, p0: float, v0: float):
    """March (phi, phi') through n = (len(q_half)-1)/2 uniform RK4 steps;
    q_half holds q at the half-step grid y0, y0+h/2, y0+h, ...

    The loop runs on Python floats (numpy scalars cost several times more
    per operation); IEEE double arithmetic in the same order gives the same
    bits either way."""
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


def _integrate_profile(op: OperatorSpec, lam: float, gamma0: float,
                       y0: float, y_lo: float, y_hi: float, h: float):
    """Solve phi'' = -(lam*beta(y) + gamma0) phi from phi(y0)=1, phi'(y0)=0
    over [y_lo, y_hi]; returns (nodes, phi, dphi) with nodes ascending."""

    def q_at(pts: np.ndarray) -> np.ndarray:
        return -(lam * op.beta_at(pts[:, None]) + gamma0)

    pieces = []
    for target in (y_lo, y_hi):
        span = abs(target - y0)
        if span < 1e-14:
            continue
        n = max(int(np.ceil(span / h - 1e-9)), 1)
        step = (target - y0) / n  # signed, |step| <= h
        half_grid = y0 + step * np.arange(2 * n + 1) / 2.0
        p, v = _rk4_sweep(q_at(half_grid), step, 1.0, 0.0)
        pieces.append((y0 + step * np.arange(n + 1), p, v))

    nodes = [np.array([y0])]
    phis = [np.array([1.0])]
    dphis = [np.array([0.0])]
    for ys, p, v in pieces:
        if ys[-1] < y0:  # downward sweep: reverse, drop the shared y0 node
            nodes.insert(0, ys[:0:-1])
            phis.insert(0, p[:0:-1])
            dphis.insert(0, v[:0:-1])
        else:
            nodes.append(ys[1:])
            phis.append(p[1:])
            dphis.append(v[1:])
    return np.concatenate(nodes), np.concatenate(phis), np.concatenate(dphis)


def _cubic_hermite(nodes: np.ndarray, phi: np.ndarray, dphi: np.ndarray) -> Callable:
    """The cubic Hermite interpolant of (nodes, phi, dphi), extrapolated by the
    end cubics.  Coefficients and evaluation follow scipy's CubicHermiteSpline
    and PPoly (power basis in s = y - node, summed from the constant term up),
    so the values match it bit for bit."""
    dx = np.diff(nodes)
    slope = np.diff(phi) / dx
    t = (dphi[:-1] + dphi[1:] - 2 * slope) / dx
    c3, c2, c1, c0 = t / dx, (slope - dphi[:-1]) / dx - t, dphi[:-1], phi[:-1]

    def profile(y):
        i = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, nodes.size - 2)
        s = y - nodes[i]
        s2 = s * s
        return 0.0 + c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return profile


def separable(
    lam: float,
    op: OperatorSpec,
    y0: float = 0.0,
    dom: CylinderDomain = CylinderDomain(),
    step: float = 1e-3,
) -> AnalyticSolution:
    """u = e^{lam x} phi(y) for scalar y and constant gamma.

    The profile ODE is integrated by classical RK4 at (close to) the fixed
    step across the outer interval, in both directions from y0 where
    phi(y0) = 1, phi'(y0) = 0; values between nodes come from cubic Hermite
    interpolation, matching the integrator's fourth order.  A full rerun at
    half the step provides the reported error estimate when ``ode_error`` is
    first read.  Profiles that are not positive throughout the inner
    interval are rejected with the first zero location.
    """
    if op.n_y != 1:
        raise ValueError("separable solutions need a one-dimensional y")
    gamma_expr = simplify(op.gamma)
    if not isinstance(gamma_expr, Const):
        raise ValueError("separable solutions need a constant gamma")
    gamma0 = gamma_expr.value
    radius = dom.y_outer_radius
    if not -radius <= y0 <= radius:
        raise ValueError("y0 must lie in the outer interval")

    nodes, phi, dphi = _integrate_profile(op, lam, gamma0, y0, -radius, radius, step)

    def ode_error():
        _, phi_h, _ = _integrate_profile(op, lam, gamma0, y0, -radius, radius, step / 2)
        # both runs share their first and last node (the interval endpoints)
        return float(max(abs(phi_h[0] - phi[0]), abs(phi_h[-1] - phi[-1])))

    inner = np.abs(nodes) <= dom.y_inner_radius + 1e-12
    if np.any(phi[inner] <= 0):
        # the first zero met when marching away from y0: the sign change
        # closest to the initial point, located by linear interpolation
        cross = np.nonzero((phi[:-1] > 0) != (phi[1:] > 0))[0]
        if cross.size:
            frac = phi[cross] / (phi[cross] - phi[cross + 1])
            zeros = nodes[cross] + frac * (nodes[cross + 1] - nodes[cross])
            zero_at = zeros[np.argmin(np.abs(zeros - y0))]
        else:
            zero_at = nodes[np.nonzero(inner & (phi <= 0))[0][0]]
        raise ValueError(
            f"separable profile vanishes on the inner interval; first zero near y = {zero_at:.6g}"
        )

    profile = _cubic_hermite(nodes, phi, dphi)

    def fn(x, y):
        return np.exp(lam * x) * profile(y[:, 0])

    region = (dom.x_lo, dom.x_hi, radius if np.all(phi > 0) else dom.y_inner_radius)
    return _certify(f"separable(lambda={lam:g},gamma={gamma0:g})", fn, op, dom, region,
                    _ode_error=ode_error)


def parse_solution_name(text: str) -> tuple[str, list[float]]:
    """Split a catalog name like ``kolmogorov(10)`` into head and arguments,
    validating the shape but not constructing anything."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed solution name {text!r}")
        head, _, rest = text.partition("(")
        head = head.strip()
        args_text = rest[:-1].strip()
        try:
            args = [float(a) for a in args_text.split(",")] if args_text else []
        except ValueError:
            raise ValueError(f"malformed solution arguments in {text!r}") from None
    else:
        head, args = text, []

    expected = {"kolmogorov": (0, 1), "separable": (1, 2),
                "counterexample": (1, 1), "constant": (1, 1)}
    if head not in expected:
        raise ValueError(
            f"unknown solution {head!r}; expected kolmogorov, separable, "
            "counterexample, or constant"
        )
    lo, hi = expected[head]
    if not lo <= len(args) <= hi:
        raise ValueError(f"{head} takes {lo} to {hi} argument(s), got {len(args)}")
    return head, args


def catalog_entry(text: str, op: OperatorSpec | None = None,
                  dom: CylinderDomain | None = None) -> AnalyticSolution:
    """Build a catalog solution from its config-file name.

    Recognized forms: ``kolmogorov``, ``kolmogorov(C)``, ``separable(lam)``,
    ``separable(lam, gamma)``, ``counterexample(lam)``, ``constant(c)``.
    ``op``/``dom`` feed the separable and constant constructors (beta,
    gamma and geometry); the other entries fix their own coefficients.
    """
    head, args = parse_solution_name(text)
    if head == "kolmogorov":
        return kolmogorov_poly(args[0] if args else 10.0)
    if head == "counterexample":
        return counterexample_family(args[0], dom=dom or CylinderDomain())
    if head == "constant":
        return constant(args[0], op=op, dom=dom or CylinderDomain())
    base = op if op is not None else OperatorSpec.from_strings("y1", "0", dim_n=2)
    if len(args) == 2:
        base = OperatorSpec(beta=base.beta, gamma=Const(args[1]), dim_n=base.dim_n)
    return separable(args[0], base, dom=dom or CylinderDomain())
