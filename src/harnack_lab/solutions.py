"""Catalog of positive reference solutions of  Delta_y u + beta u_x + gamma u = 0.

Four constructors; a CLI run builds each on ``[domain]``, for ``[operator]`` only:

* ``kolmogorov_poly(C)``: u = x - y^3/6 + C with beta = y, the linear-drift
  polynomial solution, exact under the finite-difference oracle.
* ``separable(lam, op, dom)``: u = e^{lam*x} * phi(y) where the profile
  solves phi'' = -(lam*beta(y) + gamma) phi from phi(0) = 1, phi'(0) = 0,
  integrated by fixed-step RK4 with Hermite dense output.
* ``counterexample_family(lam)``: u = e^{-lam*x} cosh(sqrt(lam) y) with
  beta constant 1.  beta never changes sign here, and the sup/inf ratio of
  this family over a fixed subcylinder grows like e^lam cosh(sqrt(lam)),
  which is the Harnack-failure mechanism the estimator reproduces.
* ``constant(c)``: u = c, valid whenever gamma = 0.

The Harnack inequality covers positive solutions only, so each constructor
enforces u > 0 on the region it certifies, sampled on one 101 x 101 grid at
construction, and refuses the solution otherwise: the inner subcylinder for
``kolmogorov_poly``, the whole cylinder for ``counterexample_family``, and
for ``separable`` the whole cylinder when the profile is positive across the
outer interval, else [x_lo, x_hi] x inner ball.  ``constant`` is positive
by construction and samples nothing.
"""

from __future__ import annotations

import dataclasses
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

# RK4 step of the separable profiles
_PROFILE_STEP = 1e-3


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """A reference solution u = fn(x, y) of ``op`` on the cylinder ``domain``,
    built only once u > 0 on the region its constructor certifies."""

    name: str
    op: OperatorSpec
    domain: CylinderDomain
    fn: Callable

    @property
    def n_y(self) -> int:
        return self.op.n_y

    def at(self, x, y):
        """u at the points (x, y) of ``fields.at_points``: a float for one
        point, shape (k,) for k points, shape (nx, m) for the grid form.

        ``fn`` gets the points in the form they came in; a grid result that
        only broadcasts to (nx, m), such as ``constant``'s (nx, 1), is
        broadcast to it.
        """
        x_arr, y_arr, shape = at_points(x, y, self.op.n_y)
        out = np.asarray(self.fn(x_arr, y_arr), dtype=float)
        if len(shape) == 2 and out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return float(out[0]) if shape == () else out

    def as_field(self, nx: int = 101, ny: int = 101, x_span=None, y_radius=None) -> ScalarField:
        """Sample onto a regular grid (defaults to the validity cylinder)."""
        x_lo, x_hi = x_span if x_span is not None else (self.domain.x_lo, self.domain.x_hi)
        radius = y_radius if y_radius is not None else self.domain.y_outer_radius
        return ScalarField.sample(self.fn, box_axes(x_lo, x_hi, nx, radius, ny, self.op.n_y),
                                  name=self.name)


def _certify(name, fn, op, dom, region) -> AnalyticSolution:
    """The solution, once u is finite and u > 0 on the 101 x 101 grid of
    ``region`` (x_lo, x_hi, y_radius); a ValueError otherwise, at the first
    grid point in C order where u is not finite, else at the grid minimum."""

    def checked(x, y):
        with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
            u = np.broadcast_to(fn(x, y), (x.shape[0], y.shape[0]))
        finite = np.isfinite(u)
        i, j = divmod(int(np.argmin(u if finite.all() else finite)), y.shape[0])
        at = ", ".join(f"{float(v):g}" for v in (x[i, 0], *y[j]))
        if not finite[i, j]:
            raise ValueError(f"{name} is not finite on its certified region: "
                             f"{float(u[i, j]):g} at ({at})")
        if u[i, j] <= 0:
            raise ValueError(f"{name} is not positive on its certified region: "
                             f"min {float(u[i, j]):g} at ({at})")
        return u

    x_lo, x_hi, radius = region
    ScalarField.sample(checked, box_axes(x_lo, x_hi, 101, radius, 101, op.n_y))
    return AnalyticSolution(name=name, op=op, domain=dom, fn=fn)


def kolmogorov_poly(C: float, dom: CylinderDomain = KOLMOGOROV_DOMAIN) -> AnalyticSolution:
    """u = x - y^3/6 + C with beta = y, gamma = 0 (two-dimensional state).

    C must keep u positive on the inner subcylinder
    [inner_x_lo, inner_x_hi] x inner ball (C > 1/6 on the default geometry),
    the region certified; the whole default [-5, 6] x [-3, 3] needs C > 9.5.
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
    """u = c > 0; a solution exactly when gamma = 0, positive everywhere."""
    if not c > 0:
        raise ValueError("c must be positive")
    if op is None:
        op = OperatorSpec.from_strings("y1", "0", dim_n=2)
    if simplify(op.gamma) != Const(0.0):
        raise ValueError("a nonzero constant solves the equation only when gamma = 0")

    def fn(x, y):
        return np.full(x.shape, float(c))

    return AnalyticSolution(name=f"constant({c:g})", op=op, domain=dom, fn=fn)


def _rk4_increment(qa, qm, qb, h: float, cp, cv):
    """The increment of (phi, phi') over one classical RK4 step of
    phi'' = q phi from (cp, cv), with q = qa, qm, qb at the step's start,
    midpoint and end; numpy arrays of q give every step's at once."""
    hh = 0.5 * h
    k1v = qa * cp  # k1p is cv
    k2p = cv + hh * k1v
    k2v = qm * (cp + hh * cv)
    k3p = cv + hh * k2v
    k3v = qm * (cp + hh * k2p)
    k4p = cv + h * k3v
    k4v = qb * (cp + h * k3p)
    return (h * (cv + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0,
            h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0)


def _rk4_sweep(q_half: np.ndarray, h: float, p0: float, v0: float):
    """March (phi, phi') through n = (len(q_half)-1)/2 uniform RK4 steps;
    q_half holds q at the half-step grid a, a+h/2, a+h, ... from the start a.

    The equation is linear, so step n adds E_n (phi, phi') to (phi, phi'),
    where E_n = M_n - I and M_n is the step's transfer matrix.  The columns
    of every E_n are the step's increments from (1, 0) and (0, 1), taken in
    two array passes; the march is then one four-coefficient update per
    step on Python floats (numpy scalars cost several times more per
    operation).  E_n is stored, not M_n: M_n's diagonal is 1 + O(h^2 q), so
    applying M_n would round each step's increment against 1, and on a
    constant q that rounding error recurs on every step.  The method, the
    q nodes and the step are unchanged, so RK4's truncation error is too;
    only rounding differs from marching the stages one step at a time."""
    qa, qm, qb = q_half[:-1:2], q_half[1::2], q_half[2::2]
    h = float(h)
    # a q so large that h^2 q^2 overflows gives inf/nan entries without a
    # warning, as the stages did on floats; separable refuses that profile
    with np.errstate(over="ignore", invalid="ignore"):
        e_pp, e_vp = _rk4_increment(qa, qm, qb, h, 1.0, 0.0)
        e_pv, e_vv = _rk4_increment(qa, qm, qb, h, 0.0, 1.0)
    cp, cv = float(p0), float(v0)
    p = [cp]
    v = [cv]
    for a, b, c, d in zip(e_pp.tolist(), e_pv.tolist(), e_vp.tolist(), e_vv.tolist()):
        cp, cv = cp + (a * cp + b * cv), cv + (c * cp + d * cv)
        p.append(cp)
        v.append(cv)
    return np.array(p), np.array(v)


def _integrate_profile(op: OperatorSpec, lam: float, gamma0: float, radius: float, h: float):
    """Solve phi'' = -(lam*beta(y) + gamma0) phi from phi(0)=1, phi'(0)=0
    over [-radius, radius], sweeping down and then up from 0; returns
    (nodes, phi, dphi) with nodes ascending."""

    def q_at(pts: np.ndarray) -> np.ndarray:
        return -(lam * op.beta_at(pts[:, None]) + gamma0)

    n = max(int(np.ceil(radius / h - 1e-9)), 1)
    nodes, phis, dphis = [np.array([0.0])], [np.array([1.0])], [np.array([0.0])]
    for step in (-radius / n, radius / n):  # signed, |step| <= h
        # ``0.0 +`` turns the -0.0 of a downward sweep's first node into 0.0
        half_grid = 0.0 + step * np.arange(2 * n + 1) / 2.0
        p, v = _rk4_sweep(q_at(half_grid), step, 1.0, 0.0)
        ys = step * np.arange(n + 1)
        if step < 0:  # downward sweep: reverse, drop the shared node at 0
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
    with np.errstate(over="ignore", invalid="ignore"):  # _certify refuses inf/nan by name
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
    dom: CylinderDomain = CylinderDomain(),
) -> AnalyticSolution:
    """u = e^{lam x} phi(y) for scalar y and constant gamma.

    The profile ODE is integrated by classical RK4 at (close to) a fixed
    step of 1e-3 across the outer interval, in both directions from y = 0
    where phi(0) = 1, phi'(0) = 0; values between nodes come from cubic Hermite
    interpolation, matching the integrator's fourth order.  Profiles that
    are not finite throughout the inner interval are rejected with the
    first non-finite node, and then those that are not positive there with
    the first zero location; both are the first met marching away from 0.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if op.n_y != 1:
        raise ValueError("separable solutions need a one-dimensional y")
    gamma_expr = simplify(op.gamma)
    if not isinstance(gamma_expr, Const):
        raise ValueError("separable solutions need a constant gamma")
    gamma0 = gamma_expr.value
    radius = dom.y_outer_radius
    nodes, phi, dphi = _integrate_profile(op, lam, gamma0, radius, _PROFILE_STEP)

    inner = np.abs(nodes) <= dom.y_inner_radius + 1e-12
    finite = np.isfinite(phi)
    if not finite[inner].all():
        off = nodes[inner & ~finite]  # named: the first met marching away from 0
        y_bad = off[np.argmin(np.abs(off))]
        raise ValueError("separable profile is not finite on the inner interval; "
                         f"first non-finite node at y = {y_bad:.6g}")
    if np.any(phi[inner] <= 0):
        # the first zero met when marching away from 0: the sign change
        # closest to the initial point, located by linear interpolation
        # between finite nodes
        cross = np.nonzero(((phi[:-1] > 0) != (phi[1:] > 0)) & finite[:-1] & finite[1:])[0]
        if cross.size:
            frac = phi[cross] / (phi[cross] - phi[cross + 1])
            zeros = nodes[cross] + frac * (nodes[cross + 1] - nodes[cross])
            zero_at = zeros[np.argmin(np.abs(zeros))]
        else:
            zero_at = nodes[np.nonzero(inner & (phi <= 0))[0][0]]
        raise ValueError(
            f"separable profile vanishes on the inner interval; first zero near y = {zero_at:.6g}"
        )

    profile = _cubic_hermite(nodes, phi, dphi)

    def fn(x, y):
        return np.exp(lam * x) * profile(y[:, 0])

    region = (dom.x_lo, dom.x_hi, radius if np.all(phi > 0) else dom.y_inner_radius)
    return _certify(f"separable(lambda={lam:g},gamma={gamma0:g})", fn, op, dom, region)


def parse_solution_name(text: str) -> tuple[str, list[float]]:
    """Split a catalog name like ``kolmogorov(10)`` into head and arguments,
    validating the shape and that every argument is finite, but not
    constructing anything."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError(f"malformed solution name {text!r}")
        head, _, rest = text.partition("(")
        head = head.strip()
        args_text = rest[:-1].strip()
        entries = [a.strip() for a in args_text.split(",")] if args_text else []
        try:
            args = [float(a) for a in entries]
        except ValueError:
            raise ValueError(f"malformed solution arguments in {text!r}") from None
        for entry, arg in zip(entries, args):
            if not np.isfinite(arg):
                raise ValueError(f"not a finite number: {entry!r}")
    else:
        head, args = text, []

    expected = {"kolmogorov": (0, 1), "separable": (1, 1),
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
    ``counterexample(lam)``, ``constant(c)``; each lives on ``dom`` (default
    ``CylinderDomain()``).  ``separable`` and ``constant`` solve ``op``;
    ``kolmogorov`` fixes beta = y1, ``counterexample`` beta = 1 (gamma = 0, dim_n = 2).
    """
    head, args = parse_solution_name(text)
    dom = dom or CylinderDomain()
    if head == "kolmogorov":
        return kolmogorov_poly(args[0] if args else 10.0, dom=dom)
    if head == "counterexample":
        return counterexample_family(args[0], dom=dom)
    if head == "constant":
        return constant(args[0], op=op, dom=dom)
    return separable(args[0], op or OperatorSpec.from_strings("y1", "0", dim_n=2), dom=dom)
