"""Stochastic-representation tools: evaluate candidates along stopped paths,
check the two-sided exponential-weight inequality, and manufacture positive
fields from boundary/terminal data.

The representation: for a bounded solution u of
Delta_y u + beta(y) u_x + gamma u = 0 on the cylinder,

    u(x, y) = E[ exp( integral of gamma along the path ) * u(stopped state) ]

where the path runs until it leaves the y-ball or reaches the horizon t.
With |gamma| <= 1 the weight lies in [e^{-t}, e^{t}], which gives the
sandwich   e^{-t} E[u(stopped)] <= u(x,y) <= e^{t} E[u(stopped)]
that ``sandwich_check`` tests with a Monte Carlo confidence margin.

The paths come from fixed streams of ``simulate_batch``: ``evaluate`` and
``sandwich_check`` draw stream 0, ``make_solution`` stream 1, so checking
a manufactured node with either draws fresh paths.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench patches it here
from dataclasses import dataclass

import numpy as np

from .expressions import free_variables
from .fields import ScalarField, grid_points
from .operators import _SUP_MARGIN, CylinderDomain, OperatorSpec, with_estimated_sups
from .sde import SimConfig, simulate_batch

__all__ = ["FKEstimate", "SandwichReport", "evaluate", "sandwich_check", "make_solution"]

# payoff values one make_solution call evaluates at once (1 MB of floats per
# array); a call holds as many whole starts as fit, and at least one
_CALL_PAYOFFS = 1 << 17


@dataclass(frozen=True)
class FKEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    std_error: float
    n_paths: int
    horizon: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the two-sided weight inequality at one start point."""

    passed: bool
    lower: float
    upper: float
    value_at_start: float
    estimate: FKEstimate
    k_sigma: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    n = vals.shape[0]
    mean = float(np.mean(vals))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(vals, ddof=1) / np.sqrt(n))


def _payoff(u, x, y, what="payoff", at="a stopped state") -> np.ndarray:
    """u at the states x (n,), y (n, n_y) as n floats, through ``u.at`` when
    u has one; a constant result is broadcast to every state."""
    try:
        vals = np.asarray(getattr(u, "at", u)(x, y), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{what} evaluation failed at {at}: {exc}") from exc
    if vals.ndim == 0:
        return np.broadcast_to(vals, x.shape)
    if vals.shape != x.shape:
        raise ValueError(f"{what} returned shape {vals.shape} at {x.shape[0]} point(s); "
                         f"expected ({x.shape[0]},) or a constant")
    return vals


def _run_one_start(op, dom, u, start, t, cfg, workers):
    """cfg.n_paths stopped paths of stream 0 from one start to horizon t:
    the batch and the payoff u at its stopped states."""
    if np.ndim(start[0]) != 0:
        raise ValueError("expected one start (x a number, y of shape (n_y,))")
    batch = simulate_batch(op, dom, start, dataclasses.replace(cfg, t_max=t),
                           workers=workers, stream=0)
    return batch, _payoff(u, batch.stopped_x, batch.stopped_y)


def evaluate(
    op: OperatorSpec,
    dom: CylinderDomain,
    u_data,
    start,
    t: float,
    cfg: SimConfig = SimConfig(t_max=1.0),
    workers: int = 1,
) -> FKEstimate:
    """Weighted Monte Carlo evaluation of u_data through stopped paths.

    Runs a path batch of stream 0 from the one point ``start = (x, y)`` to
    horizon ``t`` and averages exp(gamma_integral) * u_data(stopped state).
    ``u_data`` is evaluated through its ``at(x (n,), y (n, n_y)) -> (n,)``
    method (ScalarField, AnalyticSolution), or called when it has none.  A
    constant result counts for every path; any other shape than (n,) is a
    ValueError, as is a k-point ``start``.
    """
    t = float(t)
    batch, payoff = _run_one_start(op, dom, u_data, start, t, cfg, workers)
    mean, se = _mean_se(np.exp(batch.gamma_integral) * payoff)
    return FKEstimate(value=mean, std_error=se, n_paths=cfg.n_paths, horizon=t)


def sandwich_check(
    op: OperatorSpec,
    dom: CylinderDomain,
    u,
    start,
    t: float | None = None,
    cfg: SimConfig = SimConfig(t_max=1.0),
    k_sigma: float = 3.0,
    workers: int = 1,
) -> SandwichReport:
    """Check  e^{-t}(E - k*se) <= u(start) <= e^{t}(E + k*se)  where E is the
    unweighted mean of u at the stopped states of a stream-0 path batch.

    Needs |gamma| <= 1 on the sup lattice (rescale the operator first
    otherwise); both sups are measured there, once, through
    ``with_estimated_sups``.  The default horizon is 1/sup|beta|, trading
    x-spread against weight growth.  ``u``
    is evaluated as in ``evaluate``, at the stopped states and at the one
    point ``start``: a constant result is broadcast, any other wrong shape
    and a k-point ``start`` are ValueErrors.
    """
    if not 0 <= k_sigma < np.inf:
        raise ValueError(f"k_sigma must be nonnegative and finite, got {k_sigma:g}")
    # one sweep of the sup lattice, shared with the path engine; the gate
    # divides the step-size margin back out (with it the boundary case
    # |gamma| = 1, which the bound does cover, would fail)
    op = with_estimated_sups(op, dom)
    gamma_gate = op.gamma_sup / _SUP_MARGIN
    if gamma_gate > 1.0 + 1e-9:
        raise ValueError(
            f"sandwich bound needs |gamma| <= 1 (estimated sup {gamma_gate:g}); rescale first"
        )
    if t is None:
        if op.beta_sup <= 0:
            raise ValueError("default horizon 1/sup|beta| undefined for vanishing beta")
        t = 1.0 / op.beta_sup
    t = float(t)

    batch, payoff = _run_one_start(op, dom, u, start, t, cfg, workers)
    e_mean, se = _mean_se(payoff)
    value = float(_payoff(u, batch.start_x, batch.start_y, at="the start")[0])

    lower = np.exp(-t) * (e_mean - k_sigma * se)
    upper = np.exp(t) * (e_mean + k_sigma * se)
    estimate = FKEstimate(value=e_mean, std_error=se, n_paths=cfg.n_paths, horizon=t)
    return SandwichReport(
        passed=bool(lower <= value <= upper),
        lower=float(lower),
        upper=float(upper),
        value_at_start=value,
        estimate=estimate,
        k_sigma=float(k_sigma),
    )


def make_solution(
    op: OperatorSpec,
    dom: CylinderDomain,
    g,
    t_solve: float,
    cfg: SimConfig,
    axes,
    workers: int = 1,
    name: str = "fk_field",
) -> ScalarField:
    """Manufacture a positive field node-by-node from boundary data g > 0.

    Every node draws from stream 1 (common random numbers), so each node
    equals, bit for bit, the mean of exp(gamma_integral) * g over
    ``simulate_batch(op, dom, node, cfg, stream=1)`` at horizon t_solve,
    and the field is independent of worker count.  Stream 1 keeps the
    field off stream 0, the stream of ``evaluate`` and ``sandwich_check``,
    so checking a node with those draws fresh paths.  Y paths get no
    feedback from x, so when gamma does not depend on x the paths from a
    y-node at x = 0 serve its whole x-row by translation; otherwise every
    node is a start of its own.  Each ``simulate_batch(..., workers=workers)``
    call holds as many whole starts as keep its payoff values within
    ``_CALL_PAYOFFS``, and at least one; the engine spreads its chunks over
    the threads and refuses a start outside the outer ball.  The node value
    is the mean of exp(gamma_integral) * g at the stopped state — exited
    paths use the exit state on the sphere, survivors the horizon state.
    ``g`` is evaluated as in ``evaluate``: a constant result is broadcast, and
    a result that is not one value per stopped state is a ValueError.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != 1 + op.n_y:
        raise ValueError(f"expected {1 + op.n_y} axes (x plus y), got {len(axes)}")
    op = with_estimated_sups(op, dom)
    cfg = dataclasses.replace(cfg, t_max=float(t_solve))
    x_free = "x" not in free_variables(op.gamma)

    shape = tuple(a.shape[0] for a in axes)
    # the starts in C order: the y-nodes at x = 0, each standing for its
    # x-row, when gamma does not depend on x; every grid node otherwise
    starts = grid_points((np.zeros(1),) + axes[1:] if x_free else axes)
    starts_x, starts_y = starts[:, 0], starts[:, 1:]
    node_x = axes[0] if x_free else np.zeros(1)
    n = cfg.n_paths
    # start-major node values: one column per x-node a start serves
    node_vals = np.empty((starts_x.shape[0], node_x.shape[0]))
    per_call = max(1, _CALL_PAYOFFS // (n * node_x.shape[0]))
    for s0 in range(0, starts_x.shape[0], per_call):
        s1 = min(s0 + per_call, starts_x.shape[0])
        batch = simulate_batch(op, dom, (starts_x[s0:s1], starts_y[s0:s1]), cfg,
                               workers=workers, stream=1)
        k = s1 - s0
        # (start, x-node, path): a start's stopped states moved to each x-node
        px = node_x[None, :, None] + batch.stopped_x.reshape(k, 1, n)
        py = np.broadcast_to(batch.stopped_y.reshape(k, 1, n, op.n_y), px.shape + (op.n_y,))
        payoff = _payoff(g, px.reshape(-1), py.reshape(-1, op.n_y), "boundary data")
        payoff = payoff.reshape(px.shape)
        weights = np.exp(batch.gamma_integral).reshape(k, 1, n)
        node_vals[s0:s1] = np.mean(weights * payoff, axis=2)
    values = node_vals.T if x_free else node_vals
    return ScalarField(axes=axes, values=values.reshape(shape), name=name)
