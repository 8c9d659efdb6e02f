"""Stopped-diffusion Monte Carlo engine.

Simulates (X, Y) with dX = beta(Y) dt and dY = sqrt(2) dB by Euler-Maruyama,
stopping each path the first time Y leaves the open outer ball or the horizon
is reached.  Produces path batches, exit statistics and empirical stopped-Y
measures.

Reproducibility contract: path i draws from its own counter-based stream
keyed by (master_seed, stream, i) (Philox): first one Exp(1) exit clock, then
its Y normals in step order.  Every accumulation is a left fold seeded with
the carried state, and every reduction is written in path-index order, so
results are a pure function of the inputs: byte-identical for any worker
count, chunk size or step-block size.  Path i takes the same steps whatever
the path count, and whatever the horizon up to the last step (whose end time
is pinned to t_max).  Two symmetries of the operator hold bit for bit:
translating the start in x translates stopped_x (Y gets no feedback from x),
and for beta = y1^k with a power-of-two lam, dilating the domain, the start,
dt and t_max by (x, y, t) -> (lam^(k+2) x, lam y, lam^2 t) dilates every
stopped state and stop time the same way.

A batch may run from k starts at once.  Path i of every start uses the same
key, whose clock and normals are drawn once for all k rows (common random
numbers), so each start's rows are bit for bit the batch run from that start
alone; ``make_solution`` runs its grid nodes this way.

Exit handling: by default each path runs an exit clock.  It stops at the
first step where its cumulative Brownian-bridge crossing hazard,
sum of -log1p(-p_k) with p_k = exp(-(R-r_k)(R-r_{k+1})/dt), reaches its
Exp(1) draw, so a step whose endpoints are both inside the ball still stops
the path with conditional probability p_k; the recorded y is the radial
projection onto the sphere and the recorded time is the endpoint of the
step.  This keeps the exit-time discretization bias at O(dt) (it halves when
dt does).  Only steps with p_k >= e^-100 fold any hazard, so only rows that
come within about sqrt(100*dt) of the sphere pay for the check; the dropped
terms sum to less than half an ulp of the smallest positive clock numpy
draws, so every path stops where folding every step would stop it (tested),
unless its clock is exactly 0.0.  Pass exit_detection="endpoint" to stop
only when an endpoint lands outside; that variant is simpler but biased high
by O(sqrt(dt)), which is visible at desk scale (roughly +0.06 on a mean exit
time of 2.0 at dt = 1e-3).  Both modes draw the clock, so they share every Y
increment.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .expressions import Const, free_variables
from .fields import FLOAT_FMT, format_float, grid_points, write_csv
from .operators import CylinderDomain, OperatorSpec, estimate_sups, with_estimated_sups

__all__ = [
    "SimConfig",
    "PathBatch",
    "EmpiricalMeasure",
    "simulate_batch",
    "starts_per_call",
    "measure_from_batch",
]

# work unit sizes; results depend on none of them.  A chunk is a range of path
# ids across all starts (at most _CHUNK_PATHS rows, at least one path); it
# shares one bit generator and is one thread task.  Each running path draws
# the normals of _DRAW_STEPS steps per refill; the steps are computed in blocks
# of _BLOCK_STEPS, small enough for the temporaries to stay in cache, and rows
# that stopped are dropped after every block.  A chunk holds its rows' normals
# for _DRAW_STEPS steps (8 MB at n_y = 1) plus the per-block temporaries (a
# full 1,024-row chunk at n_y = 1 traces a 15-17 MB peak); 1,024 rows keep that
# working set small while each block's numpy calls still span enough rows to
# amortize their fixed cost (512 rows already slow a 900-row make_solution
# batch by a seventh)
_CHUNK_PATHS = 1024
_DRAW_STEPS = 1024
_BLOCK_STEPS = 128
# exponent of a step's bridge-crossing probability from which the bridge
# check takes the step's hazard as 0; no stop depends on it (see _run_chunk)
_HAZARD_CUTOFF = 100.0


@dataclass(frozen=True)
class SimConfig:
    """Time step, horizon, path count, and master seed for one batch."""

    t_max: float
    dt: float = 1e-3
    n_paths: int = 100_000
    master_seed: int = 0

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.t_max < np.inf:
            raise ValueError("t_max must be positive and finite")
        if self.dt > self.t_max:
            raise ValueError("dt must not exceed t_max")
        if self.t_max / self.dt >= 2**32:
            raise ValueError(f"t_max/dt must be under 2**32 steps, got {self.t_max / self.dt:.3g} "
                             f"(t_max {self.t_max:g}, dt {self.dt:g})")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.n_paths >= 2**32:
            raise ValueError("n_paths must fit in 32 bits")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class PathBatch:
    """Stopped states of one batch; arrays are indexed by row.

    ``start_x`` has shape (k,) and ``start_y`` (k, n_y) for the k starts,
    one start included; rows are start-major, and ``n_paths`` counts the
    rows of all starts.
    """

    start_x: np.ndarray
    start_y: np.ndarray
    stopped_x: np.ndarray
    stopped_y: np.ndarray
    stop_time: np.ndarray
    gamma_integral: np.ndarray
    exited: np.ndarray
    horizon: float
    dt: float

    @property
    def n_paths(self) -> int:
        return int(self.stopped_x.shape[0])

    @property
    def n_y(self) -> int:
        return int(self.stopped_y.shape[1])

    def to_csv(self, path) -> None:
        y_cols = [f"stopped_y{k + 1}" for k in range(self.n_y)]
        header = ["path_id", "stopped_x", *y_cols, "stop_time", "gamma_integral", "exited"]
        fmt = ",".join(["%d"] + [FLOAT_FMT] * (self.n_y + 3) + ["%d"])
        rows = zip(
            range(self.n_paths),
            self.stopped_x.tolist(),
            *self.stopped_y.T.tolist(),
            self.stop_time.tolist(),
            self.gamma_integral.tolist(),
            self.exited.astype(np.int64).tolist(),
        )
        write_csv(path, header, fmt, rows)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Histogram of stopped y states: interior bins plus one exit shell.

    ``counts`` has one axis per y coordinate; bins tile the box circumscribing
    the outer ball.  Masses are counts normalized by the path count, so the
    interior masses plus the exit mass sum to one.
    """

    bin_edges: tuple[np.ndarray, ...]
    counts: np.ndarray
    exit_count: int
    n_paths: int

    def __post_init__(self):
        if int(self.counts.sum()) + self.exit_count != self.n_paths:
            raise ValueError("histogram counts plus exit shell must cover every path")

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.n_paths

    @property
    def exit_mass(self) -> float:
        return self.exit_count / self.n_paths

    @property
    def bin_centers(self) -> tuple[np.ndarray, ...]:
        return tuple((e[1:] + e[:-1]) / 2 for e in self.bin_edges)

    def to_csv(self, path) -> None:
        n_y = len(self.bin_edges)
        header = ["bin"] + [f"y{k + 1}_center" for k in range(n_y)] + ["count", "mass"]
        fmt = ",".join(["%d"] + [FLOAT_FMT] * n_y + ["%d", FLOAT_FMT])
        # bins in C order, like np.ndindex over the counts
        rows = zip(
            range(self.counts.size),
            *grid_points(self.bin_centers).T.tolist(),
            self.counts.reshape(-1).tolist(),
            self.masses.reshape(-1).tolist(),
        )
        exit_row = ",".join(
            ["exit"] + [""] * n_y + [str(self.exit_count), format_float(self.exit_mass)])
        write_csv(path, header, fmt, rows, footer=[exit_row])


def _normalize_starts(start, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts as x (k,) and y (k, n_y); one point is k = 1."""
    x, y = start
    if np.ndim(x) == 0:
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if y_arr.shape != (n_y,):
            raise ValueError(f"start y must have {n_y} coordinates, got shape {y_arr.shape}")
        return np.array([float(x)]), y_arr[None, :]
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or x_arr.size == 0 or y_arr.shape != (x_arr.size, n_y):
        raise ValueError(
            f"k starts need x of shape (k,) and y of shape (k, {n_y}), "
            f"got {x_arr.shape} and {y_arr.shape}"
        )
    return x_arr, y_arr


def _time_grid(dt: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes and cumulative times; all steps equal dt except a possible
    shorter last one when dt does not divide t_max."""
    n_full = int(np.floor(t_max / dt + 1e-9))
    rem = t_max - n_full * dt
    steps = [dt] * n_full
    if rem > 1e-9 * dt:
        steps.append(rem)
    dt_steps = np.asarray(steps)
    t_grid = np.concatenate([[0.0], np.cumsum(dt_steps)])
    t_grid[-1] = t_max
    return dt_steps, t_grid


def _run_chunk(
    op: OperatorSpec,
    radius: float,
    starts_x: np.ndarray,
    starts_y: np.ndarray,
    starts_r2: np.ndarray,
    dt_steps: np.ndarray,
    t_grid: np.ndarray,
    cfg: SimConfig,
    stream: int,
    lo: int,
    hi: int,
    bridge: bool,
    out: dict,
) -> None:
    """Paths lo..hi-1 of every start; row s*n_paths + i of ``out`` is path i
    from start s, and all rows of path i share its key."""
    n_y = op.n_y
    m = hi - lo
    n_steps = dt_steps.shape[0]
    r2_max = radius * radius
    gamma_const = isinstance(op.gamma, Const)
    sq_steps = np.sqrt(2.0 * dt_steps)

    # one bit generator per chunk; every path sets its own state before drawing,
    # so the seed given here is never used.  A fresh path's state is counter 0,
    # an empty buffer and key (master_seed, stream << 32 | path id), written
    # into one dict of Python ints, which the state setter reads fastest
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    normal, exponential = gen.standard_normal, gen.standard_exponential
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [cfg.master_seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    fresh_key = fresh["state"]["key"]
    key_base = (stream << 32) | lo
    states = [None] * m  # Philox state of a path that outlives a draw refill
    key_clock = np.empty(m)

    # chunk rows are start-major: row r runs path lo + r % m from start r // m
    start_of = np.repeat(np.arange(starts_x.shape[0]), m)
    key_of = np.tile(np.arange(m), starts_x.shape[0])
    out_row = start_of * cfg.n_paths + lo + key_of

    # carried state of the running rows, aligned with ``live`` (chunk rows)
    live = np.arange(start_of.shape[0])
    y = starts_y[start_of]
    r2 = starts_r2[start_of]
    sx = starts_x[start_of]
    x_disp = np.zeros(live.shape[0])
    g_acc = np.zeros(live.shape[0])
    hazard = np.zeros(live.shape[0])

    for w0 in range(0, n_steps, _DRAW_STEPS):
        if live.size == 0:
            break
        w1 = min(w0 + _DRAW_STEPS, n_steps)
        save = w1 < n_steps
        # each key still running in some row draws once for all its rows
        live_keys = key_of[live]
        drawn = np.unique(live_keys)
        normals = np.empty((drawn.size, w1 - w0, n_y))
        for j, p in enumerate(drawn.tolist()):
            if w0 == 0:
                fresh_key[1] = key_base + p
                bitgen.state = fresh
                key_clock[p] = exponential()
            else:
                bitgen.state = states[p]
            normal(out=normals[j])
            if save:
                states[p] = bitgen.state
        src = np.searchsorted(drawn, live_keys)  # ``normals`` row of each running row
        if w0 == 0:
            clock = key_clock[live_keys]

        for b0 in range(w0, w1, _BLOCK_STEPS):
            b1 = min(b0 + _BLOCK_STEPS, w1)
            k = live.size
            dts = dt_steps[b0:b1]
            # left folds over [carry, increments...]: the bits do not depend on
            # where a block starts
            ys = np.empty((k, b1 - b0 + 1, n_y))
            ys[:, 0] = y
            np.multiply(normals[src, b0 - w0 : b1 - w0], sq_steps[b0:b1, None], out=ys[:, 1:])
            np.cumsum(ys, axis=1, out=ys)
            r2s = np.empty((k, b1 - b0 + 1))
            r2s[:, 0] = r2
            np.square(ys[:, 1:, 0], out=r2s[:, 1:])
            for c in range(1, n_y):
                r2s[:, 1:] += ys[:, 1:, c] ** 2
            # column 0 is the carried state, inside the ball, so a row reaches
            # the sphere in this block exactly when its max does
            r2_top = r2s.max(axis=1)
            running = b1 - b0 + 1  # past the last ys column
            first = np.full(k, running)  # ys column of the stopping step
            out_rows = np.flatnonzero(r2_top >= r2_max)
            first_out = np.argmax(r2s[out_rows, 1:] >= r2_max, axis=1) + 1
            first[out_rows] = first_out

            if bridge:
                # exit clock: the path stops once its cumulative bridge-crossing
                # hazard h_k = -log1p(-p_k) reaches its Exp(1) draw, so a step
                # that starts alive stops with p_k = exp(-(R-r_k)(R-r_{k+1})/dt).
                # Once the exponent passes _HAZARD_CUTOFF = 100, p_k < 3.7e-44
                # and h_k is taken as 0.  Even 1e10 such steps sum to under
                # 3.7e-34, below half an ulp (7.7e-34) of the smallest
                # positive Exp(1) draw numpy's ziggurat returns (7.09e-18:
                # layer 1, ri = 1), so no stop decision moves.  The one
                # exception is a clock of exactly 0.0 (probability 2**-53),
                # which stops at the first step of the path's first block that
                # folds any hazard.  The exponent passes the cutoff on every
                # step of a row that stays 1% further from the sphere than
                # sqrt(_HAZARD_CUTOFF*dt), so only the other rows fold any
                # hazard.  Below 2**-54, -log1p(-p) is p in double precision.
                reach = max(radius - 1.01 * np.sqrt(_HAZARD_CUTOFF * dts.max()), 0.0)
                warm = np.flatnonzero(r2_top > reach * reach)
                if warm.size:
                    d = radius - np.sqrt(r2s[warm])
                    expo = d[:, :-1] * d[:, 1:]
                    expo /= dts
                    near = expo < _HAZARD_CUTOFF
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        h = np.exp(-expo[near])
                        big = np.flatnonzero(h >= 2.0**-54)
                        h[big] = -np.log1p(-h[big])
                    hs = np.zeros((warm.size, b1 - b0 + 1))
                    hs[:, 0] = hazard[warm]
                    hs[:, 1:][near] = h
                    np.cumsum(hs, axis=1, out=hs)
                    hazard[warm] = hs[:, -1]
                    # the fold never decreases until a step with an outside
                    # endpoint turns it NaN, so only rows whose block-end
                    # hazard is not below the clock can cross in this block;
                    # a NaN end may still hide an earlier crossing
                    late = np.flatnonzero(~(hs[:, -1] < clock[warm]))
                    if late.size:
                        cross = hs[late, 1:] >= clock[warm[late], None]
                        has = cross.any(axis=1)
                        rows_h = warm[late[has]]
                        j_h = np.argmax(cross[has], axis=1) + 1
                        first[rows_h] = np.minimum(first[rows_h], j_h)

            stop = first < running
            idx = np.flatnonzero(stop)
            j = first[idx]
            rows = out_row[live[idx]]
            if idx.size:
                y_hit = ys[idx, j]
                r_hit = np.sqrt(r2s[idx, j])
                out["stopped_y"][rows] = y_hit * (radius / np.maximum(r_hit, 1e-300))[:, None]
                out["stop_time"][rows] = t_grid[b0 + j]
                out["exited"][rows] = True

            # coefficients are evaluated at the left endpoint of each step.  A
            # left endpoint outside the ball comes after its path stopped and
            # feeds no recorded value; pull it back into the ball so beta stays
            # in its domain
            over = out_rows[first_out < b1 - b0]
            if over.size:
                scale = np.minimum(1.0, radius / np.maximum(np.sqrt(r2s[over, 1:-1]), 1e-300))
                ys[over, 1:-1] *= scale[:, :, None]
            prev = ys[:, :-1]
            xs = np.empty((k, b1 - b0 + 1))
            xs[:, 0] = x_disp
            np.multiply(op.beta_at(prev), dts, out=xs[:, 1:])
            np.cumsum(xs, axis=1, out=xs)
            if idx.size:
                out["x_disp"][rows] = xs[idx, j]
            if not gamma_const:
                gs = np.empty((k, b1 - b0 + 1))
                gs[:, 0] = g_acc
                np.multiply(op.gamma_at(sx[:, None] + xs[:, :-1], prev), dts, out=gs[:, 1:])
                np.cumsum(gs, axis=1, out=gs)
                if idx.size:
                    out["gamma_integral"][rows] = gs[idx, j]

            keep = ~stop
            live, src, clock = live[keep], src[keep], clock[keep]
            y, r2, x_disp = ys[keep, -1], r2s[keep, -1], xs[keep, -1]
            hazard = hazard[keep]
            if not gamma_const:
                sx, g_acc = sx[keep], gs[keep, -1]
            if live.size == 0:
                break

    if live.size > 0:  # horizon reached without exit
        rows = out_row[live]
        out["stopped_y"][rows] = y
        out["stop_time"][rows] = t_grid[-1]
        out["x_disp"][rows] = x_disp
        if not gamma_const:
            out["gamma_integral"][rows] = g_acc
        out["exited"][rows] = False


def _check_batch(batch: PathBatch, op: OperatorSpec, dom: CylinderDomain) -> None:
    per_start = batch.n_paths // batch.start_x.size
    disp = np.abs(batch.stopped_x - np.repeat(batch.start_x, per_start))
    bound = op.beta_sup * (batch.stop_time + batch.dt) + 1e-9
    if np.any(disp > bound):
        raise RuntimeError("internal error: a path broke the x-displacement bound")
    r2 = np.einsum("ij,ij->i", batch.stopped_y, batch.stopped_y)
    r2_max = dom.y_outer_radius**2
    if np.any(r2 > r2_max * (1 + 1e-12) + 1e-12):
        raise RuntimeError("internal error: a stopped y left the closed outer ball")
    gamma_sup = op.gamma_sup
    if "x" in free_variables(op.gamma):
        # paths do not stop at the x-faces, so bound |gamma| over every x
        # within the displacement bound of a start, and never below the
        # cylinder's bound
        reach = op.beta_sup * (batch.horizon + batch.dt)
        wide = replace(dom, x_lo=min(dom.x_lo, batch.start_x.min() - reach),
                       x_hi=max(dom.x_hi, batch.start_x.max() + reach))
        if wide != dom:
            gamma_sup = max(gamma_sup, estimate_sups(op, wide)[1])
    g_bound = gamma_sup * batch.stop_time * (1 + 1e-9) + 1e-12
    if np.any(np.abs(batch.gamma_integral) > g_bound):
        raise RuntimeError("internal error: a path broke the gamma-integral bound")


def starts_per_call(n_paths: int) -> int:
    """How many starts of ``n_paths`` paths each fit in one chunk (at least
    one), so that a multi-start ``simulate_batch`` call of that many starts
    is one thread task."""
    return max(1, _CHUNK_PATHS // n_paths)


def simulate_batch(
    op: OperatorSpec,
    dom: CylinderDomain,
    start,
    cfg: SimConfig,
    workers: int = 1,
    exit_detection: str = "bridge",
    stream: int = 0,
) -> PathBatch:
    """Run one batch of stopped paths from ``start = (x, y)``.

    ``start`` is one point (x a number, y of shape (n_y,)) or k points (x of
    shape (k,), y of shape (k, n_y)).  Every start runs ``cfg.n_paths`` paths
    in the same engine pass, and path i of every start draws from the same
    key (common random numbers), so each start's rows equal, bit for bit,
    a batch run from that start alone.  The returned arrays hold the rows
    start-major: row s * cfg.n_paths + i is path i from start s; the batch
    keeps the starts in the k-point form either way.

    ``stream`` selects an independent substream under the same master seed.
    Results are identical for every ``workers`` value.
    """
    if exit_detection not in ("bridge", "endpoint"):
        raise ValueError("exit_detection must be 'bridge' or 'endpoint'")
    if not 0 <= stream < 2**32:
        raise ValueError("stream must fit in 32 bits")
    op = with_estimated_sups(op, dom)
    starts_x, starts_y = _normalize_starts(start, op.n_y)
    starts_r2 = np.array([y @ y for y in starts_y])
    radius = dom.y_outer_radius
    if not np.all(starts_r2 < radius * radius):  # a NaN y fails too
        raise ValueError("start y must lie strictly inside the outer ball")
    if not np.isfinite(starts_x).all():
        raise ValueError("start x must be finite")
    if op.beta_sup * cfg.dt >= 0.1 * radius:
        raise ValueError(
            f"dt too large: beta_sup*dt = {op.beta_sup * cfg.dt:g} must stay "
            f"below 0.1*outer_radius = {0.1 * radius:g}"
        )
    dt_steps, t_grid = _time_grid(cfg.dt, cfg.t_max)

    n = cfg.n_paths * starts_x.shape[0]
    out = {
        "stopped_y": np.empty((n, op.n_y)),
        "stop_time": np.empty(n),
        "x_disp": np.empty(n),
        "gamma_integral": np.empty(n),
        "exited": np.zeros(n, dtype=bool),
    }
    # a chunk is a range of path ids across all starts: at most _CHUNK_PATHS
    # rows, at least one path
    per = max(1, _CHUNK_PATHS // starts_x.shape[0])
    spans = [(lo, min(lo + per, cfg.n_paths)) for lo in range(0, cfg.n_paths, per)]
    bridge = exit_detection == "bridge"

    def run(span):
        _run_chunk(
            op, radius, starts_x, starts_y, starts_r2, dt_steps, t_grid, cfg, stream,
            span[0], span[1], bridge, out,
        )

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, spans))
    else:
        for span in spans:
            run(span)

    if isinstance(op.gamma, Const):
        # left-endpoint quadrature of a constant is exactly c * (t and tau)
        out["gamma_integral"] = op.gamma.value * out["stop_time"]

    batch = PathBatch(
        start_x=starts_x,
        start_y=starts_y,
        stopped_x=np.repeat(starts_x, cfg.n_paths) + out["x_disp"],
        stopped_y=out["stopped_y"],
        stop_time=out["stop_time"],
        gamma_integral=out["gamma_integral"],
        exited=out["exited"],
        horizon=cfg.t_max,
        dt=cfg.dt,
    )
    _check_batch(batch, op, dom)
    return batch


def measure_from_batch(batch: PathBatch, dom: CylinderDomain, bins: int) -> EmpiricalMeasure:
    """Histogram the stopped y states of a one-start batch; exited paths go
    to the exit shell."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    if batch.start_x.size > 1:
        raise ValueError("measure_from_batch needs a one-start batch; "
                         "slice a multi-start batch by start first")
    radius = dom.y_outer_radius
    edges = tuple(np.linspace(-radius, radius, bins + 1) for _ in range(batch.n_y))
    interior = batch.stopped_y[~batch.exited]
    counts, _ = np.histogramdd(interior, bins=edges)
    counts = counts.astype(np.int64)
    return EmpiricalMeasure(
        bin_edges=edges,
        counts=counts,
        exit_count=int(batch.exited.sum()),
        n_paths=batch.n_paths,
    )
