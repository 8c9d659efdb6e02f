import dataclasses
import tracemalloc

import numpy as np
import pytest

from harnack_lab import sde
from harnack_lab.operators import CylinderDomain, OperatorSpec, with_estimated_sups
from harnack_lab.sde import SimConfig, measure_from_batch, simulate_batch

DOM = CylinderDomain()
BATCH_ARRAYS = ("stopped_x", "stopped_y", "stop_time", "gamma_integral", "exited")
# zero, x-free and x-dependent gamma, each at n_y = 1 and 2
ENGINE_CASES = pytest.mark.parametrize(
    "gamma, n_y",
    [(g, n) for g in ("0", "0.3*y1", "0.2*sin(x)*y1") for n in (1, 2)],
)


def engine_op(gamma, n_y):
    beta = "y1" if n_y == 1 else "y1 - 0.5*y2"
    return OperatorSpec.from_strings(beta, gamma, dim_n=n_y + 1)


def engine_start(n_y):
    return (0.2, (0.3, -0.2)[:n_y])


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(t_max=0.5, dt=1.0)  # dt > t_max
    with pytest.raises(ValueError):
        SimConfig(t_max=1.0, dt=-0.1)
    with pytest.raises(ValueError):
        SimConfig(t_max=1.0, n_paths=0)
    with pytest.raises(ValueError):
        SimConfig(t_max=1.0, master_seed=-1)
    with pytest.raises(ValueError, match="t_max must be positive"):
        SimConfig(t_max=0)
    with pytest.raises(ValueError, match="32 bits"):
        SimConfig(t_max=1.0, n_paths=2**32)
    # a fractional seed or path count is refused, not truncated
    with pytest.raises(ValueError, match="master_seed must be an integer, got 1.5"):
        SimConfig(t_max=0.2, n_paths=50, master_seed=1.5)
    with pytest.raises(ValueError, match="n_paths must be an integer, got 2.5"):
        SimConfig(t_max=1.0, n_paths=2.5)
    with pytest.raises(ValueError, match="t_max must be positive and finite"):
        SimConfig(t_max=float("inf"))
    # a horizon of 2**32 or more steps is refused, whatever the two values
    for t_max, dt in [(1.0, 1e-300), (2.0**32, 1.0), (1e300, 1e-300)]:
        with pytest.raises(ValueError, match=r"t_max/dt must be under 2\*\*32 steps"):
            SimConfig(t_max=t_max, dt=dt)
    assert SimConfig(t_max=2.0**32 - 1, dt=1.0).dt == 1.0


def test_start_and_step_validation():
    op = OperatorSpec.from_strings("y1")
    with pytest.raises(ValueError):
        simulate_batch(op, DOM, (0.0, 2.0), SimConfig(t_max=1.0, n_paths=10))
    with pytest.raises(ValueError):
        # beta_sup ~ 2.1 so dt = 0.2 breaks beta_sup*dt < 0.1*radius
        simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, dt=0.2, n_paths=10))
    # the bridge clock is the one exit rule
    for mode in ("magic", "endpoint"):
        with pytest.raises(ValueError, match="exit_detection must be 'bridge'"):
            simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, n_paths=10),
                           exit_detection=mode)
    with pytest.raises(ValueError, match="stream must fit in 32 bits"):
        simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, n_paths=10), stream=2**32)
    with pytest.raises(ValueError, match="stream must be an integer, got 1.5"):
        simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, n_paths=10), stream=1.5)
    with pytest.raises(ValueError, match="start y must have 1 coordinates"):
        simulate_batch(op, DOM, (0.0, (0.1, 0.2)), SimConfig(t_max=1.0, n_paths=10))
    with pytest.raises(ValueError, match="start x must be finite"):
        simulate_batch(op, DOM, (float("nan"), [0.0]), SimConfig(t_max=1.0, n_paths=10))
    with pytest.raises(ValueError, match="strictly inside"):
        simulate_batch(op, DOM, (0.0, [float("nan")]), SimConfig(t_max=1.0, n_paths=10))


def test_zero_drift_keeps_x_exactly():
    op = OperatorSpec.from_strings("0")
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=500, master_seed=7)
    batch = simulate_batch(op, DOM, (0.75, 0.0), cfg)
    assert np.all(batch.stopped_x == 0.75)


def test_translation_equivariance_is_bitwise():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=2000, master_seed=42)
    shifted = simulate_batch(op, DOM, (1.5, 0.3), cfg)
    origin = simulate_batch(op, DOM, (0.0, 0.3), cfg)
    assert np.array_equal(shifted.stopped_x, origin.stopped_x + 1.5)
    assert np.array_equal(shifted.stopped_y, origin.stopped_y)
    assert np.array_equal(shifted.stop_time, origin.stop_time)
    assert np.array_equal(shifted.exited, origin.exited)


@pytest.mark.parametrize("k, lam", [(1, 0.5), (1, 2.0), (3, 0.5)])
def test_dilation_law_is_bitwise(k, lam):
    # for beta = y1^k, L is homogeneous under (x, y) -> (lam^(k+2) x, lam y)
    # with time scaled by lam^2; a power-of-two lam scales every float exactly
    op = OperatorSpec.from_strings(f"y1^{k}")
    cfg = SimConfig(t_max=2.0, dt=2e-3, n_paths=4000, master_seed=21)
    sx, sy = lam ** (k + 2), lam
    scaled_dom = CylinderDomain(
        x_lo=sx * DOM.x_lo, inner_x_lo=sx * DOM.inner_x_lo, inner_x_hi=sx * DOM.inner_x_hi,
        x_hi=sx * DOM.x_hi, y_outer_radius=sy * DOM.y_outer_radius,
        y_inner_radius=sy * DOM.y_inner_radius)
    scaled_cfg = dataclasses.replace(cfg, t_max=lam**2 * cfg.t_max, dt=lam**2 * cfg.dt)
    base = simulate_batch(op, DOM, (0.3, 0.4), cfg)
    scaled = simulate_batch(op, scaled_dom, (sx * 0.3, sy * 0.4), scaled_cfg)
    assert np.array_equal(scaled.exited, base.exited)
    assert np.array_equal(scaled.stop_time / lam**2, base.stop_time)
    assert np.array_equal(scaled.stopped_y / sy, base.stopped_y)
    assert np.array_equal(scaled.stopped_x / sx, base.stopped_x)
    assert 0 < base.exited.mean() < 1


@pytest.mark.parametrize("start_x", [5.9, 30.0])
def test_x_dependent_gamma_bound_covers_paths_past_the_x_faces(start_x):
    # paths do not stop at the x-faces: from x = 5.9, beta = y1 carries some
    # past x_hi = 6, where |0.1*x| exceeds its sup over the cylinder, and a
    # start at x = 30 runs outside it altogether
    op = OperatorSpec.from_strings("y1", "0.1*x")
    cfg = SimConfig(t_max=1.0, dt=1e-3, n_paths=2000)
    batch = simulate_batch(op, DOM, (start_x, 0.0), cfg)
    assert batch.stopped_x.max() > DOM.x_hi
    # 0 < x <= start_x + beta_sup * (t + dt) on every path before it stops
    x_top = start_x + with_estimated_sups(op, DOM).beta_sup * (batch.stop_time + cfg.dt)
    assert np.all(np.abs(batch.gamma_integral) <= 0.1 * x_top * batch.stop_time)


def test_exit_time_mean_matches_potential_theory():
    # mean exit time of sqrt(2)B from the radius-2 ball, started center: R^2/2
    op = OperatorSpec.from_strings("0")
    cfg = SimConfig(t_max=40.0, dt=2e-3, n_paths=20_000, master_seed=3)
    batch = simulate_batch(op, DOM, (0.0, 0.0), cfg)
    assert np.all(batch.exited)
    mean = batch.stop_time.mean()
    se = batch.stop_time.std(ddof=1) / np.sqrt(batch.n_paths)
    assert abs(mean - 2.0) < 4 * se


def test_stopped_states_and_flags_are_coherent():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=4000, master_seed=11)
    batch = simulate_batch(op, DOM, (0.0, 0.5), cfg)
    radii = np.abs(batch.stopped_y[:, 0])
    assert np.allclose(radii[batch.exited], 2.0, atol=1e-12)
    assert np.all(radii[~batch.exited] < 2.0)
    assert np.all(batch.stop_time[~batch.exited] == 1.0)
    assert np.all(batch.stop_time[batch.exited] <= 1.0)
    assert np.all(batch.stop_time > 0)
    # support bound with the estimated sup
    resolved = with_estimated_sups(op, DOM)
    assert np.all(
        np.abs(batch.stopped_x - 0.0)
        <= resolved.beta_sup * (batch.stop_time + batch.dt) + 1e-9
    )


def test_constant_gamma_integral_is_exact():
    op = OperatorSpec.from_strings("y1", gamma="1")
    cfg = SimConfig(t_max=0.5, dt=1e-3, n_paths=300, master_seed=5)
    batch = simulate_batch(op, DOM, (0.0, 0.0), cfg)
    assert np.array_equal(batch.gamma_integral, batch.stop_time)


def test_varying_gamma_respects_bound():
    op = OperatorSpec.from_strings("y1", gamma="0.9*sin(x + y1)")
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=500, master_seed=9)
    batch = simulate_batch(op, DOM, (0.3, 0.2), cfg)
    resolved = with_estimated_sups(op, DOM)
    assert np.all(np.abs(batch.gamma_integral) <= resolved.gamma_sup * batch.stop_time + 1e-9)
    assert not np.array_equal(batch.gamma_integral, np.zeros_like(batch.gamma_integral))


def test_results_independent_of_worker_count():
    op = OperatorSpec.from_strings("y1", gamma="sin(x)*0.5")
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=5000, master_seed=123)
    one = simulate_batch(op, DOM, (0.2, 0.1), cfg, workers=1)
    three = simulate_batch(op, DOM, (0.2, 0.1), cfg, workers=3)
    for attr in ("stopped_x", "stopped_y", "stop_time", "gamma_integral", "exited"):
        assert np.array_equal(getattr(one, attr), getattr(three, attr)), attr


@ENGINE_CASES
def test_results_independent_of_block_sizes(monkeypatch, gamma, n_y):
    # 1,250 steps: more than one draw refill at the default sizes
    op = engine_op(gamma, n_y)
    cfg = SimConfig(t_max=2.5, dt=2e-3, n_paths=600, master_seed=77)
    runs = []
    for draw, block, chunk in ((1024, 128, 2048), (333, 7, 250), (4096, 4096, 4096)):
        monkeypatch.setattr(sde, "_DRAW_STEPS", draw)
        monkeypatch.setattr(sde, "_BLOCK_STEPS", block)
        monkeypatch.setattr(sde, "_CHUNK_PATHS", chunk)
        runs.append(simulate_batch(op, DOM, engine_start(n_y), cfg))
    assert 0 < runs[0].exited.sum() < cfg.n_paths
    for other in runs[1:]:
        for attr in BATCH_ARRAYS:
            assert np.array_equal(getattr(runs[0], attr), getattr(other, attr)), attr


@ENGINE_CASES
def test_early_paths_independent_of_horizon(gamma, n_y):
    op = engine_op(gamma, n_y)
    short = simulate_batch(op, DOM, engine_start(n_y),
                           SimConfig(t_max=1.0, dt=2e-3, n_paths=1000, master_seed=5))
    long = simulate_batch(op, DOM, engine_start(n_y),
                          SimConfig(t_max=3.0, dt=2e-3, n_paths=1000, master_seed=5))
    # a path stopping on the last step of the short run is excluded: that
    # step's time is pinned to t_max
    early = short.stop_time < 1.0
    assert early.sum() > 100
    for attr in BATCH_ARRAYS:
        assert np.array_equal(getattr(short, attr)[early], getattr(long, attr)[early]), attr


@ENGINE_CASES
def test_first_paths_independent_of_path_count(gamma, n_y):
    op = engine_op(gamma, n_y)
    few = simulate_batch(op, DOM, engine_start(n_y),
                         SimConfig(t_max=1.0, dt=2e-3, n_paths=200, master_seed=8))
    many = simulate_batch(op, DOM, engine_start(n_y),
                          SimConfig(t_max=1.0, dt=2e-3, n_paths=3000, master_seed=8))
    for attr in BATCH_ARRAYS:
        assert np.array_equal(getattr(few, attr), getattr(many, attr)[:200]), attr


@ENGINE_CASES
def test_bridge_stops_no_later_than_endpoint(gamma, n_y):
    # the endpoint rule would stop a path at its first step whose endpoint has
    # r^2 >= R^2, or at the horizon; the bridge clock stops it there or earlier
    dt, seed = 2e-3, 21
    op = engine_op(gamma, n_y)
    cfg = SimConfig(t_max=1.0, dt=dt, n_paths=1000, master_seed=seed)
    batch = simulate_batch(op, DOM, engine_start(n_y), cfg)
    dt_steps, t_grid = sde._time_grid(dt, cfg.t_max)
    radius = DOM.y_outer_radius
    # each path's Y from its key (master_seed, stream << 32 | i), clock first,
    # folded as the engine folds it (one normals refill: 500 steps)
    steps = np.sqrt(2 * dt_steps)[:, None]
    ys = np.empty((cfg.n_paths, dt_steps.size, n_y))
    for i in range(cfg.n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed, i]))
        gen.standard_exponential()
        ys[i] = np.cumsum(steps * gen.standard_normal((dt_steps.size, n_y)), axis=0)
    ys += np.asarray(engine_start(n_y)[1])
    r2 = np.square(ys[..., 0])
    for c in range(1, n_y):
        r2 += ys[..., c] ** 2
    crossed = (r2 >= radius * radius).any(axis=1)
    first = np.where(crossed, np.argmax(r2 >= radius * radius, axis=1), dt_steps.size - 1)
    endpoint_time = t_grid[first + 1]
    assert np.all(batch.stop_time <= endpoint_time)
    assert np.any(batch.stop_time < endpoint_time)
    same = np.flatnonzero((batch.stop_time == endpoint_time) & crossed)
    assert same.size and batch.exited[same].all()
    y_out = ys[same, first[same]]
    projected = y_out * (radius / np.sqrt(r2[same, first[same]]))[:, None]
    assert batch.stopped_y[same].tobytes() == projected.tobytes()


# starts at |y| = 0.5, 1.9 and 1.99, the last two inside the band where rows
# fold bridge hazards from their first block
CUTOFF_X = np.array([0.2, -0.4, 0.9])
CUTOFF_Y = {1: np.array([[0.5], [-1.9], [1.99]]),
            2: np.array([[0.3, -0.4], [-1.14, 1.52], [1.194, -1.592]])}


@ENGINE_CASES
def test_hazard_cutoff_moves_no_stop(monkeypatch, gamma, n_y):
    # with no cutoff every row folds every step's hazard
    op = engine_op(gamma, n_y)
    cfg = SimConfig(t_max=1.5, dt=1e-3, n_paths=400, master_seed=31)
    starts = (CUTOFF_X, CUTOFF_Y[n_y])
    cut = simulate_batch(op, DOM, starts, cfg)
    monkeypatch.setattr(sde, "_HAZARD_CUTOFF", np.inf)
    full = simulate_batch(op, DOM, starts, cfg)
    for s in range(3):
        rows = slice(s * cfg.n_paths, (s + 1) * cfg.n_paths)
        assert 0 < cut.exited[rows].sum() < cfg.n_paths
    for attr in BATCH_ARRAYS:
        assert np.array_equal(getattr(cut, attr), getattr(full, attr)), attr


def test_smallest_exponential_draw_clears_the_hazard_cutoff():
    # numpy's ziggurat returns ri * w[idx] for a word's 53-bit ri and 8-bit
    # layer idx whenever the draw reads at most two words (the second an
    # acceptance test outside layer 0), so ri = 1 gives the smallest positive
    # draw, min w.  Recover each layer's w from draws paired with the words
    # they read, and check that 1e10 steps of dropped hazard stay below half
    # an ulp of it
    bitgen = np.random.Philox(key=[12345, 0])
    raw, draw = bitgen.random_raw, np.random.Generator(bitgen).standard_exponential
    n = 20_000
    words = np.empty(n, dtype=np.uint64)
    clocks = np.empty(n)
    read = np.empty(n, dtype=np.int64)

    def position(state):
        return int(state["state"]["counter"][0]) * 4 + state["buffer_pos"]

    for i in range(n):
        state = bitgen.state
        words[i] = raw()
        bitgen.state = state
        clocks[i] = draw()
        read[i] = position(bitgen.state) - position(state)
    layer = ((words >> np.uint64(3)) & np.uint64(0xFF)).astype(np.int64)
    ri = (words >> np.uint64(11)).astype(float)
    exact = ((read == 1) | ((read == 2) & (layer > 0))) & (ri > 0)
    assert exact.mean() > 0.95
    widths = clocks[exact] / ri[exact]
    smallest = np.inf
    for k in range(256):
        w = widths[layer[exact] == k]
        assert w.size > 0, f"layer {k} not drawn"
        assert w.max() / w.min() - 1 < 1e-15, f"layer {k} is not ri * w"
        smallest = min(smallest, w.min())
    assert smallest >= 7e-18
    assert 1e10 * np.exp(-sde._HAZARD_CUTOFF) < np.spacing(smallest) / 2


def test_one_bit_generator_per_chunk(monkeypatch):
    made = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 500)
    op = OperatorSpec.from_strings("y1")
    simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=0.2, dt=2e-3, n_paths=2000, master_seed=3))
    assert 1 <= len(made) <= 4


def test_simulate_batch_working_set():
    # one engine chunk bounds the working set: its normals and per-block
    # temporaries, not the path count, set the traced peak
    op = OperatorSpec.from_strings("y1", "0")
    cfg = SimConfig(t_max=1.0, dt=1e-3, n_paths=4096, master_seed=19)
    tracemalloc.start()
    try:
        simulate_batch(op, DOM, (0.0, 0.5), cfg, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"


def test_streams_are_independent():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.5, dt=2e-3, n_paths=200, master_seed=1)
    a = simulate_batch(op, DOM, (0.0, 0.0), cfg, stream=0)
    b = simulate_batch(op, DOM, (0.0, 0.0), cfg, stream=1)
    assert not np.array_equal(a.stopped_y, b.stopped_y)


def test_measure_short_horizon():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.1, dt=1e-3, n_paths=20_000, master_seed=17)
    batch = simulate_batch(op, DOM, (0.0, 0.0), cfg)
    meas = measure_from_batch(batch, DOM, bins=20)
    assert meas.exit_mass < 1e-3
    assert meas.counts.sum() + meas.exit_count == 20_000
    # marginal variance of sqrt(2)B_t is exactly 2t in the discretized law too
    var = batch.stopped_y[~batch.exited, 0].var(ddof=1)
    se = var * np.sqrt(2.0 / (20_000 - 1))
    assert abs(var - 0.2) < 3 * se


def test_measure_refuses_zero_bins_and_multi_start_batches():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.5, dt=2e-3, n_paths=100, master_seed=3)
    one = simulate_batch(op, DOM, (0.0, 0.3), cfg)
    with pytest.raises(ValueError, match="bins must be at least 1"):
        measure_from_batch(one, DOM, bins=0)
    # two starts' stopped states would mix in one 200-path measure
    two = simulate_batch(op, DOM, (np.zeros(2), np.array([[0.3], [-0.3]])), cfg)
    with pytest.raises(ValueError, match="one-start batch"):
        measure_from_batch(two, DOM, bins=10)


def test_exit_mass_saturates_at_long_horizon():
    op = OperatorSpec.from_strings("0")
    cfg = SimConfig(t_max=50.0, dt=5e-3, n_paths=2000, master_seed=31)
    meas = measure_from_batch(simulate_batch(op, DOM, (0.0, 0.0), cfg), DOM, bins=10)
    assert meas.exit_mass > 1 - 1e-3


def test_path_batch_csv(tmp_path):
    op = OperatorSpec.from_strings("y1", gamma="1", dim_n=3)
    cfg = SimConfig(t_max=0.5, dt=2e-3, n_paths=50, master_seed=2)
    batch = simulate_batch(op, DOM, (0.0, (0.1, -0.2)), cfg)
    p = tmp_path / "paths.csv"
    batch.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "path_id,stopped_x,stopped_y1,stopped_y2,stop_time,gamma_integral,exited"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] in ("0", "1")
    assert float(first[1]) == batch.stopped_x[0]


def test_measure_csv(tmp_path):
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=2.0, dt=2e-3, n_paths=500, master_seed=13)
    meas = measure_from_batch(simulate_batch(op, DOM, (0.0, 0.0), cfg), DOM, bins=8)
    p = tmp_path / "measure.csv"
    meas.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "bin,y1_center,count,mass"
    assert len(lines) == 10  # 8 interior bins + exit shell + header
    assert lines[-1].startswith("exit,")
    total = sum(float(line.split(",")[-1]) for line in lines[1:])
    assert total == pytest.approx(1.0)


MULTI_X = np.array([0.2, -0.4, 0.9])
MULTI_Y = np.array([[0.3, -0.2], [-1.0, 0.5], [0.0, 0.0]])


@ENGINE_CASES
def test_multi_start_rows_equal_single_start_batches(gamma, n_y):
    op = engine_op(gamma, n_y)
    cfg = SimConfig(t_max=1.5, dt=2e-3, n_paths=300, master_seed=19)
    multi = simulate_batch(op, DOM, (MULTI_X, MULTI_Y[:, :n_y]), cfg)
    assert multi.n_paths == 3 * cfg.n_paths
    assert multi.start_x.shape == (3,) and multi.start_y.shape == (3, n_y)
    for s in range(3):
        one = simulate_batch(op, DOM, (MULTI_X[s], MULTI_Y[s, :n_y]), cfg)
        rows = slice(s * cfg.n_paths, (s + 1) * cfg.n_paths)
        for attr in BATCH_ARRAYS:
            assert np.array_equal(getattr(multi, attr)[rows], getattr(one, attr)), (s, attr)


@pytest.mark.parametrize("gamma", ["0", "0.2*sin(x)*y1"])
def test_multi_start_bits_independent_of_chunk_size(monkeypatch, gamma):
    # 2,048 rows per chunk holds every path of the three starts; 100 splits
    # the paths into ranges of 33; 1 still runs one path (three rows) per chunk
    op = engine_op(gamma, 2)
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=120, master_seed=23)
    runs = []
    for chunk in (2048, 100, 1):
        monkeypatch.setattr(sde, "_CHUNK_PATHS", chunk)
        runs.append(simulate_batch(op, DOM, (MULTI_X, MULTI_Y), cfg, workers=2))
    for other in runs[1:]:
        for attr in BATCH_ARRAYS:
            assert np.array_equal(getattr(runs[0], attr), getattr(other, attr)), attr


@pytest.mark.parametrize("gamma", ["0", "0.2*sin(x)*y1"])
def test_multi_start_bits_independent_of_starts_per_chunk(monkeypatch, gamma):
    # chunks of at most 2 starts split the three starts into two ranges, 1
    # into three; every row keeps its bits and its place
    op = engine_op(gamma, 2)
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=120, master_seed=23)
    runs = []
    for per_chunk in (1024, 2, 1):
        monkeypatch.setattr(sde, "_CHUNK_STARTS", per_chunk)
        runs.append(simulate_batch(op, DOM, (MULTI_X, MULTI_Y), cfg, workers=2))
    for other in runs[1:]:
        for attr in BATCH_ARRAYS:
            assert np.array_equal(getattr(runs[0], attr), getattr(other, attr)), attr


def test_many_start_working_set():
    # more starts than a chunk holds: the chunks split the starts, so the
    # traced peak stays near one chunk's working set (100 MB unsplit)
    op = OperatorSpec.from_strings("y1", "0.2*sin(x)*y1")
    starts = (np.zeros(12_000), np.linspace(-1.5, 1.5, 12_000)[:, None])
    tracemalloc.start()
    try:
        simulate_batch(op, DOM, starts, SimConfig(t_max=0.2, dt=1e-3, n_paths=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"


def test_multi_start_validation():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.5, n_paths=10)
    with pytest.raises(ValueError, match="shape"):
        simulate_batch(op, DOM, (np.zeros(2), np.zeros(2)), cfg)  # y needs (2, 1)
    with pytest.raises(ValueError, match="shape"):
        simulate_batch(op, DOM, (np.zeros(0), np.zeros((0, 1))), cfg)
    with pytest.raises(ValueError, match="outer ball"):
        simulate_batch(op, DOM, (np.zeros(2), np.array([[0.0], [2.0]])), cfg)


def test_start_refusal_names_the_first_bad_start_and_the_radius():
    op = OperatorSpec.from_strings("y1 - 0.5*y2", dim_n=3)
    starts = (np.zeros(3), np.array([[0.5, 0.5], [-1.5, -1.5], [1.5, 1.5]]))
    with pytest.raises(ValueError, match=r"^start y = \(-1\.5, -1\.5\) must lie strictly "
                                         r"inside the outer ball of radius 2$"):
        simulate_batch(op, DOM, starts, SimConfig(t_max=0.5, n_paths=10))


@pytest.mark.parametrize("workers", [0, -5, 2.5, "2", None])
def test_simulate_batch_refuses_a_worker_count_that_is_not_a_positive_integer(workers):
    with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
        simulate_batch(OperatorSpec.from_strings("y1"), DOM, (0.0, 0.0),
                       SimConfig(t_max=0.5, n_paths=10), workers=workers)


def test_simulate_batch_takes_a_numpy_integer_worker_count():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.5, n_paths=10)
    one = simulate_batch(op, DOM, (0.0, 0.0), cfg)
    two = simulate_batch(op, DOM, (0.0, 0.0), cfg, workers=np.int64(2))
    for attr in BATCH_ARRAYS:
        assert np.array_equal(getattr(one, attr), getattr(two, attr)), attr


def test_numpy_integer_seed_path_count_and_stream_run_their_python_int_batch():
    # a numpy uint32 or int32 stream shifted by 32 bits would land on stream 0
    op = OperatorSpec.from_strings("y1")
    want = simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=0.5, n_paths=10, master_seed=3),
                          stream=5)
    cfg = SimConfig(t_max=0.5, n_paths=np.int32(10), master_seed=np.uint64(3))
    for stream in (np.uint32(5), np.int32(5), np.int64(5)):
        got = simulate_batch(op, DOM, (0.0, 0.0), cfg, stream=stream)
        for attr in BATCH_ARRAYS:
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (stream, attr)


def test_check_batch_fires_on_multi_start_batch():
    # every row is checked against its own start: rows swapped between two
    # starts far apart in x break the displacement bound
    op = with_estimated_sups(OperatorSpec.from_strings("y1", "0.3*y1"), DOM)
    cfg = SimConfig(t_max=0.5, dt=2e-3, n_paths=50, master_seed=2)
    batch = simulate_batch(op, DOM, (np.array([0.0, 5.0]), np.array([[0.1], [-0.1]])), cfg)
    sde._check_batch(batch, op, DOM)
    swapped = np.concatenate([batch.stopped_x[50:], batch.stopped_x[:50]])
    with pytest.raises(RuntimeError, match="x-displacement"):
        sde._check_batch(dataclasses.replace(batch, stopped_x=swapped), op, DOM)
    big = batch.gamma_integral.copy()
    big[75] = 10.0
    with pytest.raises(RuntimeError, match="gamma-integral"):
        sde._check_batch(dataclasses.replace(batch, gamma_integral=big), op, DOM)


# dt = 2^-10 divides t_max, so every one of the 1,536 steps (more than one
# 1,024-step refill) has the same sqrt(2 dt); 2,100 rows of the 3-start batch
# make three engine chunks
@pytest.mark.parametrize("n_y, start_x, start_y, n_paths", [
    (1, 0.3, [0.4], 300),
    (2, 0.3, [0.4, -0.2], 300),
    (1, [0.0, 0.5, -0.3], [[0.0], [1.0], [-1.5]], 700),
], ids=["1d", "2d", "1d-3-starts"])
def test_survivor_y_is_its_start_plus_its_keys_brownian_sum(n_y, start_x, start_y, n_paths):
    dt, t_max, seed, stream = 2.0**-10, 1.5, 41, 2
    n_steps = 1536
    op = engine_op("0", n_y)
    cfg = SimConfig(t_max=t_max, dt=dt, n_paths=n_paths, master_seed=seed)
    batch = simulate_batch(op, DOM, (start_x, start_y), cfg, stream=stream)
    starts = batch.start_y
    # path i's key is (master_seed, stream << 32 | i): its exit clock first,
    # then its normals in step order
    sums = np.empty((n_paths, n_y))
    for i in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed, stream << 32 | i]))
        gen.standard_exponential()
        sums[i] = np.cumsum(np.sqrt(2 * dt) * gen.standard_normal((n_steps, n_y)), axis=0)[-1]
    for s in range(starts.shape[0]):
        rows = slice(s * n_paths, (s + 1) * n_paths)
        alive = ~batch.exited[rows]
        assert 0 < alive.sum() < n_paths
        want = starts[s] + sums[alive]
        assert batch.stopped_y[rows][alive].tobytes() == want.tobytes()


def left_fold(terms):
    """Per-step left fold down axis 0, one np.add per step."""
    acc = terms[0].copy()
    for inc in terms[1:]:
        np.add(acc, inc, out=acc)
    return acc


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 1024])
def test_fold_equals_the_last_prefix_sum(rows):
    # magnitudes from 1e-12 to 1e12 make every rounding show; on one row
    # np.add.reduce would sum pairwise from 8 terms on
    for steps in (1, 7, 8, 16, 127, 128):
        rng = np.random.default_rng(1000 * rows + steps)
        buf = rng.standard_normal((steps + 1, rows)) * 10.0 ** rng.integers(-12, 13, (steps + 1, rows))
        want = left_fold(buf)
        assert np.cumsum(buf, axis=0)[-1].tobytes() == want.tobytes()
        assert sde._step_sum(buf).tobytes() == want.tobytes(), steps
        # NaN and inf reach the end of their column
        buf[steps, -1] = np.inf
        buf[steps // 2 + 1, 0] = np.nan
        got = sde._step_sum(buf)
        assert np.isnan(got[0])
        if rows > 1:
            assert got[-1] == np.inf
            assert got[1:-1].tobytes() == want[1:-1].tobytes()


# one path, so every fold of the engine takes its one-column branch; t_max
# 0.7 ends on a shorter step
@pytest.mark.parametrize("t_max", [0.5, 0.7])
@pytest.mark.parametrize("gamma", ["0", "0.3*y1"])
def test_one_path_x_is_the_left_fold_of_its_drift(gamma, t_max):
    dt, seed, start_x, start_y = 2.0**-10, 4, 0.25, 0.1
    op = engine_op(gamma, 1)
    cfg = SimConfig(t_max=t_max, dt=dt, n_paths=1, master_seed=seed)
    batch = simulate_batch(op, DOM, (start_x, [start_y]), cfg)
    assert not batch.exited[0]
    n_full = int(t_max / dt)
    steps = [dt] * n_full + ([t_max - n_full * dt] if t_max > n_full * dt else [])
    # path 0's key is (master_seed, 0): its exit clock first, then its normals
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    gen.standard_exponential()
    z = gen.standard_normal(len(steps)).tolist()
    b_sum, x, g, y_prev = 0.0, 0.0, 0.0, start_y
    for h, zk in zip(steps, z):
        x += y_prev * h
        g += 0.3 * y_prev * h
        b_sum += zk * np.sqrt(2.0 * h)
        y_prev = start_y + b_sum
    assert batch.stopped_y[0, 0] == y_prev
    assert batch.stopped_x[0] == start_x + x
    assert batch.gamma_integral[0] == (g if gamma != "0" else 0.0)
