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
    with pytest.raises(ValueError):
        simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, n_paths=10),
                       exit_detection="magic")
    with pytest.raises(ValueError, match="stream must fit in 32 bits"):
        simulate_batch(op, DOM, (0.0, 0.0), SimConfig(t_max=1.0, n_paths=10), stream=2**32)
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
    # both modes draw the exit clock, so they share every Y increment
    op = engine_op(gamma, n_y)
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=1000, master_seed=21)
    bridge = simulate_batch(op, DOM, engine_start(n_y), cfg, exit_detection="bridge")
    endpoint = simulate_batch(op, DOM, engine_start(n_y), cfg, exit_detection="endpoint")
    assert np.all(bridge.stop_time <= endpoint.stop_time)
    assert np.any(bridge.stop_time < endpoint.stop_time)
    same = (bridge.stop_time == endpoint.stop_time) & endpoint.exited
    assert np.any(same)
    assert np.array_equal(bridge.stopped_y[same], endpoint.stopped_y[same])


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


def test_multi_start_validation():
    op = OperatorSpec.from_strings("y1")
    cfg = SimConfig(t_max=0.5, n_paths=10)
    with pytest.raises(ValueError, match="shape"):
        simulate_batch(op, DOM, (np.zeros(2), np.zeros(2)), cfg)  # y needs (2, 1)
    with pytest.raises(ValueError, match="shape"):
        simulate_batch(op, DOM, (np.zeros(0), np.zeros((0, 1))), cfg)
    with pytest.raises(ValueError, match="outer ball"):
        simulate_batch(op, DOM, (np.zeros(2), np.array([[0.0], [2.0]])), cfg)


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
