import dataclasses

import numpy as np
import pytest

import harnack_lab
from harnack_lab import cli, feynman_kac, operators, sde
from harnack_lab.feynman_kac import evaluate, make_solution, sandwich_check
from harnack_lab.fields import ScalarField, box_axes
from harnack_lab.operators import CylinderDomain, OperatorSpec, with_estimated_sups
from harnack_lab.sde import SimConfig
from harnack_lab.solutions import kolmogorov_poly

DOM = CylinderDomain()
DRIFT_Y = OperatorSpec.from_strings("y1", "0")


def kolmogorov_fn(x, y):
    return x - y[:, 0] ** 3 / 6 + 10.0


def stream_batch(op, g, start, t, cfg, stream):
    """A fresh batch of STREAM from START to horizon t, with exp(gamma_integral)
    and g at its stopped states."""
    batch = sde.simulate_batch(op, DOM, start, dataclasses.replace(cfg, t_max=t), stream=stream)
    return np.exp(batch.gamma_integral), g(batch.stopped_x, batch.stopped_y)


def test_unit_payoff_zero_gamma_exact():
    est = evaluate(DRIFT_Y, DOM, lambda x, y: np.ones_like(x), (0.0, 0.0), t=0.5,
                   cfg=SimConfig(t_max=1.0, n_paths=500))
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 500
    assert est.horizon == 0.5


def test_constant_gamma_weight_bounds():
    op = OperatorSpec.from_strings("y1", "1")
    est = evaluate(op, DOM, lambda x, y: np.ones_like(x), (0.0, 0.0), t=0.5,
                   cfg=SimConfig(t_max=1.0, n_paths=2000))
    assert 1.0 <= est.value <= np.exp(0.5)
    assert est.std_error > 0


def test_kolmogorov_value_consistency():
    est = evaluate(DRIFT_Y, DOM, kolmogorov_fn, (0.0, 0.0), t=0.5,
                   cfg=SimConfig(t_max=1.0, n_paths=30_000, master_seed=11))
    assert est.std_error < 0.05
    assert abs(est.value - 10.0) <= 3 * est.std_error


def test_monotone_in_payoff_with_shared_seeds():
    def low(x, y):
        return x + 12.0

    def high(x, y):
        return x + 12.0 + 0.5 * np.cos(y[:, 0]) ** 2

    cfg = SimConfig(t_max=1.0, n_paths=4000, master_seed=3)
    op = OperatorSpec.from_strings("y1", "0.3")
    a = evaluate(op, DOM, low, (0.0, 0.5), t=0.4, cfg=cfg)
    b = evaluate(op, DOM, high, (0.0, 0.5), t=0.4, cfg=cfg)
    assert a.value <= b.value


def test_std_error_scaling():
    small = evaluate(DRIFT_Y, DOM, kolmogorov_fn, (0.0, 0.0), t=0.5,
                     cfg=SimConfig(t_max=1.0, n_paths=4000, master_seed=5))
    big = evaluate(DRIFT_Y, DOM, kolmogorov_fn, (0.0, 0.0), t=0.5,
                   cfg=SimConfig(t_max=1.0, n_paths=16000, master_seed=5))
    ratio = small.std_error / big.std_error
    assert 1.6 < ratio < 2.4


def test_evaluate_reports_payoff_domain_failure():
    # a field too narrow in x for the stopped states
    axes = box_axes(-0.01, 0.01, 5, 2.0, 41)
    tiny = ScalarField.sample(lambda x, y: np.ones_like(x), axes)
    with pytest.raises(ValueError, match="payoff evaluation failed"):
        evaluate(DRIFT_Y, DOM, tiny, (0.0, 1.0), t=0.5,
                 cfg=SimConfig(t_max=1.0, n_paths=200))


def test_sandwich_constant_field_passes():
    axes = box_axes(-5.0, 6.0, 23, 2.0, 41)
    const5 = ScalarField.sample(lambda x, y: np.full(x.shape, 5.0), axes)
    rep = sandwich_check(DRIFT_Y, DOM, const5, (0.5, 0.0),
                         cfg=SimConfig(t_max=1.0, n_paths=2000))
    assert rep.passed
    # interpolation of a constant is constant up to rounding
    assert rep.estimate.value == pytest.approx(5.0, abs=1e-12)
    assert rep.estimate.std_error < 1e-14
    # default horizon is 1/sup|beta| with the 5% grid-sup margin
    assert rep.estimate.horizon == pytest.approx(1.0 / 2.1)
    assert rep.lower < 5.0 < rep.upper


def test_sandwich_kolmogorov_field_random_starts():
    sol = kolmogorov_poly(10.0)
    field = sol.as_field(111, 121)
    rng = np.random.default_rng(42)
    for _ in range(3):
        start = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        rep = sandwich_check(DRIFT_Y, DOM, field, start, t=0.5,
                             cfg=SimConfig(t_max=1.0, n_paths=10_000))
        assert rep.passed


def test_sandwich_fails_on_corrupted_field():
    sol = kolmogorov_poly(10.0)
    field = sol.as_field(111, 121)
    start = (0.2, -0.3)
    bump = 10.0 * np.exp(
        -((field.node_points()[0] - start[0]) ** 2
          + (field.node_points()[1][:, 0] - start[1]) ** 2) / (2 * 0.15**2)
    )
    corrupted = ScalarField(field.axes, field.values + bump.reshape(field.values.shape),
                            name="corrupted")
    rep = sandwich_check(DRIFT_Y, DOM, corrupted, start, t=0.5,
                         cfg=SimConfig(t_max=1.0, n_paths=10_000))
    assert not rep.passed
    # the corruption pushes the start value above the upper envelope
    assert rep.value_at_start > rep.upper


def test_sandwich_rejects_large_gamma():
    op = OperatorSpec.from_strings("y1", "2")
    axes = box_axes(-5.0, 6.0, 23, 2.0, 41)
    const1 = ScalarField.sample(lambda x, y: np.ones_like(x), axes)
    with pytest.raises(ValueError, match="rescale"):
        sandwich_check(op, DOM, const1, (0.0, 0.0), cfg=SimConfig(t_max=1.0, n_paths=100))


def test_sandwich_accepts_boundary_gamma():
    # |gamma| = 1 exactly is inside the bound's validity; the step-size
    # safety margin must not push it over the gate
    op = OperatorSpec.from_strings("y1", "-1")
    axes = box_axes(-5.0, 6.0, 23, 2.0, 41)
    const1 = ScalarField.sample(lambda x, y: np.ones_like(x), axes)
    rep = sandwich_check(op, DOM, const1, (0.0, 0.0),
                         cfg=SimConfig(t_max=1.0, n_paths=500))
    assert rep.estimate.horizon == pytest.approx(1.0 / 2.1)


def test_sandwich_default_horizon_needs_drift():
    op = OperatorSpec.from_strings("0", "0")
    axes = box_axes(-5.0, 6.0, 23, 2.0, 41)
    const1 = ScalarField.sample(lambda x, y: np.ones_like(x), axes)
    with pytest.raises(ValueError, match="horizon"):
        sandwich_check(op, DOM, const1, (0.0, 0.0), cfg=SimConfig(t_max=1.0, n_paths=100))


def test_make_solution_unit_data_exact():
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(-0.5, 0.5, 3))
    field = make_solution(DRIFT_Y, DOM, lambda x, y: np.ones_like(x), 0.5,
                          SimConfig(t_max=1.0, n_paths=50), axes)
    assert np.all(field.values == 1.0)


def test_make_solution_matches_polynomial_solution():
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.75, 0.75, 4))
    cfg = SimConfig(t_max=1.0, dt=2e-3, n_paths=2000, master_seed=9)
    field = make_solution(DRIFT_Y, DOM, kolmogorov_fn, 2.0, cfg, axes)
    exact = ScalarField.sample(kolmogorov_fn, axes)
    err = np.abs(field.values - exact.values)
    # node-wise agreement within 3 standard errors on at least 90% of nodes;
    # the payoff spread is below 0.5 so se is below ~0.012 at 2000 paths
    assert np.mean(err < 3 * 0.012) >= 0.9
    assert np.all(field.values > 0)


def test_make_solution_worker_count_invariance():
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(-0.5, 0.5, 3))
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=300, master_seed=21)
    one = make_solution(DRIFT_Y, DOM, kolmogorov_fn, 1.0, cfg, axes, workers=1)
    four = make_solution(DRIFT_Y, DOM, kolmogorov_fn, 1.0, cfg, axes, workers=4)
    assert np.array_equal(one.values, four.values)


@pytest.mark.parametrize("gamma", ["0", "0.3*y1", "0.2*sin(x)*y1"])
@pytest.mark.parametrize("workers", [1, 3])
def test_make_solution_nodes_match_y_node_streams(gamma, workers):
    # every node equals a fresh batch from that node on stream 1, the stream
    # all y-nodes share, whether a y-node's batch serves its x-row (x-free
    # gamma) or every node is a start of its own; the node value is
    # evaluate's expression, the mean of exp(gamma_integral) * g
    op = OperatorSpec.from_strings("y1", gamma)
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 0.5, 3))
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=200, master_seed=5)
    field = make_solution(op, DOM, kolmogorov_fn, 1.0, cfg, axes, workers=workers)
    for ix, x in enumerate(axes[0]):
        for iy, y in enumerate(axes[1]):
            weight, payoff = stream_batch(op, kolmogorov_fn, (x, y), 1.0, cfg, stream=1)
            assert field.values[ix, iy] == float(np.mean(weight * payoff))


def test_make_solution_two_y_axes_match_evaluate():
    op = OperatorSpec.from_strings("y1 - 0.5*y2", "0.2*sin(x)*y2", dim_n=3)
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(-0.5, 0.5, 2), np.linspace(-0.4, 0.4, 3))
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=150, master_seed=3)

    def g(x, y):
        return 10.0 + x - y[:, 0] * y[:, 1]

    field = make_solution(op, DOM, g, 0.8, cfg, axes)
    x, y = field.node_points()
    for k, value in enumerate(field.values.reshape(-1)):
        weight, payoff = stream_batch(op, g, (x[k], y[k]), 0.8, cfg, stream=1)
        assert value == float(np.mean(weight * payoff))


@pytest.mark.parametrize("gamma", ["0", "0.3*y1"])
def test_evaluate_and_sandwich_draw_stream_0(gamma):
    # evaluate's value is the weighted stream-0 batch mean, sandwich_check's
    # estimate the unweighted one; make_solution's stream 1 gives others
    op = OperatorSpec.from_strings("y1", gamma)
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=300, master_seed=4)
    start = (0.3, 0.2)
    weight, payoff = stream_batch(op, kolmogorov_fn, start, 0.6, cfg, stream=0)
    value = evaluate(op, DOM, kolmogorov_fn, start, 0.6, cfg).value
    assert value == float(np.mean(weight * payoff))
    estimate = sandwich_check(op, DOM, kolmogorov_fn, start, t=0.6, cfg=cfg).estimate
    assert estimate.value == float(np.mean(payoff))
    other_weight, other_payoff = stream_batch(op, kolmogorov_fn, start, 0.6, cfg, stream=1)
    assert value != float(np.mean(other_weight * other_payoff))
    assert estimate.value != float(np.mean(other_payoff))


def counted_calls(monkeypatch):
    counts = {"simulate_batch": 0, "estimate_sups": 0}
    rows = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "simulate_batch":
                rows.append(result.n_paths)
            return result
        return wrapper

    monkeypatch.setattr(feynman_kac, "simulate_batch",
                        counted("simulate_batch", feynman_kac.simulate_batch))
    monkeypatch.setattr(operators, "estimate_sups",
                        counted("estimate_sups", operators.estimate_sups))
    return counts, rows


@pytest.mark.parametrize("k_sigma", [-1.0, float("nan"), float("inf")])
def test_sandwich_rejects_a_bad_k_sigma_before_any_work(monkeypatch, k_sigma):
    counts, _ = counted_calls(monkeypatch)
    with pytest.raises(ValueError, match="k_sigma must be nonnegative"):
        sandwich_check(DRIFT_Y, DOM, kolmogorov_fn, (0.0, 0.0), k_sigma=k_sigma,
                       cfg=SimConfig(t_max=1.0, n_paths=100))
    assert counts == {"simulate_batch": 0, "estimate_sups": 0}


@pytest.mark.parametrize("gamma", ["0.2*y1", "0.05*x*y1"])
def test_sandwich_sweeps_the_sup_lattice_at_most_once(monkeypatch, gamma):
    # one sweep fills both sups and gates gamma on them, none when the op
    # comes filled: the same report either way
    op = OperatorSpec.from_strings("y1", gamma)
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=200, master_seed=6)
    filled_op = with_estimated_sups(op, DOM)
    counts, _ = counted_calls(monkeypatch)
    filled = sandwich_check(filled_op, DOM, kolmogorov_fn, (0.2, 0.1), cfg=cfg)
    assert counts == {"simulate_batch": 1, "estimate_sups": 0}
    rep = sandwich_check(op, DOM, kolmogorov_fn, (0.2, 0.1), cfg=cfg)
    assert counts == {"simulate_batch": 2, "estimate_sups": 1}
    assert rep == filled


def test_cli_sandwich_sweeps_the_sup_lattice_once(tmp_path, monkeypatch):
    counts, _ = counted_calls(monkeypatch)
    assert cli.main(["evaluate", "--set", "evaluate.mode=sandwich", "--set", "sim.n_paths=200",
                     "--out", str(tmp_path / "out")]) == 0
    assert counts == {"simulate_batch": 1, "estimate_sups": 1}


@pytest.mark.parametrize("gamma, batches", [("0.3*y1", 3), ("0.2*sin(x)*y1", 12)])
def test_make_solution_work_counts(monkeypatch, gamma, batches):
    # above half a chunk of paths, each call holds one start: one per y-node
    # for an x-free gamma, one per grid node otherwise
    counts, rows = counted_calls(monkeypatch)
    op = OperatorSpec.from_strings("y1", gamma)
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 0.5, 3))
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=sde._CHUNK_PATHS // 2 + 1)
    make_solution(op, DOM, kolmogorov_fn, 0.5, cfg, axes)
    assert counts == {"simulate_batch": batches, "estimate_sups": 1}
    assert rows == [cfg.n_paths] * batches


@pytest.mark.parametrize("gamma, chunk, batches",
                         [("0.3*y1", 2048, 1), ("0.2*sin(x)*y1", 2048, 1),
                          ("0.2*sin(x)*y1", 100, 3)])
def test_make_solution_groups_starts_by_chunk(monkeypatch, gamma, chunk, batches):
    # as many starts per call as fit in one chunk; the grouping moves no bit
    op = OperatorSpec.from_strings("y1", gamma)
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 0.5, 3))
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=20, master_seed=4)
    plain = make_solution(op, DOM, kolmogorov_fn, 0.5, cfg, axes)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", chunk)
    counts, rows = counted_calls(monkeypatch)
    grouped = make_solution(op, DOM, kolmogorov_fn, 0.5, cfg, axes)
    assert counts == {"simulate_batch": batches, "estimate_sups": 1}
    assert max(rows) <= chunk
    assert np.array_equal(plain.values, grouped.values)


def test_make_solution_translation_consistency():
    # shifting the boundary data and the grid together shifts the field
    delta = 0.5
    axes = (np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 0.5, 3))
    shifted_axes = (axes[0] + delta, axes[1])
    cfg = SimConfig(t_max=1.0, dt=5e-3, n_paths=400, master_seed=13)

    def g(x, y):
        return 12.0 + np.sin(x) + 0.5 * np.cos(y[:, 0])

    def g_shifted(x, y):
        return g(x - delta, y)

    base = make_solution(DRIFT_Y, DOM, g, 1.0, cfg, axes)
    moved = make_solution(DRIFT_Y, DOM, g_shifted, 1.0, cfg, shifted_axes)
    assert np.max(np.abs(moved.values - base.values)) < 5e-13 * np.max(np.abs(base.values))


def test_make_solution_grid_validation():
    cfg = SimConfig(t_max=1.0, n_paths=10)
    with pytest.raises(ValueError, match="strictly inside"):
        make_solution(DRIFT_Y, DOM, lambda x, y: np.ones_like(x), 0.5, cfg,
                      (np.linspace(0, 1, 3), np.linspace(-2.0, 2.0, 5)))
    with pytest.raises(ValueError, match="axes"):
        make_solution(DRIFT_Y, DOM, lambda x, y: np.ones_like(x), 0.5, cfg,
                      (np.linspace(0, 1, 3),))


def test_sandwich_accepts_a_constant_callable():
    rep = sandwich_check(DRIFT_Y, DOM, lambda x, y: 1.0, (0.0, 0.0),
                         cfg=SimConfig(t_max=1.0, n_paths=200))
    assert rep.passed
    assert rep.value_at_start == 1.0
    assert rep.estimate.value == 1.0 and rep.estimate.std_error == 0.0
    # the batches pass their bound checks under the estimated sups
    sandwich_check(DRIFT_Y, DOM, lambda x, y: np.ones_like(x), (0.5, 0.0),
                   cfg=SimConfig(t_max=1.0, n_paths=500))


@pytest.mark.parametrize("check", [
    lambda start: evaluate(DRIFT_Y, DOM, kolmogorov_fn, start, t=0.5,
                           cfg=SimConfig(t_max=1.0, n_paths=50)),
    lambda start: sandwich_check(DRIFT_Y, DOM, kolmogorov_fn, start,
                                 cfg=SimConfig(t_max=1.0, n_paths=50)),
], ids=["evaluate", "sandwich_check"])
def test_one_start_only(check):
    with pytest.raises(ValueError, match="expected one start"):
        check((np.array([0.0, 0.5]), np.zeros((2, 1))))


def test_wrongly_shaped_payoff_is_an_error():
    # a (n, 1) payoff used to broadcast against the (n,) weights into an n x n mean
    with pytest.raises(ValueError, match=r"payoff returned shape \(50, 1\)"):
        evaluate(DRIFT_Y, DOM, lambda x, y: y, (0.0, 0.0), t=0.5,
                 cfg=SimConfig(t_max=1.0, n_paths=50))
    with pytest.raises(ValueError, match="boundary data returned shape"):
        make_solution(DRIFT_Y, DOM, lambda x, y: y, 0.5, SimConfig(t_max=1.0, n_paths=50),
                      box_axes(0.0, 1.0, 2, 0.5, 2))


def test_package_exports():
    # the top-level evaluate is the Feynman-Kac estimate; the expression
    # evaluator stays at harnack_lab.expressions.evaluate
    assert harnack_lab.evaluate is feynman_kac.evaluate
    assert [name for name in harnack_lab.__all__ if not hasattr(harnack_lab, name)] == []
