"""Stochastic representation in action: price a known solution by Monte
Carlo, squeeze unknown start values with the two-sided weight inequality,
and manufacture a solution field from boundary data alone."""

import numpy as np

from harnack_lab import (
    CylinderDomain,
    OperatorSpec,
    SimConfig,
    kolmogorov_poly,
    make_solution,
    residual,
    sandwich_check,
    separable,
)
from harnack_lab.feynman_kac import evaluate as fk_evaluate

dom = CylinderDomain()
op = OperatorSpec.from_strings("y1", "0")

# -- evaluate a known solution -------------------------------------------------
# u = x - y^3/6 + 10 solves  u_yy + y u_x = 0, so  E[u(stopped state)] = u(start).
sol = kolmogorov_poly(10.0)
cfg = SimConfig(t_max=1.0, dt=1e-3, n_paths=40_000, master_seed=0)
for start in ((0.5, 0.0), (0.0, 0.8), (1.0, -1.2)):
    est = fk_evaluate(op, dom, sol, start, t=0.5, cfg=cfg)
    exact = sol.at(*start)
    print(f"start {start}:  MC {est.value:.4f} +- {est.std_error:.4f}   "
          f"exact {exact:.4f}   ({(est.value - exact) / est.std_error:+.1f} se)")

# -- sandwich check -------------------------------------------------------------
# With |gamma| <= 1 and horizon t the start value is pinned between
# e^{-t}(E - k se) and e^{t}(E + k se); E is the plain mean at stopped states.
print("\nsandwich at the default horizon t = 1/sup|beta|:")
catalog = [
    kolmogorov_poly(10.0),
    separable(0.0, OperatorSpec.from_strings("y1", "-1")),   # e^{0x} phi, gamma = -1
]
for s in catalog:
    rep = sandwich_check(s.op, dom, s, (0.5, 0.0),
                         cfg=SimConfig(t_max=1.0, n_paths=20_000))
    print(f"  {s.name:<28} [{rep.lower:8.4f}, {rep.upper:8.4f}]  "
          f"value {rep.value_at_start:8.4f}  passed = {rep.passed}")

# -- manufacture a solution from boundary data ---------------------------------
# Run the diffusion from every y-node on common random numbers, translate its
# paths to every x-node of that row (gamma does not depend on x), and average
# the boundary payoff: the resulting field is (approximately) L-harmonic with
# the given data.
g = lambda x, y: 10.0 + x - y[:, 0] ** 3 / 6          # boundary payoff
axes = (np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))
field = make_solution(op, dom, g, t_solve=2.0,
                      cfg=SimConfig(t_max=2.0, dt=2e-3, n_paths=2_000, master_seed=1),
                      axes=axes, workers=4)
exact = sol.as_field(9, 9, x_span=(0.0, 1.0), y_radius=1.0)
err = np.abs(field.values - exact.values).max()
res = residual(field, op)
print(f"\nmanufactured 9x9 field: max |error| vs closed form = {err:.3f}")
print(f"interior residual of the MC field: max {np.abs(res.values).max():.3f} "
      "(noise-limited, shrinks like 1/sqrt(n_paths))")
