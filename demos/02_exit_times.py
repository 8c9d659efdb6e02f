"""Stopped diffusion on the cylinder: exit-time statistics against the
closed form, step-size bias, and the empirical stopped-y measure."""

import numpy as np

from harnack_lab import (
    CylinderDomain,
    OperatorSpec,
    SimConfig,
    measure_from_batch,
    simulate_batch,
)

dom = CylinderDomain()                       # outer ball radius R = 2
op = OperatorSpec.from_strings("y1", "0")    # dX = Y dt,  dY = sqrt(2) dB

# -- mean exit time from the center -----------------------------------------
# For the pure-Y dynamics the exit time of B_R from y solves
#   Delta m = -1  =>  m(y) = (R^2 - |y|^2) / (2 d),   d = dim of y.
n_paths = 50_000
cfg = SimConfig(t_max=40.0, dt=1e-3, n_paths=n_paths, master_seed=7)

for y0 in (0.0, 0.5, 1.5):
    batch = simulate_batch(op, dom, (0.0, y0), cfg)
    want = (dom.y_outer_radius**2 - y0**2) / 2.0
    mean = batch.stop_time.mean()
    se = batch.stop_time.std(ddof=1) / np.sqrt(n_paths)
    print(f"start |y| = {y0:<4}  mean exit {mean:.4f}  closed form {want:.4f}  "
          f"({(mean - want) / se:+.1f} se)")

# -- discretization bias halves with dt --------------------------------------
# Exit detection between grid times uses a Brownian-bridge crossing test,
# so the bias in the mean exit time is O(dt).
print("\nbias of the mean exit time at coarse steps (start at the center):")
op0 = OperatorSpec.from_strings("0", "0")
for dt in (0.32, 0.16, 0.08, 0.04):
    cfg_c = SimConfig(t_max=40.0, dt=dt, n_paths=200_000, master_seed=11)
    batch = simulate_batch(op0, dom, (0.0, 0.0), cfg_c)
    print(f"  dt = {dt:<5} mean = {batch.stop_time.mean():.4f}  bias = "
          f"{batch.stop_time.mean() - 2.0:+.4f}")

# -- where do paths land? -----------------------------------------------------
# Empirical stopped-y measure: interior histogram plus one exit shell.  It is
# the law of sqrt(2) B stopped at the sphere, whatever beta is.
cfg_m = SimConfig(t_max=1.0, dt=1e-3, n_paths=50_000, master_seed=3)
batch = simulate_batch(op, dom, (0.0, 0.3), cfg_m)
mu = measure_from_batch(batch, dom, bins=16)
print(f"\nstart y = 0.3: exit fraction by t = {cfg_m.t_max}: "
      f"{batch.exited.mean():.1%}, interior histogram mass "
      f"{mu.counts.sum() / mu.n_paths:.1%}")
