"""The ratio dichotomy: sign-changing drift keeps sup/inf ratios of positive
solutions bounded on the unit subcylinder, while the one-signed drift
beta = 1 admits a family whose ratios blow up exponentially."""

from pathlib import Path

import numpy as np

from harnack_lab import (
    CylinderDomain,
    OperatorSpec,
    SimConfig,
    classify_regions,
    counterexample_scan,
    kolmogorov_poly,
    ratio_plot_svg,
    region_inequality_check,
    scan_family,
    sup_inf_ratio,
    window_average_x,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# -- the divergent side ---------------------------------------------------------
# For beta = 1 (no sign change), u_lam = e^{-lam x} cosh(sqrt(lam) y) is a
# positive solution whose ratio on [0,1] x B_1 is e^lam cosh(sqrt(lam)).
lams = [1.0, 2.0, 4.0, 8.0, 16.0]
scan = counterexample_scan(lams)
print("one-signed drift beta = 1:")
for lam, rep in zip(lams, scan.reports):
    print(f"  lambda = {lam:>4}:  sup/inf = {rep.ratio:12.4g}   "
          f"closed form {np.exp(lam) * np.cosh(np.sqrt(lam)):12.4g}")
print(f"verdict: {scan.verdict}  (max ratio {scan.max_ratio:.4g})")
(out / "divergent_family.svg").write_text(ratio_plot_svg(scan), encoding="ascii")

# -- the bounded side -------------------------------------------------------------
# For beta = y the offsets u_C = x - y^3/6 + C stay comparable: the ratio is
# (C + 7/6)/(C - 1/6), decreasing to 1 as C grows.
print("\nsign-changing drift beta = y, offsets of the Kolmogorov polynomial:")
family = [kolmogorov_poly(C) for C in (2.0, 5.0, 10.0, 100.0)]
fam_scan = scan_family(family, family="kolmogorov offsets")
for C, rep in zip((2.0, 5.0, 10.0, 100.0), fam_scan.reports):
    print(f"  C = {C:>5}:  sup/inf = {rep.ratio:.5f}   "
          f"closed form {(C + 7/6) / (C - 1/6):.5f}")
print(f"family max ratio: {fam_scan.max_ratio:.5f}")
(out / "bounded_family.svg").write_text(ratio_plot_svg(fam_scan), encoding="ascii")

# -- sup on the drift regions vs inf on the inner ball ----------------------------
# The quantitative inequality behind the bounded side compares the sup over
# the drift regions A_d^+- with the inf over the inner ball.
dom = CylinderDomain()
op = OperatorSpec.from_strings("y1", "0")
sol = kolmogorov_poly(10.0)
check = region_inequality_check(sol, op, dom, classify_regions(op, dom, level=0.5), cap=10.0)
print(f"\nregion inequality for kolmogorov(10) at drift level 0.5:")
print(f"  sup over A+ u A- = {check.sup:.4f}, inf over inner ball = {check.inf:.4f}, "
      f"ratio {check.ratio:.4f} <= cap {check.cap} -> passed = {check.passed}")

# -- x-averaged comparisons --------------------------------------------------------
# Sliding window averages in x flatten the x-dependence while preserving
# positivity; ratios of window averages behave like the pointwise ones.
avg = window_average_x(sol.as_field(111, 61), z=0.25)
rep_avg = sup_inf_ratio(avg)
rep_pt = sup_inf_ratio(sol)
print(f"\nwindow-averaged ratio (z = 0.25): {rep_avg.ratio:.5f}   "
      f"pointwise: {rep_pt.ratio:.5f}")
print(f"\nSVG plots written to {out}/")
