"""Simulation and verification toolkit for degenerate-drift elliptic
operators  L u = Delta_y u + beta(y) u_x + gamma(x,y) u  on a cylinder.

The package checks the sign-change/derivative-mass hypothesis on the drift,
simulates the associated stopped diffusion, evaluates and manufactures
positive solutions through the stochastic representation, and measures
empirical Harnack-type sup/inf ratios, including the divergent
constant-drift family that shows why the sign change is necessary.
"""

from .expressions import (
    DerivativeError,
    EvalDomainError,
    ExprError,
    ParseError,
    UnknownIdentifierError,
    differentiate,
    parse,
    simplify,
    to_string,
)
from .feynman_kac import FKEstimate, SandwichReport, evaluate, make_solution, sandwich_check
from .fields import ScalarField, box_axes, heatmap_svg, line_plot_svg, write_json
from .harnack import (
    FamilyScan,
    HarnackReport,
    RegionCheck,
    SubCylinder,
    counterexample_scan,
    ratio_plot_svg,
    region_inequality_check,
    scan_family,
    scan_to_csv,
    sup_inf_ratio,
    window_average_x,
)
from .operators import (
    CylinderDomain,
    HormanderReport,
    OperatorSpec,
    RegionSet,
    check_hypothesis,
    classify_regions,
    residual,
    smallest_passing_order,
)
from .sde import (
    EmpiricalMeasure,
    PathBatch,
    SimConfig,
    measure_from_batch,
    simulate_batch,
)
from .solutions import (
    AnalyticSolution,
    catalog_entry,
    constant,
    counterexample_family,
    kolmogorov_poly,
    separable,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "CylinderDomain",
    "DerivativeError",
    "EmpiricalMeasure",
    "EvalDomainError",
    "ExprError",
    "FKEstimate",
    "FamilyScan",
    "HarnackReport",
    "HormanderReport",
    "OperatorSpec",
    "ParseError",
    "PathBatch",
    "RegionCheck",
    "RegionSet",
    "SandwichReport",
    "ScalarField",
    "SimConfig",
    "SubCylinder",
    "UnknownIdentifierError",
    "box_axes",
    "catalog_entry",
    "check_hypothesis",
    "classify_regions",
    "constant",
    "counterexample_family",
    "counterexample_scan",
    "differentiate",
    "evaluate",
    "heatmap_svg",
    "kolmogorov_poly",
    "line_plot_svg",
    "make_solution",
    "measure_from_batch",
    "parse",
    "ratio_plot_svg",
    "region_inequality_check",
    "residual",
    "sandwich_check",
    "scan_family",
    "scan_to_csv",
    "separable",
    "simplify",
    "simulate_batch",
    "smallest_passing_order",
    "sup_inf_ratio",
    "to_string",
    "window_average_x",
    "write_json",
    "__version__",
]
