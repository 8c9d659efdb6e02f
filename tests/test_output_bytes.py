"""Byte pins on the CSV and SVG writers and on the RK4 profile sweep.

Each test hashes an output and compares it with a recorded SHA-256 digest,
so any change to a writer's bytes or to a bit of a profile shows here.  The
inputs use polynomial drifts and polynomial field values only, so no libm
result (exp, sin, ...) enters a digest, except in the path batches: their
exit clock folds numpy's exp and log1p, and some gammas call sin, so those
digests also pin numpy's float64 kernels on the host's CPU.
"""

import hashlib

import numpy as np
import pytest

from harnack_lab.cli import main
from harnack_lab.fields import ScalarField, box_axes, heatmap_svg
from harnack_lab.harnack import SubCylinder, scan_family, scan_to_csv
from harnack_lab.operators import CylinderDomain, OperatorSpec
from harnack_lab.sde import SimConfig, measure_from_batch, simulate_batch
from harnack_lab.solutions import _integrate_profile, constant, kolmogorov_poly


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def file_sha(path) -> str:
    return sha(path.read_bytes())


# -- heatmap_svg ------------------------------------------------------------


def test_heatmap_uniform_grid():
    axes = box_axes(-1.0, 2.0, 13, 1.5, 9)
    f = ScalarField.sample(
        lambda x, y: x * x - 3 * y[:, 0] + 0.5 * x * y[:, 0] ** 3, axes, name="poly")
    assert sha(heatmap_svg(f)) == (
        "ef0df8b80f5adb49f0262a8c81f7445ec2da29ce9a679a353add4babf3b33558")


def test_heatmap_nonuniform_axes():
    xs = np.array([-0.3, 0.1, 0.35, 0.9, 1.0, 2.75])
    ys = np.array([-1.0, -0.2, 0.05, 0.7, 1.3])
    f = ScalarField.sample(lambda x, y: 2 * x - y[:, 0] ** 2 + x * y[:, 0], (xs, ys),
                           name="non-uniform")
    assert sha(heatmap_svg(f)) == (
        "7b7ffc381e71945fffcc64477544aa18a806bb37633076a298587105745082ed")


def test_heatmap_constant_field():
    axes = box_axes(0.0, 1.0, 5, 1.0, 4)
    f = ScalarField(axes, np.full((5, 4), 2.5), name="flat")
    assert sha(heatmap_svg(f)) == (
        "34c800425d36a5b879bc3ba1a09b6164501d609330b23c4b562d217e34e3f968")


def test_heatmap_values_on_palette_knots():
    # (v - lo) / span * 4 lands exactly on 0, 1, 2, 3, 4 and on the halves
    # between them; the rest of the grid sweeps [0, 1] in steps of 1/64
    axes = box_axes(0.0, 1.0, 9, 1.0, 13)
    vals = (np.arange(9 * 13) % 65 / 64.0).reshape(9, 13)
    vals[0, :9] = np.arange(9) / 8.0
    f = ScalarField(axes, vals, name="knots")
    assert sha(heatmap_svg(f)) == (
        "5164a8b73ad8632fce7d43f45ac2e8ca8a50d8a3207db7703c257db651ff2c92")


# -- CSV writers --------------------------------------------------------------


def test_field_csv_special_values(tmp_path):
    axes = (np.array([-1.0, 0.0, 0.1, 3.0]), np.array([-2.5, 1e-7, 1.0 / 3.0]))
    vals = np.array([
        [-0.0, 5e-324, 1e300],
        [0.1, -1e300, 2.2250738585072014e-308],
        [1.0 / 3.0, 123456789.0, -7.5e-310],
        [1.7976931348623157e308, 0.0, -2.0],
    ])
    path = tmp_path / "f.csv"
    ScalarField(axes, vals).to_csv(path)
    assert file_sha(path) == (
        "b32665d04c59d1d1758f8d4ac8098b8243babedb72c20cea93cf05950479049d")


def test_field_csv_two_y_axes(tmp_path):
    axes = (np.linspace(0, 1, 3), np.linspace(-1, 1, 4), np.linspace(-1, 1, 5))
    f = ScalarField.sample(lambda x, y: x - y[:, 0] * y[:, 1] / 3, axes)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    assert file_sha(path) == (
        "2f40b063e3d209af2a34fc25e5a8b31fde4195ec20df811cc6ec8be117353252")


# case ids name the case rather than its digest, so a declared re-pin keeps
# the test names
@pytest.mark.parametrize("n_y, beta, gamma, start, want_paths, want_measure", [
    (1, "y1", "0.3*y1", (0.25, [1.5]),
     "b5cf76d924871b23440b951701304318038913d2b615db02d21f40ace4af6b48",
     "d12ab2fd1923365902bfa0a5cebd0bd984f2c4f50c25901b7bce4e4ab2bce8ea"),
    (2, "y1 - y2*y2", "0.2*x*y2", (-0.5, [0.9, -1.1]),
     "33e6506166276e9de9bba6c92cae0684bbe1a7dd8e6a1ea697978de3b07a5656",
     "cc335205dd48c912495a6fdd9076a07f912ae3150b676c553ff9949c7553e452"),
], ids=["1d", "2d-x-gamma"])
def test_batch_and_measure_csv(tmp_path, n_y, beta, gamma, start,
                               want_paths, want_measure):
    op = OperatorSpec.from_strings(beta, gamma, dim_n=n_y + 1)
    cfg = SimConfig(t_max=0.3, dt=1e-3, n_paths=64, master_seed=11)
    batch = simulate_batch(op, CylinderDomain(), start, cfg)
    assert 0 < batch.exited.sum() < batch.n_paths
    batch.to_csv(tmp_path / "paths.csv")
    measure_from_batch(batch, CylinderDomain(), bins=6).to_csv(tmp_path / "measure.csv")
    assert file_sha(tmp_path / "paths.csv") == want_paths
    assert file_sha(tmp_path / "measure.csv") == want_measure


# the horizons outrun one 1,024-step normals refill, and the
# 3-start batch spans several engine chunks
@pytest.mark.parametrize("n_y, beta, gamma, start, t_max, n_paths, want", [
    (1, "y1", "0", (0.25, [0.5]), 1.5, 200,
     "a5afb62e34024d229404df7fbb8159cd7f541a23d85bd2f88a8ba313c86e3a15"),
    (1, "y1", "0.3*y1", (0.0, [1.2]), 1.5, 200,
     "8aee27708262b423a13424f1751c263be8509ff43d14ba6ed84dabcb9ea5c8e8"),
    (1, "1 - y1*y1", "0.2*sin(x)*y1", (-0.5, [-0.3]), 1.5, 200,
     "d7511be3ca71b3f3fe64ab6dc9855a2f2293a43cb13a8ec4e21b97460f93f4b9"),
    (2, "y1 - y2*y2", "0", (0.5, [0.3, -0.4]), 1.2, 200,
     "133531d5db50e12455c70f679fa1745ef22c09963d1a3b054b68928bb5371e1c"),
    (2, "y1 - y2*y2", "0.3*y1", (0.0, [1.0, 0.5]), 1.2, 200,
     "a1addef380aeb9fdb282681fd3d2844adf3c9370c8022518c98d10ac32b3f03c"),
    (2, "y2", "0.2*sin(x)*y1", (0.75, [-0.2, 0.6]), 1.2, 200,
     "a23ca09191437933330cc34e58060b4ac5bc81484e868b5bab02e09c0478e6ec"),
    (1, "y1", "0.2*sin(x)*y1", ([0.0, 0.5, -0.3], [[0.0], [1.0], [-1.5]]), 1.1, 700,
     "bc2a3b3736a1229036c8b695e584c18eb539fcbc7c2b476c5c8db19ad9a5f04b"),
], ids=["1d", "1d-gamma", "1d-x-gamma", "2d", "2d-gamma", "2d-x-gamma", "1d-3-starts"])
def test_bridge_batch_csv(tmp_path, n_y, beta, gamma, start, t_max, n_paths, want):
    op = OperatorSpec.from_strings(beta, gamma, dim_n=n_y + 1)
    cfg = SimConfig(t_max=t_max, dt=1e-3, n_paths=n_paths, master_seed=29)
    batch = simulate_batch(op, CylinderDomain(), start, cfg, stream=3)
    assert 0 < batch.exited.sum() < batch.n_paths
    assert batch.stop_time.max() > 1024 * cfg.dt
    batch.to_csv(tmp_path / "paths.csv")
    assert file_sha(tmp_path / "paths.csv") == want


def test_scan_csv(tmp_path):
    family = [kolmogorov_poly(C) for C in (0.5, 2.0, 10.25)] + [constant(3.0)]
    scan = scan_family(family, SubCylinder(0.0, 1.0, 1.0), grid=21, family="mixed")
    scan_to_csv(scan, tmp_path / "scan.csv")
    assert file_sha(tmp_path / "scan.csv") == (
        "4849c05572e75ff75b036ffa47b209b2a62c8bff2f908616ec328313326f84f3")


@pytest.mark.parametrize("args, want", [
    (["--set", "regions.d=0.5"],
     "611f1aeac3d120c6bcaca9c1588f65298dff2a24f17fa75a6160a6f721a362b5"),
    (["--set", "operator.dim_n=3", "--set", "operator.beta=y1*y2",
      "--set", "regions.grid_step=0.1"],
     "235b9e64d3507078650e0c0bcf0093ee1e656a719634a5810a9346193def04fc"),
    (["--set", "operator.beta=y1^2", "--set", "regions.d=0.25"],
     "8e7f1dcbe2b5ff3e6a2d4887b05205595588cb6f05d140973b8889f8cf7e41b0"),
])
def test_regions_csv(tmp_path, args, want):
    assert main(["regions", *args, "--out", str(tmp_path)]) == 0
    assert file_sha(tmp_path / "regions.csv") == want


# -- RK4 profile sweep ----------------------------------------------------------


@pytest.mark.parametrize("lam, want", [
    (2.0,
     "b31d69f9d23d88d4e930a827fb375808250d82987795bfb14257b918b4162b3e"),
    (-2.0,
     "96c7a38e3f54b42f5adef8259b4d4d46895ea0465cca5e2252e1aa7a3ca32b4a"),
])
def test_profile_arrays(lam, want):
    # the sweep separable() runs at construction, at the step, and the same
    # sweep at half the step
    op = OperatorSpec.from_strings("y1", "0", dim_n=2)
    radius = CylinderDomain().y_outer_radius
    chunks = []
    for step in (1e-3, 5e-4):
        nodes, phi, dphi = _integrate_profile(op, lam, 0.0, radius, step)
        chunks += [nodes.tobytes(), phi.tobytes(), dphi.tobytes()]
    assert sha(b"".join(chunks)) == want
