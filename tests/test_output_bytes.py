"""Byte pins on the CSV and SVG writers and on the RK4 profile sweep.

Each test hashes an output and compares it with a recorded SHA-256 digest,
so any change to a writer's bytes or to a bit of a profile shows here.  The
inputs use polynomial drifts and polynomial field values only, so no libm
result (exp, sin, ...) enters a digest, except in the bridge-mode batches:
their exit clock folds numpy's exp and log1p, and one gamma calls sin, so
those digests also pin numpy's float64 kernels on the host's CPU.
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


@pytest.mark.parametrize("n_y, beta, gamma, start, want_paths, want_measure", [
    (1, "y1", "0.3*y1", (0.25, [1.5]),
     "a4911c5efa07bf09a4c52fe3dee6ac3cdc540764703f0349f99213f3cd08b31a",
     "2e5e7733104a0fa4c082733f2703303d6d570cd91d8f92ee74bada64fa6aa559"),
    (2, "y1 - y2*y2", "0.2*x*y2", (-0.5, [0.9, -1.1]),
     "30d8121b6a9637201e1080356333e2c20aae38d4d5752dd666b427b465802124",
     "23cc1501025928fe79d81cfa3840d608659eaa139ab0447bf823d7890e6a358d"),
])
def test_batch_and_measure_csv(tmp_path, n_y, beta, gamma, start,
                               want_paths, want_measure):
    op = OperatorSpec.from_strings(beta, gamma, dim_n=n_y + 1)
    cfg = SimConfig(t_max=0.3, dt=1e-3, n_paths=64, master_seed=11)
    batch = simulate_batch(op, CylinderDomain(), start, cfg, exit_detection="endpoint")
    assert 0 < batch.exited.sum() < batch.n_paths
    batch.to_csv(tmp_path / "paths.csv")
    measure_from_batch(batch, CylinderDomain(), bins=6).to_csv(tmp_path / "measure.csv")
    assert file_sha(tmp_path / "paths.csv") == want_paths
    assert file_sha(tmp_path / "measure.csv") == want_measure


# bridge mode: the horizons outrun one 1,024-step normals refill, and the
# 3-start batch spans several engine chunks
@pytest.mark.parametrize("n_y, beta, gamma, start, t_max, n_paths, want", [
    (1, "y1", "0", (0.25, [0.5]), 1.5, 200,
     "b940ce8dd6bd5d767bc3dc0896f2353b20197ac5eb2e483e0c637f6f5c200657"),
    (1, "y1", "0.3*y1", (0.0, [1.2]), 1.5, 200,
     "da507cfd39381f17b84b5ded7bf086b7c9846baf6bcf99b8cfe7150438fca5a4"),
    (1, "1 - y1*y1", "0.2*sin(x)*y1", (-0.5, [-0.3]), 1.5, 200,
     "d246f7bca6accc1b9de85813cc1beb2aa7d095885efebf7fb4a0a74dcadc16e9"),
    (2, "y1 - y2*y2", "0", (0.5, [0.3, -0.4]), 1.2, 200,
     "895ef0aa5c340abfc6b65b98541ec32b1fea4fa26f1918ee86f07038c547774e"),
    (2, "y1 - y2*y2", "0.3*y1", (0.0, [1.0, 0.5]), 1.2, 200,
     "0946c3dbfdaeed2434f2a6b6e1f859e2ea0c2ee5e0d14c82ed0564237771ad68"),
    (2, "y2", "0.2*sin(x)*y1", (0.75, [-0.2, 0.6]), 1.2, 200,
     "a0d587e6b7c262b7b23d8f599c4152a36de177cd1adc067682bc50810adfce15"),
    (1, "y1", "0.2*sin(x)*y1", ([0.0, 0.5, -0.3], [[0.0], [1.0], [-1.5]]), 1.1, 700,
     "a9f74f4d1aa1147ff4a0b7d6d2289efdd9ef839ed8c47dd85be961e419c52312"),
])
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
     "08c77470ad0fba2543bce45b6236df70e472cbc90d5fd37c2143bbc91c42f617"),
    (-2.0,
     "20ec4211582492e9827dcdce4c2925062a6253097c48e05fda192257984e0782"),
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
