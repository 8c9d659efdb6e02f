"""The benchmark's three workloads, driven through harnack_lab's public API.

Each workload splits one round of work into three steps:

* ``inputs(r)`` draws round r's inputs from the workload seed (untimed);
* ``run(inputs)`` makes the public calls a user would make (timed);
* ``verify(inputs, result, checks)`` checks the outputs against references
  calibrated to Monte Carlo noise, not to exact bits, and returns the round's
  output digest plus its counts (untimed).

Every call into the package goes through a module or class attribute
(``sde.simulate_batch``, ``cli.main``, ...) so the tracer can wrap it there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from harnack_lab import cli, expressions, feynman_kac, harnack, operators, sde
from harnack_lab.fields import box_axes
from harnack_lab.harnack import SubCylinder
from harnack_lab.operators import CylinderDomain, OperatorSpec
from harnack_lab.sde import SimConfig

# a round's checks allow this many Monte Carlo standard errors
Z_TOL = 5.0


class Checks:
    """Counts correctness checks; failed ones keep a description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    """Stream of round r's inputs; string seeding is stable across Python versions."""
    return random.Random(f"{workload}:{seed}:{r}")


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def exit_prob_series(y0: float, radius: float, t: float, terms: int = 2000) -> float:
    """P(|Y| reaches radius by t) for dY = sqrt(2) dB, Y_0 = y0, from the
    eigenfunction series of d^2/dy^2 on (-radius, radius) with zero ends."""
    width = 2 * radius
    survive = sum(
        4 / (k * math.pi) * math.sin(k * math.pi * (y0 + radius) / width)
        * math.exp(-((k * math.pi / width) ** 2) * t)
        for k in range(1, 2 * terms, 2)
    )
    return 1.0 - survive


class Simulate:
    """The CLI ``simulate`` pipeline as library calls, on one worker."""

    name = "simulate"
    START = (0.0, 0.5)
    T_MAX = 1.0
    DT = 1e-3
    BINS = 20

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.n_paths = 2_000 if small else 4_096
        self.op = OperatorSpec.from_strings("y1", "0")
        self.dom = CylinderDomain()
        self.out_dir = out_dir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.exit_frac_ref = exit_prob_series(self.START[1], self.dom.y_outer_radius, self.T_MAX)

    def inputs(self, r: int) -> SimConfig:
        return SimConfig(t_max=self.T_MAX, dt=self.DT, n_paths=self.n_paths,
                         master_seed=round_rng(self.name, self.seed, r).getrandbits(64))

    def run(self, cfg: SimConfig):
        batch = sde.simulate_batch(self.op, self.dom, self.START, cfg,
                                   workers=1, exit_detection="bridge")
        measure = sde.measure_from_batch(batch, self.dom, self.BINS)
        batch.to_csv(self.out_dir / "paths.csv")
        measure.to_csv(self.out_dir / "measure.csv")
        return batch

    def _exit_check(self, exited: int, n: int, checks: Checks, what: str) -> None:
        p = self.exit_frac_ref
        se = math.sqrt(p * (1 - p) / n)
        frac = exited / n
        checks.expect(abs(frac - p) <= Z_TOL * se,
                      f"{what}: exit fraction {frac:.5f} vs series {p:.6f} (se {se:.5f})")

    def verify(self, cfg: SimConfig, batch, checks: Checks) -> dict:
        exited = int(batch.exited.sum())
        self._exit_check(exited, batch.n_paths, checks, "round")
        files = [(self.out_dir / f).read_bytes() for f in ("paths.csv", "measure.csv")]
        checks.expect(files[0].count(b"\n") == batch.n_paths + 1, "paths.csv row count")
        steps = int(np.ceil(batch.stop_time / cfg.dt - 1e-6).sum())
        return {"digest": digest(*files), "useful_steps": steps,
                "exited": exited, "paths": batch.n_paths}

    def finish(self, infos: list[dict], checks: Checks) -> None:
        if infos:
            self._exit_check(sum(i["exited"] for i in infos),
                             sum(i["paths"] for i in infos), checks, "pooled")


def kolmogorov_reference(x, y):
    return x - y**3 / 6 + 10.0


class FkField:
    """``make_solution`` on a 9x9 grid on one worker, then ratio and residual."""

    name = "fk_field"
    BOUNDARY = "10 + x - y1^3/6"
    T_SOLVE = 2.0
    DT = 1e-3
    # one worker: with two, a round's wall time follows how much of the second
    # vCPU a shared host lends (cpu/wall swung from 1.0 to 1.7 between runs)
    WORKERS = 1
    # standard deviation of the boundary payoff at the stopped state; measured
    # 0.83-0.88 over the nine y nodes with 2e4 paths each (master seed 12345)
    PAYOFF_SD = 0.90

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        n_nodes = 5 if small else 9
        # 100 paths per node keeps a round near 2.5 s, short enough for the
        # reference kernel timed around it to follow the host's speed
        self.n_paths = 100
        self.op = OperatorSpec.from_strings("y1", "0")
        self.dom = CylinderDomain()
        self.axes = box_axes(0.0, 1.0, n_nodes, 1.0, n_nodes)
        self.sub = SubCylinder(0.0, 1.0, 1.0)
        self.reference = kolmogorov_reference
        y_names = self.op.y_names
        expr = expressions.parse(self.BOUNDARY, ("x",) + y_names)

        # the same closure cli.RunConfig.boundary_fn builds
        def boundary(x, y):
            env = {"x": x}
            env.update({n: y[:, k] for k, n in enumerate(y_names)})
            return expressions.evaluate(expr, env)

        self.boundary = boundary

    def inputs(self, r: int) -> SimConfig:
        return SimConfig(t_max=self.T_SOLVE, dt=self.DT, n_paths=self.n_paths,
                         master_seed=round_rng(self.name, self.seed, r).getrandbits(64))

    def run(self, cfg: SimConfig):
        field = feynman_kac.make_solution(self.op, self.dom, self.boundary, self.T_SOLVE,
                                          cfg, self.axes, workers=self.WORKERS)
        report = harnack.sup_inf_ratio(field, self.sub)
        res = operators.residual(field, self.op)
        return field, report, res

    def verify(self, cfg: SimConfig, result, checks: Checks) -> dict:
        field, report, res = result
        x, y = field.node_points()
        err = np.abs(field.values.reshape(-1) - self.reference(x, y[:, 0]))
        tol = Z_TOL * self.PAYOFF_SD / math.sqrt(cfg.n_paths)
        worst = int(np.argmax(err))
        checks.expect(bool(np.all(err <= tol)),
                      f"node ({x[worst]:g}, {y[worst, 0]:g}) off by {err[worst]:.4f} > {tol:.4f}")
        lo, hi = field.values.min(), field.values.max()
        checks.expect(lo - 1e-9 <= report.inf <= report.sup <= hi + 1e-9,
                      "sup_inf_ratio extrema outside the field's range")
        checks.expect(bool(np.all(np.isfinite(res.values))), "residual not finite")
        ratio = np.array([report.sup, report.inf, report.ratio])
        return {"digest": digest(field.values.tobytes(), res.values.tobytes(), ratio.tobytes())}

    def finish(self, infos: list[dict], checks: Checks) -> None:
        pass


def counterexample_ratio(lam: float) -> float:
    return math.exp(lam) * math.cosh(math.sqrt(lam))


def num(v: float) -> str:
    return f"{v:.9g}"


class Scan:
    """Deterministic side: in-process ``cli.main`` calls, fresh inputs every round."""

    name = "scan"

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.out_dir = out_dir / self.name
        self.counterexample_ratio = counterexample_ratio

    def inputs(self, r: int) -> list[tuple[str, list[str], dict]]:
        rng = round_rng(self.name, self.seed, r)
        u = rng.uniform
        shift = u(-0.5, 0.5)
        a, b = u(0.5, 2.0), u(0.5, 1.5)
        offsets = sorted(u(2.0, 100.0) for _ in range(4))
        sep = [rng.choice((-1, 1)) * u(0.2, 4.0) for _ in range(3)]
        lams = [u(0.5, 1.5)]
        for _ in range(3):
            lams.append(lams[-1] + u(1.0, 2.0))
        level, c_regions = u(0.2, 0.8), u(5.0, 50.0)
        z, c_average = u(0.05, 1 / 3), u(5.0, 50.0)
        lams_text = [num(v) for v in lams]
        offsets_text = [num(v) for v in offsets]
        calls = [
            ("check2", ["check", "--set", f"operator.beta=y1 + {num(shift)}"], {}),
            ("check3", ["check", "--set", "operator.dim_n=3",
                        "--set", f"operator.beta=sin({num(a)}*y1)*y2 + {num(b)}*y1"], {}),
            ("harnack_kolmogorov", ["harnack", "--svg", "--set",
                                    "harnack.offsets=" + ",".join(offsets_text)],
             {"offsets": [float(v) for v in offsets_text]}),
            ("harnack_catalog", ["harnack", "--svg", "--set", "harnack.family=catalog",
                                 "--set", "harnack.solutions="
                                 + ",".join(f"separable({num(v)})" for v in sep)], {}),
            ("counterexample", ["counterexample", "--svg", "--set",
                                "counterexample.lambdas=" + ",".join(lams_text)],
             {"lambdas": [float(v) for v in lams_text]}),
            ("regions", ["regions", "--set", f"regions.d={num(level)}",
                         "--set", f"regions.solution=kolmogorov({num(c_regions)})"], {}),
            ("average", ["average", "--svg", "--set", f"average.z={num(z)}",
                         "--set", f"average.solution=kolmogorov({num(c_average)})"], {}),
        ]
        return [(kind, argv + ["--out", str(self.out_dir / kind)], params)
                for kind, argv, params in calls]

    def run(self, calls) -> list[tuple[int, float, str]]:
        done = []
        for _kind, argv, _params in calls:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            done.append((code, time.perf_counter() - t0, sink.getvalue()))
        return done

    def _csv_column(self, path: Path, column: str) -> list[float]:
        rows = path.read_text(encoding="ascii").strip().split("\n")
        idx = rows[0].split(",").index(column)
        return [float(row.split(",")[idx]) for row in rows[1:]]

    def verify(self, calls, done, checks: Checks) -> dict:
        chunks = []
        for (kind, _argv, params), (code, _secs, text) in zip(calls, done):
            checks.expect(code == 0, f"{kind} exited {code}: {text.strip()[-200:]}")
            out = self.out_dir / kind
            for f in sorted(out.iterdir()):
                chunks += [f.name.encode(), f.read_bytes()]
            if code != 0:
                continue
            if kind == "counterexample":
                ratios = self._csv_column(out / "counterexample.csv", "ratio")
                want = [self.counterexample_ratio(lam) for lam in params["lambdas"]]
                checks.expect(len(ratios) == len(want) and all(
                    abs(g - w) <= 1e-6 * w for g, w in zip(ratios, want)),
                    f"counterexample ratios {ratios} vs e^lam cosh(sqrt(lam)) {want}")
                verdict = json.loads((out / "counterexample.json").read_text())["verdict"]
                checks.expect(verdict == "divergent", f"counterexample verdict {verdict!r}")
            if kind == "harnack_kolmogorov":
                # u = x - y^3/6 + C on [0,1] x [-1,1]: sup C + 7/6, inf C - 1/6
                ratios = self._csv_column(out / "harnack.csv", "ratio")
                want = [(c + 7 / 6) / (c - 1 / 6) for c in params["offsets"]]
                checks.expect(len(ratios) == len(want) and all(
                    abs(g - w) <= 1e-9 * w for g, w in zip(ratios, want)),
                    f"kolmogorov ratios {ratios} vs closed form {want}")
        return {"digest": digest(*chunks), "call_s": [secs for _c, secs, _t in done]}

    def finish(self, infos: list[dict], checks: Checks) -> None:
        pass


WORKLOADS = {w.name: w for w in (Simulate, FkField, Scan)}
