"""harnack-lab benchmark runner.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One run sets up the workload,
repeats rounds of it for ``--seconds`` and checks every round's outputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and a provenance record.

Every time the runner reports is scaled to a reference host speed: a fixed
kernel (``reference.py``) is timed right before and right after each timed
round, and the round's times are multiplied by the kernel's nominal time
over its measured time, which takes out the drift of a shared machine's
speed.  The raw times are printed
beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced and then traced, requires both to produce identical output
bytes, and reports the per-layer metrics, the tracing overhead and the
workload-specific end-to-end figures of the untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("simulate", "fk_field", "scan")
# seed kept out of tuning; a gain is confirmed on it before it is claimed
HOLDOUT_SEED = 7919
SETUP_PROBES = 5
MIN_ROUNDS = 3
# kernel samples a set-up probe takes after set-up; the median is kept
PROBE_SAMPLES = 5
# share of the reference kernel's CPU time other threads may use while it runs
MAX_OTHER_CPU = 0.10

# per-layer metrics the runner itself adds to layers.METRICS
RUN_LAYER = [
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("raw.wall_s", "s"),
    ("raw.cpu_s", "s"),
    ("raw.setup_s", "s"),
    ("host.ref_kernel_ms", "ms"),
    ("e2e.ns_per_useful_step", "ns"),
    ("e2e.call_p50_ms", "ms"),
    ("e2e.call_p90_ms", "ms"),
    ("e2e.call_samples", "count"),
    ("e2e.failed_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_round", "count"),
    ("code.src_lines", "count"),
    ("code.api_names", "count"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed phase; rounds repeat until it is over")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced problem sizes, for the harness self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one import and set-up, print it as JSON and exit")
    return p.parse_args(argv)


def import_package():
    """Import harnack_lab from this checkout's src/; returns (workloads module, seconds)."""
    if not (SRC / "harnack_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'harnack_lab'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import harnack_lab
    import workloads
    elapsed = time.perf_counter() - t0
    if Path(harnack_lab.__file__).resolve().parent != (SRC / "harnack_lab").resolve():
        raise SystemExit(f"perfbench: harnack_lab came from {harnack_lab.__file__}, not {SRC}")
    return workloads, elapsed


def probe_setup(args) -> dict:
    """Import and set up in a fresh interpreter, as a user's run would."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_scale(probe: dict) -> float:
    """Reference speed over the host's speed in a set-up probe."""
    return reference.NOMINAL_WALL_S / probe["ref_s"]


class Pass:
    """Walls, CPU times, reference-kernel times and verification records of
    the rounds of one pass."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.ref_walls: list[float] = []
        self.ref_cpus: list[float] = []
        self.infos: list[dict] = []

    @property
    def rounds(self) -> int:
        return len(self.infos)

    @property
    def scales(self) -> list[float]:
        """Per round, reference speed over the host's speed at the time."""
        return [reference.NOMINAL_WALL_S / r for r in self.ref_walls]

    @property
    def scaled_walls(self) -> list[float]:
        return [t * f for t, f in zip(self.walls, self.scales)]

    @property
    def scaled_cpus(self) -> list[float]:
        return [c * reference.NOMINAL_CPU_S / r for c, r in zip(self.cpus, self.ref_cpus)]


def run_pass(w, checks, seconds: float, rounds: int | None = None,
             min_rounds: int = MIN_ROUNDS) -> Pass:
    """Run rounds 0, 1, ... until ``seconds`` have passed (and at least
    ``min_rounds`` ran), or exactly ``rounds`` rounds when given."""
    out = Pass()
    ref_cpu = other_cpu = 0.0
    reference.kernel()
    start = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (
            r < min_rounds or time.perf_counter() - start < seconds):
        inputs = w.inputs(r)
        before = reference.sample()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = w.run(inputs)
        except Exception:
            traceback.print_exc()
            checks.expect(False, f"round {r} raised")
            result = None
        t1, c1 = time.perf_counter(), time.process_time()
        after = reference.sample()
        ref_cpu += before.kernel_cpu + after.kernel_cpu
        other_cpu += before.other_cpu + after.other_cpu
        if result is not None:
            try:
                out.infos.append(w.verify(inputs, result, checks))
                out.walls.append(t1 - t0)
                out.cpus.append(c1 - c0)
                out.ref_walls.append((before.wall + after.wall) / 2)
                out.ref_cpus.append((before.cpu + after.cpu) / 2)
            except Exception:
                traceback.print_exc()
                checks.expect(False, f"round {r} outputs could not be verified")
        r += 1
    # work left running between rounds would slow the kernel and flatter the scaled times
    checks.expect(other_cpu <= MAX_OTHER_CPU * ref_cpu,
                  f"other threads used {other_cpu:.4f} s of CPU while the reference "
                  f"kernel used {ref_cpu:.4f} s")
    w.finish(out.infos, checks)
    return out


def workload_figures(p: Pass) -> dict[str, float]:
    """The figures that only some workloads have, from an untraced pass,
    scaled to the reference speed like the round times."""
    figs = {"e2e.ns_per_useful_step": 0.0, "e2e.call_p50_ms": 0.0,
            "e2e.call_p90_ms": 0.0, "e2e.call_samples": 0}
    steps = [i.get("useful_steps", 0) for i in p.infos]
    if all(steps) and steps:
        figs["e2e.ns_per_useful_step"] = statistics.median(
            1e9 * wall / n for wall, n in zip(p.scaled_walls, steps))
    calls = [s * f for i, f in zip(p.infos, p.scales) for s in i.get("call_s", ())]
    if calls:
        figs["e2e.call_p50_ms"] = 1e3 * statistics.median(calls)
        figs["e2e.call_p90_ms"] = 1e3 * statistics.quantiles(calls, n=10, method="inclusive")[-1]
        figs["e2e.call_samples"] = len(calls)
    return figs


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_size() -> dict[str, int]:
    import harnack_lab
    lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                for f in sorted((SRC / "harnack_lab").glob("*.py")))
    return {"code.src_lines": lines, "code.api_names": len(harnack_lab.__all__)}


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        **code_size(),
    }


def measure(args, workloads, out_dir: Path, checks) -> dict[str, tuple[float, str]]:
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    w = workloads.WORKLOADS[args.workload](args.seed, out_dir, small=args.small)
    min_rounds = 1 if args.small else MIN_ROUNDS
    # a traced run splits its time between an untraced and a traced pass
    plain = run_pass(w, checks, args.seconds / 2 if args.trace else args.seconds,
                     min_rounds=min_rounds)
    if plain.rounds == 0:
        raise RuntimeError("no round completed")
    print(f"{plain.rounds} rounds, wall per round "
          + " ".join(f"{t:.3f}" for t in plain.walls), file=sys.stderr)
    print("reference kernel per round, ms "
          + " ".join(f"{1e3 * t:.2f}" for t in plain.ref_walls), file=sys.stderr)
    raw = {
        "raw.wall_s": statistics.median(plain.walls),
        "raw.cpu_s": statistics.median(plain.cpus),
        "raw.setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "host.ref_kernel_ms": 1e3 * statistics.median(plain.ref_walls),
    }
    if not args.trace:
        for name, value in raw.items():
            print(f"{name:40s} {value:.6g} (not scaled)")
        return {
            "wall_s": (statistics.median(plain.scaled_walls), "s"),
            "cpu_s": (statistics.median(plain.scaled_cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median((p["import_s"] + p["build_s"]) * probe_scale(p)
                                          for p in probes), "s"),
        }

    import layers
    from tracing import Tracer
    tracer = Tracer()
    layers.instrument(tracer, w)
    try:
        traced = run_pass(w, checks, args.seconds, rounds=plain.rounds)
    finally:
        tracer.restore()
    same = [a["digest"] == b["digest"] for a, b in zip(plain.infos, traced.infos)]
    checks.expect(len(same) == plain.rounds and all(same),
                  f"traced outputs differ from untraced in {same.count(False)} round(s)")
    tracer.dump(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    values = layers.layer_metrics(tracer.spans, traced.rounds, getattr(w, "WORKERS", 1))
    overhead = statistics.median(traced.scaled_walls) - statistics.median(plain.scaled_walls)
    values.update({
        "setup.import_s": statistics.median(p["import_s"] * probe_scale(p) for p in probes),
        "setup.build_s": statistics.median(p["build_s"] * probe_scale(p) for p in probes),
        **raw,
        **workload_figures(plain),
        "e2e.failed_frac": checks.failed / max(checks.attempted, 1),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / statistics.median(plain.scaled_walls),
        "trace.spans_per_round": len(tracer.spans) / traced.rounds,
        **code_size(),
    })
    units = dict(layers.METRICS + RUN_LAYER)
    return {name: (values[name], units[name]) for name in units}


def main(argv=None) -> dict:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    workloads, import_s = import_package()

    if args.setup_probe:
        t0 = time.perf_counter()
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="probe-") as tmp:
            workloads.WORKLOADS[args.workload](args.seed, Path(tmp), small=args.small)
            build_s = time.perf_counter() - t0
        reference.kernel()
        ref_s = statistics.median(reference.sample().wall for _ in range(PROBE_SAMPLES))
        print(json.dumps({"import_s": import_s, "build_s": build_s, "ref_s": ref_s}))
        return {}

    checks = workloads.Checks()
    WORK_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix="out-"))
    try:
        metrics = measure(args, workloads, out_dir, checks)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {checks.failed / max(checks.attempted, 1):.6g} "
          f"({checks.failed} of {checks.attempted} checks)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
