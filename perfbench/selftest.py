"""Reduced-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload, at reduced size, it checks that

* an untraced and a traced run each end with one JSON line holding exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``, with nothing failed;
* the untraced run emits exactly the ``end_to_end`` metrics of
  BENCHMARK.json and the traced run exactly its ``per_layer`` metrics, each
  with the unit given there;
* a deliberately wrong reference value makes a check fail, so the checks
  that feed ``failed`` can fail;
* a thread left burning CPU during the timed phase fails the check that
  guards the reference kernel the times are scaled by.

Exits with a non-zero code at the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import threading
from pathlib import Path

import run

SEED = 3


def run_quietly(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(argv)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(workload: str, trace: int, declared: dict[str, str]) -> None:
    result = run_quietly(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                          "--trace", str(trace), "--small"])
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} checks failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        raise SystemExit(f"{where}: missing {missing}, undeclared {extra}, unit differs {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise SystemExit(f"{where}: {name} = {m['value']!r}")


def wrong_reference(workloads, w) -> None:
    """Shift the workload's reference so that a correct program fails it."""
    if w.name == "simulate":
        w.exit_frac_ref = 0.25
    elif w.name == "fk_field":
        w.reference = lambda x, y: workloads.kolmogorov_reference(x, y) + 1.0
    else:
        w.counterexample_ratio = lambda lam: 1.001 * workloads.counterexample_ratio(lam)


def background_work_fails(workloads) -> None:
    """Work the process leaves running while the reference kernel is timed
    must fail a check, since it would slow the kernel and flatter the times."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR, prefix="selftest-") as tmp:
            w = workloads.WORKLOADS["scan"](SEED, Path(tmp), small=True)
            checks = workloads.Checks()
            run.run_pass(w, checks, seconds=0.1, min_rounds=1)
    finally:
        stop.set()
        spinner.join()
    if not any("reference kernel" in f for f in checks.failures):
        raise SystemExit("a thread burning CPU during the timed phase did not fail the guard")
    print("background work: ok (the reference-kernel guard fails)")


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads, _ = run.import_package()
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} vs harness {sorted(workloads.WORKLOADS)}")

    for name in names:
        check_result(name, 0, end_to_end)
        check_result(name, 1, per_layer)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR, prefix="selftest-") as tmp:
            w = workloads.WORKLOADS[name](SEED, Path(tmp), small=True)
            wrong_reference(workloads, w)
            checks = workloads.Checks()
            run.run_pass(w, checks, seconds=0.1, min_rounds=1)
        if checks.failed == 0:
            raise SystemExit(f"{name}: a wrong reference value did not fail any check")
        print(f"{name}: ok ({checks.failed} of {checks.attempted} checks fail "
              "against a wrong reference)")
    background_work_fails(workloads)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
