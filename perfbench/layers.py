"""Which public names the traced run wraps, and how spans become the
per-layer metrics.

A name is wrapped where the calling module looks it up: ``cli`` calls
``cli.check_hypothesis``, ``make_solution`` calls
``feynman_kac.simulate_batch``, and the engine calls ``sde.with_estimated_sups``
and ``OperatorSpec.beta_at``.  Wrapping several lookup sites under one span
name gives one metric; nested spans of one name are counted once.

Per-layer values are per round of the workload, so runs of different
lengths compare.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from harnack_lab import cli, expressions, feynman_kac, fields, harnack, operators, sde, solutions
from tracing import SpanIndex, Tracer

# (metric name, unit), in the order they are printed
METRICS = [
    ("sde.simulate_batch.calls", "count"),
    ("sde.simulate_batch.self_s", "s"),
    ("sde.useful_steps", "count"),
    ("sde.exit_frac", "ratio"),
    ("sde.measure_from_batch.s", "s"),
    ("operators.with_estimated_sups.calls", "count"),
    ("operators.with_estimated_sups.s", "s"),
    ("operators.beta_at.calls", "count"),
    ("operators.beta_at.s", "s"),
    ("operators.check_hypothesis.s", "s"),
    ("operators.classify_regions.s", "s"),
    ("operators.residual.s", "s"),
    ("expressions.evaluate.calls", "count"),
    ("expressions.evaluate.s", "s"),
    ("expressions.parse.s", "s"),
    ("feynman_kac.make_solution.self_s", "s"),
    ("feynman_kac.batches_per_field", "count"),
    ("feynman_kac.payoff.calls", "count"),
    ("feynman_kac.payoff.s", "s"),
    ("feynman_kac.worker_busy_frac", "ratio"),
    ("solutions.construct.calls", "count"),
    ("solutions.construct.s", "s"),
    ("solutions.at.calls", "count"),
    ("solutions.at.s", "s"),
    ("harnack.sup_inf_ratio.calls", "count"),
    ("harnack.sup_inf_ratio.s", "s"),
    ("harnack.window_average_x.s", "s"),
    ("harnack.region_inequality_check.s", "s"),
    ("harnack.counterexample_scan.s", "s"),
    ("fields.write.s", "s"),
    ("fields.write.bytes", "bytes"),
    ("fields.svg.s", "s"),
    ("fields.at.calls", "count"),
    ("fields.at.s", "s"),
    ("cli.RunConfig.s", "s"),
    ("cli.main.self_s", "s"),
]


def _batch_counts(args, batch) -> dict:
    return {"paths": batch.n_paths, "exited": int(batch.exited.sum()),
            "useful_steps": int(np.ceil(batch.stop_time / batch.dt - 1e-6).sum())}


def _size_of(position: int):
    def extra(args, result) -> dict:
        return {"bytes": Path(args[position]).stat().st_size}
    return extra


def _saved_sizes(args, paths) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


def instrument(tracer: Tracer, workload) -> None:
    """Wrap every public name the workloads reach, at its lookup site."""
    sites = [
        (sde, "simulate_batch", "sde.simulate_batch", _batch_counts),
        (feynman_kac, "simulate_batch", "sde.simulate_batch", _batch_counts),
        (sde, "measure_from_batch", "sde.measure_from_batch", None),
        (sde, "with_estimated_sups", "operators.with_estimated_sups", None),
        (feynman_kac, "with_estimated_sups", "operators.with_estimated_sups", None),
        (operators.OperatorSpec, "beta_at", "operators.beta_at", None),
        (cli, "check_hypothesis", "operators.check_hypothesis", None),
        (cli, "classify_regions", "operators.classify_regions", None),
        (harnack, "classify_regions", "operators.classify_regions", None),
        (operators, "residual", "operators.residual", None),
        (operators, "evaluate", "expressions.evaluate", None),
        (expressions, "evaluate", "expressions.evaluate", None),
        (operators, "parse", "expressions.parse", None),
        (expressions, "parse", "expressions.parse", None),
        (feynman_kac, "make_solution", "feynman_kac.make_solution", None),
        (cli, "catalog_entry", "solutions.construct", None),
        (cli, "kolmogorov_poly", "solutions.construct", None),
        (cli, "constant", "solutions.construct", None),
        (harnack, "counterexample_family", "solutions.construct", None),
        (solutions.AnalyticSolution, "at", "solutions.at", None),
        (harnack, "sup_inf_ratio", "harnack.sup_inf_ratio", None),
        (cli, "window_average_x", "harnack.window_average_x", None),
        (cli, "region_inequality_check", "harnack.region_inequality_check", None),
        (cli, "counterexample_scan", "harnack.counterexample_scan", None),
        (cli, "write_json", "fields.write", _size_of(0)),
        (cli, "scan_to_csv", "fields.write", _size_of(1)),
        (fields.ScalarField, "save", "fields.write", _saved_sizes),
        (sde.PathBatch, "to_csv", "fields.write", _size_of(1)),
        (sde.EmpiricalMeasure, "to_csv", "fields.write", _size_of(1)),
        (cli, "heatmap_svg", "fields.svg", None),
        (cli, "ratio_plot_svg", "fields.svg", None),
        (fields.ScalarField, "at", "fields.at", None),
        (cli, "RunConfig", "cli.RunConfig", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, extra in sites:
        tracer.patch(owner, attr, name, extra)
    if hasattr(workload, "boundary"):
        tracer.patch(workload, "boundary", "feynman_kac.payoff")
    tracer.patch_pool(feynman_kac)


def layer_metrics(spans, rounds: int, workers: int) -> dict[str, float]:
    """Reduce a traced pass's spans to the METRICS values, per round."""
    index = SpanIndex(spans)

    def outer(name):
        return index.outermost(name)

    def calls(name):
        return len(outer(name)) / rounds

    def secs(name):
        return sum(s.duration for s in outer(name)) / rounds

    def self_s(name):
        return sum(index.self_time(s) for s in outer(name)) / rounds

    def extra_sum(name, key):
        return sum(s.extra[key] for s in outer(name) if s.extra)

    paths = extra_sum("sde.simulate_batch", "paths")
    solves = outer("feynman_kac.make_solution")
    field_batches = index.under("sde.simulate_batch", "feynman_kac.make_solution")
    solve_wall = sum(s.duration for s in solves)
    values = {
        "sde.simulate_batch.calls": calls("sde.simulate_batch"),
        "sde.simulate_batch.self_s": self_s("sde.simulate_batch"),
        "sde.useful_steps": extra_sum("sde.simulate_batch", "useful_steps") / rounds,
        "sde.exit_frac": extra_sum("sde.simulate_batch", "exited") / paths if paths else 0.0,
        "feynman_kac.make_solution.self_s": self_s("feynman_kac.make_solution"),
        "feynman_kac.batches_per_field": len(field_batches) / len(solves) if solves else 0.0,
        "feynman_kac.worker_busy_frac": (sum(s.duration for s in field_batches)
                                         / (workers * solve_wall)) if solve_wall else 0.0,
        "fields.write.bytes": extra_sum("fields.write", "bytes") / rounds,
        "cli.main.self_s": self_s("cli.main"),
    }
    for name, unit in METRICS:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        values[name] = calls(base) if kind == "calls" else secs(base)
    return values
