"""End-to-end and per-layer metrics from one run's op records and spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import attr_values, call_stats, layer_coverage_seconds, layer_self_seconds

CLI_COMMANDS = (
    "simulate",
    "reconstruct",
    "reconstruct-scaled",
    "fit",
    "compare",
    "figure-fig2b",
    "figure-fig3b",
)

# Layers the timed phases call; nlspd.numerics is reached only inside them
# and is timed by the direct probe instead.
SELF_TIME_LAYERS = ("simulator", "tomography", "modelfit", "povm", "loss", "cli")

# (span name, statistics reported for it)
CALL_METRICS = (
    ("tomography.reconstruct_povm", ("calls", "busy_s", "max_ms")),
    ("tomography.scaled_fit_workflow", ("calls", "busy_s")),
    ("modelfit.fit_params", ("calls", "busy_s", "max_ms")),
    ("modelfit.prune_mechanisms", ("calls", "busy_s", "max_ms")),
    ("povm.coherent_click_probability", ("calls", "busy_s")),
    ("simulator.geometric_probe_grid", ("busy_s",)),
    ("simulator.simulate", ("calls", "busy_s")),
    ("loss.scale_povm", ("calls", "busy_s")),
    ("loss.unscale_povm", ("calls", "busy_s")),
    ("loss.lossy_click_probability", ("calls", "busy_s")),
)

# Kernels timed per photon-number term; their spans carry a "terms" count.
PER_TERM_SPANS = (
    "povm.coherent_click_probability",
    "povm.log_survival",
    "numerics.poisson_log_weights",
    "numerics.binomial_exponents",
)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples no such percentile exists; the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


def phase_record(phase: dict, ops_are_commands: bool) -> dict:
    """Failure counts and raw wall times of a phase, kept beside the metrics."""
    ops = phase["ops"]
    by_dataset = defaultdict(list)
    for op in ops:
        by_dataset[op["dataset"]].append(op)
    wall = [sum(op["latency_s"] for op in group) for group in by_dataset.values()]
    completed = sum(all(op["ok"] for op in group) for group in by_dataset.values())
    failed = sum(not op["ok"] for op in ops)
    tail_s, tail_percentile = tail(wall)
    record = {
        "failed_ops_frac": failed / len(ops),
        "ops": len(ops),
        "failed_ops": failed,
        "datasets": len(wall),
        "datasets_completed": completed,
        "dataset_tail_percentile": tail_percentile,
        "wall_s": phase["wall_s"],
        "ops_wall_s": sum(wall),
        "datasets_per_s": completed / sum(wall),
        "dataset_p50_ms": 1e3 * statistics.median(wall),
        "dataset_tail_ms": 1e3 * tail_s,
    }
    if "kernel_s" in ops[0]:
        kernel_ms = [1e3 * op["kernel_s"] for op in ops]
        record.update(
            kernel_ms_min=min(kernel_ms),
            kernel_ms_median=statistics.median(kernel_ms),
            kernel_ms_max=max(kernel_ms),
        )
    if ops_are_commands:
        record["command_p50_ms"] = 1e3 * statistics.median(op["latency_s"] for op in ops)
        record["commands"] = len(ops)
    return record


def end_to_end(phase: dict, peak_rss_mb: float) -> dict:
    """Gated metrics of an untraced phase, from the ops' normalized times.

    A dataset's time is the sum of its ops' (``speed.SpeedProbe``); the
    total sums the datasets, and leaves out the checks between ops.
    """
    by_dataset = defaultdict(list)
    for op in phase["ops"]:
        by_dataset[op["dataset"]].append(op)
    norm = [sum(op["norm_s"] for op in group) for group in by_dataset.values()]
    completed = sum(all(op["ok"] for op in group) for group in by_dataset.values())
    return {
        "norm_s": sum(norm),
        "peak_rss_mb": peak_rss_mb,
        "datasets_per_norm_s": completed / sum(norm),
        "dataset_p50_norm_ms": 1e3 * statistics.median(norm),
        "dataset_tail_norm_ms": 1e3 * tail(norm)[0],
    }


def _op_values(ops: list[dict], key: str) -> list:
    return [op[key] for op in ops if key in op]


def per_layer(
    spans: list[dict],
    traced: dict,
    span_cost_s: float,
    cli_import_s: float = 0.0,
    cli_output_bytes: int = 0,
) -> dict:
    """Per-layer metrics of a traced phase; 0 where the workload never calls the layer."""
    in_phase = [s for s in spans if traced["start_ns"] <= s["start_ns"] <= traced["end_ns"]]
    out = {}
    for name, stats in CALL_METRICS:
        source = spans if name == "simulator.geometric_probe_grid" else in_phase
        values = call_stats(source, name)
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]

    out["tomography.reconstruct_povm.truncation_max"] = max(
        attr_values(in_phase, "tomography.reconstruct_povm", "truncation"), default=0
    )
    out["modelfit.truncation_max"] = max(
        attr_values(in_phase, "modelfit.fit_params", "truncation")
        + attr_values(in_phase, "modelfit.prune_mechanisms", "truncation"),
        default=0,
    )
    out["simulator.simulate.probes"] = sum(attr_values(in_phase, "simulator.simulate", "probes"))
    out["povm.coherent_click_probability.terms"] = sum(
        attr_values(in_phase, "povm.coherent_click_probability", "terms")
    )
    for name in PER_TERM_SPANS:
        timed = [s for s in spans if s["name"] == name and "terms" in s]
        terms = sum(s["terms"] for s in timed)
        busy_ns = sum(s["end_ns"] - s["start_ns"] for s in timed)
        out[f"{name}.ns_per_term"] = busy_ns / terms if terms else 0.0

    ops = traced["ops"]
    out["tomography.fidelity_min"] = min(_op_values(ops, "fidelity"), default=0.0)
    out["loss.unscale_povm.violation_max"] = max(_op_values(ops, "violation"), default=0.0)

    out["cli.import_s"] = cli_import_s
    for command in CLI_COMMANDS:
        durations = [
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in in_phase if s["name"] == f"cli.{command}"
        ]
        out[f"cli.{command}.p50_ms"] = statistics.median(durations) if durations else 0.0
    out["cli.output_bytes"] = cli_output_bytes

    self_s = layer_self_seconds(in_phase)
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    covered = layer_coverage_seconds(in_phase, traced["start_ns"], traced["end_ns"])
    out["trace.span_coverage"] = covered / traced["wall_s"]
    out["trace.overhead_s"] = span_cost_s * len(in_phase)
    out["trace.spans"] = len(spans)
    return out
