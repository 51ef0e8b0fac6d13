"""Names, units and computation of the benchmark's metrics.

End-to-end metrics come from an untraced pass; per-layer metrics come from
the spans of a traced pass. ``BENCHMARK.json`` lists the same names and
units, and the benchmark's tests keep the two in step. A per-layer metric
of a call the workload never makes reads 0; its layer's ``calls`` shows
which layers a workload exercises.
"""

from __future__ import annotations

import statistics

from recorder import LAYERS, Recorder, layer_summary

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
}

#: (metric prefix, span names summed, statistic, unit, values of d)
FUNCTION_METRICS = (
    ("protocol.standard_protocol.ms", ("protocol.standard_protocol",), "median", "ms",
     (2, 4, 8, 16)),
    ("protocol.validate_completeness.ms", ("protocol.validate_completeness",), "median", "ms",
     (8, 16)),
    ("protocol.optimal_bob_corrections.ms", ("protocol.optimal_bob_corrections",), "median",
     "ms", (8, 16)),
    ("protocol.check_optimality.ms", ("protocol.check_optimality",), "median", "ms", (16,)),
    ("protocol.json_roundtrip.ms", ("protocol.protocol_to_json", "protocol.protocol_from_json"),
     "median", "ms", (16,)),
    ("protocol.teleport_once.us_per_shot", ("protocol.teleport_once",), "median", "us",
     (2, 8, 16)),
    ("fidelity.mean_fidelity_exact.ms", ("fidelity.mean_fidelity_exact",), "median", "ms",
     (8, 16)),
    ("fidelity.mean_fidelity_mkl_form.ms", ("fidelity.mean_fidelity_mkl_form",), "median", "ms",
     (8, 16)),
    ("fidelity.optimal_fidelity_given_measurement.ms",
     ("fidelity.optimal_fidelity_given_measurement",), "median", "ms", (16,)),
    ("estimation.estimation_fidelity_exact.ms", ("estimation.estimation_fidelity_exact",),
     "median", "ms", (16,)),
    ("qcore.schmidt_decompose.ms", ("qcore.schmidt_decompose",), "median", "ms", (16,)),
    ("fidelity.mean_fidelity_monte_carlo.samples_per_s", ("fidelity.mean_fidelity_monte_carlo",),
     "rate", "1/s", (2, 4, 8, 16)),
    ("estimation.estimation_fidelity_mc.samples_per_s", ("estimation.estimation_fidelity_mc",),
     "rate", "1/s", (2, 8, 16)),
    ("haar.sample_haar_states.samples_per_s", ("haar.sample_haar_states",), "rate", "1/s",
     (16,)),
    ("haar.m_kl_monte_carlo.samples_per_s", ("haar.m_kl_monte_carlo",), "rate", "1/s", (4, 16)),
    ("fidelity.mean_fidelity_monte_carlo.peak_mb", ("fidelity.mean_fidelity_monte_carlo",),
     "peak", "MB", (16,)),
    ("estimation.estimation_fidelity_mc.peak_mb", ("estimation.estimation_fidelity_mc",),
     "peak", "MB", (16,)),
    ("search.random_povm.ms", ("search.random_povm",), "median", "ms", (8, 16)),
    ("search.search_best_protocol.ms_per_candidate", ("search.search_best_protocol",),
     "per_work", "ms", (8, 16)),
)

CLI_SUBCOMMANDS = ("bound", "simulate", "estimate", "sweep", "verify-mkl", "check-protocol",
                   "search", "reject")

_SCALE = {"ms": 1e3, "us": 1e6}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.failed": "count"})
    for prefix, _, _, unit, dims in FUNCTION_METRICS:
        units.update({f"{prefix}.d{d}": unit for d in dims})
    units["cli.import_s"] = "s"
    units.update({f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS})
    units["cli.simulate.threads2_over_threads1"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def tail(op_ms) -> tuple[float, float, int]:
    """Highest percentile with at least ten operations beyond it: (value, percentile, count).

    With ten or fewer operations the maximum is returned as the 100th percentile.
    """
    ordered = sorted(op_ms)
    n = len(ordered)
    index = max(0, n - 11) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def timings(op_seconds: dict[str, float]) -> dict:
    """wall_s, op_p50_ms and op_tail_ms of one time per operation.

    ``wall_s`` is the workload's fixed work: the sum over its operations.
    """
    op_ms = [1e3 * s for s in op_seconds.values()]
    return {"wall_s": sum(op_seconds.values()), "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms)[0]}


def end_to_end(rec: Recorder, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics of an untraced pass.

    An operation's time is its median over the run's rounds, each round scaled
    to the reference host speed by its probes (see ``recorder``). Over ten
    runs on a shared 2-CPU host, exact_sweep's and sampling's times spread by
    6-25% unscaled and by 3-5% scaled (quartile distance over median).
    Scaling does little for cli_session, whose operations are mostly the
    start-up of child processes, which the in-process probe does not track.
    """
    attempted = len(rec.ops)
    return {
        **timings(rec.op_seconds(scaled=True)),
        "setup_s": setup_s,
        "passed_frac": (attempted - len(rec.failed_ops())) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def _statistic(spans, statistic: str, unit: str) -> float:
    if not spans:
        return 0.0
    seconds = [s.seconds for s in spans]
    if statistic == "median":
        return _SCALE[unit] * statistics.median(seconds)
    if statistic == "rate":
        return sum(s.work for s in spans) / sum(seconds)
    if statistic == "per_work":
        return _SCALE[unit] * sum(seconds) / sum(s.work for s in spans)
    return max(s.peak_mb or 0.0 for s in spans)  # "peak"


def per_layer(rec: Recorder, untraced: Recorder, pass_seconds: float, import_s: float) -> dict:
    """Per-layer metrics from a traced pass; the ``untraced`` pass gives the tracing overhead."""
    values = {}
    for layer, row in layer_summary(rec, pass_seconds).items():
        if layer in LAYERS:
            values.update({f"{layer}.calls": row["calls"], f"{layer}.self_s": row["self_s"],
                           f"{layer}.failed": row["failed"]})
    by_name_d: dict[tuple, list] = {}
    for s in rec.spans:
        by_name_d.setdefault((s.name, s.d), []).append(s)
    for prefix, names, statistic, unit, dims in FUNCTION_METRICS:
        for d in dims:
            values[f"{prefix}.d{d}"] = sum(
                _statistic(by_name_d.get((name, d), []), statistic, unit) for name in names
            )
    run_spans = [s for s in rec.spans if s.phase == "run"]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.s"] = sum(s.seconds for s in run_spans if s.name == f"cli.{sub}")
    threads = {
        tag: sum(s.seconds for s in run_spans if s.name == "cli.simulate" and s.tag == tag)
        for tag in ("threads1", "threads2")
    }
    values["cli.simulate.threads2_over_threads1"] = (
        threads["threads2"] / threads["threads1"] if threads["threads1"] else 0.0
    )
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = (sum(rec.op_seconds(scaled=False).values())
                                  - sum(untraced.op_seconds(scaled=False).values()))
    return values
