"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40
    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 --write

Runs every workload once per seed with tracing off, one run at a time and
workloads in turn, and prints for each end-to-end metric the median, the
quartiles and the spread: the distance between the quartiles, as
``statistics.quantiles(values, n=4)`` gives them, over the median. Each
spread is shown with the metric's bound from ``BENCHMARK.json``. With
``--write`` it also makes one traced run of each workload at the first seed
and records all of it as the ``baseline`` of ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
#: the sampler and shot calls that exact_sweep must never make
SAMPLER_CALLS = ("fidelity.mean_fidelity_monte_carlo", "estimation.estimation_fidelity_mc",
                 "haar.m_kl_monte_carlo", "haar.sample_haar_states", "protocol.teleport_once")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: unexpected failed checks")
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values)}


def separation(details: dict, workload: str) -> dict:
    """Evidence from a traced run that the workload loads the layers it was built for."""
    calls = details["calls_by_phase"]
    run_calls = calls.get("run", {})
    layers = details["layers"]
    if workload == "exact_sweep":
        return {"run_calls_of_samplers_and_teleport_once":
                sum(run_calls.get(name, 0) for name in SAMPLER_CALLS)}
    if workload == "sampling":
        return {
            "standard_protocol_calls": {phase: calls.get(phase, {}).get(
                "protocol.standard_protocol", 0) for phase in ("setup", "run")},
            "share_of_self_time_haar_fidelity_estimation_protocol": sum(
                layers[layer]["share"] for layer in ("haar", "fidelity", "estimation",
                                                     "protocol")),
            "protocol_run_calls": {name: n for name, n in run_calls.items()
                                   if name.startswith("protocol.")},
        }
    return {"subprocess_share_of_pass": layers["cli"]["share"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    values: dict = {w: {name: [] for name in bounds} for w in workloads}
    for seed in seeds:
        for w in workloads:
            full = run(w, seed, args.seconds, 0)
            for name, metric in full["result"]["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in full["result"]["metrics"].items()),
                flush=True)

    end_to_end = {w: {name: summary(v) for name, v in metrics.items()}
                  for w, metrics in values.items()}
    for w, metrics in end_to_end.items():
        for name, s in metrics.items():
            flag = "" if s["spread"] <= bounds[name] or name == "setup_s" else "  OVER BOUND"
            print(f"{w:<12} {name:<12} median {s['median']:<12.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}")
    if not args.write:
        return 0

    per_layer, shares, evidence = {}, {}, {}
    for w in workloads:
        full = run(w, seeds[0], args.seconds, 1)
        per_layer[w] = {name: m["value"] for name, m in full["result"]["metrics"].items()}
        details = full["details"]
        shares[w] = {layer: round(row["share"], 4) for layer, row in details["layers"].items()}
        evidence[w] = separation(details, w)
    provenance = full["provenance"]
    design_path = HERE / "design.json"
    design = json.loads(design_path.read_text())
    design["baseline"] = {
        "measured": f"seeds {args.seeds}, --seconds {args.seconds}, --trace 0; per-layer "
                    f"values and shares from one --trace 1 run at seed {seeds[0]}",
        "machine": f"{provenance['nproc']} CPUs ({platform.machine()}) on a shared host; "
                   f"Python {platform.python_version()}, NumPy {provenance['numpy']} with "
                   f"OpenBLAS pinned to {provenance['blas_threads']} thread",
        "commit": (provenance["git_commit"] or "unknown")[:7],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layer_shares": shares,
        "separation": evidence,
    }
    design_path.write_text(json.dumps(design, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
