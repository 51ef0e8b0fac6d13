"""Benchmark of the teleportsim library, run from the root of a source checkout.

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are ``exact_sweep``, ``sampling`` and ``cli_session`` (see
``workloads.py``); ``all`` runs each in its own process and prints every
end-to-end metric of each. The benchmark imports the package from ``src/``
of the checkout, pins the BLAS thread count before NumPy loads, and runs one
caller in one process; it starts at most one child process at a time.

The workload runs in this process, round after round, while another round
fits in ``--seconds``. Set-up time is measured by starting fresh
interpreters that import the package and build the workload's inputs, one
at a time, spread between the rounds of the untraced pass so that they
meet the host in the same states as the workload; ``setup_s`` is their
median. End-to-end times are scaled to a reference host speed (see
``recorder``). With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` the run splits its time between an
untraced pass and a traced pass, and the last line holds the per-layer
metrics of the traced pass. Every run writes its full result, with
provenance, unscaled times and every failed check, to ``perfbench/out/``,
and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("exact_sweep", "sampling", "cli_session")
#: BLAS threads, pinned before NumPy loads; at most the machine's core count
BLAS_THREADS = 1
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 9
#: host probes timed before each set-up probe, to scale its time
SETUP_HOST_PROBES = 25
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 175


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Pin BLAS threads and make this process and its children import ``src/``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def provenance(args) -> dict:
    import numpy as np

    import teleportsim

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "teleportsim": teleportsim.__version__,
        "teleportsim_path": str(Path(teleportsim.__file__).parent),
        "git_commit": git_commit(),
    }


def setup_probe(args) -> int:
    """Fresh-interpreter set-up: import the package and CLI, build the inputs, report times."""
    import teleportsim.cli  # noqa: F401  (the CLI's import is what every subprocess pays)

    imported = time.perf_counter()
    from recorder import Recorder
    from workloads import WORKLOADS as BUILDERS

    BUILDERS[args.workload](args.seed, Recorder(trace=False), OUT)
    print(json.dumps({"imported": imported, "ready": time.perf_counter()}))
    return 0


def setup_probe_times(args) -> tuple[float, float]:
    """One fresh-interpreter set-up: (seconds to ready, seconds to CLI imported).

    The time to ready is scaled to the reference host speed by host probes
    timed just before it; the time to import is not. The set-up probe
    reports ``time.perf_counter`` readings, which on Linux come from the
    system-wide monotonic clock, so they compare with this process's.
    """
    from proc import run_child
    from recorder import host_probe, speed_factor

    factor = speed_factor([host_probe() for _ in range(SETUP_HOST_PROBES)])
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    code, out, err, _ = run_child(argv, OUT, PROBE_TIMEOUT_S, cwd=ROOT)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.decode()[-2000:]}")
    marks = json.loads(out.decode().strip().splitlines()[-1])
    return factor * (marks["ready"] - start), marks["imported"] - start


def timed_pass(args, trace: bool, seconds: float):
    """Build the workload and run rounds while another fits in ``seconds``, at least one.

    The untraced pass also runs the SETUP_PROBES set-up probes, spread over
    its time: one before the first round and the rest as they fall due.
    Returns the recorder, the workload, the rounds' elapsed time (probes
    excluded) and the probe times.
    """
    from recorder import Recorder
    from workloads import WORKLOADS as BUILDERS

    start = time.perf_counter()
    rec = Recorder(trace)
    workload = BUILDERS[args.workload](args.seed, rec, OUT)
    rec.phase = "run"
    want = 0 if trace else SETUP_PROBES
    probes = [setup_probe_times(args) for _ in range(min(want, 1))]
    elapsed = last = 0.0
    r = 0
    while r == 0 or time.perf_counter() - start + last < seconds:
        round_start = time.perf_counter()
        workload.run_round(rec, r)
        last = time.perf_counter() - round_start
        elapsed += last
        r += 1
        due = min(want, int(want * (time.perf_counter() - start) / seconds))
        probes += [setup_probe_times(args) for _ in range(due - len(probes))]
    probes += [setup_probe_times(args) for _ in range(want - len(probes))]
    return rec, workload, elapsed, probes


def run_workload(args) -> dict:
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, tail, timings
    from recorder import layer_summary, speed_factor
    from workloads import KNOWN_DEFECTS

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    rec, workload, elapsed, probes = timed_pass(args, False, untraced_seconds)
    setup_s = statistics.median(ready for ready, _ in probes)
    import_s = statistics.median(imported for _, imported in probes)
    if args.workload == "cli_session":
        peak_rss_mb = workload.peak_child_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(rec, setup_s, peak_rss_mb)
    _, percentile, count = tail(rec.op_seconds(scaled=False).values())
    details = {
        "op_tail_percentile": percentile,
        "op_positions": count,
        "ops_attempted": len(rec.ops),
        "failed_frac": 1.0 - e2e["passed_frac"],
        "pass_elapsed_s": elapsed,
        "cli_import_s": import_s,
        "unscaled": timings(rec.op_seconds(scaled=False)),
        "speed_factors": [speed_factor(p) for p in rec.probes.values()],
    }
    failures = list(rec.failures)
    reported = rec
    if args.trace:
        traced, _, traced_elapsed, _ = timed_pass(args, True, args.seconds - untraced_seconds)
        values = per_layer(traced, rec, traced_elapsed, import_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        details["traced_pass_elapsed_s"] = traced_elapsed
        details["layers"] = layer_summary(traced, traced_elapsed)
        details["calls_by_phase"] = _calls_by_phase(traced)
        failures += traced.failures
        reported = traced
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(traced.span_dicts()))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    unexpected = [f for f in failures if not f.op.endswith(KNOWN_DEFECTS)]
    result = {
        "correct": not unexpected,
        "attempted": len(reported.ops),
        "failed": len(reported.failed_ops()),
        "metrics": metrics,
    }
    full = {"result": result, "end_to_end": e2e, "details": details, "ops": rec.ops,
            "failures": [dataclasses.asdict(f) for f in failures],
            "provenance": provenance(args)}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=2, default=str))
    _print_summary(args, e2e, details, failures, unexpected, metrics if args.trace else None)
    print("provenance " + json.dumps(full["provenance"], default=str))
    return result


def _calls_by_phase(rec) -> dict:
    counts: dict = {}
    for s in rec.spans:
        if s.name != "op":
            phase = counts.setdefault(s.phase, {})
            phase[s.name] = phase.get(s.name, 0) + 1
    return counts


def _print_summary(args, e2e, details, failures, unexpected, layer_metrics) -> None:
    from metrics import END_TO_END

    print(f"teleportsim benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    notes = {
        "wall_s": f"median round of each operation; pass took {details['pass_elapsed_s']:.2f} s",
        "op_tail_ms": f"p{details['op_tail_percentile']:.1f} of {details['op_positions']} "
                      f"operations, {details['ops_attempted'] // details['op_positions']} rounds",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "passed_frac": f"failed_frac {details['failed_frac']:.4f}",
    }
    factors = details["speed_factors"]
    print(f"  times scaled to the reference host speed; this run's speed factors "
          f"{min(factors):.3f}-{max(factors):.3f}, median {statistics.median(factors):.3f}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {e2e[name]:>14.6g} {unit:<5} {notes.get(name, '')}")
    for name, value in details["unscaled"].items():
        print(f"  {name:<12} {value:>14.6g} unscaled")
    if layer_metrics is not None:
        print("  layer        calls      self_s    share   failed")
        for layer, row in details["layers"].items():
            print(f"  {layer:<11} {row['calls']:>6} {row['self_s']:>11.4f} "
                  f"{row['share']:>8.3f} {row['failed']:>8}")
        print(f"  trace.overhead_s {layer_metrics['trace.overhead_s']['value']:.4f} s")
    for line in dict.fromkeys(  # a traced run repeats the untraced pass's failures
        f.describe() + ("" if f in unexpected else "  (known defect)") for f in failures
    ):
        print(f"FAILED {line}")
    if not failures:
        print("all output checks passed")


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own peak memory."""
    import subprocess

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance ")))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "teleportsim" / "__init__.py").is_file():
        print(f"error: no teleportsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    compileall.compile_dir(str(SRC), quiet=1)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
