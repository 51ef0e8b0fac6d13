"""Command-line front end with reproducible, seeded JSON/CSV reports.

Exit codes: 0 success (all checks passed), 1 a numerical check failed,
2 malformed input or unreadable file. Every report embeds the fully
resolved configuration, and identical flags plus seed produce identical
output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

import numpy as np

from .estimation import (
    estimation_fidelity_bound,
    estimation_fidelity_exact,
    estimation_fidelity_mc,
    optimal_estimates,
)
from .fidelity import (
    fidelity_bound,
    max_singlet_fraction,
    mean_fidelity_exact,
    mean_fidelity_monte_carlo,
)
from .haar import MC_MIN_SAMPLES, McEstimate, _haar_draw, _moment_blocks, _moment_matrix, make_rng
from .protocol import (
    CHECK_ATOL,
    _protocol_parts,
    check_optimality,
    standard_measurement,
    standard_protocol,
    validate_completeness,
)
from .qcore import _check_dim, check_schmidt_coefficients
from .search import search_best_protocol

REPORT_SCHEMA = 1


def _resolve_lambdas(d: int, lambdas: str | None, theta: float | None) -> tuple[np.ndarray, dict]:
    """Parse --lambdas / --theta for dimension d into sorted, normalized coefficients.

    Returns the coefficients and the provenance flags (whether the input
    had to be renormalized or reordered) that get recorded in the report.
    """
    _check_dim(d)
    if theta is not None:
        if lambdas is not None:
            raise ValueError("pass either --lambdas or --theta, not both")
        if d != 2:
            raise ValueError("--theta is a d=2 shorthand; use --lambdas for other dimensions")
        if not 0.0 <= theta <= np.pi / 2:
            raise ValueError("--theta must lie in [0, pi/2] so both coefficients are nonnegative")
        raw = np.array([np.cos(theta), np.sin(theta)])
    elif lambdas is not None:
        try:
            raw = np.array([float(x) for x in lambdas.split(",")])
        except ValueError:
            raise ValueError(f"--lambdas must be a comma-separated float list, got {lambdas!r}")
    else:
        raw = np.full(d, 1.0)  # maximally entangled default
    if raw.size != d:
        raise ValueError(f"expected {d} Schmidt coefficients, got {raw.size}")
    # needed: a NaN entry makes every normalized one NaN, which check_schmidt_coefficients passes
    if np.any(raw < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        norm = float(np.linalg.norm(raw))
    flags = {
        "renormalized": bool(abs(norm**2 - 1.0) > 1e-9),
        "reordered": bool(np.any(np.diff(raw) > 0)),
    }
    # only a norm that overflowed or underflowed is redone, so no other input's bytes move
    if norm in (0.0, np.inf) and np.isfinite(raw).all() and raw.any():
        raw = raw / raw.max()
        norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise ValueError("Schmidt coefficients must not all vanish")
    lam = np.sort(raw / norm)[::-1].copy()
    return check_schmidt_coefficients(lam), flags


def _base_config(args, lam=None, flags=None) -> dict:
    cfg: dict = {"d": args.d}
    if lam is not None:
        cfg["lambdas"] = [float(x) for x in lam]
        cfg.update(flags or {})
    for key in ("n", "seed", "threads", "iters", "outcomes", "steps", "tol", "sigmas"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, out)
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in obj):
            out[prefix] = ";".join(str(x) for x in obj)
        else:
            for i, val in enumerate(obj):
                _flatten(f"{prefix}.{i}", val, out)
    else:
        out[prefix] = obj


def _emit_report(out, report: dict, fmt: str) -> None:
    """Write ``report`` to the stream ``out`` as indented JSON or as CSV.

    CSV has two shapes. A report with ``results`` is flattened to one header
    and one row. A report with ``rows`` is a ``#`` line of ``key=value``
    pairs (schema, command, then config) followed by the table of its rows.
    """
    if fmt == "json":
        out.write(json.dumps(report, indent=2) + "\n")
        return
    if "rows" in report:
        meta = {"schema": report["schema"], "command": report["command"], **report["config"]}
        lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items()), ",".join(report["rows"][0])]
        lines += [",".join(str(v) for v in row.values()) for row in report["rows"]]
    else:
        flat: dict = {}
        _flatten("", report, flat)
        lines = [",".join(flat), ",".join(str(v) for v in flat.values())]
    out.write("\n".join(lines) + "\n")


def _pooled_mc(args, run_chunk: Callable[[np.random.Generator, int], McEstimate]) -> McEstimate:
    """Split the sample budget across (seed, stream) substreams and pool."""
    threads = args.threads
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    if args.n // threads < MC_MIN_SAMPLES:
        raise ValueError(
            f"need at least {MC_MIN_SAMPLES} samples per thread, got {args.n} over {threads}"
        )
    base, extra = divmod(args.n, threads)
    counts = [base + (1 if i < extra else 0) for i in range(threads)]
    parts = [run_chunk(make_rng(args.seed, stream=i), c) for i, c in enumerate(counts)]
    return McEstimate.pooled(parts)


def _mc_results(args, run_chunk: Callable[[np.random.Generator, int], McEstimate]) -> dict:
    """The pooled scalar estimate as the results block that ``simulate`` and ``estimate`` share."""
    mc = _pooled_mc(args, run_chunk)
    return {"mc_estimate": mc.value, "mc_std_error": mc.std_error, "n": mc.n_samples,
            "seed": args.seed}


# Each handler returns its report body, {"config", "results"} or {"config", "rows"},
# and its exit code; ``main`` adds the schema and command and writes the report.


def _cmd_bound(args) -> tuple[dict, int]:
    lam, flags = _resolve_lambdas(args.d, args.lambdas, args.theta)
    results = {
        "fidelity_bound": fidelity_bound(lam),
        "estimation_bound": estimation_fidelity_bound(lam),
        "max_singlet_fraction": max_singlet_fraction(lam),
    }
    return {"config": _base_config(args, lam, flags), "results": results}, 0


def _cmd_simulate(args) -> tuple[dict, int]:
    lam, flags = _resolve_lambdas(args.d, args.lambdas, args.theta)
    proto = standard_protocol(lam)
    mc = _mc_results(args, lambda rng, n: mean_fidelity_monte_carlo(proto, n, rng))
    results = {"exact": mean_fidelity_exact(proto), **mc}
    return {"config": _base_config(args, lam, flags), "results": results}, 0


def _cmd_estimate(args) -> tuple[dict, int]:
    lam, flags = _resolve_lambdas(args.d, args.lambdas, args.theta)
    meas = standard_measurement(args.d)
    strategy = optimal_estimates(meas)
    mc = _mc_results(args, lambda rng, n: estimation_fidelity_mc(meas, lam, strategy, n, rng))
    results = {
        "estimation_bound": estimation_fidelity_bound(lam),
        "exact": estimation_fidelity_exact(meas, lam, strategy),
        **mc,
    }
    return {"config": _base_config(args, lam, flags), "results": results}, 0


def _cmd_sweep(args) -> tuple[dict, int]:
    if args.d != 2:
        raise ValueError("sweep scans the d=2 angle parameterization; --d must be 2")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    rows = []
    for theta in np.linspace(0.0, np.pi / 2, args.steps + 1):
        lam, _ = _resolve_lambdas(2, None, theta)
        rows.append(
            {
                "theta": float(theta),
                "bound": fidelity_bound(lam),
                "exact": mean_fidelity_exact(standard_protocol(lam)),
                "estimation_bound": estimation_fidelity_bound(lam),
            }
        )
    return {"config": _base_config(args), "rows": rows}, 0


def _cmd_verify_mkl(args) -> tuple[dict, int]:
    d = args.d
    _check_dim(d)
    if not 0.0 < args.sigmas < np.inf:
        raise ValueError(f"--sigmas must be a positive finite number, got {args.sigmas}")
    every = range(d)
    est = _pooled_mc(args, lambda rng, n: _moment_blocks(_haar_draw(d, n, rng), every, every))
    # axes [k, i, l, j]: the (k, l) block of the moment matrix is M(k, l)
    dev = np.abs(est.value - _moment_matrix(d)).reshape(d, d, d, d)
    max_err = dev.max(axis=(1, 3))
    ratio = (dev / est.std_error.reshape(d, d, d, d)).max(axis=(1, 3))
    worst = float(ratio.max())
    pairs = [
        {
            "k": k,
            "l": l,
            "max_abs_error": float(max_err[k, l]),
            "max_sigma_ratio": float(ratio[k, l]),
            "pass": float(ratio[k, l]) <= args.sigmas,
        }
        for k in range(d)
        for l in range(d)
    ]
    ok = all(p["pass"] for p in pairs)
    results = {"pairs": pairs, "max_sigma_ratio": worst, "pass": ok}
    return {"config": _base_config(args), "results": results}, 0 if ok else 1


def _cmd_check_protocol(args) -> tuple[dict, int]:
    if args.protocol == "standard":
        if args.d is None:
            args.d = 2
        lam, flags = _resolve_lambdas(args.d, args.lambdas, args.theta)
        proto = standard_protocol(lam)
        schmidt, meas, corr = proto.schmidt, proto.measurement, proto.corrections
        source = "standard"
    else:
        # a file fixes its own state, so a state flag next to it would be dropped
        for flag in ("lambdas", "theta"):
            if getattr(args, flag) is not None:
                raise ValueError(
                    f"--{flag} applies only to 'check-protocol standard'; "
                    "a protocol file sets its own Schmidt coefficients"
                )
        with open(args.protocol, encoding="utf-8") as fh:
            schmidt, meas, corr = _protocol_parts(fh.read())
        if args.d not in (None, meas.d):
            raise ValueError(f"--d {args.d} does not match the protocol file's dimension {meas.d}")
        lam, flags = schmidt.lambdas, {}
        source = args.protocol
    completeness = validate_completeness(meas, args.tol)
    optimality = check_optimality(meas, schmidt, args.tol)
    kraus_err = float(corr.kraus_error.max())
    corrections_ok = kraus_err <= args.tol
    ok = completeness.passed and optimality.passed and corrections_ok
    # the pairs k <= l whose error exceeds the tolerance, in (outcome, k, l) order
    violations = np.argwhere(np.triu(optimality.errors > args.tol))
    results = {
        "completeness": {
            "pass": completeness.passed,
            "max_error": completeness.max_error,
            "worst_pair": list(completeness.worst_pair),
        },
        "optimality": {
            "pass": optimality.passed,
            "max_error": optimality.max_error,
            "n_violations": len(violations),
            "violations": [
                {"outcome": r, "k": k, "l": l, "error": float(optimality.errors[r, k, l]),
                 "kind": "unequal_norm" if k == l else "non_orthogonal"}
                for r, k, l in violations[:10].tolist()
            ],
        },
        "corrections": {"pass": corrections_ok, "max_error": kraus_err,
                        "worst_outcome": int(np.argmax(corr.kraus_error))},
        "estimation_bound": estimation_fidelity_bound(lam),
    }
    config = {"source": source, **_base_config(args, lam, flags), "d": meas.d}
    return {"config": config, "results": results}, 0 if ok else 1


def _cmd_search(args) -> tuple[dict, int]:
    lam, flags = _resolve_lambdas(args.d, args.lambdas, args.theta)
    outcomes = args.outcomes if args.outcomes is not None else args.d * args.d
    result = search_best_protocol(lam, outcomes, args.iters, make_rng(args.seed))
    ok = result.gap >= -1e-9
    results = {
        "bound": result.bound,
        "best_fidelity": result.best_fidelity,
        "gap": result.gap,
        "n_evaluated": result.n_evaluated,
        "pass": ok,
    }
    config = {**_base_config(args, lam, flags), "outcomes": outcomes}
    return {"config": config, "results": results}, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleportsim",
        description="Teleportation of a d-level system through an arbitrary pure "
        "resource: fidelity bounds, seeded simulation, and protocol checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p, d_default=2):
        p.add_argument("--d", type=int, default=d_default, help="system dimension (default 2)")
        p.add_argument(
            "--lambdas",
            help="comma-separated Schmidt coefficients; auto-normalized and sorted "
            "descending (default: maximally entangled)",
        )
        p.add_argument(
            "--theta", type=float, help="d=2 shorthand: coefficients (cos theta, sin theta)"
        )

    def add_output_args(p, default_format="json"):
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--output", help="write the report to this path instead of stdout")

    def add_mc_args(p):
        p.add_argument("--n", type=int, default=100000, help="Monte-Carlo sample count")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="number of RNG substreams the samples are split over (recorded in output)",
        )

    p = sub.add_parser("bound", help="closed-form fidelity and estimation bounds")
    add_state_args(p)
    add_output_args(p)

    p = sub.add_parser("simulate", help="exact vs Monte-Carlo fidelity of the standard protocol")
    add_state_args(p)
    add_mc_args(p)
    add_output_args(p)

    p = sub.add_parser("estimate", help="state-estimation fidelity of the standard measurement")
    add_state_args(p)
    add_mc_args(p)
    add_output_args(p)

    p = sub.add_parser("sweep", help="d=2 entanglement scan: theta, bound, exact, estimation bound")
    p.add_argument("--d", type=int, default=2, help="must be 2")
    p.add_argument("--steps", type=int, default=50, help="number of grid intervals on [0, pi/2]")
    add_output_args(p, default_format="csv")

    p = sub.add_parser("verify-mkl", help="Monte-Carlo check of the moment-operator closed form")
    p.add_argument("--d", type=int, default=2)
    add_mc_args(p)
    p.add_argument(
        "--sigmas",
        type=float,
        default=4.0,
        help="acceptance band in standard errors, applied to each of the d^4 entries. A correct "
        "closed form still fails somewhere by chance: at large n with probability about "
        "0.02%% (d=2), 0.2%% (d=8) and 1%% (d=16) at 4, and 0.01%% at d=16 at 5; more often "
        "at small n (d=16, n=1000: 3.5%% at 4, 0.25%% at 5)",
    )
    add_output_args(p)

    p = sub.add_parser("check-protocol", help="completeness and optimality checks")
    p.add_argument("protocol", help="'standard' or a path to a protocol JSON file")
    add_state_args(p, d_default=None)  # None marks --d as not given; 'standard' then uses 2
    p.add_argument("--tol", type=float, default=CHECK_ATOL)
    add_output_args(p)

    p = sub.add_parser("search", help="random-measurement search against the fidelity bound")
    add_state_args(p)
    p.add_argument("--outcomes", type=int, default=None, help="POVM size (default d^2)")
    p.add_argument("--iters", type=int, default=200, help="number of random measurements")
    p.add_argument("--seed", type=int, default=0)
    add_output_args(p)

    return parser


_HANDLERS = {
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "verify-mkl": _cmd_verify_mkl,
    "check-protocol": _cmd_check_protocol,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        body, code = _HANDLERS[args.command](args)
        report = {"schema": REPORT_SCHEMA, "command": args.command, **body}
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                _emit_report(fh, report, args.format)
        else:
            _emit_report(sys.stdout, report, args.format)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
