"""The benchmark's workloads: exact_sweep, sampling and cli_session.

Each workload builds its fixed inputs from the seed in its constructor,
which is the set-up that ``setup_s`` times, and runs them round by round in
``run_round`` as a closed loop: one caller, one operation after the other.
The library only receives the inputs built here. Every public call goes
through ``Recorder.call`` so that a traced pass records a span around it,
and every operation checks its outputs.

A round is a fixed list of operations. Its inputs are drawn from the
seed and the round's index, so round ``r`` of a seed is the same on every
run and every commit; the rounds differ in their inputs but not in their
shape. A run repeats rounds until its time is up.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import teleportsim as ts
from proc import run_child

#: tolerance of the exact identities (bound, moment-operator form, estimation bound)
EXACT_TOL = 1e-10
#: the search may not beat the bound by more than this
SEARCH_TOL = 1e-9
#: Monte-Carlo estimates and shot blocks must lie this many standard errors from
#: exact. A run checks several hundred estimates, and comparing two commits
#: takes tens of runs: at 4 sigma (6e-5 per scalar check) some run would fail
#: by chance, at 5 sigma (6e-7 per check) about one run in ten thousand does.
SIGMAS = 5.0
#: absolute floor on the Monte-Carlo band, for estimates whose spread is rounding noise
BAND_FLOOR = 1e-12


def _check_band(rec, layer, check, value, std_error, exact) -> None:
    """Record a failure unless every entry of ``value`` is within SIGMAS of ``exact``."""
    value, exact = np.asarray(value), np.asarray(exact)
    dev = np.abs(value - exact)
    tol = SIGMAS * np.asarray(std_error) + BAND_FLOOR
    worst = np.unravel_index(int(np.argmax(dev - tol)), dev.shape) if dev.ndim else ()
    rec.check(bool(np.all(dev <= tol)), layer, check,
              exact[worst], value[worst], f"{SIGMAS:g} sigma = {tol[worst]:.3e}")


# --------------------------------------------------------------------------
# exact_sweep: many protocols, each built once and evaluated once


KINDS = ("max_entangled", "product", "rank_deficient", "random_full_rank")
#: every spectrum kind in every round
SMALL_DIMS = (2, 3, 4, 5, 6, 8)
#: one spectrum kind each, the same on every seed, because a d = 16 protocol
#: costs ~1.5 s; the random spectrum at d = 16 also times schmidt_decompose there
LARGE_KINDS = {12: "rank_deficient", 16: "random_full_rank"}


@dataclass(frozen=True)
class SweepCase:
    position: str
    round: int
    d: int
    lambdas: np.ndarray | None  # None: Schmidt-decompose ``coeffs`` in the operation
    coeffs: np.ndarray | None
    outcomes: int
    iterations: int
    search_seed: int


def _search_iterations(d: int) -> int:
    return 10 if d <= 4 else 3 if d <= 8 else 1


def _sweep_case(r: int, d: int, kind: str, gen: np.random.Generator) -> SweepCase:
    lam = coeffs = None
    if kind == "max_entangled":
        lam = np.full(d, 1.0 / np.sqrt(d))
    elif kind == "product":
        lam = np.zeros(d)
        lam[0] = 1.0
    elif kind == "rank_deficient":
        rank = (d + 1) // 2
        head = np.sort(np.abs(gen.standard_normal(rank)))[::-1]
        lam = np.zeros(d)
        lam[:rank] = head / np.linalg.norm(head)
    else:
        z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        coeffs = z / np.linalg.norm(z)
    # one search per round draws more than d^2 outcomes
    outcomes = d * d + d if (d, kind) == (4, "random_full_rank") else d * d
    return SweepCase(f"exact_sweep/d{d}/{kind}", r, d, lam, coeffs, outcomes,
                     _search_iterations(d), int(gen.integers(2**32)))


def _round_trip_exact(a: ts.Protocol, b: ts.Protocol) -> bool:
    """Every array equal value for value, as the package's own round-trip test requires.

    Equality counts -0.0 and 0.0 as equal: ``protocol_from_json`` rebuilds
    complex entries as ``re + 1j * im``, which drops the sign of a zero imaginary part.
    """
    pairs = [(a.schmidt.lambdas, b.schmidt.lambdas), (a.measurement.phi, b.measurement.phi)]
    pairs += list(zip(a.corrections.kraus, b.corrections.kraus))
    return a.corrections.n_outcomes == b.corrections.n_outcomes and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs
    )


class ExactSweep:
    """Build each protocol once and evaluate it once, with no Haar sampling."""

    def __init__(self, seed: int, rec, out_dir: Path):
        self.seed = seed
        self.kinds = [(d, kind) for d in SMALL_DIMS for kind in KINDS]
        self.kinds += LARGE_KINDS.items()

    def run_round(self, rec, r: int) -> None:
        gen = np.random.default_rng([self.seed, r])
        for case in [_sweep_case(r, d, kind, gen) for d, kind in self.kinds]:
            with rec.op(case.position, case.round):
                self._evaluate(rec, case)

    @staticmethod
    def _evaluate(rec, case: SweepCase) -> None:
        call, d = rec.call, case.d
        lam = case.lambdas
        if lam is None:
            state = call("qcore.BipartiteVector", ts.BipartiteVector, case.coeffs, d=d)
            lam = call("qcore.schmidt_decompose", ts.schmidt_decompose, state, d=d).lambdas
        proto = call("protocol.standard_protocol", ts.standard_protocol, lam, d=d)
        meas, schmidt = proto.measurement, proto.schmidt

        complete = call("protocol.validate_completeness", ts.validate_completeness, meas, d=d)
        rec.check(complete.passed, "protocol", "validate_completeness passes",
                  f"max error <= {complete.tol}", complete.max_error, complete.tol)
        call("protocol.optimal_bob_corrections", ts.optimal_bob_corrections, meas, schmidt, d=d)
        optimal = call("protocol.check_optimality", ts.check_optimality, meas, schmidt, d=d)
        rec.check(optimal.passed, "protocol", "check_optimality passes",
                  f"max error <= {optimal.tol}", optimal.max_error, optimal.tol)

        bound = call("fidelity.fidelity_bound", ts.fidelity_bound, lam, d=d)
        exact = call("fidelity.mean_fidelity_exact", ts.mean_fidelity_exact, proto, d=d)
        rec.check(abs(exact - bound) <= EXACT_TOL, "fidelity",
                  "mean_fidelity_exact == fidelity_bound", bound, exact, EXACT_TOL)
        mkl = call("fidelity.mean_fidelity_mkl_form", ts.mean_fidelity_mkl_form, proto, d=d)
        rec.check(abs(mkl - exact) <= EXACT_TOL, "fidelity",
                  "mean_fidelity_mkl_form == mean_fidelity_exact", exact, mkl, EXACT_TOL)
        given = call("fidelity.optimal_fidelity_given_measurement",
                     ts.optimal_fidelity_given_measurement, meas, lam, d=d)
        rec.check(abs(given - bound) <= EXACT_TOL, "fidelity",
                  "optimal_fidelity_given_measurement == fidelity_bound", bound, given, EXACT_TOL)

        strategy = call("estimation.optimal_estimates", ts.optimal_estimates, meas, d=d)
        est = call("estimation.estimation_fidelity_exact",
                   ts.estimation_fidelity_exact, meas, lam, strategy, d=d)
        est_bound = call("estimation.estimation_fidelity_bound", ts.estimation_fidelity_bound,
                         lam, d=d)
        rec.check(abs(est - est_bound) <= EXACT_TOL, "estimation",
                  "estimation_fidelity_exact == estimation_fidelity_bound", est_bound, est,
                  EXACT_TOL)

        text = call("protocol.protocol_to_json", ts.protocol_to_json, proto, d=d)
        back = call("protocol.protocol_from_json", ts.protocol_from_json, text, d=d)
        rec.check(_round_trip_exact(proto, back), "protocol", "JSON round trip is exact",
                  "identical arrays", "arrays differ", 0)

        rng = call("haar.make_rng", ts.make_rng, case.search_seed, d=d)
        povm = call("search.random_povm", ts.random_povm, d, d * d, rng, d=d)
        drawn = call("fidelity.optimal_fidelity_given_measurement",
                     ts.optimal_fidelity_given_measurement, povm, lam, d=d)
        rec.check(drawn <= bound + SEARCH_TOL, "search", "random measurement stays below bound",
                  f"<= {bound!r}", drawn, SEARCH_TOL)
        found = call("search.search_best_protocol", ts.search_best_protocol, lam, case.outcomes,
                     case.iterations, rng, d=d, work=case.iterations + 1)
        rec.check(found.gap >= -SEARCH_TOL, "search", "search gap >= -1e-9",
                  f">= {-SEARCH_TOL}", found.gap, SEARCH_TOL)


# --------------------------------------------------------------------------
# sampling: a few protocols built in set-up, then evaluated many times


SAMPLING_DIMS = (2, 4, 8, 16)
#: per d and call: (calls per round, samples or shots per call); the library
#: needs at least 1000 samples per Monte-Carlo call
SAMPLING_PLAN = {
    2: {"fidelity": (4, 12_500), "estimation": (4, 12_500), "moments": (3, 12_500),
        "shots": (4, 100)},
    4: {"fidelity": (4, 5_000), "estimation": (4, 5_000), "moments": (3, 5_000),
        "shots": (4, 100)},
    8: {"fidelity": (4, 1_000), "estimation": (4, 1_000), "moments": (3, 5_000),
        "shots": (4, 50)},
    16: {"fidelity": (1, 2_000), "estimation": (2, 1_000), "moments": (3, 5_000),
         "shots": (2, 50)},
}


@dataclass(frozen=True)
class SamplingModel:
    proto: ts.Protocol
    lambdas: np.ndarray
    strategy: ts.EstimationStrategy
    exact: float
    estimation_exact: float


class Sampling:
    """Monte-Carlo fidelity, estimation, moment operators and shot blocks.

    The d = 16 fidelity call draws 2000 samples; at ~130 KB of intermediates
    per sample it holds about 260 MB.
    """

    def __init__(self, seed: int, rec, out_dir: Path):
        call = rec.call
        gen = np.random.default_rng(seed)
        self.models = {}
        self.m_kl = {}
        self.shot_fidelities = {d: [] for d in SAMPLING_DIMS}
        for d in SAMPLING_DIMS:
            raw = np.abs(gen.standard_normal(d))
            lam = np.sort(raw)[::-1] / np.linalg.norm(raw)
            proto = call("protocol.standard_protocol", ts.standard_protocol, lam, d=d)
            strategy = call("estimation.optimal_estimates", ts.optimal_estimates,
                            proto.measurement, d=d)
            self.models[d] = SamplingModel(
                proto, lam, strategy,
                call("fidelity.mean_fidelity_exact", ts.mean_fidelity_exact, proto, d=d),
                call("estimation.estimation_fidelity_exact", ts.estimation_fidelity_exact,
                     proto.measurement, lam, strategy, d=d),
            )
            for k in range(d):
                l = (k + 1) % d
                self.m_kl[d, k] = call("haar.m_kl_exact", ts.m_kl_exact, d, k, l, d=d).matrix
        self.seed = seed

    def run_round(self, rec, r: int) -> None:
        # one independent substream of the seed per round
        self.rng = rec.call("haar.make_rng", ts.make_rng, self.seed, r + 1)
        for d in SAMPLING_DIMS:
            for kind, (count, size) in SAMPLING_PLAN[d].items():
                for i in range(count):
                    with rec.op(f"sampling/d{d}/{kind}/{i}", r):
                        getattr(self, f"_{kind}")(rec, d, size, (r + i) % d)

    def _fidelity(self, rec, d: int, n: int, _) -> None:
        m = self.models[d]
        est = rec.call("fidelity.mean_fidelity_monte_carlo", ts.mean_fidelity_monte_carlo,
                       m.proto, n, self.rng, d=d, work=n, memory=d == 16)
        _check_band(rec, "fidelity", "mean_fidelity_monte_carlo within band of exact",
                    est.value, est.std_error, m.exact)

    def _estimation(self, rec, d: int, n: int, _) -> None:
        m = self.models[d]
        est = rec.call("estimation.estimation_fidelity_mc", ts.estimation_fidelity_mc,
                       m.proto.measurement, m.lambdas, m.strategy, n, self.rng, d=d, work=n,
                       memory=d == 16)
        _check_band(rec, "estimation", "estimation_fidelity_mc within band of exact",
                    est.value, est.std_error, m.estimation_exact)

    def _moments(self, rec, d: int, n: int, k: int) -> None:
        # l = k + 1 != k keeps all but one entry of the estimate complex, so few
        # entries can stray from the band by chance
        l = (k + 1) % d
        est = rec.call("haar.m_kl_monte_carlo", ts.m_kl_monte_carlo, d, k, l, n, self.rng,
                       d=d, work=n)
        _check_band(rec, "haar", f"m_kl_monte_carlo({k},{l}) within band of m_kl_exact",
                    est.value, est.std_error, self.m_kl[d, k])

    def _shots(self, rec, d: int, shots: int, _) -> None:
        call, m = rec.call, self.models[d]
        psis = call("haar.sample_haar_states", ts.sample_haar_states, d, shots, self.rng,
                    d=d, work=shots)
        f = np.empty(shots)
        for i, amplitudes in enumerate(psis):
            psi = call("qcore.PureState", ts.PureState, amplitudes, d=d)
            shot = call("protocol.teleport_once", ts.teleport_once, m.proto, psi, self.rng,
                        d=d, work=1)
            f[i] = call("qcore.PureState.fidelity", shot.output_state.fidelity, psi, d=d)
        # The standard error comes from every shot at this d so far, not from
        # the block alone: per-shot fidelity is skewed, and a block's own
        # spread under-estimates it often enough that |t| > 4 in about one
        # block in a thousand. Pooled, the block mean is close to normal.
        pooled = self.shot_fidelities[d]
        pooled.extend(f)
        _check_band(rec, "protocol", "teleport_once block mean within band of exact",
                    f.mean(), np.std(pooled, ddof=1) / np.sqrt(shots), m.exact)


# --------------------------------------------------------------------------
# cli_session: a fixed script of teleportsim subprocesses


CLI_TIMEOUT_S = 120
#: malformed-input operations that fail on the current program; each must exit 2
#: without a traceback, and the benchmark reports them by name until it does
KNOWN_DEFECTS = ("reject-lambdas-nan", "reject-lambdas-inf", "reject-list-file",
                 "reject-negative-tol")


@dataclass(frozen=True)
class Invocation:
    name: str  # operation name, unique within a round
    args: tuple[str, ...]
    expect_exit: int = 0
    tag: str | None = None
    repeat_of: str | None = None  # stdout must equal that invocation's, byte for byte

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def span(self) -> str:
        return "cli.reject" if self.expect_exit == 2 else f"cli.{self.subcommand}"

    @property
    def format(self) -> str:
        if "--format" in self.args:
            return self.args[self.args.index("--format") + 1]
        return "csv" if self.subcommand == "sweep" else "json"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class CliSession:
    """Every subcommand of the ``teleportsim`` CLI, each as its own subprocess."""

    def __init__(self, seed: int, rec, out_dir: Path):
        gen = np.random.default_rng(seed)
        self.seed = seed
        self.out_dir = out_dir
        raw = np.abs(gen.standard_normal(8))
        lam = np.sort(raw)[::-1] / np.linalg.norm(raw)
        proto = rec.call("protocol.standard_protocol", ts.standard_protocol, lam, d=8)
        text = rec.call("protocol.protocol_to_json", ts.protocol_to_json, proto, d=8)
        self.protocol_file = out_dir / "protocol-d8.json"
        self.list_file = out_dir / "protocol-list.json"
        self.protocol_file.write_text(text, encoding="utf-8")
        self.list_file.write_text(f"[{text}]", encoding="utf-8")
        self.peak_child_rss_mb = 0.0

    def _script(self, gen: np.random.Generator) -> list[Invocation]:
        def lambdas(d):  # unsorted and unnormalized: the CLI normalizes and sorts
            return ",".join(repr(float(x)) for x in np.abs(gen.standard_normal(d)) + 0.05)

        def seed():
            return str(int(gen.integers(2**31)))

        def state(d):
            return ("--d", str(d), "--lambdas", lambdas(d))

        inv = Invocation
        s8 = seed()
        script = [inv(f"bound-d{d}", ("bound", *state(d))) for d in SAMPLING_DIMS]
        script.append(inv("bound-d4-csv", ("bound", *state(4), "--format", "csv")))
        simulate = {d: inv(f"simulate-d{d}", ("simulate", *state(d), "--n", str(n),
                                              "--seed", seed()))
                    for d, n in ((2, 20000), (4, 10000), (16, 1000))}
        script += simulate.values()
        state8 = state(8)
        for threads in (1, 2):
            script.append(inv(f"simulate-d8-threads{threads}",
                              ("simulate", *state8, "--n", "4000", "--seed", s8,
                               "--threads", str(threads)), tag=f"threads{threads}"))
        script.append(inv("simulate-d4-repeat", simulate[4].args, repeat_of=simulate[4].name))
        for d, n, extra in ((2, 20000, ()), (4, 10000, ("--format", "csv")), (8, 8000, ()),
                            (16, 1000, ("--threads", "1"))):
            script.append(inv(f"estimate-d{d}", ("estimate", *state(d), "--n", str(n),
                                                 "--seed", seed(), *extra)))
        script.append(inv("sweep-json", ("sweep", "--steps", "50", "--format", "json")))
        script.append(inv("sweep-csv", ("sweep", "--steps", "50")))
        # verify-mkl compares d^4 entries against one sigma band; at the default
        # 4 sigma that family fails by chance on ~8% of seeds at d = 16
        for d, n, extra in ((2, 2000, ()), (4, 2000, ("--threads", "2")), (8, 1000, ()),
                            (16, 1000, ())):
            script.append(inv(f"verify-mkl-d{d}", ("verify-mkl", "--d", str(d), "--n", str(n),
                                                   "--seed", seed(), "--sigmas", "5", *extra)))
        for d in SAMPLING_DIMS:
            script.append(inv(f"check-protocol-standard-d{d}",
                              ("check-protocol", "standard", *state(d))))
        script.append(inv("check-protocol-file-d8", ("check-protocol", str(self.protocol_file))))
        for d, iters, extra in ((2, 50, ()), (4, 20, ("--outcomes", "20")), (8, 5, ()),
                                (16, 2, ())):
            script.append(inv(f"search-d{d}", ("search", *state(d), "--iters", str(iters),
                                               "--seed", seed(), *extra)))
        script += [
            inv("reject-lambdas-nan", ("bound", "--d", "2", "--lambdas", "nan,1"), 2),
            inv("reject-lambdas-inf", ("bound", "--d", "2", "--lambdas", "inf,1"), 2),
            inv("reject-list-file", ("check-protocol", str(self.list_file)), 2),
            inv("reject-negative-tol", ("check-protocol", "standard", "--d", "2", "--tol", "-1"),
                2),
        ]
        return script

    def run_round(self, rec, r: int) -> None:
        stdout_of: dict[str, bytes] = {}
        for inv in self._script(np.random.default_rng([self.seed, r])):
            with rec.op(f"cli_session/{inv.name}", r):
                code, out, err, rss = rec.call(inv.span, self._spawn, inv.args, tag=inv.tag)
                self.peak_child_rss_mb = max(self.peak_child_rss_mb, rss)
                stdout_of[inv.name] = out
                self._check(rec, inv, code, out, err, stdout_of)

    def _spawn(self, args):
        argv = [sys.executable, "-m", "teleportsim.cli", *args]
        return run_child(argv, self.out_dir, CLI_TIMEOUT_S, env=os.environ)

    @staticmethod
    def _check(rec, inv: Invocation, code: int, out: bytes, err: bytes, stdout_of) -> None:
        traceback = b"Traceback (most recent call last)" in err
        observed = f"exit {code}" + (", traceback" if traceback else "")
        if inv.expect_exit == 2:
            rec.check(code == 2 and not traceback, "cli",
                      "malformed input exits 2 without a traceback", "exit 2",
                      f"{observed}, stdout {out[:40]!r}", "-")
            return
        if not rec.check(code == inv.expect_exit and not traceback, "cli", "exit code",
                         f"exit {inv.expect_exit}", f"{observed}, stderr {err[-200:]!r}", "-"):
            return
        text = out.decode("utf-8", errors="replace")
        if inv.format == "json":
            try:
                report = json.loads(text, parse_constant=_reject_constant)
                ok = report.get("command") == inv.subcommand
                seen = f"command {report.get('command')!r}"
            except ValueError as exc:
                ok, seen = False, str(exc)
            rec.check(ok, "cli", "report parses as JSON", f"command {inv.subcommand!r}",
                      seen, "-")
        else:
            rows = [row for row in csv.reader(io.StringIO(text)) if row and
                    not row[0].startswith("#")]
            widths = {len(row) for row in rows}
            rec.check(len(rows) >= 2 and len(widths) == 1, "cli", "report parses as CSV",
                      "header and rows of one width", f"{len(rows)} rows, widths {widths}", "-")
        if inv.repeat_of is not None:
            rec.check(out == stdout_of[inv.repeat_of], "cli",
                      f"stdout repeats {inv.repeat_of} byte for byte", "identical bytes",
                      "bytes differ", 0)


WORKLOADS = {"exact_sweep": ExactSweep, "sampling": Sampling, "cli_session": CliSession}
