import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teleportsim
from teleportsim import (
    AliceMeasurement,
    BobCorrections,
    Protocol,
    SchmidtDecomposition,
    cli,
    m_kl_monte_carlo,
    make_rng,
    optimal_bob_corrections,
    protocol_from_json,
    protocol_to_json,
    random_povm,
    sample_haar_states,
    standard_measurement,
    standard_protocol,
)
from teleportsim import estimation, haar
from teleportsim.cli import main
from helpers import from_base64, loop_check_optimality, per_pair_verify_mkl, to_base64


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rel_err(got, want):
    return abs(got - want) / abs(want)


#: the d = 2 standard protocol for lambdas (1, 0) as a schema-1 file, with [re, im] pairs
SCHEMA_1_D2 = """{"schema": 1, "d": 2, "lambdas": [1.0, 0.0], "phi": [
 [[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7071067811865475, 0.0]]],
 [[[0.7071067811865475, 0.0], [0.0, 0.0]],
  [[0.0, 0.0], [-0.7071067811865475, 8.659560562354932e-17]]],
 [[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.7071067811865475, 0.0], [0.0, 0.0]]],
 [[[0.0, 0.0], [0.7071067811865475, 0.0]],
  [[-0.7071067811865475, 8.659560562354932e-17], [0.0, 0.0]]]
], "corrections": [
 [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
 [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 1.2246467991473532e-16]]]],
 [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
 [[[[0.0, 0.0], [-1.0, 1.2246467991473532e-16]], [[1.0, 0.0], [0.0, 0.0]]]]
]}"""

#: the same protocol as a schema-2 file, each array one flat list of interleaved re/im numbers
SCHEMA_2_D2 = """{"schema": 2, "d": 2, "lambdas": [1.0, 0.0], "kraus_counts": [1, 1, 1, 1],
"phi": [
 0.7071067811865475, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7071067811865475, 0.0,
 0.7071067811865475, 0.0, 0.0, 0.0, 0.0, 0.0, -0.7071067811865475, 8.659560562354932e-17,
 0.0, 0.0, 0.7071067811865475, 0.0, 0.7071067811865475, 0.0, 0.0, 0.0,
 0.0, 0.0, 0.7071067811865475, 0.0, -0.7071067811865475, 8.659560562354932e-17, 0.0, 0.0
], "corrections": [
 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.2246467991473532e-16,
 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0,
 0.0, 0.0, -1.0, 1.2246467991473532e-16, 1.0, 0.0, 0.0, 0.0
]}"""


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestBound:
    def test_maximally_entangled_theta(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "2", "--theta", "0.7853981634")
        assert code == 0
        res = report["results"]
        assert res["fidelity_bound"] == pytest.approx(1.0, abs=1e-9)
        assert res["estimation_bound"] == pytest.approx(0.5, abs=1e-9)
        assert res["max_singlet_fraction"] == pytest.approx(1.0, abs=1e-9)

    def test_product_state_d3(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "3", "--lambdas", "1,0,0")
        assert code == 0
        res = report["results"]
        assert res["fidelity_bound"] == pytest.approx(0.5)
        assert res["estimation_bound"] == pytest.approx(0.5)
        assert res["max_singlet_fraction"] == pytest.approx(1 / 3)

    def test_point_eight_point_six(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "2", "--lambdas", "0.8,0.6")
        assert code == 0
        res = report["results"]
        assert res["fidelity_bound"] == pytest.approx(2.96 / 3, abs=1e-12)
        assert res["estimation_bound"] == pytest.approx(1.64 / 3, abs=1e-12)
        assert res["max_singlet_fraction"] == pytest.approx(0.98, abs=1e-12)

    def test_auto_normalization_flagged(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "2", "--lambdas", "8,6")
        assert code == 0
        assert report["config"]["renormalized"] is True
        assert report["results"]["max_singlet_fraction"] == pytest.approx(0.98, abs=1e-12)

    def test_auto_sorting_flagged(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "2", "--lambdas", "0.6,0.8")
        assert code == 0
        assert report["config"]["reordered"] is True
        assert report["config"]["lambdas"][0] == pytest.approx(0.8)

    def test_schema_and_config_echo(self, capsys):
        code, report = run_json(capsys, "bound", "--d", "2")
        assert report["schema"] == 1
        assert report["command"] == "bound"
        assert report["config"]["d"] == 2


class TestBoundErrors:
    def test_negative_lambda(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--d", "2", "--lambdas", "0.8,-0.6")
        assert code == 2
        assert "nonnegative" in err

    def test_negative_lambda_next_to_nan(self, capsys):
        # normalized, the NaN would turn both coefficients NaN and pass the library's check
        code, out, err = run_cli(capsys, "bound", "--d", "2", "--lambdas=nan,-1")
        assert code == 2
        assert out == ""
        assert err == "error: Schmidt coefficients must be nonnegative\n"

    def test_wrong_count(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--d", "3", "--lambdas", "1,0")
        assert code == 2
        assert "expected 3" in err

    def test_unparseable(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--d", "2", "--lambdas", "a,b")
        assert code == 2
        assert "comma-separated" in err

    def test_theta_outside_range(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--d", "2", "--theta", "2.0")
        assert code == 2
        assert "pi/2" in err

    def test_theta_wrong_dimension(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--d", "3", "--theta", "0.5")
        assert code == 2
        assert "d=2" in err

    def test_entries_beyond_the_norm_range_print_the_bytes_of_their_ratio(self, capsys):
        # the plain norm of (1e308, 1e308) overflows; rescaled, it is the norm of (1, 1)
        huge = run_cli(capsys, "bound", "--d", "2", "--lambdas", "1e308,1e308")
        assert huge == run_cli(capsys, "bound", "--d", "2", "--lambdas", "1,1")
        assert huge[0] == 0

    def test_subnormal_entries_are_renormalized(self, capsys):
        # the plain norm of (1e-320, 0) underflows to 0
        code, report = run_json(capsys, "bound", "--d", "2", "--lambdas", "1e-320,0")
        _, ref = run_json(capsys, "bound", "--d", "2", "--lambdas", "1,0")
        assert code == 0
        assert report["config"]["lambdas"] == ref["config"]["lambdas"] == [1.0, 0.0]
        assert report["config"]["renormalized"] is True
        assert report["results"] == ref["results"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bound", "--d", "-3"), "dimension must be at least 2, got -3"),
            (("bound", "--d", "0"), "dimension must be at least 2, got 0"),
            (("verify-mkl", "--d", "1"), "dimension must be at least 2, got 1"),
            (("verify-mkl", "--d", "0"), "dimension must be at least 2, got 0"),
            (("verify-mkl", "--d", "-2"), "dimension must be at least 2, got -2"),
            (("simulate", "--seed", "-1", "--n", "2000"), "seed must be a non-negative integer, got -1"),
            (("search", "--seed", "-1", "--iters", "5"), "seed must be a non-negative integer, got -1"),
        ],
        ids=["d-3", "d0", "verify-mkl-d1", "verify-mkl-d0", "verify-mkl-d-2",
             "simulate-seed-1", "search-seed-1"],
    )
    def test_bad_dimension_or_seed_is_named(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


class TestSimulate:
    def test_matches_closed_form(self, capsys):
        code, report = run_json(
            capsys, "simulate", "--d", "2", "--theta", "0.3", "--n", "100000", "--seed", "7"
        )
        assert code == 0
        res = report["results"]
        assert res["exact"] == pytest.approx((2 + np.sin(0.6)) / 3, abs=1e-12)
        assert abs(res["mc_estimate"] - res["exact"]) <= 4 * res["mc_std_error"]

    def test_uniform_d4(self, capsys):
        code, report = run_json(
            capsys, "simulate", "--d", "4", "--lambdas", "0.5,0.5,0.5,0.5", "--n", "1000"
        )
        assert code == 0
        res = report["results"]
        assert res["exact"] == pytest.approx(1.0, abs=1e-12)
        assert res["mc_estimate"] == pytest.approx(1.0, abs=1e-12)
        assert res["mc_std_error"] < 1e-10

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--d", "2", "--theta", "0.4", "--n", "2000", "--seed", "11"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_threads_split_is_reproducible(self, capsys):
        argv = [
            "simulate", "--d", "2", "--theta", "0.4", "--n", "4000",
            "--seed", "11", "--threads", "2",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["config"]["threads"] == 2


class TestBlasThreads:
    def test_simulate_prints_the_same_bytes_for_one_and_two_threads(self):
        # d = 16 reductions are long enough for a threaded BLAS to split them
        argv = ["simulate", "--d", "16", "--n", "20000", "--seed", "5",
                "--lambdas", "3,2,2,1,1,1,1,1,1,1,1,1,1,1,1,0.5"]
        src = str(Path(teleportsim.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "teleportsim.cli", *argv], env=env,
                                  capture_output=True, check=True, timeout=300)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_verify_mkl_gives_the_same_verdicts_for_one_and_two_threads(self):
        # the moment sums are GEMMs over the sample axis; their last bits, and so
        # the printed numbers, may move with the thread count, but no verdict may
        argv = ["verify-mkl", "--d", "12", "--n", "5000", "--seed", "4"]
        src = str(Path(teleportsim.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "teleportsim.cli", *argv], env=env,
                                  capture_output=True, timeout=300)
            results = json.loads(proc.stdout)["results"]
            runs.append((proc.returncode, results["pass"],
                         [(p["k"], p["l"], p["pass"]) for p in results["pairs"]]))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == 144


class TestEstimate:
    def test_report_fields(self, capsys):
        code, report = run_json(
            capsys, "estimate", "--d", "2", "--lambdas", "0.8,0.6", "--n", "20000"
        )
        assert code == 0
        res = report["results"]
        assert res["estimation_bound"] == pytest.approx(1.64 / 3, abs=1e-12)
        assert res["exact"] == pytest.approx(1.64 / 3, abs=1e-12)
        assert abs(res["mc_estimate"] - res["exact"]) <= 4 * res["mc_std_error"]

    def test_streams_share_one_form(self, capsys, monkeypatch):
        # every substream scores the one strategy on the one (measurement, lambdas)
        builds = []
        build = estimation._estimation_form
        monkeypatch.setattr(estimation, "_estimation_form",
                            lambda *args: builds.append(args) or build(*args))
        code, report = run_json(capsys, "estimate", "--d", "4", "--n", "3000", "--threads", "3",
                                "--seed", "6")
        assert code == 0 and report["results"]["n"] == 3000
        assert len(builds) == 1


class TestSweep:
    def test_golden_header_and_shape(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--steps", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# schema=1 command=sweep")
        assert lines[1] == "theta,bound,exact,estimation_bound"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 51
        assert all(len(row) == 4 for row in rows)

    def test_shape_of_bound_curve(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "50")
        lines = out.strip().split("\n")[2:]
        thetas = np.array([float(line.split(",")[0]) for line in lines])
        bounds = np.array([float(line.split(",")[1]) for line in lines])
        mid = len(bounds) // 2
        assert np.all(np.diff(bounds[: mid + 1]) >= -1e-12)  # rises to pi/4
        assert np.all(np.diff(bounds[mid:]) <= 1e-12)  # falls after pi/4
        assert bounds[mid] == pytest.approx(1.0, abs=1e-12)
        assert thetas[mid] == pytest.approx(np.pi / 4)
        assert bounds[0] == pytest.approx(2 / 3, abs=1e-12)
        assert bounds[-1] == pytest.approx(2 / 3, abs=1e-12)

    def test_every_row_matches_bound_and_simulate_at_its_theta_bit_for_bit(self, capsys):
        # each row's coefficients come from the --theta path; row 26 once differed in the last bit
        _, sweep = run_json(capsys, "sweep", "--steps", "50", "--format", "json")
        assert len(sweep["rows"]) == 51
        for row in sweep["rows"]:
            theta = ("--d", "2", "--theta", repr(row["theta"]))
            _, bound = run_json(capsys, "bound", *theta)
            _, simulate = run_json(capsys, "simulate", *theta, "--n", "1000")
            assert row["bound"] == bound["results"]["fidelity_bound"]
            assert row["estimation_bound"] == bound["results"]["estimation_bound"]
            assert row["exact"] == simulate["results"]["exact"]

    def test_rejects_other_dimensions(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--d", "3")
        assert code == 2


class TestVerifyMkl:
    def test_passes_at_default_band(self, capsys):
        code, report = run_json(
            capsys, "verify-mkl", "--d", "2", "--n", "100000", "--seed", "1"
        )
        assert code == 0
        assert report["results"]["pass"] is True
        assert len(report["results"]["pairs"]) == 4

    def test_fails_with_absurd_band(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-mkl", "--d", "2", "--n", "20000", "--seed", "1",
            "--sigmas", "0.0001",
        )
        assert code == 1

    def test_planted_error_flags_exactly_its_pair(self, capsys, monkeypatch):
        # M(0, 2)[1, 1] off by 10 sigma: a transposed layout would flag (1, 1)
        # or (2, 0) instead of (0, 2)
        d, k, l, i, j = 3, 0, 2, 1, 1
        argv = ("verify-mkl", "--d", str(d), "--n", "20000", "--seed", "5")
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["results"]["pass"] is True
        sigma = m_kl_monte_carlo(d, k, l, 20000, make_rng(5, stream=0)).std_error[i, j]
        exact = cli._moment_matrix

        def planted(d_):
            mat = exact(d_).copy()
            mat[k * d_ + i, l * d_ + j] += 10 * sigma
            return mat

        monkeypatch.setattr(cli, "_moment_matrix", planted)
        code, report = run_json(capsys, *argv)
        assert code == 1
        failed = [p for p in report["results"]["pairs"] if not p["pass"]]
        assert [(p["k"], p["l"]) for p in failed] == [(k, l)]
        assert 9 < failed[0]["max_sigma_ratio"] == report["results"]["max_sigma_ratio"] < 11
        assert failed[0]["max_abs_error"] > 9 * sigma

    @pytest.mark.parametrize("sigmas", [2.0, 4.0])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_pair_reference(self, capsys, d, threads, sigmas):
        # n = 3001 splits unevenly over 2 and 3 streams; a 2-sigma band fails
        # some pairs, so the pass flags and the exit code are both exercised
        n, seed = 3001, 40 + d
        code, report = run_json(
            capsys, "verify-mkl", "--d", str(d), "--n", str(n), "--seed", str(seed),
            "--threads", str(threads), "--sigmas", str(sigmas),
        )
        ref, ref_code = per_pair_verify_mkl(d, n, seed, threads, sigmas)
        res = report["results"]
        assert code == ref_code
        assert list(res) == list(ref)
        assert res["pass"] is ref["pass"]
        assert rel_err(res["max_sigma_ratio"], ref["max_sigma_ratio"]) <= 1e-12
        assert len(res["pairs"]) == d * d
        for got, want in zip(res["pairs"], ref["pairs"]):
            assert list(got) == list(want)
            assert (got["k"], got["l"], got["pass"]) == (want["k"], want["l"], want["pass"])
            for key in ("max_abs_error", "max_sigma_ratio"):
                assert rel_err(got[key], want[key]) <= 1e-12

    def test_each_stream_is_left_where_the_states_leave_it(self, capsys, monkeypatch):
        # each substream's share is drawn once, and read as sample_haar_states reads it
        d, n, seed = 3, 3001, 44
        seen = []

        def recording_draw(d_, n_, rng):
            draw = haar._haar_draw(d_, n_, rng)
            seen.append((n_, rng.bit_generator.state))
            return draw

        monkeypatch.setattr(cli, "_haar_draw", recording_draw)
        code, _ = run_json(capsys, "verify-mkl", "--d", str(d), "--n", str(n), "--seed", str(seed),
                           "--threads", "2")
        assert code == 0
        want = []
        for stream, count in enumerate((1501, 1500)):
            rng = make_rng(seed, stream=stream)
            sample_haar_states(d, count, rng)
            want.append((count, rng.bit_generator.state))
        assert seen == want


class TestCheckProtocol:
    def test_standard_passes(self, capsys):
        code, report = run_json(capsys, "check-protocol", "standard", "--d", "3")
        assert code == 0
        res = report["results"]
        assert res["completeness"]["pass"] is True
        assert res["optimality"]["pass"] is True
        assert res["corrections"]["pass"] is True
        assert list(res) == ["completeness", "optimality", "corrections", "estimation_bound"]

    def test_protocol_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "proto.json"
        path.write_text(protocol_to_json(standard_protocol([0.8, 0.6])))
        code, report = run_json(capsys, "check-protocol", str(path), "--d", "2")
        assert code == 0
        assert report["results"]["completeness"]["pass"] is True

    @pytest.mark.parametrize("lambdas", ["3,2,2,1,1,1,1,0.5", "3,2,1,1,0,0,0,0"])
    def test_standard_and_its_file_report_the_same_corrections(self, capsys, tmp_path, lambdas):
        # 'standard' reads the stack its protocol built, a file the stack its reader built
        code, report = run_json(capsys, "check-protocol", "standard", "--d", "8",
                                "--lambdas", lambdas)
        lam = np.array(report["config"]["lambdas"])
        path = tmp_path / "proto8.json"
        path.write_text(protocol_to_json(standard_protocol(lam)))
        file_code, from_file = run_json(capsys, "check-protocol", str(path))
        assert code == file_code == 0
        assert report["results"] == from_file["results"]

    def test_ragged_file_reports_the_error_of_its_stack(self, capsys, tmp_path):
        gen = make_rng(95)
        meas = random_povm(3, 11, gen)
        schmidt = SchmidtDecomposition([0.8, 0.48, 0.36])
        blocks = optimal_bob_corrections(meas, schmidt).kraus
        # every third outcome gets two operators B/sqrt(2), one of them slightly off
        kraus = tuple(np.concatenate([b, b * (1 + 2e-11)]) / np.sqrt(2) if r % 3 == 0 else b
                      for r, b in enumerate(blocks))
        text = protocol_to_json(Protocol(schmidt, meas, BobCorrections(kraus)))
        path = tmp_path / "ragged.json"
        path.write_text(text)
        code, report = run_json(capsys, "check-protocol", str(path))
        error = protocol_from_json(text).corrections.kraus_error
        assert code == 1  # a random POVM fails the optimality conditions
        res = report["results"]["corrections"]
        assert res["max_error"] == error.max() > 0
        assert res["worst_outcome"] == np.argmax(error)
        assert res["worst_outcome"] % 3 == 0  # only the split outcomes are off

    def test_no_corrections_exits_two(self, capsys, tmp_path):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        data["corrections"] = ""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        message = "corrections must hold a positive multiple of 16 d^2 = 64 bytes"
        with pytest.raises(ValueError) as info:
            protocol_from_json(path.read_text())
        assert str(info.value) == message
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_protocol_file_reports_its_dimension(self, capsys, tmp_path):
        path = tmp_path / "proto4.json"
        path.write_text(protocol_to_json(standard_protocol([0.7, 0.5, 0.5, 0.1])))
        code, report = run_json(capsys, "check-protocol", str(path))
        assert code == 0
        assert report["config"]["d"] == 4
        assert len(report["config"]["lambdas"]) == 4

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--d", "3"], "--d"),
            (["--lambdas", "1,0,0,0"], "--lambdas"),
            (["--theta", "0.3"], "--theta"),
        ],
    )
    def test_protocol_file_rejects_state_flag(self, capsys, tmp_path, flags, named):
        path = tmp_path / "proto4.json"
        path.write_text(protocol_to_json(standard_protocol([0.7, 0.5, 0.5, 0.1])))
        code, out, err = run_cli(capsys, "check-protocol", str(path), *flags)
        assert code == 2
        assert out == ""
        assert named in err

    def test_broken_completeness_exits_one(self, capsys, tmp_path):
        proto = standard_protocol([0.8, 0.6])
        data = json.loads(protocol_to_json(proto))
        phi = from_base64(data["phi"], 2)
        phi[0, 0, 0] *= 1.5  # scale one real component
        data["phi"] = to_base64(phi)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["results"]["completeness"]["pass"] is False

    def test_broken_correction_exits_one(self, capsys, tmp_path):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        corrections = from_base64(data["corrections"], 2)
        corrections[2] = 0.5 * np.eye(2)  # operator 2 is I/2
        data["corrections"] = to_base64(corrections)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 1
        res = json.loads(out)["results"]
        assert res["corrections"]["pass"] is False
        assert res["corrections"]["max_error"] == 0.75  # |0.25 I - I|
        assert res["corrections"]["worst_outcome"] == 2
        assert list(res["corrections"]) == ["pass", "max_error", "worst_outcome"]
        assert res["completeness"]["pass"] is True

    def test_missing_phi_exits_two(self, capsys, tmp_path):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        del data["phi"]
        path = tmp_path / "no_phi.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 2
        assert out == ""
        assert "phi" in err

    def test_non_finite_correction_exits_two(self, capsys, tmp_path):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        corrections = from_base64(data["corrections"], 2)
        corrections[0, 0, 0] = float("nan")
        data["corrections"] = to_base64(corrections)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 2
        assert "finite" in err

    def test_nan_lambda_exits_two(self, capsys, tmp_path):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        data["lambdas"] = [float("nan"), 0.6]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert (code, out, err) == (2, "", "error: lambdas: numbers must be finite\n")

    @pytest.mark.parametrize("tol", ["1e-10", "1e-3", "-1", "nan"])
    @pytest.mark.parametrize("kind", ["random-povm", "duplicated-block"])
    def test_violations_match_loop_reference(self, capsys, tmp_path, kind, tol):
        schmidt = SchmidtDecomposition([0.8, 0.48, 0.36])
        if kind == "random-povm":
            meas = random_povm(3, 9, make_rng(97))
            data = json.loads(protocol_to_json(
                Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))))
        else:  # outcome 1's block 2 copies its block 0, which breaks completeness as well
            data = json.loads(protocol_to_json(standard_protocol(schmidt.lambdas)))
            phi = np.array(standard_measurement(3).phi)
            phi[1, 2] = phi[1, 0]
            meas = AliceMeasurement(phi)
            data["phi"] = to_base64(phi)
        path = tmp_path / "proto.json"
        path.write_text(json.dumps(data))
        code, report = run_json(capsys, "check-protocol", str(path), "--tol", tol)
        ref, _ = loop_check_optimality(meas, schmidt, float(tol))
        optimality = report["results"]["optimality"]
        assert code == 1  # every case fails a check: optimality, completeness or a NaN tolerance
        assert optimality["n_violations"] == len(ref)
        assert len(optimality["violations"]) == min(len(ref), 10)
        for got, (r, k, l, err, kind_) in zip(optimality["violations"], ref):
            assert (got["outcome"], got["k"], got["l"], got["kind"]) == (r, k, l, kind_)
            assert abs(got["error"] - err) <= 1e-15

    @pytest.mark.parametrize(
        "field,value",
        [("corrections", 5), ("phi", [0.5] * 7), ("phi", "AAAA===="), ("kraus_counts", [1.0] * 4),
         ("d", None), ("d", [8]), ("d", 2.7), ("d", 0)],
    )
    def test_malformed_field_exits_two_and_names_it(self, capsys, tmp_path, field, value):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must ")

    @pytest.mark.parametrize(
        "lambdas",
        [[True, False], ["0.8", "0.6"], [[0.8, 0.6]], [None, 0.6]],
        ids=["booleans", "strings", "nested", "null"],
    )
    def test_lambdas_other_than_a_flat_list_of_numbers_exit_two(self, capsys, tmp_path, lambdas):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        data["lambdas"] = lambdas
        path = tmp_path / "lambdas.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert (code, out, err) == (2, "", "error: lambdas must be a list of numbers\n")

    @pytest.mark.parametrize("field", ["phi", "corrections"])
    @pytest.mark.parametrize(
        "bad,message",
        [(True, "must be a base64 string"),
         (None, "must be a base64 string"),
         ([0.5], "must be a base64 string"),
         (10**400, "must be a base64 string"),
         ("0.7", "must be padded standard base64 with nothing else"),
         ("-_-_", "must be padded standard base64 with nothing else"),
         ("AAAA====", "must be padded standard base64 with nothing else")],
        ids=["boolean", "null", "list", "huge", "number-text", "url-safe", "excess-padding"],
    )
    def test_array_that_is_no_base64_exits_two(self, capsys, tmp_path, field, bad, message):
        data = json.loads(protocol_to_json(standard_protocol([0.8, 0.6])))
        data[field] = bad
        path = tmp_path / "array.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert (code, out, err) == (2, "", f"error: {field} {message}\n")

    @pytest.mark.parametrize(
        "text,schema,named",
        [(SCHEMA_2_D2, None, "protocol is missing field 'schema'"),
         (SCHEMA_1_D2, 1, "unsupported protocol schema 1; expected 3"),
         (SCHEMA_2_D2, 2, "unsupported protocol schema 2; expected 3"),
         (SCHEMA_2_D2, "3", "unsupported protocol schema '3'; expected 3"),
         (SCHEMA_2_D2, True, "unsupported protocol schema True; expected 3")],
        ids=["missing", "1", "2", "string", "true"],
    )
    def test_schema_other_than_3_exits_two_and_names_it(
        self, capsys, tmp_path, text, schema, named
    ):
        data = json.loads(text)
        if schema is None:
            del data["schema"]
        else:
            data["schema"] = schema
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert (code, out, err) == (2, "", f"error: {named}\n")

    def test_missing_file_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "check-protocol", "/nonexistent/proto.json")
        assert code == 2

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "check-protocol", str(path))
        assert code == 2

    def test_deeply_nested_json_exits_two_without_a_traceback(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"schema": ' + "[" * 10**5 + "]" * 10**5 + "}")
        # a fresh interpreter, so that stderr holds all the run prints, a traceback included
        src = str(Path(teleportsim.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "teleportsim.cli", "check-protocol", str(path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: protocol JSON nests too deeply to be read\n"
        )


class TestSearch:
    def test_gap_nonnegative(self, capsys):
        code, report = run_json(
            capsys, "search", "--d", "2", "--lambdas", "0.9,0.43588989",
            "--iters", "50", "--seed", "3",
        )
        assert code == 0
        assert report["results"]["gap"] >= -1e-12
        assert report["results"]["pass"] is True

    def test_outcomes_recorded(self, capsys):
        code, report = run_json(
            capsys, "search", "--d", "2", "--iters", "5", "--seed", "1", "--outcomes", "8"
        )
        assert code == 0
        assert report["config"]["outcomes"] == 8

    def test_default_outcomes_are_d_squared_and_recorded(self, capsys):
        argv = ("search", "--d", "3", "--iters", "5", "--seed", "1")
        _, default = run_json(capsys, *argv)
        _, nine = run_json(capsys, *argv, "--outcomes", "9")
        assert default["config"]["outcomes"] == 9
        assert default == nine


class TestRangeChecks:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("sweep", "--steps", "-1"), "--steps"),
            (("simulate", "--threads", "0", "--n", "2000"), "--threads"),
            (("simulate", "--threads", "-4", "--n", "2000"), "--threads"),
            (("verify-mkl", "--sigmas", "-1", "--n", "1000"), "--sigmas"),
            (("verify-mkl", "--sigmas", "nan", "--n", "1000"), "--sigmas"),
        ],
        ids=["sweep-steps-1", "threads0", "threads-4", "sigmas-1", "sigmas-nan"],
    )
    def test_out_of_range_exits_two(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err


# one quick, passing invocation of every subcommand
EVERY_SUBCOMMAND = [
    ("bound", "--d", "2", "--lambdas", "0.8,0.6"),
    ("simulate", "--d", "3", "--n", "2000", "--seed", "1"),
    ("estimate", "--d", "3", "--n", "2000", "--seed", "1"),
    ("sweep", "--steps", "4"),
    ("verify-mkl", "--d", "2", "--n", "5000", "--seed", "1"),
    ("check-protocol", "standard", "--d", "3"),
    ("search", "--d", "2", "--iters", "5", "--seed", "1"),
]
SUBCOMMAND_IDS = [argv[0] for argv in EVERY_SUBCOMMAND]


class TestOutputOptions:
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_json_keys_in_report_order(self, capsys, argv):
        code, report = run_json(capsys, *argv, "--format", "json")
        assert code == 0
        body = "rows" if argv[0] == "sweep" else "results"
        assert list(report) == ["schema", "command", "config", body]
        assert report["schema"] == cli.REPORT_SCHEMA
        assert report["command"] == argv[0]

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_csv_shape(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert err == ""
        lines = out.split("\n")
        assert lines.pop() == ""  # the text ends in one newline
        if argv[0] == "sweep":
            assert lines.pop(0) == "# schema=1 command=sweep d=2 steps=4"
            assert len(lines) == 1 + 5  # header and one row per grid point
        else:
            assert len(lines) == 2
            names = lines[0].split(",")
            assert names[:2] == ["schema", "command"]
            assert all(name.startswith(("config.", "results.")) for name in names[2:])
            assert lines[1].startswith(f"1,{argv[0]},")
        assert len({len(line.split(",")) for line in lines}) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_output_file_holds_the_bytes_of_stdout(self, capsys, tmp_path, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        path = tmp_path / f"report.{fmt}"
        code_file, out_file, err_file = run_cli(capsys, *argv, "--format", fmt, "--output",
                                                str(path))
        assert (code_file, out_file, err_file) == (code, "", err)
        assert path.read_bytes() == out.encode("utf-8")

    def test_write_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "bound", "--d", "2", "--lambdas", "0.8,0.6", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["results"]["max_singlet_fraction"] == pytest.approx(
            0.98
        )

    def test_csv_format_single_report(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--d", "2", "--lambdas", "0.8,0.6", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert "results.fidelity_bound" in header
        assert len(header.split(",")) == len(row.split(","))
