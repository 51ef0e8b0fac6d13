import base64
import dataclasses
import inspect
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from teleportsim import (
    AliceMeasurement,
    BipartiteVector,
    BobCorrections,
    EstimationStrategy,
    Operator,
    Protocol,
    PureState,
    SchmidtDecomposition,
    SearchResult,
    TeleportOutcome,
    check_optimality,
    fidelity_bound,
    make_rng,
    mean_fidelity_exact,
    optimal_bob_corrections,
    optimal_fidelity_given_measurement,
    outcome_distribution,
    protocol_from_json,
    protocol_to_json,
    random_povm,
    sample_haar_states,
    standard_measurement,
    standard_protocol,
    teleport_once,
    validate_completeness,
)
from teleportsim.cli import build_parser
from teleportsim.protocol import CHECK_ATOL, _base64, _protocol_parts
from helpers import (
    choice_teleport_once,
    einsum_bob_unitaries,
    from_base64,
    loop_check_optimality,
    loop_kraus_check,
    loop_standard_measurement,
    random_kraus_set,
    random_lambdas,
    random_optimal_measurement,
    random_unitaries,
    report_violations,
    svd_bob_corrections,
    svd_optimal_fidelity,
    to_base64,
)


def haar_input(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z))


def multi_kraus_protocol(d, gen):
    """Random complete measurement with random corrections of 1-3 Kraus operators per outcome.

    With several operators per outcome, most branch draws have several choices.
    """
    meas = random_povm(d, d * d, gen)
    kraus = tuple(random_kraus_set(d, 1 + r % 3, gen) for r in range(meas.n_outcomes))
    return Protocol(SchmidtDecomposition(random_lambdas(d, gen)), meas, BobCorrections(kraus))


def povm_protocol(d, lambdas, seed):
    """Random complete measurement of d^2 outcomes with one optimal correction per outcome."""
    meas = random_povm(d, d * d, make_rng(seed, stream=d))
    schmidt = SchmidtDecomposition(lambdas)
    return Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))


def kind_protocol(kind, d):
    """A seeded standard, random-POVM or ragged protocol of dimension d.

    The ragged one is the standard protocol with every even outcome's
    correction split into two operators B/sqrt(2).
    """
    proto = standard_protocol(random_lambdas(d, make_rng(71, stream=d)))
    if kind == "random-povm":
        return povm_protocol(d, proto.schmidt.lambdas, 72)
    if kind == "ragged":
        kraus = [np.concatenate([b, b]) / np.sqrt(2) if r % 2 == 0 else b
                 for r, b in enumerate(proto.corrections.kraus)]
        return Protocol(proto.schmidt, proto.measurement, BobCorrections(kraus))
    return proto


def local_product_measurement(d):
    """Alice measuring both particles locally in the computational basis.

    Outcome r = j + k d has the single block phi_r^k = |j>: the measurement
    is complete and monomial, and falls below the bound on any entangled resource.
    """
    r = np.arange(d * d)
    phi = np.zeros((d * d, d, d), dtype=complex)
    phi[r, r // d, r % d] = 1.0
    return AliceMeasurement(phi)


def local_product_protocol(d):
    """Product resource lambda = (1, 0, ..., 0), measured by :func:`local_product_measurement`.

    Only the k = 0 outcomes can occur, so d^2 - d outcomes have probability exactly 0.
    """
    meas = local_product_measurement(d)
    schmidt = SchmidtDecomposition(np.eye(d)[0])
    return Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))


#: per d, one-operator protocols that the standard one does not cover: dense
#: ones on a random POVM, and a product resource with zero-probability outcomes
ONE_OPERATOR_PROTOCOLS = {
    3: {"product": lambda: local_product_protocol(3)},
    4: {"dense": lambda: povm_protocol(4, random_lambdas(4, make_rng(76)), 77)},
    16: {"dense": lambda: povm_protocol(16, random_lambdas(16, make_rng(76)), 77)},
}


class TestStandardMeasurement:
    def test_d2_outcome_zero(self):
        phi = standard_measurement(2).phi
        s = 1 / np.sqrt(2)
        assert np.allclose(phi[0, 0], [s, 0])
        assert np.allclose(phi[0, 1], [0, s])

    def test_d2_outcome_one_has_phase(self):
        phi = standard_measurement(2).phi
        s = 1 / np.sqrt(2)
        assert np.allclose(phi[1, 0], [s, 0])
        assert np.allclose(phi[1, 1], [0, -s])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_completeness(self, d):
        report = validate_completeness(standard_measurement(d), tol=1e-12)
        assert report.passed
        assert report.max_error < 1e-12

    def test_outcome_count(self):
        assert standard_measurement(4).n_outcomes == 16

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_loop_bit_for_bit(self, d):
        # a vectorized exp(2j pi k p / d) rounds differently at d = 6, 12 and others
        got = np.asarray(standard_measurement(d).phi)
        want = loop_standard_measurement(d)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStandardCache:
    """One standard measurement and one set of corrections per dimension, shared."""

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_measurement_is_built_once_per_dimension(self, d):
        assert standard_measurement(d) is standard_measurement(d)
        assert standard_measurement(np.int64(d)) is standard_measurement(d)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_spectra_share_the_measurement_and_the_corrections(self, d):
        a = standard_protocol(random_lambdas(d, make_rng(150 + d)))
        b = standard_protocol(np.eye(d)[0])
        assert a.measurement is b.measurement is standard_measurement(d)
        assert a.corrections is b.corrections
        assert a.schmidt is not b.schmidt

    @pytest.mark.parametrize("d", [3.0, 3.5, np.float64(3.0)])
    def test_non_integer_dimension_raises_also_when_cached(self, d):
        standard_measurement(3)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            standard_measurement(d)

    def test_dimension_below_two_raises(self):
        for d in (1, 1.5, True):
            with pytest.raises(ValueError, match="at least 2"):
                standard_measurement(d)


class TestCheckTolerance:
    """CHECK_ATOL is the one tolerance of the completeness, Kraus and optimality checks."""

    def test_is_the_default_of_every_check(self):
        for check in (validate_completeness, check_optimality):
            assert inspect.signature(check).parameters["tol"].default is CHECK_ATOL
        assert build_parser().parse_args(["check-protocol", "standard"]).tol is CHECK_ATOL

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_corrections_and_protocols_are_held_to_it(self, factor):
        # scaled by sqrt(1 + e), every Kraus sum and the completeness sum are off by e
        std = standard_protocol([0.8, 0.6])
        scale = np.sqrt(1 + factor * CHECK_ATOL)
        kraus = scale * std.corrections.stack
        meas = AliceMeasurement(scale * std.measurement.phi)
        corrections = BobCorrections(kraus)  # construction checks shapes only
        if factor < 1:
            Protocol(std.schmidt, std.measurement, corrections)
            Protocol(std.schmidt, meas, std.corrections)
            return
        with pytest.raises(ValueError, match="do not compose to the identity"):
            Protocol(std.schmidt, std.measurement, corrections)
        with pytest.raises(ValueError, match="not complete"):
            Protocol(std.schmidt, meas, std.corrections)


class TestValidateCompleteness:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_report_on_the_cached_measurement_equals_a_fresh_copy(self, d):
        meas = standard_measurement(d)
        fresh = AliceMeasurement(np.array(meas.phi))
        for tol in (0.0, 1e-16, 1e-15, 3e-15, 1e-12, CHECK_ATOL, 1.0):
            got, want = validate_completeness(meas, tol), validate_completeness(fresh, tol)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert type(got.max_error) is type(want.max_error) is float

    def test_error_is_computed_once_per_measurement(self):
        meas = random_povm(3, 11, make_rng(151))
        err = meas.completeness_error
        assert meas.completeness_error is err
        assert err.shape == (3, 3) and not err.flags.writeable
        assert validate_completeness(meas).max_error == float(err.max())

    def test_standard_d3_passes(self):
        report = validate_completeness(standard_measurement(3))
        assert report.passed and report.max_error < 1e-12

    def test_scaled_vector_fails_on_diagonal(self):
        phi = np.array(standard_measurement(2).phi)
        phi[0, 0] *= 1.01
        report = validate_completeness(AliceMeasurement(phi))
        assert not report.passed
        assert report.worst_pair == (0, 0)

    def test_single_outcome_identity_blocks_are_incomplete(self):
        # sum_r |phi_r^k><phi_r^l| = |k><l| != delta_kl I: one rank-one joint
        # vector can never resolve the d^2-dimensional identity.
        phi = np.eye(2, dtype=complex)[None]
        report = validate_completeness(AliceMeasurement(phi))
        assert not report.passed
        assert report.max_error == pytest.approx(1.0)


class TestCheckOptimality:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_standard_passes(self, d):
        schmidt = SchmidtDecomposition(random_lambdas(d, make_rng(d)))
        report = check_optimality(standard_measurement(d), schmidt, tol=1e-10)
        assert report.passed
        assert report.max_error < 1e-12

    def test_duplicate_block_flags_orthogonality(self):
        phi = np.array(standard_measurement(2).phi)
        phi[0, 1] = phi[0, 0]
        schmidt = SchmidtDecomposition([0.8, 0.6])
        report = check_optimality(AliceMeasurement(phi), schmidt)
        assert not report.passed
        violations = report_violations(report)
        kinds = {kind for *_, kind in violations}
        assert kinds == {"non_orthogonal"}
        assert violations[0][0] == 0

    def test_scaled_block_flags_norm(self):
        phi = np.array(standard_measurement(2).phi)
        phi[1, 1] *= 1.3
        schmidt = SchmidtDecomposition([0.8, 0.6])
        report = check_optimality(AliceMeasurement(phi), schmidt)
        assert not report.passed
        kinds = {kind for *_, kind in report_violations(report)}
        assert kinds == {"unequal_norm"}

    def test_product_resource_is_vacuous(self):
        # only k = 0 is constrained, and a single block is trivially fine
        phi = np.array(standard_measurement(2).phi)
        phi[0, 1] = phi[0, 0]  # would violate orthogonality at full rank
        schmidt = SchmidtDecomposition([1.0, 0.0])
        assert schmidt.effective_rank == 1
        assert check_optimality(AliceMeasurement(phi), schmidt).passed

    def test_dimension_mismatch_rejected(self):
        schmidt = SchmidtDecomposition([0.8, 0.6])
        with pytest.raises(ValueError, match="dimension"):
            check_optimality(standard_measurement(3), schmidt)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_loop_reference(self, d):
        rng = make_rng(80 + d)
        lam = random_lambdas(d, rng)
        rank_deficient = np.concatenate([lam[:-1], [0.0]]) / np.linalg.norm(lam[:-1])
        duplicated = np.array(standard_measurement(d).phi)
        duplicated[1, d - 1] = duplicated[1, 0]
        scaled = np.array(standard_measurement(d).phi)
        scaled[d, 1] *= 1.3
        cases = [
            (random_povm(d, d * d, rng), lam),
            (random_povm(d, d * d + 3, rng), rank_deficient),
            (AliceMeasurement(duplicated), lam),
            (AliceMeasurement(scaled), lam),
            (standard_measurement(d), lam),
        ]
        for meas, spectrum in cases:
            schmidt = SchmidtDecomposition(spectrum)
            for tol in (1e-10, 1e-3):
                report = check_optimality(meas, schmidt, tol)
                ref, ref_max = loop_check_optimality(meas, schmidt, tol)
                violations = report_violations(report)
                assert [(r, k, l, kind) for r, k, l, _, kind in violations] == [
                    (r, k, l, kind) for r, k, l, _, kind in ref
                ]
                for (*_, got, _), (*_, err, _) in zip(violations, ref):
                    assert abs(got - err) <= 1e-15
                assert abs(report.max_error - ref_max) <= 1e-15
                assert report.passed == (not ref)
                m1 = schmidt.effective_rank
                below = np.tril_indices(m1, -1)
                assert report.errors.shape == (meas.n_outcomes, m1, m1)
                assert not report.errors[:, below[0], below[1]].any()


class TestOptimalBobCorrections:
    def test_pauli_type_corrections_for_bell_measurement(self):
        meas = standard_measurement(2)
        schmidt = SchmidtDecomposition([1 / np.sqrt(2)] * 2)
        corr = optimal_bob_corrections(meas, schmidt)
        eye = np.eye(2)
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        xz = x @ z
        for r, target in enumerate((eye, z, x, xz)):
            b = corr.kraus[r][0]
            assert abs(np.trace(b.conj().T @ target)) == pytest.approx(2.0, abs=1e-10)

    def test_product_resource_maps_zero_to_leading_block(self):
        meas = random_povm(2, 4, make_rng(12))
        schmidt = SchmidtDecomposition([1.0, 0.0])
        corr = optimal_bob_corrections(meas, schmidt)
        for r in range(4):
            image = corr.kraus[r][0] @ np.array([1.0, 0.0])
            phi0 = meas.phi[r, 0]
            overlap = abs(np.vdot(phi0, image))
            assert overlap == pytest.approx(np.linalg.norm(phi0), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_beats_random_unitary_search(self, d):
        rng = make_rng(40 + d)
        lam = random_lambdas(d, rng)
        meas = random_povm(d, d * d, rng)
        schmidt = SchmidtDecomposition(lam)
        corr = optimal_bob_corrections(meas, schmidt)
        a = lam[None, :, None] * meas.phi.conj()
        nuclear = np.linalg.svd(a, compute_uv=False).sum(axis=1)
        candidates = random_unitaries(d, 10_000, rng)
        for r in range(meas.n_outcomes):
            achieved = abs(np.trace(corr.kraus[r][0] @ a[r]))
            assert achieved == pytest.approx(nuclear[r], abs=1e-10)
            best_random = np.max(np.abs(np.einsum("nij,ji->n", candidates, a[r])))
            assert best_random <= achieved + 1e-10

    def test_dimension_mismatch_rejected(self):
        schmidt = SchmidtDecomposition([0.8, 0.6])
        with pytest.raises(ValueError, match="dimension"):
            optimal_bob_corrections(standard_measurement(3), schmidt)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_matches_einsum_reference_on_standard(self, d):
        lam = random_lambdas(d, make_rng(60 + d))
        meas = standard_measurement(d)
        corr = optimal_bob_corrections(meas, SchmidtDecomposition(lam))
        want = einsum_bob_unitaries(meas, lam)
        assert np.max(np.abs(np.concatenate(corr.kraus) - want)) <= 1e-15

    @pytest.mark.parametrize("d,n_outcomes", [(2, 4), (2, 7), (3, 9), (3, 12), (4, 19)])
    def test_matches_einsum_reference_on_random_povms(self, d, n_outcomes):
        rng = make_rng(70 + n_outcomes)
        for _ in range(5):
            meas = random_povm(d, n_outcomes, rng)
            lam = random_lambdas(d, rng)
            corr = optimal_bob_corrections(meas, SchmidtDecomposition(lam))
            want = einsum_bob_unitaries(meas, lam)
            assert np.max(np.abs(np.concatenate(corr.kraus) - want)) <= 1e-15

    def test_unitarity(self):
        rng = make_rng(44)
        for d in (2, 3):
            for meas in (random_povm(d, d * d, rng), random_optimal_measurement(d, 2, rng)):
                schmidt = SchmidtDecomposition(random_lambdas(d, rng))
                corr = optimal_bob_corrections(meas, schmidt)
                assert all(block.shape[0] == 1 for block in corr.kraus)
                for block in corr.kraus:
                    u = block[0]
                    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10


def deficient_spectrum(kind, d, rng):
    """A rank-deficient spectrum (about half the coefficients zero) or a product one."""
    lam = np.zeros(d)
    if kind == "product":
        lam[0] = 1.0
    else:
        lam[: (d + 1) // 2] = random_lambdas((d + 1) // 2, rng)
    return lam


class TestStandardCorrections:
    """The closed-form corrections B_r = sqrt(d) phi_r^T against the SVD path."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_equal_to_the_svd_corrections_at_full_rank(self, d):
        proto = standard_protocol(random_lambdas(d, make_rng(90 + d)))
        svd = svd_bob_corrections(proto.measurement, proto.schmidt.lambdas)
        assert np.max(np.abs(proto.corrections.stack - svd.stack)) <= 1e-14
        assert np.array_equal(proto.corrections.outcome, svd.outcome)

    @pytest.mark.parametrize("kind", ["rank_deficient", "product"])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_same_fidelity_as_the_svd_corrections_when_rank_deficient(self, d, kind):
        proto = standard_protocol(deficient_spectrum(kind, d, make_rng(110 + d)))
        svd = svd_bob_corrections(proto.measurement, proto.schmidt.lambdas)
        with_svd = Protocol(proto.schmidt, proto.measurement, svd)
        assert abs(mean_fidelity_exact(proto) - mean_fidelity_exact(with_svd)) <= 1e-14
        assert abs(mean_fidelity_exact(proto) - fidelity_bound(proto.schmidt.lambdas)) <= 1e-14


def monomial_measurement(kind, d, rng):
    """A complete monomial measurement: the standard one, the standard one with random
    per-outcome phases and one column permutation, the local product one, or the
    standard one with an extra outcome whose blocks are all zero."""
    std = standard_measurement(d)
    if kind == "phased-permuted":
        phases = np.exp(2j * np.pi * rng.random(d * d))[:, None, None]
        return AliceMeasurement(phases * std.phi[:, :, rng.permutation(d)])
    if kind == "local-product":
        return local_product_measurement(d)
    if kind == "zero-outcome":
        return AliceMeasurement(np.concatenate([std.phi, np.zeros((1, d, d))]))
    return std


MONOMIAL_KINDS = ["standard", "phased-permuted", "local-product", "zero-outcome"]


class TestMonomialMeasurements:
    """The SVD-free scores and corrections of monomial measurements against the SVD path."""

    @pytest.mark.parametrize("kind", MONOMIAL_KINDS)
    def test_flag_holds_and_is_kept(self, kind):
        meas = monomial_measurement(kind, 5, make_rng(120))
        assert validate_completeness(meas).passed
        assert meas.monomial is True
        assert "monomial" in vars(meas)

    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_two_entries_in_one_line_are_not_monomial(self, axis):
        # the extra outcome leaves the stack within R d nonzero entries,
        # so only the row and column counts can reject it
        d = 4
        phi = np.concatenate([standard_measurement(d).phi, np.zeros((1, d, d))])
        i, j = (1, 0) if axis == "column" else (0, 1)
        phi[-1, 0, 0] = phi[-1, i, j] = 1.0
        assert np.count_nonzero(phi) <= phi.shape[0] * d
        assert AliceMeasurement(phi).monomial is False

    def test_dense_measurements_are_not_monomial(self):
        rng = make_rng(121)
        assert random_povm(3, 9, rng).monomial is False
        assert random_optimal_measurement(3, 2, rng).monomial is False

    @pytest.mark.parametrize("d", range(2, 17))
    def test_scores_and_fidelities_agree_with_the_svd(self, d):
        rng = make_rng(130, stream=d)
        for kind in MONOMIAL_KINDS:
            meas = monomial_measurement(kind, d, rng)
            for spectrum in ("full", "rank_deficient", "product"):
                lam = (random_lambdas(d, rng) if spectrum == "full"
                       else deficient_spectrum(spectrum, d, rng))
                schmidt = SchmidtDecomposition(lam)
                score = optimal_fidelity_given_measurement(meas, lam)
                assert abs(score - svd_optimal_fidelity(meas, lam)) <= 1e-14
                corr = optimal_bob_corrections(meas, schmidt)
                svd = svd_bob_corrections(meas, lam)
                fidelity = mean_fidelity_exact(Protocol(schmidt, meas, corr))
                assert abs(fidelity - mean_fidelity_exact(Protocol(schmidt, meas, svd))) <= 1e-14
                assert abs(fidelity - score) <= 1e-14
                if kind in ("standard", "phased-permuted"):
                    assert abs(score - fidelity_bound(lam)) <= 1e-14
                    if spectrum == "full":  # the polar factor is unique at full rank
                        assert np.max(np.abs(corr.stack - svd.stack)) <= 1e-14

    def test_local_product_measurement_falls_below_the_bound(self):
        lam = random_lambdas(4, make_rng(131))
        score = optimal_fidelity_given_measurement(local_product_measurement(4), lam)
        assert score == pytest.approx(2 / 5, abs=1e-15)
        assert score < fidelity_bound(lam) - 0.1

    def test_all_zero_outcome_is_corrected_by_the_identity(self):
        d = 3
        meas = monomial_measurement("zero-outcome", d, None)
        corr = optimal_bob_corrections(meas, SchmidtDecomposition(random_lambdas(d, make_rng(132))))
        assert np.array_equal(corr.kraus[-1][0], np.eye(d))

    @pytest.mark.parametrize("d,n_outcomes", [(2, 4), (2, 7), (3, 9), (4, 19), (8, 64), (16, 256)])
    def test_dense_scores_and_corrections_are_the_svd_bit_for_bit(self, d, n_outcomes):
        rng = make_rng(140, stream=n_outcomes)
        meas = random_povm(d, n_outcomes, rng)
        lam = random_lambdas(d, rng)
        assert optimal_fidelity_given_measurement(meas, lam) == svd_optimal_fidelity(meas, lam)
        corr = optimal_bob_corrections(meas, SchmidtDecomposition(lam))
        assert np.array_equal(corr.stack, svd_bob_corrections(meas, lam).stack)


class TestBobCorrections:
    def test_rejects_non_channel(self):
        corr = BobCorrections((np.eye(2) * 0.5,))
        assert corr.kraus_error.tolist() == [0.75]
        std = standard_protocol([0.8, 0.6])
        # the Kraus check comes first, before the outcome counts (1 against 4) are compared
        with pytest.raises(ValueError, match="identity"):
            Protocol(std.schmidt, std.measurement, corr)

    def test_kraus_error_is_computed_once_per_corrections(self):
        corr = BobCorrections(tuple(random_kraus_set(2, s, make_rng(50)) for s in (1, 3, 2)))
        assert "kraus_error" not in vars(corr)
        err = corr.kraus_error
        assert corr.kraus_error is err
        assert err.shape == (3,) and not err.flags.writeable
        assert (err <= CHECK_ATOL).all()

    def test_optimal_corrections_are_checked_when_assembled(self):
        meas, schmidt = random_povm(3, 11, make_rng(55)), SchmidtDecomposition([0.8, 0.48, 0.36])
        corr = optimal_bob_corrections(meas, schmidt)
        assert "kraus_error" not in vars(corr)
        Protocol(schmidt, meas, corr)
        assert "kraus_error" in vars(corr)

    @pytest.mark.parametrize("d", [2, 5])
    def test_standard_protocols_of_one_dimension_share_one_kraus_error(self, d):
        rng = make_rng(56)
        first, second = (standard_protocol(random_lambdas(d, rng)) for _ in range(2))
        assert first.corrections.kraus_error is second.corrections.kraus_error

    def test_accepts_kraus_sets(self):
        rng = make_rng(50)
        blocks = tuple(random_kraus_set(2, 3, rng) for _ in range(4))
        corr = BobCorrections(blocks)
        assert all(block.shape[0] == 3 for block in corr.kraus)
        assert corr.n_outcomes == 4

    def test_bare_matrices_are_single_operators(self):
        unitaries = random_unitaries(3, 5, make_rng(51))
        for kraus in (unitaries, list(unitaries)):
            corr = BobCorrections(kraus)
            assert corr.n_outcomes == 5
            assert all(block.shape == (1, 3, 3) for block in corr.kraus)
            assert all(np.shares_memory(block, corr.stack) for block in corr.kraus)
            assert not any(block.flags.writeable for block in corr.kraus)
            assert np.array_equal(corr.stack, unitaries)
            assert np.array_equal(corr.outcome, np.arange(5))

    @pytest.mark.parametrize("sizes", [(1, 2, 3, 1, 3, 2), (2,), (1, 1, 1)])
    def test_blocks_are_read_only_views_of_the_stack(self, sizes):
        rng = make_rng(52)
        blocks = [random_kraus_set(3, s, rng) for s in sizes]
        corr = BobCorrections(tuple(blocks))
        assert corr.stack.shape == (sum(sizes), 3, 3)
        assert not corr.stack.flags.writeable
        assert np.array_equal(corr.outcome, np.repeat(np.arange(len(sizes)), sizes))
        assert not corr.outcome.flags.writeable
        for r, (block, want) in enumerate(zip(corr.kraus, blocks)):
            assert np.shares_memory(block, corr.stack)
            assert not block.flags.writeable
            assert np.array_equal(block, want)
            assert np.array_equal(corr.stack[corr.outcome == r], want)

    @pytest.mark.parametrize("kind", ["standard", "svd", "file", "ragged"])
    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_stack_is_c_contiguous(self, kind, d):
        proto = kind_protocol("ragged" if kind == "ragged" else "standard", d)
        if kind == "svd":
            proto = Protocol(proto.schmidt, proto.measurement,
                             optimal_bob_corrections(proto.measurement, proto.schmidt))
        elif kind == "file":
            proto = protocol_from_json(protocol_to_json(proto))
        stack = proto.corrections.stack
        assert stack.flags.c_contiguous
        assert stack.strides == (16 * d * d, 16 * d, 16)

    def test_later_changes_to_the_input_do_not_reach_the_corrections(self):
        rng = make_rng(53)
        blocks = [random_kraus_set(2, s, rng) for s in (2, 1, 3, 1)]
        stack = random_unitaries(2, 4, rng)
        for kraus in (blocks, stack):
            corr = BobCorrections(kraus)
            saved = corr.stack.copy()
            for block in kraus:
                block[...] = np.nan
            assert np.array_equal(corr.stack, saved)
            assert all(np.isfinite(block).all() for block in corr.kraus)

    @pytest.mark.parametrize(
        "case,message",
        [
            ("nan_in_3", "outcome 3: Kraus operators must be finite"),
            ("inf_in_3", "outcome 3: Kraus operators must be finite"),
            ("minus_inf_in_3", "outcome 3: Kraus operators must be finite"),
            ("nan_in_second_of_1", "outcome 1: Kraus operators must be finite"),
            ("overflow_in_2", "outcome 2: Kraus operators do not compose to the identity"),
            ("identity_0_nan_1", "outcome 0: Kraus operators do not compose to the identity"),
            ("identity_1_nan_4", "outcome 1: Kraus operators do not compose to the identity"),
            ("ragged", None),
            ("ragged_identity_2", "outcome 2: Kraus operators do not compose to the identity"),
            ("bare", None),
            ("bare_identity_3", "outcome 3: Kraus operators do not compose to the identity"),
            ("identity_1_shape_3",
             "outcome 3: Kraus block must have shape (S, d, d), got (1, 3, 4)"),
        ],
    )
    def test_matches_loop_reference(self, case, message):
        rng = make_rng(80)
        d = 3
        # a d = 3 protocol needs at least d^2 = 9 outcomes to be complete
        schmidt, meas = SchmidtDecomposition([0.8, 0.48, 0.36]), standard_measurement(d)
        blocks = [random_kraus_set(d, s, rng) for s in (1, 2, 3, 1, 3, 2, 1, 2, 1)]
        if case in ("nan_in_3", "inf_in_3", "minus_inf_in_3"):
            blocks[3][0, 2, 1] = {"nan_in_3": np.nan, "inf_in_3": np.inf}.get(case, -np.inf)
        elif case == "nan_in_second_of_1":
            blocks[1][1, 0, 2] = np.nan
        elif case == "overflow_in_2":  # finite entries whose products overflow
            blocks[2] = np.full((3, d, d), 1e200, dtype=complex)
        elif case == "identity_0_nan_1":
            blocks[0] = 1.01 * blocks[0]
            blocks[1][0, 0, 0] = np.nan
        elif case == "identity_1_nan_4":
            blocks[1] = 1.01 * blocks[1]
            blocks[4][2, 0, 0] = np.nan
        elif case == "ragged_identity_2":
            blocks[2] = blocks[2][:2]
        elif case.startswith("bare"):
            blocks = list(random_unitaries(d, 9, rng))
            if case == "bare_identity_3":
                blocks[3] = 0.99 * blocks[3]
        elif case == "identity_1_shape_3":
            blocks[1] = 1.01 * blocks[1]
            blocks[3] = np.zeros((1, d, d + 1))

        def outcome(check):
            try:
                return check(tuple(blocks))
            except ValueError as exc:
                return str(exc)

        built = outcome(BobCorrections)  # construction checks shapes only
        got = outcome(
            lambda kraus: list(Protocol(schmidt, meas, BobCorrections(kraus)).corrections.kraus))
        want = outcome(loop_kraus_check)
        if message is not None:
            assert got == want == message
            assert (built == message) is ("Kraus block" in message)
        else:
            assert isinstance(got, list) and len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_one_operator_per_outcome_check_equals_the_summed_check(self):
        # with one operator per outcome kraus_error skips np.add.reduceat; the sum
        # over one-operator segments only copies, so the errors keep every bit
        scale = np.array([1, 1.01, 1, 0.99, 1, 1])[:, None, None]
        stack = random_unitaries(4, 6, make_rng(54)) * scale
        stack[4, 1, 2] = np.nan
        error = BobCorrections(stack).kraus_error
        with np.errstate(invalid="ignore"):
            summed = np.add.reduceat(stack.conj().transpose(0, 2, 1) @ stack, np.arange(6))
            want = np.abs(summed - np.eye(4)).max(axis=(1, 2))
        assert np.isnan(error).tolist() == [False, False, False, False, True, False]
        assert np.array_equal(error.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        block = np.eye(2, dtype=complex)
        block[0, 1] = bad
        corr = BobCorrections((np.eye(2), block, np.eye(2), np.eye(2)))
        std = standard_protocol([0.8, 0.6])
        with pytest.raises(ValueError, match="^outcome 1: Kraus operators must be finite$"):
            Protocol(std.schmidt, std.measurement, corr)
        phi = np.array(standard_measurement(2).phi)
        phi[3, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            AliceMeasurement(phi)


class TestAliceMeasurement:
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_transposed_blocks_are_stored_in_c_order(self, d):
        view = np.array(standard_measurement(d).phi).transpose(0, 2, 1)
        assert not view.flags.c_contiguous
        meas = AliceMeasurement(view)
        assert meas.phi.flags.c_contiguous and not meas.phi.flags.writeable
        assert np.array_equal(meas.phi, view)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_random_povm_channel_is_c_ordered(self, d):
        # random_povm passes its blocks as a transposed view
        proto = povm_protocol(d, random_lambdas(d, make_rng(58)), 59)
        for arr in (proto.measurement.phi, proto.a, proto.kraus):
            assert arr.flags.c_contiguous


def handed_out_arrays(proto):
    """(name, array) of every array a protocol, its parts and its reports hand out."""
    meas, corr = proto.measurement, proto.corrections
    yield "phi", meas.phi
    yield "completeness_error", meas.completeness_error
    yield "stack", corr.stack
    yield "outcome", corr.outcome
    yield "kraus_error", corr.kraus_error
    for r, block in enumerate(corr.kraus):
        yield f"kraus[{r}]", block
    yield "lambdas", proto.schmidt.lambdas
    yield "a", proto.a
    yield "kraus", proto.kraus
    yield "gram", proto.gram
    yield "effects", proto.effects
    yield "OptimalityReport.errors", check_optimality(meas, proto.schmidt).errors


#: a factory of each dataclass whose instances hold an array; two calls give equal contents
ARRAY_HOLDERS = {
    "PureState": lambda: PureState([1.0, 0.0]),
    "Operator": lambda: Operator(np.eye(2)),
    "BipartiteVector": lambda: BipartiteVector(np.eye(2) / np.sqrt(2)),
    "SchmidtDecomposition": lambda: SchmidtDecomposition([0.8, 0.6]),
    "AliceMeasurement": lambda: AliceMeasurement(standard_measurement(2).phi),
    "BobCorrections": lambda: BobCorrections(np.eye(2)[None]),
    "Protocol": lambda: standard_protocol([0.8, 0.6]),
    "TeleportOutcome": lambda: TeleportOutcome(0, 0.5, PureState([1.0, 0.0])),
    "OptimalityReport": lambda: check_optimality(
        standard_measurement(2), SchmidtDecomposition([0.8, 0.6])),
    "EstimationStrategy": lambda: EstimationStrategy(np.eye(2)),
    "SearchResult": lambda: SearchResult(0.9, standard_measurement(2), 1, 0.9),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    # generated __eq__ and __hash__ would compare and hash the arrays, and raise
    first, second = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert first is not second
    assert first != second and not first == second
    assert first == first and second == second
    assert {first: 1, second: 2} == {first: 1, second: 2}
    assert len({first, second}) == 2


class TestReadOnlyArrays:
    """No array the package hands out can be made writable again."""

    @pytest.mark.parametrize("kind", ["standard", "random-povm", "ragged", "file"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_setflags_write_raises(self, kind, d):
        proto = kind_protocol("standard" if kind == "file" else kind, d)
        if kind == "file":
            proto = protocol_from_json(protocol_to_json(proto))
        for name, arr in handed_out_arrays(proto):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.setflags(write=True)

    def test_a_write_attempt_cannot_reach_the_shared_standard_measurement(self):
        phi = standard_measurement(3).phi
        before = np.array(phi)
        with pytest.raises(ValueError):
            phi.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            phi[0, 0, 0] = 2.0
        assert np.array_equal(standard_measurement(3).phi, before)

    def test_later_changes_to_the_caller_lambdas_do_not_reach_the_resource(self):
        lam = np.array([0.8, 0.6])
        schmidt = SchmidtDecomposition(lam)
        lam[:] = [0.6, 0.8]
        assert np.array_equal(schmidt.lambdas, [0.8, 0.6])
        with pytest.raises(ValueError, match="WRITEABLE"):
            schmidt.lambdas.setflags(write=True)


class TestProtocol:
    def test_incomplete_measurement_rejected(self):
        phi = np.array(standard_measurement(2).phi)
        phi[0, 0] *= 1.01
        with pytest.raises(ValueError, match="not complete"):
            Protocol(
                SchmidtDecomposition([0.8, 0.6]),
                AliceMeasurement(phi),
                BobCorrections([np.eye(2)] * 4),
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Protocol(
                SchmidtDecomposition([0.8, 0.6]),
                standard_measurement(3),
                BobCorrections([np.eye(3)] * 9),
            )

    def test_outcome_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="outcomes"):
            Protocol(
                SchmidtDecomposition([0.8, 0.6]),
                standard_measurement(2),
                BobCorrections([np.eye(2)] * 3),
            )


class TestTeleportOnce:
    def test_perfect_teleportation(self):
        rng = make_rng(60)
        for d in (2, 3):
            proto = standard_protocol(np.full(d, 1 / np.sqrt(d)))
            for _ in range(20):
                psi = haar_input(d, rng)
                out = teleport_once(proto, psi, rng)
                assert out.output_state.fidelity(psi) == pytest.approx(1.0, abs=1e-12)
                assert out.probability == pytest.approx(1 / d**2, abs=1e-12)

    def test_product_resource_pins_output_direction(self):
        # with lambda = (1, 0, 0) only the k = 0 block of any measurement
        # reaches Bob, so before correction his state is along |0>
        rng = make_rng(65)
        meas = random_povm(3, 11, rng)
        schmidt = SchmidtDecomposition([1.0, 0.0, 0.0])
        proto = Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))
        zero = PureState(np.eye(3)[0])
        for _ in range(50):
            out = teleport_once(proto, haar_input(3, rng), rng)
            b = proto.corrections.kraus[out.outcome][0] @ zero.amplitudes
            assert out.output_state.fidelity(PureState(b)) == pytest.approx(1.0, abs=1e-12)

    def test_product_resource_ignores_input(self):
        rng = make_rng(61)
        proto = standard_protocol([1.0, 0.0])
        zero = PureState(np.eye(2)[0])
        for _ in range(20):
            psi = haar_input(2, rng)
            out = teleport_once(proto, psi, rng)
            b = proto.corrections.kraus[out.outcome][0] @ zero.amplitudes
            assert out.output_state.fidelity(PureState(b)) == pytest.approx(1.0, abs=1e-12)

    def test_outcome_statistics(self):
        rng = make_rng(62)
        proto = standard_protocol([1 / np.sqrt(2)] * 2)
        psi = haar_input(2, rng)
        counts = np.zeros(4)
        n = 4000
        for _ in range(n):
            counts[teleport_once(proto, psi, rng).outcome] += 1
        # uniform 1/4 each; 5 sigma binomial band
        se = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) <= 5 * se)

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_corrupted_effects_rejected(self, fill):
        proto = standard_protocol([0.8, 0.6])
        vars(proto)["effects"] = np.full_like(proto.effects, fill)
        with pytest.raises(ValueError, match="probabilities vanish"):
            teleport_once(proto, PureState(np.eye(2)[0]), make_rng(0))

    def test_wrong_input_dimension_rejected(self):
        with pytest.raises(ValueError, match="input dimension"):
            teleport_once(standard_protocol([0.8, 0.6]), PureState(np.eye(3)[0]), make_rng(0))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_choice_reference_bit_for_bit(self, d):
        gen = make_rng(70, stream=d)
        multi = multi_kraus_protocol(d, gen)
        others = [make() for make in ONE_OPERATOR_PROTOCOLS.get(d, {}).values()]
        for proto in (standard_protocol(random_lambdas(d, gen)), multi, *others):
            rng, ref_rng = make_rng(71, stream=d), make_rng(71, stream=d)
            for amplitudes in sample_haar_states(d, 50, make_rng(72, stream=d)):
                psi = PureState(amplitudes)
                out, ref = teleport_once(proto, psi, rng), choice_teleport_once(proto, psi, ref_rng)
                assert out.outcome == ref.outcome
                assert np.float64(out.probability).view(np.uint64) == np.float64(
                    ref.probability).view(np.uint64)
                assert np.array_equal(out.output_state.amplitudes.view(np.uint64),
                                      ref.output_state.amplitudes.view(np.uint64))
            assert rng.random() == ref_rng.random()  # both drew the same number of uniforms

    @pytest.mark.parametrize("kind,d", [("standard", 2), ("standard", 5), ("standard", 16),
                                        ("multi_kraus", 3)])
    def test_each_shot_takes_exactly_two_uniforms(self, kind, d):
        # a batch that reads its uniforms as an (n, 2) array relies on this
        gen = make_rng(73, stream=d)
        if kind == "standard":
            proto = standard_protocol(random_lambdas(d, gen))
        else:
            proto = multi_kraus_protocol(d, gen)
        rng, twin = make_rng(74, stream=d), make_rng(74, stream=d)
        shots = 40
        for amplitudes in sample_haar_states(d, shots, make_rng(75, stream=d)):
            teleport_once(proto, PureState(amplitudes), rng)
        twin.random(2 * shots)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sampled_mean_fidelity_attains_bound(self):
        # single-shot average over Haar inputs ties the sampled path to the
        # closed-form optimum of the standard protocol
        from teleportsim import fidelity_bound

        rng = make_rng(123)
        lam = np.array([0.85, np.sqrt(1 - 0.85**2)])
        proto = standard_protocol(lam)
        n = 100_000
        fids = np.empty(n)
        for i in range(n):
            psi = haar_input(2, rng)
            fids[i] = teleport_once(proto, psi, rng).output_state.fidelity(psi)
        se = fids.std(ddof=1) / np.sqrt(n)
        assert abs(fids.mean() - fidelity_bound(lam)) <= 4 * se


class TestOutcomeDistribution:
    def test_uniform_for_maximally_entangled(self):
        rng = make_rng(63)
        for d in (2, 3, 4):
            proto = standard_protocol(np.full(d, 1 / np.sqrt(d)))
            psi = haar_input(d, rng)
            probs = outcome_distribution(proto, psi)
            assert np.max(np.abs(probs - 1 / d**2)) <= 1e-12

    def test_product_resource_d2(self):
        proto = standard_protocol([1.0, 0.0])
        probs = outcome_distribution(proto, PureState(np.eye(2)[0]))
        assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-14)

    def test_normalization_and_positivity(self):
        rng = make_rng(64)
        proto = standard_protocol(random_lambdas(3, rng))
        for _ in range(100):
            probs = outcome_distribution(proto, haar_input(3, rng))
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        # completeness alone fixes the total, for any measurement and resource
        rng = make_rng(5)
        meas = random_povm(3, 11, rng)
        schmidt = SchmidtDecomposition(random_lambdas(3, rng))
        proto = Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))
        for _ in range(100):
            probs = outcome_distribution(proto, haar_input(3, rng))
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,kind", [(d, kind) for d, protos in ONE_OPERATOR_PROTOCOLS.items()
                                        for kind in protos])
    def test_matches_conditional_vector_norms(self, d, kind):
        proto = ONE_OPERATOR_PROTOCOLS[d][kind]()
        for amplitudes in sample_haar_states(d, 50, make_rng(66, stream=d)):
            psi = PureState(amplitudes)
            probs = outcome_distribution(proto, psi)
            norms = np.sum(np.abs(proto.a @ amplitudes) ** 2, axis=1)
            assert np.all(probs >= 0)
            assert np.max(np.abs(probs - norms)) <= 1e-15
        if kind == "product":
            assert np.all(probs[d:] == 0)

    def test_wrong_input_dimension_rejected(self):
        with pytest.raises(ValueError, match="input dimension"):
            outcome_distribution(standard_protocol([0.8, 0.6]), PureState(np.eye(3)[0]))


def ragged_povm_protocol(rng):
    """Random complete POVM with optimal corrections; every third outcome gets two B/sqrt(2)."""
    schmidt = SchmidtDecomposition(random_lambdas(3, rng))
    meas = random_povm(3, 11, rng)
    kraus = [
        np.concatenate([block, block]) / np.sqrt(2) if r % 3 == 0 else block
        for r, block in enumerate(optimal_bob_corrections(meas, schmidt).kraus)
    ]
    assert {block.shape[0] for block in kraus} == {1, 2}
    return Protocol(schmidt, meas, BobCorrections(tuple(kraus)))


SERIALIZED_PROTOCOLS = {
    **{f"standard-d{d}": lambda d=d: standard_protocol(random_lambdas(d, make_rng(80 + d)))
       for d in (2, 3, 5, 8, 12)},
    "product-d3": lambda: standard_protocol([1.0, 0.0, 0.0]),
    "rank-deficient-d4": lambda: standard_protocol([0.8, 0.6, 0.0, 0.0]),
    "ragged-povm-d3": lambda: ragged_povm_protocol(make_rng(89)),
}


README = Path(__file__).resolve().parent.parent / "README.md"


def protocol_file(proto):
    """A protocol's file, parsed: every field as json reads it."""
    return json.loads(protocol_to_json(proto))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["standard", "random-povm", "ragged"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_file_parts_assemble_to_the_read_protocol(self, kind, d):
        text = protocol_to_json(kind_protocol(kind, d))
        read, assembled = protocol_from_json(text), Protocol(*_protocol_parts(text))
        for (name, got), (_, want) in zip(handed_out_arrays(read), handed_out_arrays(assembled)):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("name", SERIALIZED_PROTOCOLS)
    def test_text_matches_json_dumps(self, name):
        proto = SERIALIZED_PROTOCOLS[name]()
        corr = proto.corrections
        expected = json.dumps({
            "schema": 3,
            "d": proto.d,
            "lambdas": proto.schmidt.lambdas.tolist(),
            "kraus_counts": [len(block) for block in corr.kraus],
            "phi": to_base64(proto.measurement.phi),
            "corrections": to_base64(corr.stack),
        })
        assert protocol_to_json(proto) == expected + "\n"

    @pytest.mark.parametrize("shape", [(1,), (3, 4), (5, 1, 3, 3)])
    def test_base64_holds_little_endian_bytes_in_c_order(self, shape):
        values = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 0.1, 0.0]
        arr = np.resize(values + [-v for v in values[1:]], shape)
        entries = np.empty(shape, dtype=complex)
        entries.real, entries.imag = arr, arr[::-1]
        # each entry's real then imaginary part, entries in C order, also from a transposed view
        for view in (entries, entries.T):
            numbers = [x for z in view.ravel().tolist() for x in (z.real, z.imag)]
            raw = base64.b64decode(_base64(view), validate=True)
            assert raw == struct.pack(f"<{len(numbers)}d", *numbers)

    def test_round_trip_bit_exact(self):
        rng = make_rng(70)
        lam = random_lambdas(3, rng)
        proto = standard_protocol(lam)
        restored = protocol_from_json(protocol_to_json(proto))
        assert np.array_equal(restored.schmidt.lambdas, proto.schmidt.lambdas)
        assert np.array_equal(restored.measurement.phi, proto.measurement.phi)
        for a, b in zip(restored.corrections.kraus, proto.corrections.kraus):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("kind", ["standard", "random-povm", "ragged"])
    def test_round_trip_keeps_every_bit(self, kind, d):
        # the standard protocol's arrays carry signed zeros, which value equality ignores
        proto = kind_protocol(kind, d)
        text = protocol_to_json(proto)
        restored = protocol_from_json(text)
        assert protocol_to_json(restored) == text
        pairs = [(proto.schmidt.lambdas, restored.schmidt.lambdas),
                 (proto.measurement.phi, restored.measurement.phi)]
        pairs += list(zip(proto.corrections.kraus, restored.corrections.kraus, strict=True))
        bits = [(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))
                for a, b in pairs]
        if kind == "standard":
            assert any(np.signbit(k.view(float)).any() for k, _ in bits[2:])
        for (a, b), (a_bits, b_bits) in zip(pairs, bits):
            assert a.dtype == b.dtype
            assert a.shape == b.shape
            assert np.array_equal(a_bits, b_bits)

    @pytest.mark.parametrize("d", [3, 16])
    @pytest.mark.parametrize("kind", ["standard", "random-povm", "ragged"])
    def test_file_arrays_decode_with_base64_and_numpy_alone(self, kind, d):
        proto = kind_protocol(kind, d)
        data = json.loads(protocol_to_json(proto))
        arrays = {"phi": proto.measurement.phi, "corrections": proto.corrections.stack}
        for field, want in arrays.items():
            raw = base64.b64decode(data[field], validate=True)
            got = np.frombuffer(raw, "<c16").reshape(want.shape)
            assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64))
            # little-endian, real part first, whatever the byte order of this machine
            for i in (0, want.size - 1):
                z = want.flat[i]
                assert raw[16 * i : 16 * i + 16] == struct.pack("<2d", z.real, z.imag)

    def test_readme_snippet_reads_phi(self, tmp_path, monkeypatch):
        # the README's three lines that read an array with the standard library and NumPy alone
        snippets = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        (snippet,) = [text for text in snippets if "b64decode" in text]
        assert len(snippet.splitlines()) == 3
        proto = kind_protocol("random-povm", 3)
        (tmp_path / "protocol.json").write_text(protocol_to_json(proto))
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(snippet, namespace)
        assert namespace["phi"].shape == proto.measurement.phi.shape
        assert namespace["phi"].tobytes() == proto.measurement.phi.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["phi", "corrections"])
    def test_non_finite_entry_raises_value_error(self, field, bad):
        data = protocol_file(standard_protocol([0.8, 0.6]))
        values = from_base64(data[field], 2)
        values.view(np.float64).flat[9] = bad  # an imaginary part, written as its bits
        data[field] = to_base64(values)
        with pytest.raises(ValueError, match=f"^{field}: numbers must be finite$"):
            protocol_from_json(json.dumps(data))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e400"])
    def test_non_finite_lambda_raises_value_error(self, bad):
        # json reads all three as non-finite floats; 1e400 overflows to inf
        data = protocol_file(standard_protocol([0.8, 0.6]))
        data["lambdas"][0] = "bad"
        text = json.dumps(data).replace('"bad"', bad)
        with pytest.raises(ValueError, match="^lambdas: numbers must be finite$"):
            protocol_from_json(text)

    @pytest.mark.parametrize(
        "make",
        [lambda: ragged_povm_protocol(make_rng(89)),
         lambda: standard_protocol(random_lambdas(4, make_rng(73)))],
        ids=["ragged-povm-d3", "standard-d4"],
    )
    def test_corrections_read_bit_for_bit_into_one_stack(self, make):
        proto = make()
        data = protocol_file(proto)
        d, counts = data["d"], data["kraus_counts"]
        assert (len(set(counts)) > 1) is (proto.corrections.stack.shape[0] > proto.n_outcomes)
        # the file's bytes read by NumPy alone, split per outcome and checked one outcome at a time
        operators = from_base64(data["corrections"], d)
        expected = loop_kraus_check(np.split(operators, np.cumsum(counts)[:-1]))
        corr = protocol_from_json(json.dumps(data)).corrections
        assert len(corr.kraus) == len(expected) == proto.n_outcomes
        for got, want, written in zip(corr.kraus, expected, proto.corrections.kraus):
            assert got.shape == want.shape == written.shape
            assert got.tobytes() == want.tobytes() == written.tobytes()
            # the stack and its blocks are read-only views of one read-only array
            assert got.base is corr.stack.base
            assert not got.flags.writeable

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("schema", 1, "unsupported protocol schema 1; expected 3"),
            ("schema", 2, "unsupported protocol schema 2; expected 3"),
            ("schema", "3", "unsupported protocol schema '3'; expected 3"),
            ("schema", True, "unsupported protocol schema True; expected 3"),
            ("schema", 3.0, "unsupported protocol schema 3.0; expected 3"),
            ("schema", None, "unsupported protocol schema None; expected 3"),
            ("d", None, "d must be an integer >= 2, got None"),
            ("d", [2], "d must be an integer >= 2, got [2]"),
            ("d", 2.7, "d must be an integer >= 2, got 2.7"),
            ("d", "2", "d must be an integer >= 2, got '2'"),
            ("d", True, "d must be an integer >= 2, got True"),
            ("d", 0, "d must be an integer >= 2, got 0"),
            ("d", 1, "d must be an integer >= 2, got 1"),
            ("d", 3, "declared dimension 3 does not match 2 Schmidt coefficients"),
            ("lambdas", {"k": 0.8}, "lambdas must be a list of numbers"),
            ("lambdas", [{}, 0.6], "lambdas must be a list of numbers"),
            ("lambdas", [10**400, 0.6], "lambdas must be a list of numbers"),
            ("phi", 5, "phi must be a base64 string"),
            ("phi", {}, "phi must be a base64 string"),
            ("phi", "", "phi must hold a positive multiple of 16 d^2 = 64 bytes"),
            ("phi", base64.b64encode(bytes(31 * 8)).decode(),
             "phi must hold a positive multiple of 16 d^2 = 64 bytes"),
            ("corrections", 5, "corrections must be a base64 string"),
            ("corrections", "", "corrections must hold a positive multiple of 16 d^2 = 64 bytes"),
            ("corrections", base64.b64encode(bytes(12 * 8)).decode(),
             "corrections must hold a positive multiple of 16 d^2 = 64 bytes"),
            ("kraus_counts", 4, "kraus_counts must be a list of integers"),
            ("kraus_counts", [1, 1, 1, 1.0], "kraus_counts must be a list of integers"),
            ("kraus_counts", [1, 1, 1, True], "kraus_counts must be a list of integers"),
            ("kraus_counts", [[1], 1, 1, 1], "kraus_counts must be a list of integers"),
            ("kraus_counts", [1, 1, 1], "kraus_counts has 3 entries for 4 outcomes"),
            ("kraus_counts", [1] * 5, "kraus_counts has 5 entries for 4 outcomes"),
            ("kraus_counts", [1, 1, 1, 2],
             "kraus_counts add up to 5, but corrections hold 4 operators"),
            ("kraus_counts", [1, 1, 1, 10**400],
             f"kraus_counts add up to {3 + 10**400}, but corrections hold 4 operators"),
        ],
    )
    def test_malformed_field_raises_value_error_naming_it(self, field, value, message):
        data = protocol_file(standard_protocol([0.8, 0.6]))
        data[field] = value
        with pytest.raises(ValueError) as info:
            protocol_from_json(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text",
        ['{"schema": ' + "[" * 10**5 + "]" * 10**5 + "}", "[" * 10**5 + "]" * 10**5],
        ids=["in-an-object", "top-level-array"],
    )
    def test_text_nested_too_deeply_raises_value_error(self, text):
        with pytest.raises(ValueError) as info:
            protocol_from_json(text)
        assert str(info.value) == "protocol JSON nests too deeply to be read"

    @pytest.mark.parametrize("field", ["phi", "corrections"])
    @pytest.mark.parametrize(
        "bad", [True, 0.7, None, {}, [0.5], [], 10**400, "schema 2"],
        ids=["boolean", "number", "null", "dict", "list", "empty-list", "huge", "schema-2-list"],
    )
    def test_field_that_is_no_string_raises_value_error(self, field, bad):
        data = protocol_file(standard_protocol([0.8, 0.6]))
        if bad == "schema 2":  # the field as schema 2 wrote it: interleaved re/im numbers
            bad = from_base64(data[field], 2).view(np.float64).ravel().tolist()
        data[field] = bad
        with pytest.raises(ValueError) as info:
            protocol_from_json(json.dumps(data))
        assert str(info.value) == f"{field} must be a base64 string"

    @pytest.mark.parametrize("field", ["phi", "corrections"])
    @pytest.mark.parametrize(
        "d,edit",
        [
            (2, lambda t: t[:5] + "*" + t[6:]),
            (2, lambda t: t[:5] + "\u00e9" + t[6:]),
            (2, lambda t: t[:8] + " " + t[8:]),
            (2, lambda t: t[:76] + "\n" + t[76:]),
            (2, lambda t: t + "\n"),
            (2, lambda t: t[:4] + "-" + t[5:]),
            (2, lambda t: t[:4] + "_" + t[5:]),
            (2, lambda t: t[:-2]),
            (2, lambda t: t[:-1]),
            (2, lambda t: t + "="),
            (2, lambda t: t + "AAAA"),
            (3, lambda t: t + "===="),
            (3, lambda t: t + "="),
            (3, lambda t: t[:8] + "====" + t[8:]),
            (3, lambda t: t[:-1]),
        ],
        ids=["non-alphabet", "non-ascii", "space", "inner-newline", "trailing-newline",
             "url-safe-dash", "url-safe-underscore", "missing-padding", "short-padding",
             "excess-padding", "data-after-padding", "excess-padding-of-whole-groups",
             "padding-of-whole-groups", "padding-inside", "truncated"],
    )
    def test_invalid_base64_raises_value_error(self, field, d, edit):
        # at d = 2 a field holds 1 mod 3 bytes, so its text ends in "=="; at d = 3 it holds
        # a multiple of 3 bytes and needs no padding
        data = protocol_file(standard_protocol(np.full(d, d**-0.5)))
        assert data[field].endswith("==") if d == 2 else not data[field].endswith("=")
        data[field] = edit(data[field])
        with pytest.raises(ValueError) as info:
            protocol_from_json(json.dumps(data))
        assert str(info.value) == f"{field} must be padded standard base64 with nothing else"

    @pytest.mark.parametrize("counts,shape", [([1, 0, 2, 1], (0, 2, 2)),
                                              ([1, -1, 3, 1], (-1, 2, 2))],
                             ids=["empty", "negative"])
    def test_malformed_kraus_block_names_its_outcome(self, counts, shape):
        data = protocol_file(standard_protocol([0.8, 0.6]))
        data["kraus_counts"] = counts
        message = f"outcome 1: Kraus block must have shape (S, d, d), got {shape}"
        with pytest.raises(ValueError) as info:
            protocol_from_json(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "shape,message",
        [
            ((0, 2, 2), "outcome 1: Kraus block must have shape (S, d, d), got (0, 2, 2)"),
            ((1, 2, 3), "outcome 1: Kraus block must have shape (S, d, d), got (1, 2, 3)"),
            ((1, 3, 3), "outcome 1: dimension 3 != 2"),
            ((2,), "outcome 1: Kraus block must have shape (S, d, d), got (2,)"),
        ],
        ids=["empty", "non-square", "wrong-dimension", "vector"],
    )
    def test_malformed_kraus_array_names_its_outcome(self, shape, message):
        with pytest.raises(ValueError) as info:
            BobCorrections((np.eye(2), np.zeros(shape)))
        assert str(info.value) == message

    def test_no_kraus_blocks_raises_value_error(self):
        for kraus in ((), np.zeros((0, 2, 2))):
            with pytest.raises(ValueError, match="^need at least one outcome$"):
                BobCorrections(kraus)

    def test_non_square_stack_names_outcome_0(self):
        with pytest.raises(ValueError) as info:
            BobCorrections(np.zeros((3, 2, 3)))
        assert str(info.value) == "outcome 0: Kraus block must have shape (S, d, d), got (1, 2, 3)"

    @pytest.mark.parametrize("d", [3, 5, 8])
    @pytest.mark.parametrize("kind", ["one-operator", "multi-kraus"])
    def test_read_back_protocol_gives_the_same_shots(self, kind, d):
        gen = make_rng(90, stream=d)
        if kind == "one-operator":
            proto = povm_protocol(d, random_lambdas(d, gen), 91)
        else:
            proto = multi_kraus_protocol(d, gen)
        restored = protocol_from_json(protocol_to_json(proto))
        rng, twin = make_rng(92, stream=d), make_rng(92, stream=d)
        for amplitudes in sample_haar_states(d, 50, make_rng(93, stream=d)):
            psi = PureState(amplitudes)
            assert outcome_distribution(proto, psi).tobytes() == outcome_distribution(
                restored, psi).tobytes()
            out, back = teleport_once(proto, psi, rng), teleport_once(restored, psi, twin)
            assert out.outcome == back.outcome
            assert np.float64(out.probability).tobytes() == np.float64(back.probability).tobytes()
            assert out.output_state.amplitudes.tobytes() == back.output_state.amplitudes.tobytes()

    @pytest.mark.parametrize("field", ["schema", "d", "lambdas", "kraus_counts", "phi",
                                       "corrections"])
    def test_missing_field_raises_value_error(self, field):
        data = protocol_file(standard_protocol([0.8, 0.6]))
        del data[field]
        with pytest.raises(ValueError) as info:
            protocol_from_json(json.dumps(data))
        assert str(info.value) == f"protocol is missing field '{field}'"

    def test_file_fields(self):
        proto = standard_protocol([0.8, 0.6])
        data = protocol_file(proto)
        assert list(data) == ["schema", "d", "lambdas", "kraus_counts", "phi", "corrections"]
        assert data["schema"] == 3
        assert data["kraus_counts"] == [1, 1, 1, 1]
        # every array is one base64 string of 16 bytes per complex entry
        for field in ("phi", "corrections"):
            assert type(data[field]) is str
            assert len(base64.b64decode(data[field], validate=True)) == 4 * 2 * 2 * 16

    def test_json_is_valid(self):
        text = protocol_to_json(standard_protocol([0.8, 0.6]))
        assert json.loads(text)["d"] == 2
