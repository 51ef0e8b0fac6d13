import numpy as np
import pytest

from teleportsim import (
    BobCorrections,
    Protocol,
    SchmidtDecomposition,
    fidelity_bound,
    make_rng,
    max_singlet_fraction,
    mean_fidelity_exact,
    mean_fidelity_mkl_form,
    mean_fidelity_monte_carlo,
    optimal_bob_corrections,
    optimal_fidelity_given_measurement,
    random_povm,
    standard_measurement,
    standard_protocol,
)
from teleportsim.protocol import AliceMeasurement
from helpers import random_kraus_set, random_lambdas, random_unitaries


def random_protocol(d, rng, multi_kraus=False):
    """Valid but generally suboptimal protocol on a random resource."""
    lam = random_lambdas(d, rng)
    meas = random_povm(d, d * d, rng)
    if multi_kraus:
        blocks = tuple(random_kraus_set(d, 2, rng) for _ in range(meas.n_outcomes))
        corr = BobCorrections(blocks)
    else:
        corr = BobCorrections(random_unitaries(d, meas.n_outcomes, rng))
    return Protocol(SchmidtDecomposition(lam), meas, corr)


class TestMeanFidelityExact:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_perfect_for_maximally_entangled(self, d):
        proto = standard_protocol(np.full(d, 1 / np.sqrt(d)))
        assert mean_fidelity_exact(proto) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_product_resource_value(self, d):
        lam = np.zeros(d)
        lam[0] = 1.0
        proto = standard_protocol(lam)
        assert mean_fidelity_exact(proto) == pytest.approx(2 / (d + 1), abs=1e-12)

    def test_closed_form_at_pi_over_8(self):
        theta = np.pi / 8
        proto = standard_protocol([np.cos(theta), np.sin(theta)])
        expected = (1 + (np.cos(theta) + np.sin(theta)) ** 2) / 3
        assert mean_fidelity_exact(proto) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_mkl_sandwich(self):
        rng = make_rng(90)
        for i in range(10):
            proto = random_protocol(2, rng, multi_kraus=(i % 2 == 0))
            assert mean_fidelity_exact(proto) == pytest.approx(
                mean_fidelity_mkl_form(proto), abs=1e-12
            )

    def test_suboptimal_corrections_never_help(self):
        rng = make_rng(91)
        for d in (2, 3):
            for _ in range(10):
                proto = random_protocol(d, rng, multi_kraus=True)
                cap = optimal_fidelity_given_measurement(
                    proto.measurement, proto.schmidt.lambdas
                )
                assert mean_fidelity_exact(proto) <= cap + 1e-10


class TestMeanFidelityMonteCarlo:
    def test_deterministic_integrand_for_maxent(self):
        proto = standard_protocol([1 / np.sqrt(2)] * 2)
        est = mean_fidelity_monte_carlo(proto, 100_000, make_rng(9))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error < 1e-10

    def test_matches_exact_within_band(self):
        proto = standard_protocol([0.9, np.sqrt(0.19)])
        est = mean_fidelity_monte_carlo(proto, 200_000, make_rng(10))
        assert abs(est.value - mean_fidelity_exact(proto)) <= 4 * est.std_error

    def test_identity_corrections_are_suboptimal(self):
        proto = Protocol(
            SchmidtDecomposition([1 / np.sqrt(2)] * 2),
            standard_measurement(2),
            BobCorrections([np.eye(2)] * 4),
        )
        exact = mean_fidelity_exact(proto)
        assert exact == pytest.approx(0.5, abs=1e-12)  # trace of the shifted outcomes vanishes
        est = mean_fidelity_monte_carlo(proto, 100_000, make_rng(11))
        # the integrand happens to be constant, so floor the band at rounding noise
        assert abs(est.value - exact) <= max(4 * est.std_error, 1e-12)
        assert est.value < 1.0

    def test_determinism(self):
        proto = standard_protocol([0.8, 0.6])
        a = mean_fidelity_monte_carlo(proto, 5000, make_rng(12))
        b = mean_fidelity_monte_carlo(proto, 5000, make_rng(12))
        assert a.value == b.value and a.std_error == b.std_error

    def test_agreement_on_random_protocols(self):
        rng = make_rng(15)
        for case in range(20):
            proto = random_protocol(2 + case % 2, rng)
            est = mean_fidelity_monte_carlo(proto, 100_000, make_rng(150, stream=case))
            assert abs(est.value - mean_fidelity_exact(proto)) <= 4 * est.std_error

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="1000"):
            mean_fidelity_monte_carlo(standard_protocol([0.8, 0.6]), 10, make_rng(0))


class TestFidelityBound:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_maximally_entangled_reaches_one(self, d):
        assert fidelity_bound(np.full(d, 1 / np.sqrt(d))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_product_state_value(self, d):
        lam = np.zeros(d)
        lam[0] = 1.0
        assert fidelity_bound(lam) == pytest.approx(2 / (d + 1), abs=1e-15)

    def test_d2_closed_form(self):
        theta = np.pi / 6
        lam = np.sort([np.cos(theta), np.sin(theta)])[::-1]
        assert fidelity_bound(lam) == pytest.approx((2 + np.sin(2 * theta)) / 3, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            fidelity_bound([0.9, 0.6])

    def test_robin_hood_transfers_never_decrease(self):
        # moving squared weight from a larger to a smaller coefficient
        # (keeping the total) can only raise the bound
        rng = make_rng(13)
        for d in (2, 3, 5):
            for _ in range(50):
                lam = random_lambdas(d, rng)
                i, j = 0, d - 1
                if lam[i] - lam[j] < 1e-6:
                    continue
                eps = rng.uniform(0, (lam[i] ** 2 - lam[j] ** 2) / 2)
                shifted = np.array(lam)
                shifted[i] = np.sqrt(lam[i] ** 2 - eps)
                shifted[j] = np.sqrt(lam[j] ** 2 + eps)
                shifted = np.sort(shifted)[::-1]
                assert fidelity_bound(shifted) >= fidelity_bound(lam) - 1e-12


class TestOptimalFidelityGivenMeasurement:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_standard_measurement_saturates_bound(self, d):
        rng = make_rng(14 + d)
        meas = standard_measurement(d)
        for _ in range(20):
            lam = random_lambdas(d, rng)
            assert optimal_fidelity_given_measurement(meas, lam) == pytest.approx(
                fidelity_bound(lam), abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_never_exceeds_bound(self, d):
        rng = make_rng(16 + d)
        for _ in range(200):
            lam = random_lambdas(d, rng)
            meas = random_povm(d, d * d, rng)
            assert optimal_fidelity_given_measurement(meas, lam) <= fidelity_bound(lam) + 1e-9

    def test_single_outcome_identity_blocks(self):
        # A_0 = diag(1, 0): nuclear norm 1, so the formula gives 1/2
        meas = AliceMeasurement(np.eye(2, dtype=complex)[None])
        assert optimal_fidelity_given_measurement(meas, [1.0, 0.0]) == pytest.approx(0.5)

    def test_matches_exact_with_optimal_corrections(self):
        rng = make_rng(18)
        for d in (2, 3):
            lam = random_lambdas(d, rng)
            meas = random_povm(d, d * d, rng)
            schmidt = SchmidtDecomposition(lam)
            proto = Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))
            assert mean_fidelity_exact(proto) == pytest.approx(
                optimal_fidelity_given_measurement(meas, lam), abs=1e-12
            )


class TestMaxSingletFraction:
    def test_endpoints(self):
        assert max_singlet_fraction([1 / np.sqrt(2)] * 2) == pytest.approx(1.0)
        assert max_singlet_fraction([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_d2_closed_form(self):
        theta = np.pi / 8
        lam = np.sort([np.cos(theta), np.sin(theta)])[::-1]
        expected = (1 + np.sin(2 * theta)) / 2
        assert max_singlet_fraction(lam) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_algebraic_link_to_bound(self, d):
        rng = make_rng(19 + d)
        for _ in range(50):
            lam = random_lambdas(d, rng)
            f = max_singlet_fraction(lam)
            assert fidelity_bound(lam) == pytest.approx((f * d + 1) / (d + 1), abs=1e-12)
