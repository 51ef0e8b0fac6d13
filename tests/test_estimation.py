import warnings

import numpy as np
import pytest

from teleportsim import (
    EstimationStrategy,
    PureState,
    SchmidtDecomposition,
    check_optimality,
    estimation_fidelity_bound,
    estimation_fidelity_exact,
    estimation_fidelity_mc,
    make_rng,
    optimal_estimates,
    optimal_fidelity_given_measurement,
    standard_measurement,
)
from teleportsim.protocol import AliceMeasurement
from helpers import random_lambdas, random_optimal_measurement


class TestOptimalEstimates:
    def test_standard_d2_guesses(self):
        strategy = optimal_estimates(standard_measurement(2))
        # r = p + q*d: outcomes 0,1 guess |0>, outcomes 2,3 guess |1>
        expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex)
        assert np.allclose(np.abs(strategy.guesses), np.abs(expected))
        # no leading block vanishes, so every guess is its normalized block, none the unit |0>
        phi0 = standard_measurement(2).phi[:, 0]
        assert np.array_equal(strategy.guesses, phi0 / np.linalg.norm(phi0, axis=1, keepdims=True))

    def test_standard_d3_guesses_follow_shift(self):
        strategy = optimal_estimates(standard_measurement(3))
        for p in range(3):
            for q in range(3):
                guess = strategy.guesses[p + 3 * q]
                assert abs(guess[q]) == pytest.approx(1.0)

    def test_guesses_are_unit_vectors(self):
        strategy = optimal_estimates(random_optimal_measurement(3, 2, make_rng(1)))
        assert np.allclose(np.linalg.norm(strategy.guesses, axis=1), 1.0)

    def test_zero_leading_block_guesses_unit_zero(self):
        phi = np.zeros((2, 2, 2), dtype=complex)
        phi[0, 1] = [1, 0]  # outcome 0 has no k=0 block
        phi[1, 0] = [0, 1]
        strategy = optimal_estimates(AliceMeasurement(phi))
        assert np.array_equal(strategy.guesses, [[1, 0], [0, 1]])
        assert np.linalg.norm(strategy.guesses[0]) == pytest.approx(1.0)


class TestEstimationFidelityExact:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_standard_reaches_bound(self, d):
        rng = make_rng(30 + d)
        meas = standard_measurement(d)
        strategy = optimal_estimates(meas)
        for _ in range(20):
            lam = random_lambdas(d, rng)
            value = estimation_fidelity_exact(meas, lam, strategy)
            assert value == pytest.approx((1 + lam[0] ** 2) / (d + 1), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_entangled_is_random_guessing(self, d):
        meas = standard_measurement(d)
        value = estimation_fidelity_exact(
            meas, np.full(d, 1 / np.sqrt(d)), optimal_estimates(meas)
        )
        assert value == pytest.approx(1 / d, abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_product_resource_single_copy_value(self, d):
        lam = np.zeros(d)
        lam[0] = 1.0
        meas = standard_measurement(d)
        value = estimation_fidelity_exact(meas, lam, optimal_estimates(meas))
        assert value == pytest.approx(2 / (d + 1), abs=1e-12)


class TestEstimationFidelityBound:
    def test_uniform_spectrum(self):
        for d in (2, 3, 4):
            assert estimation_fidelity_bound(np.full(d, 1 / np.sqrt(d))) == pytest.approx(
                1 / d, abs=1e-14
            )

    def test_product_state(self):
        assert estimation_fidelity_bound([1.0, 0.0, 0.0]) == pytest.approx(0.5)

    def test_d2_example(self):
        assert estimation_fidelity_bound([0.8, 0.6]) == pytest.approx(1.64 / 3, abs=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            estimation_fidelity_bound([1.0, 1.0])


class TestEstimationFidelityMc:
    def test_maximally_entangled(self):
        # the integrand is constant here, so the band floors at rounding noise
        meas = standard_measurement(2)
        lam = np.full(2, 1 / np.sqrt(2))
        est = estimation_fidelity_mc(meas, lam, optimal_estimates(meas), 100_000, make_rng(7))
        assert abs(est.value - 0.5) <= max(4 * est.std_error, 1e-12)

    def test_product_resource(self):
        meas = standard_measurement(3)
        lam = np.array([1.0, 0.0, 0.0])
        est = estimation_fidelity_mc(meas, lam, optimal_estimates(meas), 100_000, make_rng(8))
        assert abs(est.value - 0.5) <= 4 * est.std_error

    def test_matches_exact_for_random_spectrum(self):
        rng = make_rng(9)
        meas = standard_measurement(3)
        lam = random_lambdas(3, rng)
        strategy = optimal_estimates(meas)
        est = estimation_fidelity_mc(meas, lam, strategy, 100_000, rng)
        exact = estimation_fidelity_exact(meas, lam, strategy)
        assert abs(est.value - exact) <= 4 * est.std_error

    def test_sample_floor(self):
        meas = standard_measurement(2)
        with pytest.raises(ValueError, match="1000"):
            estimation_fidelity_mc(meas, [1.0, 0.0], optimal_estimates(meas), 5, make_rng(0))


EVALUATORS = {
    "optimal_fidelity": lambda meas, lam, strategy: optimal_fidelity_given_measurement(meas, lam),
    "estimation_exact": estimation_fidelity_exact,
    "estimation_mc": lambda meas, lam, strategy: estimation_fidelity_mc(
        meas, lam, strategy, 1000, make_rng(0)
    ),
}


class TestInputChecks:
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_too_many_coefficients_rejected(self, name):
        meas = standard_measurement(2)
        with pytest.raises(ValueError, match="coefficients"):
            EVALUATORS[name](meas, [1.0, 0.0, 0.0], optimal_estimates(meas))

    @pytest.mark.parametrize("name", ["estimation_exact", "estimation_mc"])
    def test_wrong_outcome_count_rejected(self, name):
        meas = standard_measurement(2)
        strategy = EstimationStrategy(np.eye(2, dtype=complex)[[0, 1, 0]])
        with pytest.raises(ValueError, match="strategy shape"):
            EVALUATORS[name](meas, [0.8, 0.6], strategy)

    @pytest.mark.parametrize("excess, unit", [(7e-13, False), (-7e-13, False), (4e-13, True)])
    def test_guesses_are_unit_vectors_as_states_are(self, excess, unit):
        # |g|^2 - 1 is 2 excess: 1.4e-12 lies beyond the states' NORM_ATOL, 8e-13 within it
        guess = [1 + excess, 0]
        guesses = [guess, [1, 0], [0, 1], [1, 0]]
        if unit:
            PureState(guess)
            EstimationStrategy(guesses)
            return
        with pytest.raises(ValueError, match="not normalized"):
            PureState(guess)
        with pytest.raises(ValueError, match="every guess must be a unit vector$"):
            EstimationStrategy(guesses)

    def test_nan_guess_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            EstimationStrategy([[np.nan, 0], [1, 0], [0, 1], [1, 0]])

    def test_infinite_guess_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="guesses must be finite"):
                EstimationStrategy([[np.inf, 0], [1, 0], [0, 1], [1, 0]])


class TestOptimalityOfStrategy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bound_attained_on_optimal_measurements(self, d):
        rng = make_rng(100 + d)
        for _ in range(25):
            meas = random_optimal_measurement(d, int(rng.integers(1, 4)), rng)
            schmidt = SchmidtDecomposition(random_lambdas(d, rng))
            assert check_optimality(meas, schmidt).passed
            value = estimation_fidelity_exact(
                meas, schmidt.lambdas, optimal_estimates(meas)
            )
            assert value == pytest.approx(
                estimation_fidelity_bound(schmidt.lambdas), abs=1e-10
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_strategies_never_beat_bound(self, d):
        rng = make_rng(110 + d)
        for _ in range(25):
            meas = random_optimal_measurement(d, int(rng.integers(1, 4)), rng)
            lam = random_lambdas(d, rng)
            z = rng.standard_normal((meas.n_outcomes, d)) + 1j * rng.standard_normal(
                (meas.n_outcomes, d)
            )
            strategy = EstimationStrategy(z / np.linalg.norm(z, axis=1, keepdims=True))
            value = estimation_fidelity_exact(meas, lam, strategy)
            assert value <= estimation_fidelity_bound(lam) + 1e-10

    def test_degenerate_spectrum_allows_any_combination(self):
        # lambda_0 = lambda_1: any unit combination of the two leading blocks
        # gives the same fidelity
        rng = make_rng(120)
        d = 3
        meas = random_optimal_measurement(d, 2, rng)
        lam = np.array([0.7, 0.7, np.sqrt(1 - 2 * 0.49)])
        lam = np.sort(lam / np.linalg.norm(lam))[::-1]
        base = estimation_fidelity_exact(meas, lam, optimal_estimates(meas))
        for _ in range(10):
            alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            scale = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            alpha, beta = alpha / scale, beta / scale
            guesses = []
            for r in range(meas.n_outcomes):
                v0, v1 = meas.phi[r, 0], meas.phi[r, 1]
                g = alpha * v0 / np.linalg.norm(v0) + beta * v1 / np.linalg.norm(v1)
                guesses.append(g / np.linalg.norm(g))
            mixed = estimation_fidelity_exact(meas, lam, EstimationStrategy(np.array(guesses)))
            assert mixed == pytest.approx(base, abs=1e-10)

    def test_endpoint_consistency(self):
        for d in (2, 3, 4, 5):
            uniform = np.full(d, 1 / np.sqrt(d))
            product = np.zeros(d)
            product[0] = 1.0
            assert estimation_fidelity_bound(uniform) == pytest.approx(1 / d, abs=1e-14)
            assert estimation_fidelity_bound(product) == pytest.approx(2 / (d + 1), abs=1e-14)
