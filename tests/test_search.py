import numpy as np
import pytest

from teleportsim import (
    fidelity_bound,
    make_rng,
    random_povm,
    search_best_protocol,
    validate_completeness,
)
from helpers import polar_random_povm, random_lambdas


class TestRandomPovm:
    @pytest.mark.parametrize("d,n_outcomes", [(2, 4), (2, 8), (3, 9), (3, 18), (4, 16)])
    def test_always_complete(self, d, n_outcomes):
        rng = make_rng(200)
        for _ in range(10):
            report = validate_completeness(random_povm(d, n_outcomes, rng), tol=1e-10)
            assert report.passed

    def test_too_few_outcomes_rejected(self):
        # rank-one elements cannot resolve the d^2-dimensional joint identity
        # with fewer than d^2 outcomes
        with pytest.raises(ValueError, match="at least 4"):
            random_povm(2, 2, make_rng(0))

    def test_seeded_draw_is_locked(self):
        meas = random_povm(2, 4, make_rng(42))
        # regression freeze of the first draw at seed 42
        expected_00 = np.array([0.1390272 + 0.61547738j, -0.01792102 - 0.17830577j])
        expected_31 = np.array([0.32078982 + 0.44787649j, -0.30901797 + 0.58824445j])
        assert np.allclose(meas.phi[0, 0], expected_00, atol=1e-8)
        assert np.allclose(meas.phi[3, 1], expected_31, atol=1e-8)

    def test_determinism(self):
        a = random_povm(3, 9, make_rng(5))
        b = random_povm(3, 9, make_rng(5))
        assert np.array_equal(a.phi, b.phi)

    @pytest.mark.parametrize("d,n_outcomes", [(2, 7), (3, 12)])
    def test_frame_spans_the_polar_frame_space(self, d, n_outcomes):
        # both frames are the Gaussian draw times an invertible (d^2, d^2) matrix,
        # so their outcome vectors span the same d^2-dimensional subspace
        def projector(meas):
            joint = np.asarray(meas.phi).transpose(0, 2, 1).reshape(n_outcomes, d * d)
            return joint @ joint.conj().T

        for seed in range(5):
            got = projector(random_povm(d, n_outcomes, make_rng(seed)))
            want = projector(polar_random_povm(d, n_outcomes, make_rng(seed)))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_entries_have_zero_mean(self):
        # a Haar frame has no preferred phase; an unfixed QR phase biases every entry
        rng = make_rng(300)
        z = np.array([random_povm(2, 4, rng).phi[0, 0, 0] for _ in range(4000)])
        for part in (z.real, z.imag):
            assert abs(part.mean()) <= 4 * part.std(ddof=1) / np.sqrt(z.size)

    def test_rank_deficient_frame_raises(self):
        class RankOneGaussian:
            def standard_normal(self, shape):
                return np.ones(shape)

        with pytest.raises(RuntimeError, match="full-rank"):
            random_povm(2, 5, RankOneGaussian())


class TestSearchBestProtocol:
    def test_maximally_entangled_reaches_one(self):
        lam = np.full(2, 1 / np.sqrt(2))
        result = search_best_protocol(lam, 4, 500, make_rng(1))
        assert result.best_fidelity == pytest.approx(1.0, abs=1e-12)
        assert abs(result.gap) <= 1e-12
        assert result.n_evaluated == 501

    def test_partially_entangled_gap(self):
        lam = np.array([0.9, np.sqrt(0.19)])
        result = search_best_protocol(lam, 4, 500, make_rng(2))
        assert -1e-12 <= result.gap <= result.bound - 2 / 3
        assert result.best_fidelity <= result.bound + 1e-9

    def test_d3_random_spectrum(self):
        rng = make_rng(3)
        lam = random_lambdas(3, rng)
        result = search_best_protocol(lam, None, 200, rng)
        assert result.gap >= -1e-9
        assert result.bound == pytest.approx(fidelity_bound(lam))

    def test_standard_measurement_always_within_bound(self):
        rng = make_rng(4)
        for d in (2, 3):
            lam = random_lambdas(d, rng)
            result = search_best_protocol(lam, d * d, 1, rng)
            assert abs(result.gap) <= 1e-10

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="iteration"):
            search_best_protocol([0.8, 0.6], 4, 0, make_rng(0))
