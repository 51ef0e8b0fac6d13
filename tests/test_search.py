import numpy as np
import pytest

from teleportsim import (
    fidelity_bound,
    make_rng,
    random_povm,
    search_best_protocol,
    standard_measurement,
    validate_completeness,
)
from teleportsim.search import BLOCK_ENTRIES, MAX_FAILED_FRAMES
from helpers import (
    loop_random_povm,
    loop_search_best_protocol,
    polar_random_povm,
    random_lambdas,
)


def block_size(d, n_outcomes):
    """Candidates per search block."""
    return max(1, BLOCK_ENTRIES // (n_outcomes * d * d))


class ScriptedGaussian:
    """A seeded generator whose chosen Gaussian frames are rank one.

    Frame f is the f-th run of 2 n_outcomes d^2 normals drawn, however the
    draws are split into calls; the frames in ``rank_one`` are all ones.
    ``shapes`` records the shape of each ``standard_normal`` call.
    """

    def __init__(self, seed, d, n_outcomes, rank_one=()):
        self.rng = make_rng(seed)
        self.frame = 2 * n_outcomes * d * d
        self.rank_one = sorted(rank_one)
        self.drawn = 0
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        values = self.rng.standard_normal(shape)
        flat = values.reshape(-1)
        frames = (self.drawn + np.arange(flat.size)) // self.frame
        flat[np.isin(frames, self.rank_one)] = 1.0
        self.drawn += flat.size
        return values

    def random(self):
        return self.rng.random()


def assert_same_search(result, reference, rng, reference_rng):
    best_f, best_meas, n_evaluated = reference
    assert result.best_fidelity == best_f
    assert np.array_equal(result.best_measurement.phi.view(np.uint64),
                          best_meas.phi.view(np.uint64))
    assert result.n_evaluated == n_evaluated
    assert rng.random() == reference_rng.random()


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


class TestSearchBlocks:
    """Blocked search against the one-candidate-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("spectrum", ["random", "product"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("extra", [0, 1], ids=["n=d^2", "n=d^2+d"])
    def test_matches_one_at_a_time_reference(self, d, extra, spectrum):
        n_outcomes = d * d + extra * d
        lam = random_lambdas(d, make_rng(120 + d)) if spectrum == "random" else np.eye(d)[0]
        # two whole blocks and a partial third
        iterations = 2 * block_size(d, n_outcomes) + 3
        rng, reference_rng = make_rng(130 + d), make_rng(130 + d)
        result = search_best_protocol(lam, n_outcomes, iterations, rng)
        reference = loop_search_best_protocol(lam, n_outcomes, iterations, reference_rng)
        assert_same_search(result, reference, rng, reference_rng)

    @pytest.mark.parametrize("d", [2, 4])
    def test_product_spectrum_search_keeps_a_random_candidate(self, d):
        # every complete measurement scores 2 / (d + 1) on a product resource up to
        # rounding, so at d = 2 and 4 some draws beat the standard measurement by
        # rounding and several share the best score: the reference comparison above
        # then checks which of equal scores wins
        result = search_best_protocol(np.eye(d)[0], d * d, 2000, make_rng(133))
        assert result.best_measurement is not standard_measurement(d)
        assert 0 < result.best_fidelity - 2 / (d + 1) <= 1e-15

    @pytest.mark.parametrize(
        "rank_one",
        [[0], [0, 1, 2], [5], [15], [15, 16], [7, 20, 33, 39], list(range(3, 10))],
        ids=["first", "first-three", "mid-block", "last-in-block", "across-blocks",
             "scattered", "seven-in-a-row"],
    )
    def test_rank_deficient_frames_are_skipped_as_the_reference_skips_them(self, rank_one):
        d, n_outcomes = 8, 64
        assert block_size(d, n_outcomes) == 16
        lam = random_lambdas(d, make_rng(140))
        rng = ScriptedGaussian(141, d, n_outcomes, rank_one)
        reference_rng = ScriptedGaussian(141, d, n_outcomes, rank_one)
        result = search_best_protocol(lam, n_outcomes, 40, rng)
        reference = loop_search_best_protocol(lam, n_outcomes, 40, reference_rng)
        assert_same_search(result, reference, rng, reference_rng)

    @pytest.mark.parametrize("start", [0, 5, 12])
    def test_eight_rank_deficient_frames_in_a_row_raise_as_the_reference_does(self, start):
        d, n_outcomes = 8, 64
        rank_one = range(start, start + MAX_FAILED_FRAMES)
        lam = random_lambdas(d, make_rng(142))
        with pytest.raises(RuntimeError) as reference:
            loop_search_best_protocol(lam, n_outcomes, 40, ScriptedGaussian(143, d, n_outcomes,
                                                                            rank_one))
        with pytest.raises(RuntimeError) as got:
            search_best_protocol(lam, n_outcomes, 40, ScriptedGaussian(143, d, n_outcomes,
                                                                       rank_one))
        assert str(got.value) == str(reference.value) == "failed to draw a full-rank Gaussian frame"

    @pytest.mark.parametrize("rank_one", [[], [0], list(range(7))])
    def test_random_povm_matches_the_reference(self, rank_one):
        d, n_outcomes = 3, 12
        rng = ScriptedGaussian(144, d, n_outcomes, rank_one)
        reference_rng = ScriptedGaussian(144, d, n_outcomes, rank_one)
        for _ in range(3):
            got, want = random_povm(d, n_outcomes, rng), loop_random_povm(d, n_outcomes,
                                                                          reference_rng)
            assert np.array_equal(got.phi.view(np.uint64), want.phi.view(np.uint64))
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "d,n_outcomes,iterations,counts",
        [(2, 4, 5000, [4096, 904]), (8, 64, 40, [16, 16, 8]), (16, 256, 2, [1, 1]),
         (16, 272, 1, [1])],
    )
    def test_each_block_draws_its_frames_in_one_call(self, d, n_outcomes, iterations, counts):
        # at most 2^16 complex frame entries per block: one candidate at d = 16
        rng = ScriptedGaussian(145, d, n_outcomes)
        search_best_protocol(np.eye(d)[0], n_outcomes, iterations, rng)
        assert rng.shapes == [(c, 2, n_outcomes, d * d) for c in counts]


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
        result = search_best_protocol(lam, 9, 200, rng)
        assert result.gap >= -1e-9
        assert result.bound == pytest.approx(fidelity_bound(lam))

    def test_standard_measurement_always_within_bound(self):
        rng = make_rng(4)
        for d in (2, 3):
            lam = random_lambdas(d, rng)
            result = search_best_protocol(lam, d * d, 1, rng)
            assert abs(result.gap) <= 1e-10

    @pytest.mark.parametrize("n_outcomes", [-1, 0, 3])
    def test_too_few_outcomes_rejected(self, n_outcomes):
        with pytest.raises(ValueError, match="at least 4 outcomes"):
            search_best_protocol([0.8, 0.6], n_outcomes, 5, make_rng(0))

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="iteration"):
            search_best_protocol([0.8, 0.6], 4, 0, make_rng(0))
