import tracemalloc

import numpy as np
import pytest
from scipy import stats

from teleportsim import (
    McEstimate,
    estimation_fidelity_mc,
    m_kl_exact,
    m_kl_monte_carlo,
    make_rng,
    mean_fidelity_monte_carlo,
    optimal_estimates,
    random_povm,
    sample_haar_state,
    sample_haar_states,
    standard_measurement,
    standard_protocol,
)
from teleportsim import haar
from teleportsim.estimation import _estimation_form
from teleportsim.haar import (
    _form_rows,
    _form_width,
    _haar_draw,
    _haar_rows,
    _hermitian_coords,
    _moment_blocks,
    _sample_simplex,
    _state_coords,
    form_monte_carlo,
)
from helpers import einsum_m_kl_monte_carlo, random_lambdas, random_unitary


class TestSampling:
    def test_rejects_a_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make_rng(-1)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_haar_state(1, make_rng(0))

    def test_single_sample_is_pure_state(self):
        psi = sample_haar_state(4, make_rng(1))
        assert psi.dim == 4

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_second_moment_uniform(self, d):
        # mean |<k|psi>|^2 = 1/d by symmetry
        samples = sample_haar_states(d, 100_000, make_rng(100 + d))
        p = np.abs(samples) ** 2
        for k in range(d):
            se = p[:, k].std(ddof=1) / np.sqrt(p.shape[0])
            assert abs(p[:, k].mean() - 1 / d) <= 4 * se

    @pytest.mark.parametrize("d", [2, 3])
    def test_fourth_moment(self, d):
        # mean |<k|psi>|^4 = 2 / (d (d+1))
        samples = sample_haar_states(d, 100_000, make_rng(11))
        p4 = np.abs(samples[:, 0]) ** 4
        se = p4.std(ddof=1) / np.sqrt(p4.size)
        assert abs(p4.mean() - 2 / (d * (d + 1))) <= 4 * se

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_invariance_ks(self, d):
        # |<0|psi>|^2 ~ Beta(1, d-1) both before and after a fixed rotation
        samples = sample_haar_states(d, 100_000, make_rng(2024))
        u = random_unitary(d, make_rng(99))
        cdf = lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (d - 1)
        for batch in (samples, samples @ u.T):
            p = np.abs(batch[:, 0]) ** 2
            assert stats.kstest(p, cdf).pvalue > 0.01

    def test_determinism(self):
        a = sample_haar_states(3, 1000, make_rng(7))
        b = sample_haar_states(3, 1000, make_rng(7))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_haar_states(3, 10, make_rng(7, stream=0))
        b = sample_haar_states(3, 10, make_rng(7, stream=1))
        assert not np.allclose(a, b)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockwiseDraw:
    """One (2, n, d) draw, normalized block by block, gives the states of the whole draw."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_states_are_the_whole_draw_normalized_at_once(self, d):
        # the reference: real parts, then imaginary parts, each row divided by its norm
        n = 3 * haar.HAAR_BLOCK_ENTRIES // d + 5  # several blocks, the last one ragged
        rng, ref_rng = make_rng(120 + d), make_rng(120 + d)
        z = ref_rng.standard_normal((n, d)) + 1j * ref_rng.standard_normal((n, d))
        want = z / np.linalg.norm(z, axis=1, keepdims=True)
        assert np.array_equal(bits(sample_haar_states(d, n, rng)), bits(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("step", [1, 7, 333, 2048])
    def test_any_split_gives_the_states_bit_for_bit(self, d, step):
        n = 2500  # no step divides it evenly
        rng, ref_rng = make_rng(130 + d), make_rng(130 + d)
        draw = _haar_draw(d, n, rng)
        rows = np.concatenate([_haar_rows(draw[:, start : start + step])
                               for start in range(0, n, step)])
        assert np.array_equal(bits(rows), bits(sample_haar_states(d, n, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestMklExact:
    def test_d2_diagonal(self):
        m = m_kl_exact(2, 0, 0).matrix
        assert np.allclose(m, np.diag([2 / 6, 1 / 6]))

    def test_d2_offdiagonal(self):
        m = m_kl_exact(2, 0, 1).matrix
        expected = np.zeros((2, 2))
        expected[0, 1] = 1 / 6
        assert np.allclose(m, expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_trace_of_diagonal_sum(self, d):
        total = sum(np.trace(m_kl_exact(d, k, k).matrix) for k in range(d))
        assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hermiticity_relation(self, d):
        for k in range(d):
            for l in range(d):
                mkl = m_kl_exact(d, k, l).matrix
                mlk = m_kl_exact(d, l, k).matrix
                assert np.allclose(mkl.conj().T, mlk, atol=1e-15)

    def test_index_range(self):
        with pytest.raises(ValueError, match="indices"):
            m_kl_exact(2, 0, 2)

    @pytest.mark.parametrize("d", [1, 0, -1])
    @pytest.mark.parametrize(
        "moment",
        [lambda d: m_kl_exact(d, 0, 0), lambda d: m_kl_monte_carlo(d, 0, 0, 10_000, make_rng(0))],
        ids=["exact", "monte_carlo"],
    )
    def test_dimension_floor_comes_before_the_indices(self, moment, d):
        with pytest.raises(ValueError, match=f"^dimension must be at least 2, got {d}$"):
            moment(d)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_moment_matrix_is_every_operator_bit_for_bit(self, d):
        m = haar._moment_matrix(d)
        assert m.dtype == float and m.shape == (d * d, d * d)
        stacked = np.array([[m_kl_exact(d, k, l).matrix for l in range(d)] for k in range(d)])
        want = stacked.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert not want.imag.view(np.uint64).any()
        assert np.array_equal(m.view(np.uint64), want.real.copy().view(np.uint64))


class TestMklMonteCarlo:
    def test_matches_exact_d2(self):
        est = m_kl_monte_carlo(2, 0, 0, 100_000, make_rng(21))
        dev = np.abs(np.asarray(est.value) - m_kl_exact(2, 0, 0).matrix)
        assert np.all(dev <= 4 * np.asarray(est.std_error))

    def test_matches_exact_d3_offdiagonal(self):
        est = m_kl_monte_carlo(3, 0, 1, 100_000, make_rng(22))
        dev = np.abs(np.asarray(est.value) - m_kl_exact(3, 0, 1).matrix)
        assert np.all(dev <= 4 * np.asarray(est.std_error))

    def test_zero_entries_within_band(self):
        est = m_kl_monte_carlo(3, 0, 1, 50_000, make_rng(23))
        exact = m_kl_exact(3, 0, 1).matrix
        zeros = exact == 0
        dev = np.abs(np.asarray(est.value)[zeros])
        assert np.all(dev <= 4 * np.asarray(est.std_error)[zeros])

    def test_determinism(self):
        a = m_kl_monte_carlo(2, 0, 1, 5000, make_rng(9))
        b = m_kl_monte_carlo(2, 0, 1, 5000, make_rng(9))
        assert np.array_equal(np.asarray(a.value), np.asarray(b.value))
        assert np.array_equal(np.asarray(a.std_error), np.asarray(b.std_error))

    def test_convergence_rate(self):
        # quadrupling the samples should halve the standard error (within 20%)
        small = m_kl_monte_carlo(2, 0, 0, 20_000, make_rng(5))
        large = m_kl_monte_carlo(2, 0, 0, 80_000, make_rng(6))
        ratio = np.asarray(small.std_error) / np.asarray(large.std_error)
        assert np.all(np.abs(ratio - 2.0) <= 0.4)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="1000"):
            m_kl_monte_carlo(2, 0, 0, 10, make_rng(0))

    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_reads_the_states_stream_and_rows(self, d):
        n = 5000
        rng, ref_rng = make_rng(140 + d), make_rng(140 + d)
        est = m_kl_monte_carlo(d, 0, 1, n, rng)
        ref = einsum_m_kl_monte_carlo(sample_haar_states(d, n, ref_rng), 0, 1)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.max(np.abs(est.value - ref.value)) <= 1e-13
        assert np.max(np.abs(est.std_error - ref.std_error)) <= 1e-13

    def test_peak_is_about_the_draw(self):
        # the draw is one (n, d) complex array's bytes (25.6 MB here); blocks of
        # it are normalized as they are reduced, so the states are never held whole
        d, n = 16, 100_000
        tracemalloc.start()
        try:
            m_kl_monte_carlo(d, 0, 1, n, make_rng(42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * d * np.dtype(complex).itemsize


class TestFormMonteCarlo:
    @pytest.mark.parametrize("d", [2, 5, 16])
    @pytest.mark.parametrize("form", ["identity", "trace_squared"])
    def test_forms_equal_to_one_on_every_row(self, d, form):
        # x . x = |psi|^4 and (e . x)^2 = (tr rho)^2 with e = coords(I): both are 1
        n = 100_000
        e = _hermitian_coords(np.eye(d))
        # the identity reads every coordinate; e is zero past the diagonal, so
        # e e^T is built on the diagonal and its blocks hold d coordinates a row
        width = d * d if form == "identity" else d
        f = np.eye(width) if form == "identity" else np.outer(e[:d], e[:d])
        step = max(1, haar.MC_BLOCK_ENTRIES // (2 * width))
        assert n > step and n % step  # several blocks, the last one ragged
        est = form_monte_carlo(f, d, n, make_rng(50 + d))
        assert est.n_samples == n
        assert abs(est.value - 1) <= 1e-14
        assert est.std_error <= 1e-14


def linspace_protocol(d):
    lam = np.linspace(2, 0.5, d)
    return standard_protocol(lam / np.linalg.norm(lam))


class TestSimplexDraw:
    """|psi|^2 of Haar states drawn directly, for forms that read only the diagonal."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_rows_are_points_of_the_simplex(self, d):
        p = _sample_simplex(d, 20_000, make_rng(60 + d))
        assert p.shape == (20_000, d)
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=1) - 1)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_first_and_second_moments_are_the_haar_diagonal_block(self, d):
        # E[x_i] = 1/d, and E[x_i x_j] = (1 + delta_ij) / (d (d+1)): the diagonal
        # block of the Haar moment (I + e e^T) / (d (d+1)), where e is ones there
        n = 40_000
        p = _sample_simplex(d, n, make_rng(70 + d))
        se = p.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(p.mean(axis=0) - 1 / d) <= 4 * se)
        second = p.T @ p / n
        # the sample variance of x_i x_j from its mean and the mean of its square
        var = np.clip((p**2).T @ p**2 / n - second**2, 0, None) * n / (n - 1)
        exact = (np.eye(d) + 1) / (d * (d + 1))
        assert np.all(np.abs(second - exact) <= 4 * np.sqrt(var / n))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            form_monte_carlo(np.ones((1, 1)), 1, 1000, make_rng(0))

    @pytest.mark.parametrize("d", [3, 8])
    def test_part_of_the_diagonal_reads_its_columns_of_the_whole_draw(self, d):
        # x_1^2 + x_1 x_2: a diagonal form with zero entries still reads the
        # whole draw, each row normalized over all d entries
        form = np.zeros((d, d))
        form[1, 1] = 1.0
        form[1, 2] = 1.0
        n = 5000
        est = form_monte_carlo(form, d, n, make_rng(85 + d))
        p = _sample_simplex(d, n, make_rng(85 + d))
        rows = p[:, 1] ** 2 + p[:, 1] * p[:, 2]
        assert est.value == pytest.approx(rows.mean(), abs=1e-13)
        assert est.std_error == pytest.approx(rows.std(ddof=1) / np.sqrt(n), abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_a_d_wide_form_gives_the_simplex_path_bit_for_bit(self, d):
        form = linspace_protocol(d).gram
        assert form.shape == (d, d)
        # blocks of MC_BLOCK_ENTRIES // (2 d) rows, so the last one is ragged at d = 8 and 16
        n = 20_000
        rng, ref_rng = make_rng(75 + d), make_rng(75 + d)
        est = form_monte_carlo(form, d, n, rng)
        p = _sample_simplex(d, n, ref_rng)
        step = haar.MC_BLOCK_ENTRIES // (2 * d)
        rows = np.concatenate([_form_rows(form, p[start : start + step]) for start in range(0, n, step)])
        assert est.value == float(rows.mean())
        assert est.std_error == float(rows.std(ddof=1) / np.sqrt(n))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("integrand", ["fidelity", "estimation"])
    def test_cache_and_memory_sized_blocks_agree(self, d, integrand, monkeypatch):
        # blocks of MC_BLOCK_ENTRIES // (2 d) rows: 16384 at d = 8 and 8192 at
        # d = 16 under 2^18 entries, so 20000 rows end in a ragged block; 2^21
        # takes them whole
        proto = linspace_protocol(d)
        meas, lam = proto.measurement, proto.schmidt.lambdas
        estimate = {
            "fidelity": lambda rng: mean_fidelity_monte_carlo(proto, 20_000, rng),
            "estimation": lambda rng: estimation_fidelity_mc(
                meas, lam, optimal_estimates(meas), 20_000, rng),
        }[integrand]
        ests = []
        for entries in (2**21, 2**18):
            monkeypatch.setattr(haar, "MC_BLOCK_ENTRIES", entries)
            ests.append(estimate(make_rng(90 + d)))
        assert ests[1].value == pytest.approx(ests[0].value, abs=1e-13)
        assert ests[1].std_error == pytest.approx(ests[0].std_error, abs=1e-13)

    def test_peak_is_below_the_haar_states(self):
        # the draw is divided in place: one n x d real array, half the bytes of
        # the n x d complex states it replaces (25.6 MB here)
        d, n = 16, 100_000
        proto = linspace_protocol(d)
        proto.gram  # build the Gram operator first
        tracemalloc.start()
        try:
            mean_fidelity_monte_carlo(proto, n, make_rng(95))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * np.dtype(complex).itemsize

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_a_single_off_diagonal_pair_keeps_the_haar_draw(self, d):
        # the standard fidelity form on all d^2 coordinates, coupled to the Re
        # coordinate of psi_0 psi_1*
        form = np.zeros((d * d, d * d))
        form[:d, :d] = linspace_protocol(d).gram
        form[0, d] = form[d, 0] = 0.05
        n = 3000
        rng, ref_rng = make_rng(80 + d), make_rng(80 + d)
        est = form_monte_carlo(form, d, n, rng)
        # the estimator as it was before the simplex draw: Haar states, all d^2
        # coordinates, in blocks sized for them
        psi = sample_haar_states(d, n, ref_rng)
        step = haar.MC_BLOCK_ENTRIES // (2 * d * d)
        rows = np.concatenate([
            _form_rows(form, _state_coords(psi[start : start + step]))
            for start in range(0, n, step)
        ])
        assert est.value == float(rows.mean())
        assert est.std_error == float(rows.std(ddof=1) / np.sqrt(n))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPairCheck:
    """A form is d^2 wide when a stack it is built from has a nonzero coordinate past the first d."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("entry", ["row", "column"])
    def test_one_entry_past_the_diagonal_block_takes_the_haar_draw(self, d, entry):
        # E^T N for two diagonal stacks, one of them with an entry at coordinate d,
        # the Re coordinate of psi_0 psi_1*: in E it fills row d of the form, in N column d
        e, g = np.eye(d, d * d), np.eye(d, d * d)
        assert _form_width(d, e, g) == d
        (e if entry == "row" else g)[0, d] = 0.5
        assert _form_width(d, e, g) == d * d
        form = e.T @ g
        assert form[(d, 0) if entry == "row" else (0, d)] == 0.5
        n = 2000
        rng, ref_rng = make_rng(100 + d), make_rng(100 + d)
        est = form_monte_carlo(form, d, n, rng)
        psi = sample_haar_states(d, n, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rows = _form_rows(form, _state_coords(psi))
        assert est.value == pytest.approx(rows.mean(), abs=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_a_random_povm_estimation_form_reads_pairs(self, d):
        rng = make_rng(110 + d)
        meas, lam = random_povm(d, d * d + 1, rng), random_lambdas(d, rng)
        strategy = optimal_estimates(meas)
        form = _estimation_form(meas, lam, strategy)
        assert form.shape == (d * d, d * d)
        # E^T N is not symmetric, so a test of the effects alone could miss a guess
        assert not np.allclose(form, form.T)
        est_rng, ref_rng = make_rng(111 + d), make_rng(111 + d)
        estimation_fidelity_mc(meas, lam, strategy, 1000, est_rng)
        sample_haar_states(d, 1000, ref_rng)
        assert est_rng.bit_generator.state == ref_rng.bit_generator.state


MEAS_D2 = standard_measurement(2)
MC_ENTRY_POINTS = {
    "fidelity": lambda n: mean_fidelity_monte_carlo(standard_protocol([0.8, 0.6]), n, make_rng(0)),
    "estimation": lambda n: estimation_fidelity_mc(
        MEAS_D2, [0.8, 0.6], optimal_estimates(MEAS_D2), n, make_rng(0)
    ),
    "moment": lambda n: m_kl_monte_carlo(2, 0, 1, n, make_rng(0)),
}


class TestSampleFloor:
    @pytest.mark.parametrize("name", sorted(MC_ENTRY_POINTS))
    def test_boundary(self, name):
        with pytest.raises(ValueError, match="need at least 1000 samples, got 999"):
            MC_ENTRY_POINTS[name](999)
        assert MC_ENTRY_POINTS[name](1000).n_samples == 1000


class TestMomentBlocksMemory:
    """Traced peak of the full d = 16 moment matrix over n = 100000 samples, beyond the draw.

    Unblocked, the (n, d^2) factor y = psi* (x) psi alone would take 410 MB.
    The peak is 7.8 MiB in blocks of 512 rows, 14.1 MiB in blocks of 1024 and
    52.0 MiB in blocks of 4096, so the limit fails blocks grown fourfold.
    """

    LIMIT_MB = 16

    def test_peak_is_bounded(self):
        d = 16
        draw = _haar_draw(d, 100_000, make_rng(40))
        tracemalloc.start()
        try:
            est = _moment_blocks(draw, range(d), range(d))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert est.value.shape == (d * d, d * d)
        assert peak < self.LIMIT_MB

    @pytest.mark.parametrize("d, pairs", [(8, "all"), (16, "one")])
    def test_one_block_and_cache_sized_blocks_agree(self, d, pairs, monkeypatch):
        # 5000 rows in one block, and in blocks of HAAR_BLOCK_ENTRIES // d rows,
        # which do not divide them evenly
        n = 5000
        draw = _haar_draw(d, n, make_rng(41))
        ks, ls = (range(d), range(d)) if pairs == "all" else ([0], [1])
        assert n % (haar.HAAR_BLOCK_ENTRIES // d)
        ests = [_moment_blocks(draw, ks, ls)]
        monkeypatch.setattr(haar, "HAAR_BLOCK_ENTRIES", n * d)
        ests.append(_moment_blocks(draw, ks, ls))
        assert np.max(np.abs(ests[1].value - ests[0].value)) <= 1e-13
        assert np.max(np.abs(ests[1].std_error - ests[0].std_error)) <= 1e-13


class TestMcEstimate:
    def test_pooled_matches_single_pass(self):
        rng = make_rng(31)
        x = rng.standard_normal(9000)
        chunks = [x[:2000], x[2000:5000], x[5000:]]
        parts = [
            McEstimate(float(c.mean()), float(c.std(ddof=1) / np.sqrt(c.size)), c.size)
            for c in chunks
        ]
        pooled = McEstimate.pooled(parts)
        assert pooled.n_samples == 9000
        assert pooled.value == pytest.approx(x.mean(), abs=1e-12)
        assert pooled.std_error == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=1e-10)

    def test_pooled_single(self):
        est = McEstimate(1.0, 0.1, 10)
        assert McEstimate.pooled([est]) is est
