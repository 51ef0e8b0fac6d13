"""The effective-channel core: the per-outcome maps A_r, the Hermitian
coordinates and the two Monte-Carlo quadratic forms built on them, the exact
fidelity on the channel's Kraus operators, laziness and block memory."""

import tracemalloc

import numpy as np
import pytest

from teleportsim import (
    AliceMeasurement,
    BobCorrections,
    EstimationStrategy,
    Protocol,
    PureState,
    SchmidtDecomposition,
    check_optimality,
    estimation_fidelity_exact,
    estimation_fidelity_mc,
    make_rng,
    mean_fidelity_exact,
    mean_fidelity_mkl_form,
    mean_fidelity_monte_carlo,
    optimal_bob_corrections,
    optimal_estimates,
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
from teleportsim import haar
from teleportsim.estimation import _estimation_form
from teleportsim.protocol import _a_matrices, _effect_coords
from teleportsim.haar import _form_rows, _hermitian_coords, _sample_simplex, _state_coords
from helpers import (
    einsum_estimation_samples,
    einsum_mean_fidelity_mkl_form,
    loop_fidelity_samples,
    random_kraus_set,
    random_lambdas,
    random_unitaries,
)

AGREE_TOL = 1e-13
#: the protocol's channel arrays, each a cached property built on first use
CHANNEL_ARRAYS = ("a", "kraus", "gram", "effects")
SPECTRA = ("full_rank", "rank_deficient", "product")
#: two values of haar.MC_BLOCK_ENTRIES: 32 MiB blocks, and 4 MiB blocks sized for cache
BLOCK_BOUNDS = (2**21, 2**18)
#: per d, sample counts that fill whole 4 MiB blocks of the diagonal forms
#: (16384 rows at d = 8, 8192 at d = 16) and that leave a ragged last block;
#: each fits one 32 MiB block
RAGGED_AND_WHOLE = {8: (32768, 20000), 16: (16384, 10000)}


def spectrum(kind, d, rng):
    if kind == "full_rank":
        return random_lambdas(d, rng)
    lam = np.zeros(d)
    if kind == "product":
        lam[0] = 1.0
    else:
        lam[: (d + 1) // 2] = random_lambdas((d + 1) // 2, rng)
    return lam


def multi_kraus_protocol(d, kind, rng):
    """Random complete measurement with random non-unitary multi-Kraus corrections."""
    meas = random_povm(d, d * d, rng)
    blocks = tuple(random_kraus_set(d, 1 + r % 3, rng) for r in range(meas.n_outcomes))
    lam = spectrum(kind, d, rng)
    return Protocol(SchmidtDecomposition(lam), meas, BobCorrections(blocks))


def cases():
    return [(d, kind) for d in (2, 3, 5) for kind in SPECTRA]


def padded(form, d):
    """A form on all d^2 coordinates: a (d, d) form as the leading block of zeros."""
    full = np.zeros((d * d, d * d))
    full[: form.shape[0], : form.shape[1]] = form
    return full


def row_values(form, psi):
    """x^T F x on all coordinates, and also on |psi|^2 alone when the form is d wide."""
    d = psi.shape[-1]
    rows = [_form_rows(padded(form, d), _state_coords(psi))]
    if form.shape[0] == d:
        rows.append(_form_rows(form, _state_coords(psi, diagonal=True)))
    return rows


def full_gram(proto):
    """W^T W on all d^2 coordinates, built as Protocol.gram builds it, uncut."""
    c, c_adj = proto.kraus, proto.kraus.conj().transpose(0, 2, 1)
    w = _hermitian_coords(np.concatenate([(c + c_adj) / 2, (c - c_adj) / 2j]))
    return w.T @ w


def full_estimation_form(meas, lam, strategy):
    """E^T N on all d^2 coordinates, uncut."""
    return _effect_coords(_a_matrices(meas.phi, lam)).T @ _state_coords(strategy.guesses)


class TestGramMonteCarlo:
    @pytest.mark.parametrize("d,kind", cases())
    def test_matches_per_outcome_loop_on_identical_samples(self, d, kind):
        rng = make_rng(200 + d, stream=SPECTRA.index(kind))
        proto = multi_kraus_protocol(d, kind, rng)
        est = mean_fidelity_monte_carlo(proto, 3000, make_rng(201, stream=d))
        psi = sample_haar_states(d, 3000, make_rng(201, stream=d))
        ref = loop_fidelity_samples(proto, psi)
        for rows in row_values(proto.gram, psi):
            assert np.max(np.abs(rows - ref)) <= AGREE_TOL
        assert abs(est.value - ref.mean()) <= AGREE_TOL
        assert abs(est.std_error - ref.std(ddof=1) / np.sqrt(ref.size)) <= AGREE_TOL

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_standard_protocol_matches_loop(self, d):
        proto = standard_protocol(random_lambdas(d, make_rng(210 + d)))
        psi = sample_haar_states(d, {8: 1000, 16: 300}.get(d, 2000), make_rng(211))
        ref = loop_fidelity_samples(proto, psi)
        for rows in row_values(proto.gram, psi):
            assert np.max(np.abs(rows - ref)) <= AGREE_TOL

    def test_block_size_does_not_change_the_estimate(self, monkeypatch):
        proto = multi_kraus_protocol(3, "full_rank", make_rng(220))
        whole = mean_fidelity_monte_carlo(proto, 5000, make_rng(221))
        monkeypatch.setattr(haar, "MC_BLOCK_ENTRIES", 9 * 7)
        blocked = mean_fidelity_monte_carlo(proto, 5000, make_rng(221))
        assert blocked.value == pytest.approx(whole.value, abs=AGREE_TOL)
        assert blocked.std_error == pytest.approx(whole.std_error, abs=AGREE_TOL)

    @pytest.mark.parametrize("d", [8, 16])
    def test_cache_and_memory_sized_blocks_agree(self, d, monkeypatch):
        proto = standard_protocol(random_lambdas(d, make_rng(222 + d)))
        for n in RAGGED_AND_WHOLE[d]:
            ests = []
            for entries in BLOCK_BOUNDS:
                monkeypatch.setattr(haar, "MC_BLOCK_ENTRIES", entries)
                ests.append(mean_fidelity_monte_carlo(proto, n, make_rng(223, stream=n)))
            assert ests[1].value == pytest.approx(ests[0].value, abs=AGREE_TOL)
            assert ests[1].std_error == pytest.approx(ests[0].std_error, abs=AGREE_TOL)


class TestFormSupport:
    """Monte Carlo on the coordinates a form reads: the diagonal or all, and that it agrees."""

    @pytest.mark.parametrize("kind", SPECTRA)
    # at d = 12 a product of W cut to d columns first rounds differently
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 16])
    def test_standard_channel_is_diagonal(self, d, kind):
        proto = standard_protocol(spectrum(kind, d, make_rng(340 + d)))
        c = proto.kraus
        assert np.all(c[:, ~np.eye(d, dtype=bool)] == 0)
        gram, full = proto.gram, full_gram(proto)
        assert np.all(full[d:] == 0) and np.all(full[:, d:] == 0)
        # so the Gram matrix is its leading block, with its bits
        assert gram.shape == (d, d) and gram.flags.c_contiguous
        assert np.array_equal(gram.view(np.uint64), full[:d, :d].view(np.uint64))
        # and its Monte Carlo draws the simplex
        rng, ref_rng = make_rng(341 + d), make_rng(341 + d)
        haar.form_monte_carlo(gram, d, 1000, rng)
        _sample_simplex(d, 1000, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_standard_effects_live_on_the_diagonal(self, d, kind):
        proto = standard_protocol(spectrum(kind, d, make_rng(345 + d)))
        values = proto.effects
        assert values.shape == (d * d, d)
        # stored column-major, the layout outcome_distribution's product rounds by
        assert values.flags.f_contiguous
        full = _effect_coords(proto.a)
        assert np.array_equal(values, full[:, :d]) and np.all(full[:, d:] == 0)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_restricted_estimate_equals_the_full_form_mean(self, d):
        lam = random_lambdas(d, make_rng(350 + d))
        proto = standard_protocol(lam)
        meas = proto.measurement
        povm = random_povm(d, d * d + 1, make_rng(351 + d))
        schmidt = SchmidtDecomposition(lam)
        dense = Protocol(schmidt, povm, optimal_bob_corrections(povm, schmidt))
        strategy = optimal_estimates(meas)
        forms = {
            "fidelity": (proto.gram, full_gram(proto)),
            "estimation": (_estimation_form(meas, lam, strategy),
                           full_estimation_form(meas, lam, strategy)),
            "dense": (dense.gram, full_gram(dense)),
        }
        n = 1500 if d == 16 else 3000
        for name, (form, whole) in forms.items():
            width = d * d if name == "dense" else d
            assert form.shape == (width, width), name
            assert np.all(whole[width:] == 0) and np.all(whole[:, width:] == 0), name
            assert np.array_equal(form, whole[:width, :width]), name
            est = haar.form_monte_carlo(form, d, n, make_rng(352, stream=d))
            psi = self.drawn_inputs(name, d, n, make_rng(352, stream=d))
            full = _form_rows(whole, _state_coords(psi))
            assert abs(est.value - full.mean()) <= AGREE_TOL, name
            assert abs(est.std_error - full.std(ddof=1) / np.sqrt(n)) <= AGREE_TOL, name

    @staticmethod
    def drawn_inputs(name, d, n, rng):
        """The inputs form_monte_carlo draws for a form, as states.

        The dense form reads Haar states. The two diagonal forms read only
        x = |psi|^2, drawn uniformly on the simplex as normalized standard
        exponentials, so psi_i = sqrt(x_i) stands for any state with that x.
        """
        if name == "dense":
            return sample_haar_states(d, n, rng)
        x = rng.standard_exponential((n, d))
        return np.sqrt(x / x.sum(axis=1, keepdims=True))


def ragged(proto):
    """The protocol with every even outcome's correction B split into two operators B/sqrt(2)."""
    blocks = [np.stack([b, b]) / np.sqrt(2) if r % 2 == 0 else b
              for r, b in enumerate(proto.corrections.stack)]
    return Protocol(proto.schmidt, proto.measurement, BobCorrections(blocks))


class TestFormWidth:
    """The Gram matrix, the effects and the estimation form are d wide, or d^2 wide."""

    @staticmethod
    def widths(proto, strategy=None):
        """Widths of the Gram matrix, the effects and the estimation form (optimal guesses by default)."""
        meas, lam = proto.measurement, proto.schmidt.lambdas
        form = _estimation_form(meas, lam, strategy or optimal_estimates(meas))
        gram = proto.gram
        assert gram.shape[0] == gram.shape[1] and form.shape[0] == form.shape[1]
        return gram.shape[0], proto.effects.shape[1], form.shape[0]

    @pytest.mark.parametrize("kind", ["full_rank", "rank_deficient"])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_standard_and_ragged_protocols_are_d_wide(self, d, kind):
        std = standard_protocol(spectrum(kind, d, make_rng(360 + d)))
        for proto in (std, ragged(std)):
            assert self.widths(proto) == (d, d, d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_a_random_povm_is_d_squared_wide(self, d):
        lam = random_lambdas(d, make_rng(365 + d))
        povm = random_povm(d, d * d + 1, make_rng(366 + d))
        schmidt = SchmidtDecomposition(lam)
        proto = Protocol(schmidt, povm, optimal_bob_corrections(povm, schmidt))
        assert self.widths(proto) == (d * d, d * d, d * d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_unitary_corrections_widen_only_the_gram_matrix(self, d):
        meas = standard_measurement(d)
        corrections = BobCorrections(random_unitaries(d, d * d, make_rng(370 + d)))
        proto = Protocol(SchmidtDecomposition(random_lambdas(d, make_rng(371 + d))), meas, corrections)
        assert self.widths(proto) == (d * d, d, d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_guess_off_the_basis_widens_the_estimation_form(self, d):
        # the effects stay diagonal, so only columns past the first d fill
        proto = standard_protocol(random_lambdas(d, make_rng(375 + d)))
        meas, lam = proto.measurement, proto.schmidt.lambdas
        guesses = np.array(optimal_estimates(meas).guesses)
        guesses[0] = (np.eye(d)[0] + np.eye(d)[1]) / np.sqrt(2)
        strategy = EstimationStrategy(guesses)
        assert self.widths(proto, strategy) == (d, d, d * d)
        form = _estimation_form(meas, lam, strategy)
        assert not form[d:].any() and form[:, d:].any()
        # so its Monte Carlo draws Haar states
        rng, ref_rng = make_rng(376 + d), make_rng(376 + d)
        est = estimation_fidelity_mc(meas, lam, strategy, 1000, rng)
        psi = sample_haar_states(d, 1000, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        rows = _form_rows(form, _state_coords(psi))
        assert est.value == pytest.approx(rows.mean(), abs=AGREE_TOL)


def random_strategy(d, n_outcomes, rng):
    z = rng.standard_normal((n_outcomes, d)) + 1j * rng.standard_normal((n_outcomes, d))
    return EstimationStrategy(z / np.linalg.norm(z, axis=1, keepdims=True))


class TestEstimationProduct:
    @pytest.mark.parametrize("d,kind", cases() + [(d, kind) for d in (8, 16) for kind in SPECTRA])
    def test_matches_einsum_form_on_identical_samples(self, d, kind):
        n = 3000 if d <= 5 else 1000
        rng = make_rng(230 + d, stream=SPECTRA.index(kind))
        meas = random_povm(d, d * d + 1, rng)
        lam = spectrum(kind, d, rng)
        for strategy in (random_strategy(d, meas.n_outcomes, rng), optimal_estimates(meas)):
            est = estimation_fidelity_mc(meas, lam, strategy, n, make_rng(231, stream=d))
            psi = sample_haar_states(d, n, make_rng(231, stream=d))
            ref = einsum_estimation_samples(meas, lam, strategy, psi)
            for rows in row_values(_estimation_form(meas, lam, strategy), psi):
                assert np.max(np.abs(rows - ref)) <= AGREE_TOL
            assert abs(est.value - ref.mean()) <= AGREE_TOL
            assert abs(est.std_error - ref.std(ddof=1) / np.sqrt(ref.size)) <= AGREE_TOL

    def test_block_size_does_not_change_the_estimate(self, monkeypatch):
        meas = standard_measurement(3)
        lam = random_lambdas(3, make_rng(240))
        strategy = optimal_estimates(meas)
        whole = estimation_fidelity_mc(meas, lam, strategy, 4000, make_rng(241))
        monkeypatch.setattr(haar, "MC_BLOCK_ENTRIES", 36 * 5)
        blocked = estimation_fidelity_mc(meas, lam, strategy, 4000, make_rng(241))
        assert blocked.value == pytest.approx(whole.value, abs=AGREE_TOL)
        assert blocked.std_error == pytest.approx(whole.std_error, abs=AGREE_TOL)

    @pytest.mark.parametrize("d", [8, 16])
    def test_cache_and_memory_sized_blocks_agree(self, d, monkeypatch):
        meas = standard_measurement(d)
        lam = random_lambdas(d, make_rng(242 + d))
        strategy = optimal_estimates(meas)
        for n in RAGGED_AND_WHOLE[d]:
            ests = []
            for entries in BLOCK_BOUNDS:
                monkeypatch.setattr(haar, "MC_BLOCK_ENTRIES", entries)
                ests.append(estimation_fidelity_mc(meas, lam, strategy, n, make_rng(243, stream=n)))
            assert ests[1].value == pytest.approx(ests[0].value, abs=AGREE_TOL)
            assert ests[1].std_error == pytest.approx(ests[0].std_error, abs=AGREE_TOL)


def haar_average(form, d):
    """Exact Haar average of x^T F x over the coordinates x of psi psi†, for a d or d^2 wide F.

    E[x x^T] = (I + e e^T) / (d (d + 1)) with e = coords(I), so the average
    is (tr F + e^T F e) / (d (d + 1)); a d wide F takes the leading block.
    """
    e = _hermitian_coords(np.eye(d))[: form.shape[0]]
    return (np.trace(form) + e @ form @ e) / (d * (d + 1))


def random_hermitian(d, n, rng):
    z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (z + z.conj().transpose(0, 2, 1)) / 2


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_trace_product_is_the_dot_product(self, d):
        rng = make_rng(300 + d)
        e, f = random_hermitian(d, 20, rng), random_hermitian(d, 20, rng)
        traces = np.einsum("nij,nji->n", e, f)
        dots = np.sum(_hermitian_coords(e) * _hermitian_coords(f), axis=1)
        assert np.max(np.abs(traces.imag)) <= 1e-12
        assert np.max(np.abs(dots - traces.real)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_state_coordinates_give_expectations(self, d):
        rng = make_rng(310 + d)
        e = random_hermitian(d, 20, rng)
        psi = sample_haar_states(d, 50, rng)
        x = _state_coords(psi)
        expect = np.einsum("ni,eij,nj->ne", psi.conj(), e, psi)
        assert np.max(np.abs(x @ _hermitian_coords(e).T - expect.real)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1)) <= 1e-14
        outer = psi[:, :, None] * psi[:, None, :].conj()
        assert np.max(np.abs(x - _hermitian_coords(outer))) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_coordinate_subsets_are_columns_of_the_full_set(self, d):
        rng = make_rng(315 + d)
        psi = sample_haar_states(d, 40, rng)
        full = _state_coords(psi)
        assert full.shape == (40, d * d)
        for diagonal, cols in ((False, slice(None)), (True, slice(d))):
            got = _state_coords(psi, diagonal)
            assert np.array_equal(got.view(np.uint64), full[:, cols].view(np.uint64))
            one = _state_coords(psi[0], diagonal)
            assert np.array_equal(one.view(np.uint64), got[0].view(np.uint64))

    @pytest.mark.parametrize("d,kind", cases())
    def test_fidelity_form_has_the_exact_haar_average(self, d, kind):
        proto = multi_kraus_protocol(d, kind, make_rng(320 + d, stream=SPECTRA.index(kind)))
        assert abs(haar_average(proto.gram, d) - mean_fidelity_exact(proto)) <= 1e-12
        std = standard_protocol(spectrum(kind, d, make_rng(321 + d)))
        assert abs(haar_average(std.gram, d) - mean_fidelity_exact(std)) <= 1e-12

    @pytest.mark.parametrize("d,kind", cases())
    def test_estimation_form_has_the_exact_haar_average(self, d, kind):
        rng = make_rng(330 + d, stream=SPECTRA.index(kind))
        lam = spectrum(kind, d, rng)
        for meas in (random_povm(d, d * d + 2, rng), standard_measurement(d)):
            for strategy in (random_strategy(d, meas.n_outcomes, rng), optimal_estimates(meas)):
                exact = estimation_fidelity_exact(meas, lam, strategy)
                assert abs(haar_average(_estimation_form(meas, lam, strategy), d) - exact) <= 1e-12


class TestAMatrices:
    def test_standard_maxent_singular_values(self):
        # every A_r of the standard measurement on a maximally entangled
        # resource is a unitary scaled by 1/d
        for d in (2, 3, 4):
            a = standard_protocol(np.full(d, 1 / np.sqrt(d))).a
            assert np.allclose(np.linalg.svd(a, compute_uv=False), 1 / d, atol=1e-14)

    def test_product_resource_rank_one(self):
        # with lambda = (1, 0, 0) each A_r is |0><phi_r^0|, so its one
        # nonzero singular value (its nuclear norm) is the norm of phi_r^0
        meas = random_povm(3, 11, make_rng(270))
        schmidt = SchmidtDecomposition([1.0, 0.0, 0.0])
        proto = Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))
        svals = np.linalg.svd(proto.a, compute_uv=False)
        assert np.all(svals[:, 1:] <= 1e-14)
        assert np.allclose(svals[:, 0], np.linalg.norm(meas.phi[:, 0], axis=1), atol=1e-14)


class TestExactOnChannel:
    @pytest.mark.parametrize("d,kind", cases())
    def test_matches_moment_operator_form(self, d, kind):
        proto = multi_kraus_protocol(d, kind, make_rng(250 + d, stream=SPECTRA.index(kind)))
        assert mean_fidelity_exact(proto) == pytest.approx(mean_fidelity_mkl_form(proto), abs=1e-12)

    def test_kraus_operators_are_corrections_after_a(self):
        proto = multi_kraus_protocol(2, "full_rank", make_rng(260))
        assert proto.kraus.shape[0] == sum(b.shape[0] for b in proto.corrections.kraus)
        total = np.einsum("kij,kil->jl", proto.kraus.conj(), proto.kraus)
        assert np.allclose(total, np.eye(2), atol=1e-12)  # the channel is trace preserving
        outcome = proto.corrections.outcome
        for i, r in enumerate(outcome):
            s = i - int(np.searchsorted(outcome, r))
            assert np.allclose(proto.kraus[i], proto.corrections.kraus[r][s] @ proto.a[r])


class TestMomentOperatorForm:
    @pytest.mark.parametrize("d,kind", cases())
    def test_matches_per_kraus_einsum_reference(self, d, kind):
        proto = multi_kraus_protocol(d, kind, make_rng(290 + d, stream=SPECTRA.index(kind)))
        assert abs(mean_fidelity_mkl_form(proto) - einsum_mean_fidelity_mkl_form(proto)) <= AGREE_TOL

    def test_never_reads_the_channel(self, monkeypatch):
        proto = multi_kraus_protocol(3, "full_rank", make_rng(295))
        expected = einsum_mean_fidelity_mkl_form(proto)

        for name in CHANNEL_ARRAYS:
            def refuse(self, name=name):
                raise AssertionError(f"mean_fidelity_mkl_form read Protocol.{name}")

            monkeypatch.setattr(Protocol, name, property(refuse))
        assert abs(mean_fidelity_mkl_form(proto) - expected) <= AGREE_TOL


def first_input(proto):
    return PureState(np.eye(proto.d)[0])


#: each reader of a protocol, and the channel arrays it builds on a fresh protocol
READERS = {
    "mean_fidelity_exact": (mean_fidelity_exact, {"a", "kraus"}),
    "outcome_distribution": (lambda p: outcome_distribution(p, first_input(p)), {"a", "effects"}),
    "teleport_once": (lambda p: teleport_once(p, first_input(p), make_rng(272)), {"a", "effects"}),
    "mean_fidelity_monte_carlo": (lambda p: mean_fidelity_monte_carlo(p, 1000, make_rng(271)),
                                  {"a", "kraus", "gram"}),
    "check_optimality": (lambda p: check_optimality(p.measurement, p.schmidt), set()),
    "mean_fidelity_mkl_form": (mean_fidelity_mkl_form, set()),
    "protocol_to_json": (protocol_to_json, set()),
}


def built(proto):
    """The channel arrays the protocol has built and kept."""
    return {name for name in CHANNEL_ARRAYS if name in vars(proto)}


class TestLaziness:
    @pytest.mark.parametrize("kind", ["standard", "multi_kraus"])
    @pytest.mark.parametrize("reader", READERS)
    def test_each_reader_builds_only_the_arrays_it_reads(self, reader, kind):
        proto = (standard_protocol(random_lambdas(4, make_rng(270))) if kind == "standard"
                 else multi_kraus_protocol(3, "full_rank", make_rng(273)))
        read, arrays = READERS[reader]
        assert built(proto) == set()
        read(proto)
        assert built(proto) == arrays

    def test_a_restored_protocol_builds_nothing_until_read(self):
        proto = standard_protocol(random_lambdas(4, make_rng(274)))
        restored = protocol_from_json(protocol_to_json(proto))
        assert built(restored) == set()
        mean_fidelity_exact(restored)
        assert built(restored) == {"a", "kraus"}

    def test_each_array_is_built_once(self):
        proto = standard_protocol(random_lambdas(4, make_rng(275)))
        mean_fidelity_monte_carlo(proto, 1000, make_rng(271))
        teleport_once(proto, first_input(proto), make_rng(272))
        kept = {name: getattr(proto, name) for name in CHANNEL_ARRAYS}
        mean_fidelity_monte_carlo(proto, 1000, make_rng(271))
        teleport_once(proto, first_input(proto), make_rng(272))
        mean_fidelity_exact(proto)
        assert all(getattr(proto, name) is arr for name, arr in kept.items())


class TestBlockMemory:
    """Traced peak of one d = 16 call with n = 20000 on dense forms: blocks keep it bounded.

    The peaks are 8.0 MiB for the fidelity and 8.5 MiB for the estimation,
    and 29.0-29.5 MiB if blocks hold 2^21 entries, so the limit fails blocks
    grown back eightfold. Haar rows are normalized block by block, so only
    the raw draw (5.1 MB) spans all n. The protocol is a random POVM, whose
    forms use every coordinate; the standard protocol's read the 16 diagonal
    ones, drawn from the simplex without phases, and peak at 3.7 MB (5.2 MB
    with 2^21-entry blocks).
    """

    LIMIT_MB = 16

    @pytest.fixture(scope="class")
    def proto(self):
        schmidt = SchmidtDecomposition(random_lambdas(16, make_rng(280)))
        meas = random_povm(16, 256, make_rng(284))
        return Protocol(schmidt, meas, optimal_bob_corrections(meas, schmidt))

    def peak_mb(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_fidelity(self, proto):
        mean_fidelity_monte_carlo(proto, 1000, make_rng(281))  # build the Gram operator first
        peak = self.peak_mb(lambda: mean_fidelity_monte_carlo(proto, 20000, make_rng(282)))
        assert peak < self.LIMIT_MB

    def test_estimation(self, proto):
        strategy = optimal_estimates(proto.measurement)
        peak = self.peak_mb(lambda: estimation_fidelity_mc(
            proto.measurement, proto.schmidt.lambdas, strategy, 20000, make_rng(283)))
        assert peak < self.LIMIT_MB


class TestCompletenessBlocks:
    def test_worst_pair_and_error_match_per_pair_reference(self):
        d = 3
        phi = np.array(standard_measurement(d).phi)
        phi[4, 1] *= 1.001  # error 2e-3 / 3 in block (1, 1), 1e-3 / 3 in (k, 1) and (1, k)
        meas = AliceMeasurement(phi)
        report = validate_completeness(meas, 1e-10)
        err = np.zeros((d, d))
        for k in range(d):
            for l in range(d):
                block = sum(np.outer(p[k], p[l].conj()) for p in phi)
                err[k, l] = np.max(np.abs(block - (k == l) * np.eye(d)))
        assert not report.passed
        assert report.worst_pair == (1, 1)
        assert report.max_error == pytest.approx(err.max(), abs=1e-15)
