import numpy as np
import pytest

from teleportsim import (
    BipartiteVector,
    Operator,
    PureState,
    SchmidtDecomposition,
    make_rng,
    schmidt_decompose,
)
from helpers import random_lambdas, random_unitary


def random_bipartite(d, rng):
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BipartiteVector(c / np.linalg.norm(c))


class TestTypes:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0])

    def test_pure_state_requires_dim_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            PureState([1.0])

    def test_operator_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3)))

    def test_bipartite_norm_flag(self):
        with pytest.raises(ValueError, match="not normalized"):
            BipartiteVector([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([bad, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            BipartiteVector([[bad, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            Operator([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    def test_bipartite_entries_whose_squares_overflow_fail_the_norm_check(self):
        with pytest.raises(ValueError, match=r"not normalized: \|c\|\^2 = inf$"):
            BipartiteVector([[1e200, 0.0]])

    @pytest.mark.parametrize("excess", [0.5e-12, -0.5e-12])
    def test_pure_state_accepts_norm_within_tolerance(self, excess):
        z = np.array([0.6, 0.48j, -0.64])  # |z|^2 = 1
        psi = PureState(z * np.sqrt(1 + excess))
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1 - excess) <= 1e-15

    @pytest.mark.parametrize("excess", [2e-12, -2e-12])
    def test_pure_state_rejects_norm_beyond_tolerance(self, excess):
        z = np.array([0.6, 0.48j, -0.64])
        with pytest.raises(ValueError, match=r"not normalized: \|psi\|\^2 = "):
            PureState(z * np.sqrt(1 + excess))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_pure_state_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match=r"not normalized: \|psi\|\^2 = "):
            PureState([bad, 0.6, 0.8])

    def test_states_are_immutable(self):
        psi = PureState(np.eye(2)[0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda a: PureState(a[0]), "amplitudes"),
            (lambda a: PureState(a[:, :1].reshape(2, 1)), "amplitudes"),
            (lambda a: Operator(a), "matrix"),
            (lambda a: BipartiteVector(a / np.sqrt(2)), "coeffs"),
            (lambda a: SchmidtDecomposition(a[:, 0].real), "lambdas"),
        ],
        ids=["state", "state-from-column", "operator", "bipartite", "schmidt-lambdas"],
    )
    def test_arrays_cannot_be_made_writable_or_reached_through_the_input(self, make, field):
        source = np.eye(2, dtype=complex)
        arr = getattr(make(source), field)
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.setflags(write=True)
        before = np.array(arr)
        source[:] = 0.0
        assert np.array_equal(arr, before)


class TestSchmidtDecompose:
    def test_product_state(self):
        dec = schmidt_decompose(BipartiteVector([[1, 0], [0, 0]]))
        assert np.allclose(dec.lambdas, [1.0, 0.0])
        assert dec.effective_rank == 1

    def test_maximally_entangled(self):
        dec = schmidt_decompose(BipartiteVector(np.eye(2) / np.sqrt(2)))
        assert np.allclose(dec.lambdas, [1 / np.sqrt(2)] * 2)
        assert dec.effective_rank == 2

    def test_diagonal_sorting(self):
        dec = schmidt_decompose(BipartiteVector([[0.6, 0], [0, 0.8]]))
        assert np.allclose(dec.lambdas, [0.8, 0.6])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions must match"):
            schmidt_decompose(BipartiteVector(np.eye(2, 3) / np.sqrt(2)))

    @pytest.mark.parametrize("rank", ["full", "deficient"])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_returns_the_spectrum_of_u_diag_lambda_v_transpose(self, d, rank):
        rng = make_rng(10 + d)
        for _ in range(20):
            lam = random_lambdas(d, rng)
            if rank == "deficient":
                lam[(d + 1) // 2 :] = 0.0
                lam /= np.linalg.norm(lam)
            coeffs = random_unitary(d, rng) @ np.diag(lam) @ random_unitary(d, rng).T
            dec = schmidt_decompose(BipartiteVector(coeffs))
            assert np.max(np.abs(dec.lambdas - lam)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_squared_spectrum_is_the_eigenvalues_of_c_c_dagger(self, d):
        rng = make_rng(30 + d)
        for _ in range(20):
            state = random_bipartite(d, rng)
            c = state.coeffs
            eig = np.linalg.eigvalsh(c @ c.conj().T)[::-1]
            assert np.max(np.abs(schmidt_decompose(state).lambdas ** 2 - eig)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_lambdas_invariant_under_local_unitaries(self, d):
        rng = make_rng(20 + d)
        for _ in range(50):
            state = random_bipartite(d, rng)
            u = random_unitary(d, rng)
            v = random_unitary(d, rng)
            rotated = BipartiteVector(u @ state.coeffs @ v.T)
            lam0 = schmidt_decompose(state).lambdas
            lam1 = schmidt_decompose(rotated).lambdas
            assert np.max(np.abs(lam0 - lam1)) <= 1e-10


class TestSchmidtType:
    def test_keeps_the_checked_spectrum(self):
        dec = SchmidtDecomposition([0.8, 0.6])
        assert dec.dim == 2
        assert dec.effective_rank == 2
        assert np.array_equal(dec.lambdas, [0.8, 0.6])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            SchmidtDecomposition([0.6, 0.8])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SchmidtDecomposition([1.0, 0.5])

    def test_effective_rank_cutoff(self):
        dec = SchmidtDecomposition([1.0, 1e-13])
        assert dec.effective_rank == 1
