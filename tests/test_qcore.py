import warnings

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
from helpers import random_unitary


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
            (lambda a: SchmidtDecomposition(np.full(2, 2**-0.5), a, a), "left_basis"),
        ],
        ids=["state", "state-from-column", "operator", "bipartite", "schmidt-basis"],
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
        # descending order forces the basis for lambda=0.8 to be |1>
        assert abs(dec.left_basis[0, 1]) == pytest.approx(1.0)
        assert abs(dec.right_basis[0, 1]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions must match"):
            schmidt_decompose(BipartiteVector(np.eye(2, 3) / np.sqrt(2)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_reconstruction(self, d):
        rng = make_rng(10 + d)
        for _ in range(200):
            state = random_bipartite(d, rng)
            dec = schmidt_decompose(state)
            err = np.linalg.norm(dec.reconstruct().coeffs - state.coeffs)
            assert err <= 1e-10
            assert np.all(np.diff(dec.lambdas) <= 0)

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
    def test_from_lambdas_roundtrip(self):
        dec = SchmidtDecomposition.from_lambdas([0.8, 0.6])
        assert dec.effective_rank == 2
        assert np.allclose(dec.reconstruct().coeffs, np.diag([0.8, 0.6]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            SchmidtDecomposition.from_lambdas([0.6, 0.8])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            SchmidtDecomposition.from_lambdas([1.0, 0.5])

    def test_rejects_nan_basis(self):
        with pytest.raises(ValueError, match="left_basis rows are not orthonormal"):
            SchmidtDecomposition([0.8, 0.6], [[np.nan, 0], [0, 1]], np.eye(2))

    def test_rejects_infinite_basis_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="left_basis .* must be finite"):
                SchmidtDecomposition([0.8, 0.6], [[np.inf, 0], [0, 1]], np.eye(2))

    def test_effective_rank_cutoff(self):
        dec = SchmidtDecomposition.from_lambdas([1.0, 1e-13])
        assert dec.effective_rank == 1
