"""Dense complex linear algebra for d-level quantum systems.

Immutable wrappers for state vectors, operators and bipartite coefficient
matrices, plus the SVD-based Schmidt decomposition the teleportation
machinery hinges on. Everything here is a pure function of its inputs, so
instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: construction-time normalization tolerance
NORM_ATOL = 1e-12
#: reconstruction / equality tolerance (headroom for SVD conditioning)
RECON_ATOL = 1e-10
#: Schmidt coefficients at or below this are treated as exact zeros
RANK_CUTOFF = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    """arr's values as a read-only view of a read-only array, so ``setflags(write=True)`` raises.

    A view is copied first, in its own memory layout, since its base (a
    caller's array, say) may still be written through another name.
    """
    if arr.base is not None:
        arr = arr.copy(order="K")
    arr.setflags(write=False)
    return arr.view()


@dataclass(frozen=True)
class PureState:
    """Unit vector of complex amplitudes for a single d-level system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # np.array after the ravel, so that the amplitudes are copied once and own their memory
        amps = np.array(np.ravel(self.amplitudes), dtype=complex)
        if amps.size < 2:
            raise ValueError(f"state dimension must be at least 2, got {amps.size}")
        # a BLAS dot may round with the thread count; only this check and its message read it
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # also rejects NaN and inf
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: PureState) -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: PureState) -> float:
        """Squared overlap |<self|other>|^2."""
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on a d-level system.

    No normalization is required. The only producer in the package is
    :func:`haar.m_kl_exact`, which returns a moment operator of the
    invariant measure as one.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteVector:
    """Unit vector sum_jk c[j, k] |j>|k> of two particles, held as the matrix c."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 2:
            raise ValueError(f"coefficients must form a matrix, got shape {coeffs.shape}")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # also rejects NaN and inf
            raise ValueError(f"bipartite state is not normalized: |c|^2 = {norm_sq}")
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    @property
    def dims(self) -> tuple[int, int]:
        return self.coeffs.shape


def check_schmidt_coefficients(lambdas) -> np.ndarray:
    """Validate a Schmidt coefficient list and return it as a float array.

    Coefficients must be nonnegative, sorted in descending order, and have
    unit sum of squares.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size < 2:
        raise ValueError(f"need at least 2 Schmidt coefficients, got {lam.size}")
    if np.any(lam < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise ValueError("Schmidt coefficients must be sorted in descending order")
    norm_sq = float(np.sum(lam**2))
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"Schmidt coefficients are not normalized: sum of squares = {norm_sq}")
    return lam


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Canonical form sum_k lambda_k |left_k> x |right_k> of a bipartite vector.

    Coefficients are nonnegative and sorted descending; the local bases are
    stored as rows (``left_basis[k]`` holds the amplitudes of the k-th left
    vector).
    """

    lambdas: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self) -> None:
        lam = check_schmidt_coefficients(self.lambdas)
        left = np.array(self.left_basis, dtype=complex)
        right = np.array(self.right_basis, dtype=complex)
        d = lam.size
        for name, basis in (("left_basis", left), ("right_basis", right)):
            if basis.shape != (d, d):
                raise ValueError(f"{name} must have shape {(d, d)}, got {basis.shape}")
            # checked before the product, which warns on an infinite entry
            if not np.isfinite(basis).all():
                raise ValueError(f"{name} rows are not orthonormal: entries must be finite")
            gram = basis @ basis.conj().T
            if not np.max(np.abs(gram - np.eye(d))) <= RECON_ATOL:
                raise ValueError(f"{name} rows are not orthonormal")
        object.__setattr__(self, "lambdas", _freeze(lam))
        object.__setattr__(self, "left_basis", _freeze(left))
        object.__setattr__(self, "right_basis", _freeze(right))

    @property
    def dim(self) -> int:
        return self.lambdas.size

    @property
    def effective_rank(self) -> int:
        """Number of Schmidt coefficients strictly above the zero cutoff."""
        return int(np.sum(self.lambdas > RANK_CUTOFF))

    @classmethod
    def from_lambdas(cls, lambdas) -> "SchmidtDecomposition":
        """Decomposition with computational-basis local bases.

        The coefficients are checked once, by ``__post_init__``.
        """
        lam = np.asarray(lambdas, dtype=float).reshape(-1)
        eye = np.eye(lam.size, dtype=complex)
        return cls(lam, eye, eye)

    def reconstruct(self) -> BipartiteVector:
        """Rebuild the coefficient matrix sum_k lambda_k |left_k>|right_k>."""
        coeffs = np.einsum("k,kj,kl->jl", self.lambdas, self.left_basis, self.right_basis)
        return BipartiteVector(coeffs)


def schmidt_decompose(state: BipartiteVector) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized bipartite state via SVD.

    Returns the singular values of the coefficient matrix sorted descending
    together with the matching orthonormal local bases, so that the input
    equals sum_k lambda_k |left_k> x |right_k> within ``RECON_ATOL``. With
    degenerate singular values any valid SVD basis may be returned; all
    downstream quantities are insensitive to that freedom.
    """
    d_a, d_b = state.dims
    if d_a != d_b:
        raise ValueError(f"subsystem dimensions must match, got {state.dims}")
    u, s, vh = np.linalg.svd(state.coeffs)
    return SchmidtDecomposition(s, u.T, vh)

