"""Dense complex linear algebra for d-level quantum systems.

Immutable wrappers for state vectors, operators and bipartite coefficient
matrices, plus the Schmidt spectrum of a shared pure state, which is all of
the state the teleportation machinery reads. Everything here is a pure
function of its inputs, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: construction-time normalization tolerance
NORM_ATOL = 1e-12
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


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def _is_unit(norm_sq):
    """Whether |v|^2, or each of an array of them, is within NORM_ATOL of 1; NaN and inf are not."""
    return abs(norm_sq - 1.0) <= NORM_ATOL


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector of complex amplitudes for a single d-level system."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # np.array after the ravel, so that the amplitudes are copied once and own their memory
        amps = np.array(np.ravel(self.amplitudes), dtype=complex)
        _check_dim(amps.size)
        # a BLAS dot may round with the thread count; only this check and its message read it
        norm_sq = float(np.vdot(amps, amps).real)
        if not _is_unit(norm_sq):
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Unit vector sum_jk c[j, k] |j>|k> of two particles, held as the matrix c."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 2:
            raise ValueError(f"coefficients must form a matrix, got shape {coeffs.shape}")
        # an entry beyond 1e154 squares to inf, which _is_unit rejects with this message
        with np.errstate(over="ignore"):
            norm_sq = float((np.abs(coeffs) ** 2).sum())
        if not _is_unit(norm_sq):
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
    # this check runs on every spectrum: the array methods run the same reductions as
    # np.any and np.sum without their dispatch, and the slices compare what np.diff subtracts
    if (lam < 0).any():
        raise ValueError("Schmidt coefficients must be nonnegative")
    if (lam[1:] > lam[:-1]).any():
        raise ValueError("Schmidt coefficients must be sorted in descending order")
    norm_sq = float((lam**2).sum())
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"Schmidt coefficients are not normalized: sum of squares = {norm_sq}")
    return lam


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt coefficients lambda of a bipartite pure state sum_k lambda_k |k>|k>.

    The coefficients are checked by :func:`check_schmidt_coefficients`:
    nonnegative, sorted descending and of unit sum of squares. The local
    Schmidt bases are not kept: the fidelity, its bound, the optimality
    conditions and the estimation figure depend on the state only through
    lambda, and every protocol is written in Schmidt-block form.
    """

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _freeze(check_schmidt_coefficients(self.lambdas)))

    @property
    def dim(self) -> int:
        return self.lambdas.size

    @property
    def effective_rank(self) -> int:
        """Number of Schmidt coefficients strictly above the zero cutoff."""
        return int(np.sum(self.lambdas > RANK_CUTOFF))


def schmidt_decompose(state: BipartiteVector) -> SchmidtDecomposition:
    """Schmidt spectrum of a normalized bipartite state: its coefficient matrix's singular values.

    LAPACK returns them sorted descending. The local bases are not computed
    (see :class:`SchmidtDecomposition`).
    """
    d_a, d_b = state.dims
    if d_a != d_b:
        raise ValueError(f"subsystem dimensions must match, got {state.dims}")
    return SchmidtDecomposition(np.linalg.svd(state.coeffs, compute_uv=False))
