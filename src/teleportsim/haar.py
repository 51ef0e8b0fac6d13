"""Haar sampling of pure states and the moment operators of that measure.

A Haar-random pure state is obtained by normalizing a vector of i.i.d.
complex Gaussians, which realizes exactly the unitarily invariant
probability measure on unit vectors. With the measure normalized to total
mass one, the second-moment operators

    M(k, l) = integral dpsi  <psi|k> <l|psi>  |psi><psi|

have the closed form (delta_kl * I + |k><l|) / (d * (d + 1)). The
Monte-Carlo estimator below reproduces them entrywise within its reported
standard errors; that agreement is the numerical anchor for every exact
fidelity formula in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .qcore import Operator, PureState

#: complex entries that one block of a Monte-Carlo estimator's widest
#: intermediate may hold (32 MiB); bounds memory independently of n
MC_BLOCK_ENTRIES = 2**21


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for a (seed, stream) pair.

    Distinct stream ids give statistically independent substreams of the
    same seed, so Monte-Carlo work can be split without overlapping samples
    while staying reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error (scalar or array valued).

    ``std_error`` is the plain sample standard deviation divided by the
    square root of the sample count, entrywise for array values.
    """

    value: Union[float, complex, np.ndarray]
    std_error: Union[float, np.ndarray]
    n_samples: int

    def within(self, expected, n_sigmas: float = 4.0) -> bool:
        """True when |value - expected| <= n_sigmas * std_error everywhere."""
        dev = np.abs(np.asarray(self.value) - np.asarray(expected))
        return bool(np.all(dev <= n_sigmas * np.asarray(self.std_error)))

    @staticmethod
    def pooled(estimates: Sequence["McEstimate"]) -> "McEstimate":
        """Combine independent estimates of the same quantity into one.

        Per-chunk sums are reconstructed from the means and standard errors,
        so the result matches a single pass over the concatenated samples.
        """
        if not estimates:
            raise ValueError("need at least one estimate to pool")
        if len(estimates) == 1:
            return estimates[0]
        counts = np.array([e.n_samples for e in estimates], dtype=float)
        n = counts.sum()
        values = np.stack([np.asarray(e.value) for e in estimates])
        errors = np.stack([np.asarray(e.std_error, dtype=float) for e in estimates])
        mean = np.tensordot(counts / n, values, axes=1)
        # sample variance per chunk -> sum of |x|^2 per chunk -> pooled variance
        chunk_var = errors**2 * counts.reshape((-1,) + (1,) * (errors.ndim - 1))
        sum_sq = np.sum(
            chunk_var * (counts - 1).reshape((-1,) + (1,) * (errors.ndim - 1))
            + np.abs(values) ** 2 * counts.reshape((-1,) + (1,) * (values.ndim - 1)),
            axis=0,
        )
        var = np.clip((sum_sq - n * np.abs(mean) ** 2) / (n - 1), 0.0, None)
        std_error = np.sqrt(var / n)
        if mean.ndim == 0:
            return McEstimate(mean.item(), float(std_error), int(n))
        return McEstimate(mean, std_error, int(n))


def blocked_mean(
    psi: np.ndarray, integrand: Callable[[np.ndarray], np.ndarray], width: int
) -> McEstimate:
    """Mean and standard error of ``integrand`` over the rows of ``psi``.

    ``integrand`` maps a block of rows to one real value per row, using
    intermediates of at most ``width`` complex entries per row. Blocks hold
    at most ``MC_BLOCK_ENTRIES`` such entries. The block size changes the
    per-row values by rounding at most, since a matrix product may sum in
    another order for another number of rows.
    """
    n = psi.shape[0]
    step = max(1, MC_BLOCK_ENTRIES // width)
    f = np.empty(n)
    for start in range(0, n, step):
        f[start : start + step] = integrand(psi[start : start + step])
    return McEstimate(
        value=float(f.mean()),
        std_error=float(f.std(ddof=1) / np.sqrt(n)),
        n_samples=n,
    )


def sample_haar_state(d: int, rng: np.random.Generator) -> PureState:
    """One pure state drawn from the unitarily invariant measure."""
    return PureState(sample_haar_states(d, 1, rng)[0])


def sample_haar_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random pure states, returned as rows of an (n, d) complex array."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _check_indices(d: int, k: int, l: int) -> None:
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError(f"indices must lie in [0, {d}), got k={k}, l={l}")


def m_kl_exact(d: int, k: int, l: int) -> Operator:
    """Closed form of the moment operator M(k, l) = (delta_kl I + |k><l|) / (d (d+1))."""
    _check_indices(d, k, l)
    mat = np.zeros((d, d), dtype=complex)
    if k == l:
        mat += np.eye(d)
    mat[k, l] += 1.0
    return Operator(mat / (d * (d + 1)))


def m_kl_monte_carlo(d: int, k: int, l: int, n: int, rng: np.random.Generator) -> McEstimate:
    """Entrywise Monte-Carlo estimate of the moment operator M(k, l).

    Averages <psi|k><l|psi> |psi><psi| over n Haar samples; the returned
    estimate holds the (d, d) complex mean and entrywise standard errors.
    """
    _check_indices(d, k, l)
    if n < 1000:
        raise ValueError(f"need at least 1000 samples, got {n}")
    psi = sample_haar_states(d, n, rng)
    w = psi[:, k].conj() * psi[:, l]
    value = np.einsum("n,ni,nj->ij", w, psi, psi.conj()) / n
    # E|X|^2 factorizes into per-sample basis probabilities, so the
    # entrywise variance needs no second pass over outer products.
    p = np.abs(psi) ** 2
    second = np.einsum("n,ni,nj->ij", p[:, k] * p[:, l], p, p) / n
    var = np.clip(second - np.abs(value) ** 2, 0.0, None) * n / (n - 1)
    return McEstimate(value=value, std_error=np.sqrt(var / n), n_samples=n)
