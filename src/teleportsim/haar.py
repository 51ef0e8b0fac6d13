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

Both Monte-Carlo fidelities, of teleportation and of estimation, are real
quadratic forms x^T F x in the coordinates x of psi psi†. This module holds
those coordinates and :func:`form_monte_carlo`, the one estimator of a form.
A form reads either only the d diagonal coordinates |psi_i|^2 or all d^2 of
them. One that reads only the diagonal, as the standard protocol's do, needs
no phases: for Haar-random psi those are uniform on the probability simplex,
and :func:`_sample_simplex` draws them directly. Any other form, such as a
random POVM's, is evaluated on all coordinates of Haar states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence, Union

import numpy as np

from .qcore import Operator, PureState, _check_dim, _freeze

#: complex entries that one block of a Monte-Carlo estimator's widest
#: intermediate may hold (4 MiB). This bounds each block's cache footprint, and
#: so memory too, independently of n. Timed at 2**15 to 2**21 on d = 16 and
#: d = 8 calls: the quadratic forms slow down once a block outgrows a core's
#: L2 cache, and the moment sums slow down in much smaller blocks.
MC_BLOCK_ENTRIES = 2**18
#: fewest samples any Monte-Carlo estimator accepts
MC_MIN_SAMPLES = 1000


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


@cache
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the entries i < j of a (d, d) matrix, in row-major order.

    Built once per dimension and kept read-only: a shot's coordinates need
    them, and ``np.triu_indices`` takes about as long as a whole shot.
    """
    return tuple(_freeze(index) for index in np.triu_indices(d, 1))


def _hermitian_coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a stack of Hermitian (d, d) matrices, as a (..., d^2) array.

    The d diagonal entries come first, then sqrt(2) Re and then sqrt(2) Im of
    the entries above the diagonal, in row-major order. The coordinates are
    orthonormal for the trace product: tr(E F) = coords(E) . coords(F) for
    Hermitian E and F. Only the diagonal and the upper triangle are read.
    """
    i, j = _pairs(h.shape[-1])
    upper = np.sqrt(2) * h[..., i, j]
    return np.concatenate([h.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


def _state_coords(psi: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """:func:`_hermitian_coords` of psi psi† for a state psi, or for every row of an (n, d) array.

    They are read off psi, without forming psi psi†: its diagonal is
    |psi_i|^2 and its entry (i, j) is psi_i psi_j*. Their norm is |psi|^2.
    With ``diagonal``, only the d coordinates |psi_i|^2 are computed, which
    are the first d of the full set, with the same arithmetic.
    """
    x = np.abs(psi) ** 2
    if diagonal:
        return x
    i, j = _pairs(psi.shape[-1])
    # take is the cheapest selection on one state; it gives the same entries as indexing
    upper = np.sqrt(2) * psi.take(i, axis=-1) * psi.take(j, axis=-1).conj()
    return np.concatenate([x, upper.real, upper.imag], axis=-1)


def _form_rows(form: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^T F x for every row x of an (n, k) array of coordinates."""
    return np.einsum("na,na->n", x, x @ form)


def form_monte_carlo(form: np.ndarray, n: int, rng: np.random.Generator) -> McEstimate:
    """Haar mean and standard error of x^T F x for a real (d^2, d^2) form F.

    How the n inputs are drawn follows from which coordinates F reads, found
    once per call. F is not symmetric in general (the estimation form E^T N
    is not), so both its rows and its columns past the first d are checked.

    - Some row or column past the first d holds a nonzero entry, as a random
      POVM's forms do: F reads pairs psi_i psi_j*. n Haar states are drawn
      by :func:`sample_haar_states`, and each row computes all d^2
      coordinates of x.
    - None does: F reads psi only through x_i = |psi_i|^2, which for
      Haar-random psi is uniform on the probability simplex.
      :func:`_sample_simplex` draws those points directly, and the form is
      F's leading (d, d) block. The standard protocol's fidelity form and the
      standard measurement's estimation form are of this kind. The
      estimator's mean and standard error are those of the Haar draw; the
      random stream, and so each seeded value, differs.

    A form that reads only some pairs, or only some diagonal entries, is
    evaluated on all d^2 or all d coordinates; its zero rows and columns
    change the per-row values by rounding at most.

    All n inputs are drawn first, in one call. The form is then evaluated on
    blocks of rows whose intermediates hold at most ``MC_BLOCK_ENTRIES``
    complex entries, which keeps a block's working set near cache size and
    its memory fixed, independently of n. The block size changes the
    per-row values by rounding at most, since a matrix product may sum in
    another order for another number of rows.
    """
    _check_samples(n)
    d = math.isqrt(form.shape[0])
    if form[d:].any() or form[:, d:].any():
        psi = sample_haar_states(d, n, rng)
        # forming x holds about 1.5 d^2 complex entries per row, then x and x @ F d^2 reals each
        step = max(1, MC_BLOCK_ENTRIES // (2 * d * d))
        coords = lambda block: _state_coords(psi[block])
    else:
        form = np.ascontiguousarray(form[:d, :d])
        p = _sample_simplex(d, n, rng)
        # x and x @ F hold d reals each per row
        step = max(1, MC_BLOCK_ENTRIES // (2 * d))
        coords = lambda block: p[block]
    f = np.empty(n)
    for start in range(0, n, step):
        block = slice(start, start + step)
        f[block] = _form_rows(form, coords(block))
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
    _check_dim(d)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _sample_simplex(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """|psi_i|^2 of n Haar-random states, drawn directly, as rows of an (n, d) real array.

    For Haar-random psi, p = |psi|^2 is uniform on the probability simplex
    (Wootters, Found. Phys. 20, 1365 (1990)), and so are d i.i.d. standard
    exponentials divided by their sum (Devroye, Non-Uniform Random Variate
    Generation, ch. V). Each row is divided in place, so the draw holds one
    (n, d) real array, half the bytes of :func:`sample_haar_states`' output.
    """
    _check_dim(d)
    p = rng.standard_exponential((n, d))
    p /= p.sum(axis=1, keepdims=True)
    return p


def _check_samples(n: int) -> None:
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} samples, got {n}")


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


def _moment_matrix(d: int) -> np.ndarray:
    """Every M(k, l) in one (d^2, d^2) matrix, entry [(k, i), (l, j)] = M(k, l)[i, j].

    Entry [(k, i), (l, j)] is (delta_kl delta_ij + delta_ki delta_lj) / (d (d+1)):
    the identity plus the outer product of e = vec(I) with itself. Each entry
    is an integer divided once by d (d+1), as in :func:`m_kl_exact`, so the
    two agree bit for bit. Every entry is real, and so is the array.
    """
    e = np.eye(d).ravel()
    return (np.eye(d * d) + np.outer(e, e)) / (d * (d + 1))


def _moment_blocks(psi: np.ndarray, ks: Sequence[int], ls: Sequence[int]) -> McEstimate:
    """Entrywise Monte-Carlo estimate of M(k, l) for k in ``ks`` and l in ``ls``.

    The value is a (len(ks) d, len(ls) d) matrix laid out like
    :func:`_moment_matrix`, with entry [(k, i), (l, j)] the mean of
    <psi|k><l|psi> psi_i psi_j* over the rows of ``psi``. With
    y = psi* (x) psi that mean is Y^T Y* / n. The entry's modulus squared is
    p_k p_i p_l p_j with p = |psi|^2, so the second moments are Z^T Z / n
    with z = p (x) p. Both sums run over blocks of rows whose four factors
    (y and z for ``ks``, y* and z for ``ls``) hold at most ``MC_BLOCK_ENTRIES``
    entries together. That bounds each block's cache footprint, and so memory
    does not grow with n beyond ``psi`` itself.
    """
    n, d = psi.shape
    ks, ls = list(ks), list(ls)
    step = max(1, MC_BLOCK_ENTRIES // (2 * (len(ks) + len(ls)) * d))
    value = np.zeros((len(ks) * d, len(ls) * d), dtype=complex)
    second = np.zeros(value.shape)
    for start in range(0, n, step):
        block = psi[start : start + step]
        rows = (block.shape[0], -1)
        p = np.abs(block) ** 2
        y = (block[:, ks, None].conj() * block[:, None, :]).reshape(rows)
        y_conj = (block[:, ls, None] * block[:, None, :].conj()).reshape(rows)
        z_k = (p[:, ks, None] * p[:, None, :]).reshape(rows)
        z_l = (p[:, ls, None] * p[:, None, :]).reshape(rows)
        value += y.T @ y_conj
        second += z_k.T @ z_l
    value /= n
    var = np.clip(second / n - np.abs(value) ** 2, 0.0, None) * n / (n - 1)
    return McEstimate(value=value, std_error=np.sqrt(var / n), n_samples=n)


def m_kl_monte_carlo(d: int, k: int, l: int, n: int, rng: np.random.Generator) -> McEstimate:
    """Entrywise Monte-Carlo estimate of the moment operator M(k, l).

    Averages <psi|k><l|psi> |psi><psi| over n Haar samples; the returned
    estimate holds the (d, d) complex mean and entrywise standard errors.
    """
    _check_indices(d, k, l)
    _check_samples(n)
    return _moment_blocks(sample_haar_states(d, n, rng), [k], [l])
