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

Every Haar draw is one ``rng.standard_normal((2, n, d))`` call, real parts
then imaginary parts, and :func:`_haar_rows` is the one rule that turns a
block of it into normalized rows. The moment sums and a dense form
normalize each block as they reduce it, so they never hold all n states.

Both Monte-Carlo fidelities, of teleportation and of estimation, are real
quadratic forms x^T F x in the coordinates x of psi psi†. This module holds
those coordinates; :func:`_form_width`, which decides where a form is built
whether it reads all d^2 of them or only the d diagonal ones |psi_i|^2; and
:func:`form_monte_carlo`, the one estimator of a form. A (d, d) form needs no
phases, and :func:`_sample_simplex` draws its |psi_i|^2 directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence, Union

import numpy as np

from .qcore import Operator, PureState, _check_dim, _freeze

#: complex entries that one block of a Monte-Carlo form's widest intermediate
#: may hold (4 MiB). This bounds each block's cache footprint, and so memory
#: too, independently of n. Timed at 2**15 to 2**21 on d = 16 and d = 8 calls:
#: the quadratic forms slow down once a block outgrows a core's L2 cache.
MC_BLOCK_ENTRIES = 2**18
#: entries of psi that one block of Haar rows holds (128 KiB), whatever the
#: number of moment pairs: the moment sums reduce, and sample_haar_states
#: normalizes, HAAR_BLOCK_ENTRIES // d rows at a time. Timed at 2**11 to 2**14
#: on one BLAS thread: one pair ran best here at d = 16 (512 rows), and about 10%
#: faster at 2**12 at d <= 8; all pairs ran best here at d = 8, were flat from
#: 256 to 1024 rows at d = 16, and slowed at 128.
HAAR_BLOCK_ENTRIES = 2**13
#: fewest samples any Monte-Carlo estimator accepts
MC_MIN_SAMPLES = 1000


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for a (seed, stream) pair.

    Distinct stream ids give statistically independent substreams of the
    same seed, so Monte-Carlo work can be split without overlapping samples
    while staying reproducible. A negative seed raises a ValueError that names it.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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


def _form_width(d: int, *stacks: np.ndarray) -> int:
    """d if no (R, d^2) coordinate stack has a nonzero column past the d-th, else d^2.

    A form built from the stacks is built that wide: on d coordinates it reads
    psi only through |psi_i|^2. The stacks are tested, not their product.
    """
    return d * d if any(stack[:, d:].any() for stack in stacks) else d


def form_monte_carlo(form: np.ndarray, d: int, n: int, rng: np.random.Generator) -> McEstimate:
    """Haar mean and standard error of x^T F x for a real form F of dimension d.

    F's shape (:func:`_form_width`) says how the n inputs are drawn. A (d, d)
    form, as the standard protocol's are, reads psi only through
    x_i = |psi_i|^2, uniform on the probability simplex for Haar-random psi:
    :func:`_sample_simplex` draws those points directly, with the Haar draw's
    mean and standard error but another random stream. For a (d^2, d^2) form
    the n inputs are Haar states, the stream and rows of
    :func:`sample_haar_states`, and each row computes all d^2 coordinates of
    x. d is an argument because a (d, d) form has the shape of a full form of
    dimension sqrt(d).

    All n inputs are drawn first, in one call. The form is then evaluated on
    blocks of rows whose intermediates hold at most ``MC_BLOCK_ENTRIES``
    complex entries, which keeps a block's working set near cache size and
    its memory fixed, independently of n; Haar rows are normalized block by
    block, so only the raw draw spans all n. The block size changes the
    per-row values by rounding at most, since a matrix product may sum in
    another order for another number of rows.
    """
    _check_samples(n)
    if form.shape[0] == d:
        p = _sample_simplex(d, n, rng)
        # x and x @ F hold d reals each per row
        step = max(1, MC_BLOCK_ENTRIES // (2 * d))
        coords = lambda block: p[block]
    else:
        draw = _haar_draw(d, n, rng)
        # forming x holds about 1.5 d^2 complex entries per row, then x and x @ F d^2 reals each
        step = max(1, MC_BLOCK_ENTRIES // (2 * d * d))
        coords = lambda block: _state_coords(_haar_rows(draw[:, block]))
    f = np.empty(n)
    for start in range(0, n, step):
        block = slice(start, start + step)
        f[block] = _form_rows(form, coords(block))
    return McEstimate(float(f.mean()), float(f.std(ddof=1) / np.sqrt(n)), n)


def sample_haar_state(d: int, rng: np.random.Generator) -> PureState:
    """One pure state drawn from the unitarily invariant measure."""
    return PureState(sample_haar_states(d, 1, rng)[0])


def sample_haar_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random pure states, returned as rows of an (n, d) complex array.

    The draw (:func:`_haar_draw`) is normalized into the result
    ``HAAR_BLOCK_ENTRIES // d`` rows at a time, so beyond the draw and the
    result only one block's temporaries are held.
    """
    draw = _haar_draw(d, n, rng)
    psi = np.empty((n, d), dtype=complex)
    step = max(1, HAAR_BLOCK_ENTRIES // d)
    for start in range(0, n, step):
        psi[start : start + step] = _haar_rows(draw[:, start : start + step])
    return psi


def _haar_draw(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard normals for n Haar states, as a (2, n, d) array: real parts, then imaginary parts."""
    _check_dim(d)
    return rng.standard_normal((2, n, d))


def _haar_rows(draw: np.ndarray) -> np.ndarray:
    """The Haar states of a (2, b, d) block of :func:`_haar_draw`, as rows of a (b, d) array.

    Each row z is divided by sqrt(sum |z_i|^2), with |z_i|^2 computed as
    (z* z).real, the arithmetic of ``np.linalg.norm``. A row depends on its
    own entries only, so any split of the draw into blocks gives the same
    bits.
    """
    z = draw[0] + 1j * draw[1]
    return z / np.sqrt((z.conj() * z).real.sum(axis=1, keepdims=True))


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
    _check_dim(d)
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


@cache
def _moment_matrix(d: int) -> np.ndarray:
    """Every M(k, l) in one (d^2, d^2) matrix, entry [(k, i), (l, j)] = M(k, l)[i, j].

    Entry [(k, i), (l, j)] is (delta_kl delta_ij + delta_ki delta_lj) / (d (d+1)):
    the identity plus the outer product of e = vec(I) with itself. Each entry
    is an integer divided once by d (d+1), as in :func:`m_kl_exact`, so the
    two agree bit for bit. Every entry is real, and so is the array. Built
    once per dimension and kept read-only (d^4 doubles, 512 KiB at d = 16).
    """
    e = np.eye(d).ravel()
    return _freeze((np.eye(d * d) + np.outer(e, e)) / (d * (d + 1)))


def _moment_blocks(draw: np.ndarray, ks: Sequence[int], ls: Sequence[int]) -> McEstimate:
    """Entrywise Monte-Carlo estimate of M(k, l) for k in ``ks`` and l in ``ls``.

    ``draw`` is a (2, n, d) :func:`_haar_draw`, whose rows psi are the states
    :func:`sample_haar_states` gives. The value is a (len(ks) d, len(ls) d)
    matrix laid out like :func:`_moment_matrix`, with entry [(k, i), (l, j)]
    the mean of <psi|k><l|psi> psi_i psi_j* over the n states. With
    y = psi* (x) psi that mean is Y^T Y* / n. The entry's modulus squared is
    p_k p_i p_l p_j with p = |psi|^2, so the second moments are Z^T Z / n
    with z = p (x) p. Both sums run over blocks of ``HAAR_BLOCK_ENTRIES // d``
    rows, each normalized from the draw as it is reduced, so memory does not
    grow with n beyond the draw itself. Each factor of a block (y and z for
    ``ks``, y* and z for ``ls``) lives only for its own product; y holds
    128 KiB for one pair at d = 16, and 2 MiB for all pairs.
    """
    _, n, d = draw.shape
    ks, ls = list(ks), list(ls)
    step = max(1, HAAR_BLOCK_ENTRIES // d)
    value = np.zeros((len(ks) * d, len(ls) * d), dtype=complex)
    second = np.zeros(value.shape)
    for start in range(0, n, step):
        psi = _haar_rows(draw[:, start : start + step])
        psi_conj, p = psi.conj(), np.abs(psi) ** 2
        value += _kron_rows(psi_conj, ks, psi).T @ _kron_rows(psi, ls, psi_conj)
        second += _kron_rows(p, ks, p).T @ _kron_rows(p, ls, p)
    value /= n
    var = np.clip(second / n - np.abs(value) ** 2, 0.0, None) * n / (n - 1)
    return McEstimate(value=value, std_error=np.sqrt(var / n), n_samples=n)


def _kron_rows(a: np.ndarray, cols: list[int], b: np.ndarray) -> np.ndarray:
    """Row by row, the Kronecker product of a's columns ``cols`` with b, as a (rows, len(cols) d) array."""
    return (a[:, cols, None] * b[:, None, :]).reshape(a.shape[0], -1)


def m_kl_monte_carlo(d: int, k: int, l: int, n: int, rng: np.random.Generator) -> McEstimate:
    """Entrywise Monte-Carlo estimate of the moment operator M(k, l).

    Averages <psi|k><l|psi> |psi><psi| over n Haar samples, the states
    :func:`sample_haar_states` would draw from ``rng``; the returned
    estimate holds the (d, d) complex mean and entrywise standard errors.
    """
    _check_indices(d, k, l)
    _check_samples(n)
    return _moment_blocks(_haar_draw(d, n, rng), [k], [l])
