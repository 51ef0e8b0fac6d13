"""Random-search validation that the optimal-fidelity bound is a true maximum.

Not a serious optimizer: the maximum over protocols is known in closed form
and attained by the standard measurement, which every search includes. The
random draws probe that no complete measurement beats it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fidelity import _optimal_fidelities, fidelity_bound, optimal_fidelity_given_measurement
from .protocol import AliceMeasurement, standard_measurement
from .qcore import check_schmidt_coefficients


@dataclass(frozen=True)
class SearchResult:
    """Best measurement found by random search, with the analytic bound for context."""

    best_fidelity: float
    best_measurement: AliceMeasurement
    n_evaluated: int
    bound: float

    @property
    def gap(self) -> float:
        """bound - best_fidelity; anything below -1e-9 would falsify the bound."""
        return self.bound - self.best_fidelity


#: complex frame entries a search block may hold: 2^16, one d = 16 frame of d^2 outcomes
BLOCK_ENTRIES = 2**16
#: rank-deficient frames in a row after which a draw gives up
MAX_FAILED_FRAMES = 8


def _random_frames(d: int, n_outcomes: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random complete measurements, as a (count, n_outcomes, d, d) stack of phi blocks.

    The Gaussian frames are drawn in one ``standard_normal((count, 2, n_outcomes,
    d^2))`` call (real parts, then imaginary parts, frame after frame), which
    consumes ``rng`` exactly as ``count`` draws of one frame do, and
    orthonormalized by one batched QR (see :func:`random_povm`). The frames
    form a queue in stream order: a rank-deficient one is skipped and only the
    missing number of frames is drawn again, so the measurements kept are the
    ones that ``count`` calls of :func:`random_povm` would return, bit for bit.
    After :data:`MAX_FAILED_FRAMES` rank-deficient frames in a row it raises
    a RuntimeError (the stream may then have been read past those frames).
    """
    dd = d * d
    if n_outcomes < dd:
        raise ValueError(
            f"a complete rank-one measurement on a {dd}-dimensional joint space "
            f"needs at least {dd} outcomes, got {n_outcomes}"
        )
    kept = []
    failed = 0
    while count > 0:
        g = rng.standard_normal((count, 2, n_outcomes, dd))
        q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        diag = np.diagonal(r, axis1=1, axis2=2)
        mag = np.abs(diag)
        full_rank = mag.min(axis=1) ** 2 > dd * 1e-12 * mag.max(axis=1) ** 2
        for ok in full_rank:
            failed = 0 if ok else failed + 1
            if failed == MAX_FAILED_FRAMES:
                raise RuntimeError("failed to draw a full-rank Gaussian frame")
        # the phases of R's diagonal, taken only where no |R_ii| vanishes
        kept.append(q[full_rank] * (diag[full_rank] / mag[full_rank])[:, None, :])
        count -= int(full_rank.sum())
    joint = np.concatenate(kept)
    # joint index (j, k) = j*d + k; block k of outcome r is phi[r, k]
    return joint.reshape(-1, n_outcomes, d, d).transpose(0, 1, 3, 2)


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> AliceMeasurement:
    """Random complete rank-one measurement on the joint d*d space.

    The Gaussian joint vectors V_r are the rows of an (n_outcomes, d^2)
    matrix V. Its QR factor Q, with each column's phase fixed by the phase
    of R's diagonal (Mezzadri, Notices AMS 54, 592 (2007)), is a Haar-random
    isometry, so the outcomes resolve the identity exactly. A rank-one
    decomposition of the joint identity needs at least d^2 outcomes, so
    smaller n_outcomes is rejected. A rank-deficient frame is drawn again,
    up to :data:`MAX_FAILED_FRAMES` times. This is the one-measurement case
    of a search block (:func:`_random_frames`).
    """
    return AliceMeasurement(_random_frames(d, n_outcomes, 1, rng)[0])


def search_best_protocol(
    lambdas, n_outcomes: int, iterations: int, rng: np.random.Generator
) -> SearchResult:
    """Evaluate random measurements (plus the standard one) against the bound.

    Each random measurement has ``n_outcomes`` outcomes, at least d^2, and
    each candidate is scored by the best fidelity attainable with optimal
    unitary corrections; the standard measurement is always included, so the
    best found value sits at the bound and the reported gap probes only
    whether any random draw exceeds it. It is monomial, so it is scored
    without an SVD (:func:`optimal_fidelity_given_measurement`).

    Candidates are drawn and scored in blocks of at most
    :data:`BLOCK_ENTRIES` complex frame entries (one candidate per block at
    d = 16), each by one batched QR and one batched SVD. The best fidelity
    and measurement, the candidate count and the state in which ``rng`` is
    left equal, bit for bit, those of drawing and scoring one
    :func:`random_povm` after another; of equal best scores the first wins.
    """
    lam = check_schmidt_coefficients(lambdas)
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    d = lam.size
    best_meas = standard_measurement(d)
    best_f = optimal_fidelity_given_measurement(best_meas, lam)
    # too few outcomes (even 0) reach _random_frames, which rejects them
    block = max(1, BLOCK_ENTRIES // (max(n_outcomes, d * d) * d * d))
    for start in range(0, iterations, block):
        phi = _random_frames(d, n_outcomes, min(block, iterations - start), rng)
        scores = _optimal_fidelities(phi, lam)
        i = int(np.argmax(scores))
        if scores[i] > best_f:
            best_f, best_meas = float(scores[i]), AliceMeasurement(phi[i])
    return SearchResult(best_f, best_meas, iterations + 1, fidelity_bound(lam))
