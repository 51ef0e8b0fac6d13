"""Random-search validation that the optimal-fidelity bound is a true maximum.

Not a serious optimizer: the maximum over protocols is known in closed form
and attained by the standard measurement, which every search includes. The
random draws probe that no complete measurement beats it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fidelity import fidelity_bound, optimal_fidelity_given_measurement
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


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> AliceMeasurement:
    """Random complete rank-one measurement on the joint d*d space.

    The Gaussian joint vectors V_r are the rows of an (n_outcomes, d^2)
    matrix V. Its QR factor Q, with each column's phase fixed by the phase
    of R's diagonal (Mezzadri, Notices AMS 54, 592 (2007)), is a Haar-random
    isometry, so the outcomes resolve the identity exactly. A rank-one
    decomposition of the joint identity needs at least d^2 outcomes, so
    smaller n_outcomes is rejected.
    """
    dd = d * d
    if n_outcomes < dd:
        raise ValueError(
            f"a complete rank-one measurement on a {dd}-dimensional joint space "
            f"needs at least {dd} outcomes, got {n_outcomes}"
        )
    for _ in range(8):
        v = rng.standard_normal((n_outcomes, dd)) + 1j * rng.standard_normal((n_outcomes, dd))
        q, r = np.linalg.qr(v)
        diag = np.diagonal(r)
        mag = np.abs(diag)
        if mag.min() ** 2 > dd * 1e-12 * mag.max() ** 2:
            break
    else:
        raise RuntimeError("failed to draw a full-rank Gaussian frame")
    joint = q * (diag / mag)
    # joint index (j, k) = j*d + k; block k of outcome r is phi[r, k]
    return AliceMeasurement(joint.reshape(n_outcomes, d, d).transpose(0, 2, 1))


def search_best_protocol(
    lambdas, n_outcomes: int | None, iterations: int, rng: np.random.Generator
) -> SearchResult:
    """Evaluate random measurements (plus the standard one) against the bound.

    Each candidate is scored by the best fidelity attainable with optimal
    unitary corrections; the standard measurement is always included, so the
    best found value sits at the bound and the reported gap probes only
    whether any random draw exceeds it.
    """
    lam = check_schmidt_coefficients(lambdas)
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    d = lam.size
    if n_outcomes is None:
        n_outcomes = d * d
    best_meas = standard_measurement(d)
    best_f = optimal_fidelity_given_measurement(best_meas, lam)
    for _ in range(iterations):
        meas = random_povm(d, n_outcomes, rng)
        f = optimal_fidelity_given_measurement(meas, lam)
        if f > best_f:
            best_f, best_meas = f, meas
    return SearchResult(best_f, best_meas, iterations + 1, fidelity_bound(lam))
