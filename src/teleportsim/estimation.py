"""Estimating the teleported state from Alice's measurement record.

When the shared state is not maximally entangled, the measurement outcome
leaks information about the input: outcome r occurs with probability
sum_k lambda_k^2 |<phi_r^k|psi>|^2, and Alice can convert the record into a
guess for psi. The guess quality is again a Haar-averaged fidelity. On the
measurements that pass the optimality conditions it is at most
(1 + lambda_0^2) / (d + 1), and each of them attains that value with the
normalized leading measurement blocks as guesses. It is not a bound over
all measurements: other measurements can reach a higher estimation
fidelity, at the cost of teleportation fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .haar import McEstimate, _form_width, _state_coords, form_monte_carlo
from .protocol import AliceMeasurement, _a_matrices, _effect_coords, _matched_lambdas
from .qcore import _freeze, _is_unit, check_schmidt_coefficients

#: leading blocks with norm at or below this have no well-defined guess
ZERO_BLOCK_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class EstimationStrategy:
    """Outcome-indexed guesses, one unit vector per measurement outcome.

    A strategy keeps the last Monte-Carlo form it was scored with
    (:func:`estimation_fidelity_mc`), as one tuple of the measurement, the
    bytes of lambda and the read-only form, so that scoring it again against
    the same measurement object and spectrum builds nothing. The measurement
    is compared by identity; its blocks and the guesses are read-only, so a
    kept form cannot go stale. Another measurement or spectrum replaces the
    tuple, so a strategy holds at most one form, and a reader sees either
    the old tuple or the new one whole.
    """

    guesses: np.ndarray
    _form: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        guesses = np.array(self.guesses, dtype=complex)
        if guesses.ndim != 2:
            raise ValueError(f"guesses must have shape (R, d), got {guesses.shape}")
        # checked before the norms, so that a non-finite guess gets the message that says so
        if not np.isfinite(guesses).all():
            raise ValueError("every guess must be a unit vector: guesses must be finite")
        # an entry beyond 1e154 squares to inf, which _is_unit rejects
        with np.errstate(over="ignore"):
            norm_sq = (np.abs(guesses) ** 2).sum(axis=1)
        if not _is_unit(norm_sq).all():
            raise ValueError("every guess must be a unit vector")
        object.__setattr__(self, "guesses", _freeze(guesses))

    @property
    def n_outcomes(self) -> int:
        return self.guesses.shape[0]

    @property
    def d(self) -> int:
        return self.guesses.shape[1]


def optimal_estimates(meas: AliceMeasurement) -> EstimationStrategy:
    """Best guess per outcome: the normalized leading measurement block.

    An outcome whose leading block has norm at most
    :data:`ZERO_BLOCK_CUTOFF` has no such guess and gets the unit vector
    |0>; such outcomes contribute nothing to the leading-coefficient term
    the optimal strategy maximizes.
    """
    phi0 = meas.phi[:, 0]
    norms = np.linalg.norm(phi0, axis=1)
    degenerate = norms <= ZERO_BLOCK_CUTOFF
    guesses = np.zeros_like(phi0)
    guesses[degenerate, 0] = 1.0
    ok = ~degenerate
    guesses[ok] = phi0[ok] / norms[ok, None]
    return EstimationStrategy(guesses)


def _check_inputs(meas: AliceMeasurement, lambdas, strategy: EstimationStrategy) -> np.ndarray:
    lam = _matched_lambdas(meas, lambdas)
    if strategy.n_outcomes != meas.n_outcomes or strategy.d != meas.d:
        raise ValueError("strategy shape does not match the measurement")
    return lam


def estimation_fidelity_exact(
    meas: AliceMeasurement, lambdas, strategy: EstimationStrategy
) -> float:
    """Exact mean fidelity of outcome-conditioned guessing.

    Closed form
        (d + sum_k lambda_k^2 sum_r |<phi_r^k|guess_r>|^2) / (d (d + 1)),
    valid for any complete measurement and any unit-vector strategy.
    """
    lam = _check_inputs(meas, lambdas, strategy)
    overlaps = np.einsum("rkj,rj->rk", meas.phi.conj(), strategy.guesses)
    per_k = np.sum(np.abs(overlaps) ** 2, axis=0)
    d = meas.d
    return (d + float(np.sum(lam**2 * per_k))) / (d * (d + 1))


def estimation_fidelity_bound(lambdas) -> float:
    """Mean estimation fidelity of the optimal protocols: (1 + lambda_0^2) / (d + 1).

    It is the maximum over measurements passing the optimality conditions,
    and each of them attains it. It does not bound other measurements, some
    of which estimate better.
    """
    lam = check_schmidt_coefficients(lambdas)
    return (1.0 + float(lam[0]) ** 2) / (lam.size + 1)


def _estimation_form(
    meas: AliceMeasurement, lam: np.ndarray, strategy: EstimationStrategy
) -> np.ndarray:
    """E^T N: the real form of :func:`estimation_fidelity_mc`'s integrand.

    Row r of E holds the coordinates of the effect E_r = A_r† A_r, and row r
    of N those of the guess projector |guess_r><guess_r|. Both are cut to
    :func:`haar._form_width` before their product, as it keeps the bits.
    """
    e, g = _effect_coords(_a_matrices(meas.phi, lam)), _state_coords(strategy.guesses)
    width = _form_width(meas.d, e, g)
    return e[:, :width].T @ g[:, :width]


def estimation_fidelity_mc(
    meas: AliceMeasurement,
    lambdas,
    strategy: EstimationStrategy,
    n: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Monte-Carlo estimation fidelity over Haar-random inputs.

    Averages sum_r p_r(psi) |<psi|guess_r>|^2 with outcome probabilities
    p_r(psi) = sum_k lambda_k^2 |<phi_r^k|psi>|^2 = tr(E_r rho), where
    rho = psi psi† and E_r = A_r† A_r. In the real coordinates x of rho
    (:func:`haar._hermitian_coords`) both factors are linear, so the
    integrand is the quadratic form x^T (E^T N) x, with E the coordinates of
    the effects E_r and N those of the guess projectors |guess_r><guess_r|.
    One matrix product builds the form, d or d^2 wide (:func:`_estimation_form`),
    and :func:`haar.form_monte_carlo` evaluates it. The strategy keeps the
    form for the last measurement object and spectrum it was scored with
    (see :class:`EstimationStrategy`), so the form is built once for a run
    of calls on one input, and each call's cost is the draw and its
    evaluation.
    """
    lam = _check_inputs(meas, lambdas, strategy)
    key = lam.tobytes()
    kept = strategy._form
    if kept is None or kept[0] is not meas or kept[1] != key:
        kept = (meas, key, _freeze(_estimation_form(meas, lam, strategy)))
        object.__setattr__(strategy, "_form", kept)
    return form_monte_carlo(kept[2], meas.d, n, rng)
