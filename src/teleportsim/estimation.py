"""Estimating the teleported state from Alice's measurement record.

When the shared state is not maximally entangled, the measurement outcome
leaks information about the input: outcome r occurs with probability
sum_k lambda_k^2 |<phi_r^k|psi>|^2, and Alice can convert the record into a
guess for psi. The guess quality is again a Haar-averaged fidelity, bounded
by (1 + lambda_0^2) / (d + 1); the normalized leading measurement block is
the guess that attains the bound for measurements passing the optimality
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .haar import McEstimate, blocked_mean, sample_haar_states
from .protocol import AliceMeasurement, _matched_lambdas
from .qcore import _freeze, check_schmidt_coefficients

#: leading blocks with norm at or below this have no well-defined guess
ZERO_BLOCK_CUTOFF = 1e-12


@dataclass(frozen=True)
class EstimationStrategy:
    """Outcome-indexed guesses, one unit vector per measurement outcome.

    ``degenerate[r]`` marks outcomes whose natural guess was undefined
    (vanishing leading measurement block); the stored guess is then an
    arbitrary unit vector.
    """

    guesses: np.ndarray
    degenerate: np.ndarray | None = None

    def __post_init__(self) -> None:
        guesses = np.array(self.guesses, dtype=complex)
        if guesses.ndim != 2:
            raise ValueError(f"guesses must have shape (R, d), got {guesses.shape}")
        norms = np.linalg.norm(guesses, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("every guess must be a unit vector")
        if self.degenerate is None:
            degenerate = np.zeros(guesses.shape[0], dtype=bool)
        else:
            degenerate = np.array(self.degenerate, dtype=bool).reshape(-1)
            if degenerate.size != guesses.shape[0]:
                raise ValueError("degenerate flags must match the number of outcomes")
        object.__setattr__(self, "guesses", _freeze(guesses))
        object.__setattr__(self, "degenerate", _freeze(degenerate))

    @property
    def n_outcomes(self) -> int:
        return self.guesses.shape[0]

    @property
    def d(self) -> int:
        return self.guesses.shape[1]


def optimal_estimates(meas: AliceMeasurement) -> EstimationStrategy:
    """Best guess per outcome: the normalized leading measurement block.

    Outcomes with a vanishing leading block get a flagged placeholder guess
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
    return EstimationStrategy(guesses, degenerate)


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
    """Upper bound on the mean estimation fidelity: (1 + lambda_0^2) / (d + 1).

    Tight for measurements passing the optimality conditions; for other
    measurements it is still reported but not guaranteed attainable.
    """
    lam = check_schmidt_coefficients(lambdas)
    return (1.0 + float(lam[0]) ** 2) / (lam.size + 1)


def estimation_fidelity_mc(
    meas: AliceMeasurement,
    lambdas,
    strategy: EstimationStrategy,
    n: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Monte-Carlo estimation fidelity over Haar-random inputs.

    Averages sum_r p_r(psi) |<psi|guess_r>|^2 with outcome probabilities
    p_r(psi) = sum_k lambda_k^2 |<phi_r^k|psi>|^2. Every overlap of a block
    of inputs comes from one matrix product: the R d measurement bras
    <phi_r^k| stacked over the R guess bras <guess_r|, times the inputs as
    columns. All n inputs are drawn first, in one call, and the blocks keep
    the intermediates at a fixed size (``MC_BLOCK_ENTRIES`` complex
    entries), so memory does not grow with n beyond the inputs themselves.
    """
    lam = _check_inputs(meas, lambdas, strategy)
    if n < 1000:
        raise ValueError(f"need at least 1000 samples, got {n}")
    psi = sample_haar_states(meas.d, n, rng)
    n_meas = meas.n_outcomes * meas.d
    bras = np.concatenate([meas.phi.reshape(n_meas, meas.d), strategy.guesses]).conj()
    weights = lam**2

    def integrand(block: np.ndarray) -> np.ndarray:
        sq = np.abs(bras @ block.T) ** 2
        probs = weights @ sq[:n_meas].reshape(meas.n_outcomes, meas.d, -1)
        return np.sum(probs * sq[n_meas:], axis=0)

    return blocked_mean(psi, integrand, bras.shape[0])
