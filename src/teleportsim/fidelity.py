"""Mean teleportation fidelity: exact evaluators, Monte Carlo, and bounds.

The mean fidelity of a protocol is the squared overlap between the input
and Bob's corrected output, averaged over measurement outcomes, Kraus
branches, and Haar-random inputs. For a resource with Schmidt coefficients
lambda_k it can never exceed

    (1 + (sum_k lambda_k)^2) / (d + 1),

and the standard protocol attains that value.
"""

from __future__ import annotations

import numpy as np

from .haar import McEstimate, _moment_matrix, form_monte_carlo
from .protocol import AliceMeasurement, Protocol, _a_matrices, _matched_lambdas
from .qcore import check_schmidt_coefficients


def mean_fidelity_exact(proto: Protocol) -> float:
    """Exact Haar-average fidelity of a protocol.

    Written on the Kraus operators C_rs of the protocol's channel
    (:attr:`Protocol.kraus`), the Haar average of |<psi|C|psi>|^2 is
    (||C||_F^2 + |Tr C|^2) / (d (d + 1)), so

        F = sum_rs (||C_rs||_F^2 + |Tr C_rs|^2) / (d (d + 1)).

    For a trace-preserving channel the first sum is d, which gives the
    paper's link F = (d F_e + 1) / (d + 1) with the entanglement fidelity
    F_e = sum_rs |Tr C_rs|^2 / d^2. This equals the moment-operator
    sandwich of :func:`mean_fidelity_mkl_form` at O(R d^3) instead of
    O(R d^5) cost, and never builds the channel's quadratic form.
    """
    c = proto.kraus
    d = proto.d
    # np.sum, not the BLAS np.vdot: a threaded dot sums in an order that
    # depends on the thread count, and so would the result's last bits
    weight = float(np.sum(np.abs(c) ** 2))
    coherent = float(np.sum(np.abs(np.trace(c, axis1=1, axis2=2)) ** 2))
    return (weight + coherent) / (d * (d + 1))


def mean_fidelity_mkl_form(proto: Protocol) -> float:
    """Exact mean fidelity assembled from the measure's moment operators.

    Independent cross-check of :func:`mean_fidelity_exact`: evaluates the
    full double sum  sum_{r,s,k,l} <u_r^k| B_rs† M(k,l) B_rs |u_r^l>  with
    u_r^k the columns of A_r. With every M(k, l) in one (d^2, d^2) matrix M
    (entry [(k, i), (l, j)] = M(k, l)[i, j]) and v_rs[(l, i)] = (B_rs A_r)[i, l],
    the sum is sum_rs v_rs† M v_rs: one matrix product of the stacked v_rs
    with M, then one elementwise product and sum. It reads none of
    :attr:`Protocol.a`, :attr:`~Protocol.kraus`, :attr:`~Protocol.gram` and
    :attr:`~Protocol.effects`, nor the trace formula. M is real and
    symmetric, so with v = x + i y, v† M v = x^T M x + y^T M y: the product
    runs in real arithmetic, once on the stacked real parts x and once on
    the imaginary parts y, half the flops of one complex product. Its cost
    is that O(K d^4) product for K Kraus operators in all, against O(K d^3)
    for :func:`mean_fidelity_exact`: about 2.6 ms at d = 16 for the standard
    protocol, best of 7 x 20 calls on one core of a 2-core x86-64 box.
    """
    d = proto.d
    a = _a_matrices(proto.measurement.phi, proto.schmidt.lambdas)
    corr = proto.corrections
    c = (corr.stack @ a[corr.outcome]).transpose(0, 2, 1)
    m = _moment_matrix(d)
    total = 0.0
    for part in (c.real, c.imag):
        x = part.reshape(-1, d * d)
        total += float((x * (x @ m)).sum())
    return total


def mean_fidelity_monte_carlo(proto: Protocol, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte-Carlo mean fidelity over Haar-random inputs.

    For each sampled input the full conditional fidelity
    sum_{r,s} |<psi| B_rs A_r |psi>|^2 is taken (no outcome or branch
    sampling), so the only statistical noise left is the Haar average. It
    is the real quadratic form x^T K x in the coordinates x of psi psi†
    (:attr:`Protocol.gram`), evaluated by :func:`haar.form_monte_carlo`.
    The standard protocol's K is (d, d), on the diagonal coordinates
    x_i = |psi_i|^2, so its inputs are drawn as points uniform on the
    probability simplex rather than as Haar states; the mean and standard
    error are the same, the seeded values are not. A (d^2, d^2) K, as a
    random POVM's, is evaluated on all coordinates of Haar states.
    """
    return form_monte_carlo(proto.gram, proto.d, n, rng)


def fidelity_bound(lambdas) -> float:
    """Optimal mean teleportation fidelity: (1 + (sum_k lambda_k)^2) / (d + 1)."""
    lam = check_schmidt_coefficients(lambdas)
    return (1.0 + float(lam.sum()) ** 2) / (lam.size + 1)


def optimal_fidelity_given_measurement(meas: AliceMeasurement, lambdas) -> float:
    """Best mean fidelity achievable with a fixed complete measurement.

    With optimal unitary corrections each outcome's coherent term becomes
    the squared nuclear norm of A_r, giving

        (d + sum_r ||A_r||_nuc^2) / (d (d + 1)).

    Completeness of the measurement is assumed (the incoherent term is then
    exactly d). For a :attr:`~protocol.AliceMeasurement.monomial`
    measurement, such as the standard one, each A_r is monomial, so its
    singular values are the moduli of its entries and the nuclear norm is
    their sum, with no SVD; any other is scored by its singular values.
    """
    lam = _matched_lambdas(meas, lambdas)
    return float(_optimal_fidelities(meas.phi, lam, monomial=meas.monomial))


def _optimal_fidelities(phi: np.ndarray, lam: np.ndarray, monomial: bool = False) -> np.ndarray:
    """:func:`optimal_fidelity_given_measurement` of every measurement in a (..., R, d, d) stack.

    The nuclear norms are the entrywise sums of |A_r| when ``monomial`` says
    every phi_r is monomial; otherwise one batched SVD scores the whole
    stack, and each measurement's value has the bits of scoring it alone.
    """
    d = phi.shape[-1]
    a = _a_matrices(phi, lam)
    if monomial:
        nuclear = np.abs(a).sum(axis=(-2, -1))
    else:
        nuclear = np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)
    return (d + np.sum(nuclear**2, axis=-1)) / (d * (d + 1))


def max_singlet_fraction(lambdas) -> float:
    """Largest overlap with a maximally entangled state: (sum_k lambda_k)^2 / d.

    Related to the optimal fidelity F through F = (f * d + 1) / (d + 1).
    """
    lam = check_schmidt_coefficients(lambdas)
    return float(lam.sum()) ** 2 / lam.size
