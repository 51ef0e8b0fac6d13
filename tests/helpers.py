"""Shared random-object generators and reference implementations for the test suite."""

import json

import numpy as np
from scipy.stats import unitary_group

from teleportsim import AliceMeasurement, protocol_to_dict, standard_measurement


def random_lambdas(d, rng):
    """Random Schmidt spectrum: nonnegative, descending, unit sum of squares."""
    lam = np.abs(rng.standard_normal(d))
    lam /= np.linalg.norm(lam)
    return np.sort(lam)[::-1].copy()


def random_unitary(d, rng):
    return unitary_group.rvs(d, random_state=rng)


def random_unitaries(d, n, rng):
    return unitary_group.rvs(d, size=n, random_state=rng)


def random_kraus_set(d, n_ops, rng):
    """Random valid Kraus set: sum_s B†B = I."""
    g = rng.standard_normal((n_ops, d, d)) + 1j * rng.standard_normal((n_ops, d, d))
    total = np.einsum("sij,sik->jk", g.conj(), g)
    w, u = np.linalg.eigh(total)
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    return np.einsum("sij,jk->sik", g, inv_sqrt)


def random_optimal_measurement(d, n_blocks, rng):
    """Random measurement passing the optimality conditions.

    Stacks n_blocks rotated and rescaled copies of the standard measurement:
    each copy keeps per-outcome orthogonality and equal norms, and the
    squared weights sum to one so completeness is preserved.
    """
    weights = np.abs(rng.standard_normal(n_blocks))
    weights /= np.linalg.norm(weights)
    std = standard_measurement(d).phi
    blocks = []
    for w in weights:
        u = random_unitary(d, rng)
        phases = np.exp(2j * np.pi * rng.random(d))
        blocks.append(w * phases[None, :, None] * std @ u.T)
    return AliceMeasurement(np.concatenate(blocks, axis=0))


def loop_fidelity_samples(proto, psi):
    """Per-input fidelity by the per-outcome loop over phi, lambdas and Kraus blocks.

    Reference for the Gram-form evaluator: for each row of psi it sums
    |<psi| B_rs b_r>|^2 with b_r = sum_k lambda_k <phi_r^k|psi> |k>.
    """
    overlaps = np.einsum("rkj,nj->rnk", proto.measurement.phi.conj(), psi)
    b = overlaps * proto.schmidt.lambdas[None, None, :]
    f = np.zeros(psi.shape[0])
    for r, block in enumerate(proto.corrections.kraus):
        corrected = np.einsum("sij,nj->sni", block, b[r])
        amp = np.einsum("ni,sni->sn", psi.conj(), corrected)
        f += np.sum(np.abs(amp) ** 2, axis=0)
    return f


def einsum_estimation_samples(meas, lambdas, strategy, psi):
    """Per-input estimation fidelity by separate einsum contractions (reference)."""
    overlaps = np.einsum("rkj,nj->rkn", meas.phi.conj(), psi)
    probs = np.einsum("k,rkn->rn", np.asarray(lambdas) ** 2, np.abs(overlaps) ** 2)
    guess_fid = np.abs(np.einsum("nj,rj->rn", psi.conj(), strategy.guesses)) ** 2
    return np.sum(probs * guess_fid, axis=0)


def loop_check_optimality(meas, schmidt, tol):
    """Optimality conditions by a Python loop over (r, k, l) (reference).

    Returns the violations as (outcome, k, l, error, kind) tuples in loop
    order and the largest error over every checked pair.
    """
    m1 = schmidt.effective_rank
    blocks = meas.phi[:, :m1]
    violations = []
    max_err = 0.0
    for r in range(meas.n_outcomes):
        gram = blocks[r] @ blocks[r].conj().T
        ref = float(gram[0, 0].real)
        for k in range(m1):
            for l in range(k, m1):
                if k == l:
                    err = abs(float(gram[k, k].real) - ref)
                    kind = "unequal_norm"
                else:
                    err = float(abs(gram[k, l]))
                    kind = "non_orthogonal"
                max_err = max(max_err, err)
                if err > tol:
                    violations.append((r, k, l, err, kind))
    return violations, max_err


def reference_protocol_json(proto):
    """Protocol file text by json's own indenting encoder (reference for the file layout)."""
    return json.dumps(protocol_to_dict(proto), indent=2) + "\n"
