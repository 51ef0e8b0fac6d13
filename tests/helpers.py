"""Shared random-object generators and reference implementations for the test suite."""

import base64

import numpy as np
from scipy.stats import unitary_group

from teleportsim import (
    AliceMeasurement,
    BobCorrections,
    McEstimate,
    Protocol,
    PureState,
    TeleportOutcome,
    check_schmidt_coefficients,
    m_kl_exact,
    make_rng,
    optimal_fidelity_given_measurement,
    sample_haar_states,
    standard_measurement,
)
from teleportsim.protocol import CHECK_ATOL, _a_matrices


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


def report_violations(report):
    """(outcome, k, l, error, kind) of each pair k <= l whose error exceeds ``report.tol``.

    The pairs come from ``np.argwhere(np.triu(report.errors > report.tol))``, as
    check-protocol reads them, in (outcome, k, l) order.
    """
    return [
        (r, k, l, float(report.errors[r, k, l]), "unequal_norm" if k == l else "non_orthogonal")
        for r, k, l in np.argwhere(np.triu(report.errors > report.tol)).tolist()
    ]


def einsum_mean_fidelity_mkl_form(proto):
    """Mean fidelity by one moment-operator einsum per Kraus operator (reference).

    Evaluates sum_{r,s,k,l} <u_r^k| B_rs† M(k,l) B_rs |u_r^l> with u_r^k the
    columns of A_r, on the stacked (d, d, d, d) array of every M(k, l).
    """
    d = proto.d
    m = np.empty((d, d, d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            m[k, l] = m_kl_exact(d, k, l).matrix
    a = _a_matrices(proto.measurement.phi, proto.schmidt.lambdas)
    total = 0.0
    for r, block in enumerate(proto.corrections.kraus):
        for b_op in block:
            c = b_op @ a[r]  # column l holds B|u_r^l>
            total += float(np.real(np.einsum("ak,klab,bl->", c.conj(), m, c)))
    return total


def einsum_m_kl_monte_carlo(psi, k, l):
    """Entrywise mean and standard error of M(k, l) over the rows of psi, by einsum (reference)."""
    n = psi.shape[0]
    w = psi[:, k].conj() * psi[:, l]
    value = np.einsum("n,ni,nj->ij", w, psi, psi.conj()) / n
    p = np.abs(psi) ** 2
    second = np.einsum("n,ni,nj->ij", p[:, k] * p[:, l], p, p) / n
    var = np.clip(second - np.abs(value) ** 2, 0.0, None) * n / (n - 1)
    return McEstimate(value=value, std_error=np.sqrt(var / n), n_samples=n)


def per_pair_verify_mkl(d, n, seed, threads, sigmas):
    """The results block of ``verify-mkl`` and its exit code, one pair (k, l) at a time (reference).

    Every pair redraws the (seed, stream) substreams, estimates M(k, l) with
    ``einsum_m_kl_monte_carlo`` on each, and pools them.
    """
    base, extra = divmod(n, threads)
    counts = [base + (1 if i < extra else 0) for i in range(threads)]
    pairs = []
    worst = 0.0
    for k in range(d):
        for l in range(d):
            parts = [
                einsum_m_kl_monte_carlo(sample_haar_states(d, c, make_rng(seed, stream=i)), k, l)
                for i, c in enumerate(counts)
            ]
            est = McEstimate.pooled(parts)
            exact = m_kl_exact(d, k, l).matrix
            dev = np.abs(np.asarray(est.value) - exact)
            ratio = float(np.max(dev / np.asarray(est.std_error)))
            worst = max(worst, ratio)
            pairs.append(
                {
                    "k": k,
                    "l": l,
                    "max_abs_error": float(dev.max()),
                    "max_sigma_ratio": ratio,
                    "pass": ratio <= sigmas,
                }
            )
    ok = all(p["pass"] for p in pairs)
    return {"pairs": pairs, "max_sigma_ratio": worst, "pass": ok}, 0 if ok else 1


def loop_standard_measurement(d):
    """Generalized Bell measurement blocks by a Python loop over (p, q, k) (reference)."""
    phi = np.zeros((d * d, d, d), dtype=complex)
    scale = 1.0 / np.sqrt(d)
    for p in range(d):
        for q in range(d):
            for k in range(d):
                phi[p + q * d, k, (k + q) % d] = scale * np.exp(2j * np.pi * k * p / d)
    return phi


def einsum_bob_unitaries(meas, lambdas):
    """Adjoint polar factor of every A_r, from its SVD by an einsum product (reference)."""
    a = _a_matrices(meas.phi, np.asarray(lambdas))
    u, _, vh = np.linalg.svd(a)
    polar = np.einsum("rij,rjk->rik", u, vh)
    return polar.conj().transpose(0, 2, 1)


def svd_bob_corrections(meas, lambdas):
    """Corrections B_r = (u @ vh)† from the SVD of every A_r, whatever the measurement (reference).

    This is the path optimal_bob_corrections takes for a measurement that is not monomial.
    """
    a = _a_matrices(meas.phi, np.asarray(lambdas))
    u, _, vh = np.linalg.svd(a)
    return BobCorrections((u @ vh).conj().transpose(0, 2, 1))


def svd_optimal_fidelity(meas, lambdas):
    """(d + sum_r ||A_r||_nuc^2) / (d (d + 1)), each nuclear norm the sum of np.linalg.svd's values (reference)."""
    d = meas.d
    a = _a_matrices(meas.phi, np.asarray(lambdas))
    nuclear = np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)
    return float((d + np.sum(nuclear**2)) / (d * (d + 1)))


def polar_random_povm(d, n_outcomes, rng):
    """Random complete measurement whitened by S^(-1/2), S = sum_r V_r V_r† (reference).

    Consumes the generator exactly as ``random_povm`` does for its Gaussian frame.
    """
    dd = d * d
    for _ in range(8):
        v = rng.standard_normal((n_outcomes, dd)) + 1j * rng.standard_normal((n_outcomes, dd))
        s = v.T @ v.conj()
        w, u = np.linalg.eigh(s)
        if w[0] > dd * 1e-12 * w[-1]:
            break
    else:
        raise RuntimeError("failed to draw a full-rank Gaussian frame")
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    joint = v @ inv_sqrt.T
    return AliceMeasurement(joint.reshape(n_outcomes, d, d).transpose(0, 2, 1))


def loop_random_povm(d, n_outcomes, rng):
    """Random complete measurement, one Gaussian frame at a time (reference).

    Draws the real and then the imaginary part of an (n_outcomes, d^2) frame,
    and draws again, up to 8 frames, while its QR factor R has a vanishing
    diagonal; the phases of R's diagonal fix Q's columns.
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
    return AliceMeasurement(joint.reshape(n_outcomes, d, d).transpose(0, 2, 1))


def loop_search_best_protocol(lambdas, n_outcomes, iterations, rng):
    """Best fidelity, its measurement and the candidate count, one candidate at a time (reference).

    Starts from the standard measurement and keeps each ``loop_random_povm``
    draw that scores strictly higher by ``optimal_fidelity_given_measurement``.
    """
    lam = check_schmidt_coefficients(lambdas)
    d = lam.size
    best_meas = standard_measurement(d)
    best_f = optimal_fidelity_given_measurement(best_meas, lam)
    for _ in range(iterations):
        meas = loop_random_povm(d, n_outcomes, rng)
        f = optimal_fidelity_given_measurement(meas, lam)
        if f > best_f:
            best_f, best_meas = f, meas
    return best_f, best_meas, iterations + 1


def loop_kraus_check(kraus):
    """Per-outcome Kraus-list validation, one outcome at a time (reference).

    Checks each outcome's shape, dimension, finiteness and sum_s B_s† B_s = I
    in that order, raising ValueError for the first failure, and returns the
    blocks as (S, d, d) arrays.
    """
    blocks = []
    d = None
    for r, block in enumerate(kraus):
        arr = np.array(block, dtype=complex)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"outcome {r}: Kraus block must have shape (S, d, d), got {arr.shape}"
            )
        if d is None:
            d = arr.shape[1]
        elif arr.shape[1] != d:
            raise ValueError(f"outcome {r}: dimension {arr.shape[1]} != {d}")
        if not np.isfinite(arr).all():
            raise ValueError(f"outcome {r}: Kraus operators must be finite")
        total = np.einsum("sij,sik->jk", arr.conj(), arr)
        if float(np.max(np.abs(total - np.eye(d)))) > CHECK_ATOL:
            raise ValueError(f"outcome {r}: Kraus operators do not compose to the identity")
        blocks.append(arr)
    if not blocks:
        raise ValueError("need at least one outcome")
    return blocks


def _conditional_vectors(proto: Protocol, psi: PureState) -> np.ndarray:
    """Unnormalized conditional states b_r = A_r psi, as rows of an (R, d) array."""
    a, amps = proto.channel.a, psi.amplitudes
    if amps.size != a.shape[2]:
        raise ValueError(f"input dimension {amps.size} != protocol dimension {a.shape[2]}")
    return (a.reshape(-1, amps.size) @ amps).reshape(a.shape[:2])


def choice_teleport_once(proto, psi, rng):
    """One teleportation round drawn with ``rng.choice(p=...)`` (reference).

    Draws the outcome with probability |b_r|^2, then a Kraus branch with
    probability |B_rs b_r|^2 / |b_r|^2, each by ``Generator.choice``.
    """
    b = _conditional_vectors(proto, psi)
    probs = np.sum(np.abs(b) ** 2, axis=1)
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("all outcome probabilities vanish; protocol state is corrupted")
    r = int(rng.choice(probs.size, p=probs / total))
    branches = np.einsum("sij,j->si", proto.corrections.kraus[r], b[r])
    weights = np.sum(np.abs(branches) ** 2, axis=1)
    s = int(rng.choice(weights.size, p=weights / weights.sum()))
    out = branches[s] / np.sqrt(weights[s])
    return TeleportOutcome(outcome=r, probability=float(probs[r]), output_state=PureState(out))


def to_base64(arr):
    """An array's bytes as little-endian complex128 in C order, in standard padded base64.

    This is what a schema-3 protocol file holds for ``phi`` and ``corrections``,
    written here with the standard library and NumPy alone.
    """
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<c16").tobytes()).decode("ascii")


def from_base64(text, d):
    """A schema-3 protocol file's array field as a writable (n, d, d) complex array."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<c16").reshape(-1, d, d).copy()
