"""Measurement/correction data model and single-shot teleportation.

Alice measures her two particles with a rank-one POVM whose outcome r is a
(possibly unnormalized) joint vector Phi_r = sum_k |phi_r^k> x |k>, written
in the Schmidt basis of her half of the shared pair. Completeness of the
POVM is equivalent to the block conditions

    sum_r |phi_r^k><phi_r^l| = delta_kl * I   for every pair (k, l),

which is what :func:`validate_completeness` checks. After learning r, Bob
applies a correction channel with Kraus operators B_rs; the conditional
state of his particle before correction is b_r = A_r |psi> with
A_r = sum_k lambda_k |k><phi_r^k|. A whole protocol is therefore one
channel with Kraus operators C_rs = B_rs A_r, held by
:class:`TeleportChannel`, from which the fidelity evaluators and the
single-shot simulation read.
"""

from __future__ import annotations

import base64
import json
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .haar import _hermitian_coords, _state_coords
from .qcore import PureState, SchmidtDecomposition, _check_dim, _freeze, check_schmidt_coefficients

#: tolerance of the completeness, Kraus-normalization and optimality checks
CHECK_ATOL = 1e-10

PROTOCOL_SCHEMA = 3


@dataclass(frozen=True)
class AliceMeasurement:
    """Rank-one joint measurement in Schmidt-block form.

    ``phi[r, k]`` is the d-dimensional block of outcome r attached to the
    k-th Schmidt basis vector; blocks may be zero or unnormalized.
    Completeness is deliberately not enforced here, so that broken
    measurements can be constructed and diagnosed; it is enforced when a
    full :class:`Protocol` is assembled. ``phi`` is kept as a read-only
    C-ordered copy, so the arrays derived from it are C-ordered too.
    """

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.phi, dtype=complex, order="C")
        if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
            raise ValueError(f"phi must have shape (R, d, d), got {phi.shape}")
        _check_dim(phi.shape[1])
        if not np.isfinite(phi).all():
            raise ValueError("measurement blocks must be finite")
        object.__setattr__(self, "phi", _freeze(phi))

    @property
    def d(self) -> int:
        return self.phi.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.phi.shape[0]

    @cached_property
    def completeness_error(self) -> np.ndarray:
        """Read-only (d, d) array: entry (k, l) is max |sum_r |phi_r^k><phi_r^l| - delta_kl I|.

        Computed on first use and kept. The blocks are read off one joint-space
        product: with the outcomes as rows of Phi (column k d + i holding
        phi_r^k[i]), Phi^T Phi* - I is the d^2 x d^2 error, and block (k, l) of
        it is the error of pair (k, l).
        """
        d = self.d
        joint = self.phi.reshape(self.n_outcomes, d * d)
        gram = joint.T @ joint.conj() - np.eye(d * d)
        return _freeze(np.abs(gram).reshape(d, d, d, d).max(axis=(1, 3)))

    @cached_property
    def monomial(self) -> bool:
        """Whether every phi_r has at most one nonzero entry in each row and each column.

        Computed on first use and kept. Each A_r of such a measurement, the
        standard one included, is then monomial too, so its singular values
        are the moduli of its entries and its polar factor is their phase
        pattern (see :func:`optimal_bob_corrections`). Such a stack holds at
        most R d nonzero entries, so a dense one fails on the count alone.
        """
        nonzero = self.phi != 0
        if np.count_nonzero(nonzero) > self.n_outcomes * self.d:
            return False
        return bool((nonzero.sum(axis=2) <= 1).all() and (nonzero.sum(axis=1) <= 1).all())


def _kraus_shape(r: int, shape: tuple[int, ...], d: int | None) -> tuple[int, int, int]:
    """Outcome r's Kraus block ``shape`` as (S, d, d); a bare (d, d) matrix is one operator.

    Any shape but a square (S, d, d) with S >= 1, of dimension ``d`` unless
    that is None, raises a ValueError that names r.
    """
    if len(shape) == 2:
        shape = (1, *shape)
    if len(shape) != 3 or shape[1] != shape[2] or shape[0] < 1:
        raise ValueError(f"outcome {r}: Kraus block must have shape (S, d, d), got {shape}")
    if d is not None and shape[1] != d:
        raise ValueError(f"outcome {r}: dimension {shape[1]} != {d}")
    return shape


def _kraus_stack(kraus) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome's Kraus operators in one (K, d, d) complex stack, and each outcome's count.

    Each block must have a shape that :func:`_kraus_shape` accepts, of the
    first block's dimension, and no blocks raise; only shapes are checked.
    Blocks are read with ``np.asarray``, so the concatenation is the only copy,
    into a C-ordered stack whatever the blocks' layout.
    """
    blocks = []
    for r, block in enumerate(kraus):
        arr = np.asarray(block, dtype=complex)
        d = blocks[0].shape[1] if blocks else None
        blocks.append(arr.reshape(_kraus_shape(r, arr.shape, d)))
    if not blocks:
        raise ValueError("need at least one outcome")
    sizes = np.array([b.shape[0] for b in blocks], dtype=np.intp)
    stack = np.empty((int(sizes.sum()), *blocks[0].shape[1:]), dtype=complex)
    return np.concatenate(blocks, out=stack), sizes


def _kraus_check(stack: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per outcome, max |sum_s B_s† B_s - I| over its Kraus operators B_s.

    ``stack`` and ``sizes`` are as :func:`_kraus_stack` returns them. The
    products run once on the whole stack. Where some outcome has several
    operators, they are summed over each outcome's operators by
    ``np.add.reduceat``; with one operator per outcome that sum would only
    copy, so it is skipped. An outcome with a non-finite operator, or with
    products that overflow, has a NaN or infinite error, which fails any
    finite tolerance. No outcomes give an empty array.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        total = stack.conj().transpose(0, 2, 1) @ stack
        if sizes.size < stack.shape[0]:
            total = np.add.reduceat(total, np.cumsum(sizes) - sizes)
        return np.abs(total - np.eye(stack.shape[1])).max(axis=(1, 2))


def _outcome_blocks(stack: np.ndarray, sizes: np.ndarray) -> tuple:
    """Each outcome's (S_r, d, d) slice of a Kraus stack, for per-outcome counts ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return tuple(stack[end - n : end] for end, n in zip(ends, sizes.tolist()))


@dataclass(frozen=True)
class BobCorrections:
    """Per-outcome correction channels as Kraus operator lists.

    ``kraus`` is one block per outcome: an (S_r, d, d) array, a list of
    (d, d) matrices, or a bare (d, d) matrix as a single operator, so an
    (R, d, d) array gives R one-operator outcomes, and is taken as the stack
    whole, with no pass over its outcomes. Each must satisfy
    sum_s B†B = I. The operators are checked once and kept in one read-only
    (K, d, d) array ``stack``; ``outcome[i]`` is the outcome of ``stack[i]``,
    and ``kraus[r]`` is the read-only (S_r, d, d) view of ``stack`` holding
    outcome r's operators.
    """

    kraus: tuple
    stack: np.ndarray = field(init=False, repr=False)
    outcome: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.kraus, np.ndarray) and self.kraus.ndim == 3 and self.kraus.size:
            _kraus_shape(0, self.kraus.shape[1:], None)
            stack = np.array(self.kraus, dtype=complex, order="C")
            sizes = np.ones(stack.shape[0], dtype=np.intp)
        else:
            stack, sizes = _kraus_stack(self.kraus)
        bad = np.flatnonzero(~(_kraus_check(stack, sizes) <= CHECK_ATOL))
        if bad.size:
            r = int(bad[0])
            start = int(sizes[:r].sum())
            if not np.isfinite(stack[start : start + sizes[r]]).all():
                raise ValueError(f"outcome {r}: Kraus operators must be finite")
            raise ValueError(f"outcome {r}: Kraus operators do not compose to the identity")
        stack = _freeze(stack)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "outcome", _freeze(np.repeat(np.arange(sizes.size), sizes)))
        object.__setattr__(self, "kraus", _outcome_blocks(stack, sizes))

    @property
    def d(self) -> int:
        return self.stack.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True)
class Protocol:
    """Complete teleportation protocol: resource state, measurement, corrections.

    The resource is held as its Schmidt spectrum; the measurement blocks are
    written in its Schmidt basis, so no local basis is needed.
    """

    schmidt: SchmidtDecomposition
    measurement: AliceMeasurement
    corrections: BobCorrections

    def __post_init__(self) -> None:
        d = self.schmidt.dim
        if self.measurement.d != d:
            raise ValueError(
                f"measurement dimension {self.measurement.d} != resource dimension {d}"
            )
        if self.corrections.d != d:
            raise ValueError(
                f"correction dimension {self.corrections.d} != resource dimension {d}"
            )
        if self.corrections.n_outcomes != self.measurement.n_outcomes:
            raise ValueError(
                f"{self.corrections.n_outcomes} correction blocks for "
                f"{self.measurement.n_outcomes} outcomes"
            )
        report = validate_completeness(self.measurement)
        if not report.passed:
            raise ValueError(
                f"measurement is not complete: max entrywise error {report.max_error:.3e}"
            )

    @property
    def d(self) -> int:
        return self.schmidt.dim

    @property
    def n_outcomes(self) -> int:
        return self.measurement.n_outcomes

    @cached_property
    def channel(self) -> "TeleportChannel":
        """The protocol's effective channel, built on first use and kept."""
        return TeleportChannel(self)


def _a_matrices(phi: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """A_r = sum_k lambda_k |k><phi_r^k| for every outcome, as an (R, d, d) array.

    ``phi`` may also be a stack (..., R, d, d) of measurements.
    """
    return lambdas[:, None] * phi.conj()


def _effect_coords(a: np.ndarray) -> np.ndarray:
    """Hermitian coordinates of every effect E_r = A_r† A_r, as an (R, d^2) array.

    Outcome r has probability p_r(psi) = tr(E_r rho) = coords(E_r) . x, with
    x the coordinates of rho = psi psi† (:func:`haar._hermitian_coords`).
    """
    return _hermitian_coords(a.conj().transpose(0, 2, 1) @ a)


def _matched_lambdas(meas: AliceMeasurement, lambdas) -> np.ndarray:
    """Validated Schmidt coefficients, one for each Schmidt block of ``meas``."""
    lam = check_schmidt_coefficients(lambdas)
    if lam.size != meas.d:
        raise ValueError(f"got {lam.size} Schmidt coefficients for dimension {meas.d}")
    return lam


class TeleportChannel:
    """A protocol as one channel rho -> sum_rs C_rs rho C_rs†.

    ``a`` stacks the per-outcome maps A_r, so b_r = A_r |psi> is Bob's
    unnormalized state after outcome r. ``kraus`` stacks C_rs = B_rs A_r in
    the order of :attr:`BobCorrections.stack`, so the outcome r of
    ``kraus[i]`` is ``corrections.outcome[i]``. The fidelity of an input psi is

        f(psi) = sum_rs |tr(C_rs rho)|^2 = x^T K x,   rho = psi psi†,

    with x the real coordinates of rho (:func:`haar._hermitian_coords`). Each C
    splits into Hermitian parts H = (C + C†)/2 and S = (C - C†)/2i with
    tr(C rho) = h . x + i s . x, so K = W^T W, where W stacks the coordinates
    h and s of every C_rs. K is real, symmetric and d^2 x d^2, and is built
    only when a Monte-Carlo evaluation first needs it.

    The outcome probabilities p_r(psi) = tr(E_r rho), with effects
    E_r = A_r† A_r, are linear in x: :attr:`effects` holds the effects'
    coordinates, built when a shot or an outcome distribution first needs them.
    Its width says which they are: the d diagonal ones when every effect is
    diagonal, else all d^2.
    """

    def __init__(self, proto: Protocol) -> None:
        corr = proto.corrections
        self.a = _freeze(_a_matrices(proto.measurement.phi, proto.schmidt.lambdas))
        self.kraus = _freeze(corr.stack @ self.a[corr.outcome])

    @cached_property
    def gram(self) -> np.ndarray:
        """K = W^T W, the Gram matrix of W's columns: real, symmetric, positive semidefinite."""
        c, c_adj = self.kraus, self.kraus.conj().transpose(0, 2, 1)
        w = _hermitian_coords(np.concatenate([(c + c_adj) / 2, (c - c_adj) / 2j]))
        return _freeze(w.T @ w)

    @cached_property
    def effects(self) -> np.ndarray:
        """The coordinates of every effect E_r, column-major.

        When every E_r is diagonal, as the standard measurement's are, the
        array is (R, d) and holds the diagonal coordinates; otherwise it is
        (R, d^2) and holds all of them. outcome_distribution's product
        rounds by layout, and its bits follow this one.
        """
        e = _effect_coords(self.a)
        d = self.a.shape[-1]
        return _freeze(np.asfortranarray(e if e[:, d:].any() else e[:, :d]))


@dataclass(frozen=True)
class TeleportOutcome:
    """Result of one simulated round: outcome index, its probability, Bob's state."""

    outcome: int
    probability: float
    output_state: PureState


def standard_measurement(d: int) -> AliceMeasurement:
    """Generalized Bell measurement with d^2 outcomes indexed r = p + q*d.

    Outcome (p, q) combines the phase ramp exp(2 pi i k p / d) with a cyclic
    shift by q; the 1/sqrt(d) scale makes the POVM resolve the identity
    exactly. Built once per dimension and shared (see :func:`_standard_pair`).
    """
    _check_dim(d)
    # the cache is keyed by int: a float d raises here, as range(d) would, and an
    # integer of another type, such as np.int64, shares the int's entry
    return _standard_pair(operator.index(d))[0]


@cache
def _standard_pair(d: int) -> tuple[AliceMeasurement, BobCorrections]:
    """The standard measurement of dimension d and its corrections sqrt(d) phi_r^T, built once.

    Every Schmidt spectrum of dimension d shares them (see
    :func:`standard_protocol`), so they are kept for the life of the process:
    32 d^4 bytes of arrays per dimension, 2 MiB at d = 16. Both are immutable,
    their arrays read-only (:func:`qcore._freeze`).
    """
    scale = 1.0 / np.sqrt(d)
    # each exponent is formed by Python scalar arithmetic, in this order: a
    # vectorized 2j * pi * k * p / d differs in the last bit at several d (6, 12)
    exponent = np.array([[2j * np.pi * k * p / d for k in range(d)] for p in range(d)])
    phase = scale * np.exp(exponent)
    p, q, k = np.ogrid[:d, :d, :d]
    phi = np.zeros((d * d, d, d), dtype=complex)
    phi[p + q * d, k, (k + q) % d] = phase[:, None, :]
    meas = AliceMeasurement(phi)
    return meas, BobCorrections(np.sqrt(d) * meas.phi.transpose(0, 2, 1))


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of the resolution-of-identity check."""

    passed: bool
    max_error: float
    worst_pair: tuple[int, int]
    tol: float


def validate_completeness(meas: AliceMeasurement, tol: float = CHECK_ATOL) -> CompletenessReport:
    """Check sum_r |phi_r^k><phi_r^l| = delta_kl * I entrywise against tol.

    The report is read off :attr:`AliceMeasurement.completeness_error`, which
    each measurement computes once, so a check of any tol on a measurement
    already checked costs no product.
    """
    err = meas.completeness_error
    k, l = np.unravel_index(int(np.argmax(err)), err.shape)
    worst = float(err[k, l])
    return CompletenessReport(worst <= tol, worst, (int(k), int(l)), tol)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the per-outcome equal-norm and orthogonality conditions.

    The conditions apply to the blocks k <= m, where m + 1 is the number of
    nonzero Schmidt coefficients: within each outcome all such blocks must
    share the norm of block 0 and be mutually orthogonal. Together with
    completeness they are necessary and sufficient for the measurement to
    admit corrections that attain the optimal-fidelity bound.

    ``errors`` is a read-only (R, m + 1, m + 1) array. For k <= l,
    ``errors[r, k, l]`` is the error of the pair (k, l) of outcome r:
    ||phi_r^k|^2 - |phi_r^0|^2| on the diagonal and |<phi_r^k|phi_r^l>| above
    it. Below the diagonal it is 0. The check fails where an error of a pair
    k <= l exceeds ``tol``, so its violations are
    ``np.argwhere(np.triu(errors > tol))``, in (outcome, k, l) order.
    """

    passed: bool
    max_error: float
    errors: np.ndarray
    tol: float


def check_optimality(
    meas: AliceMeasurement, schmidt: SchmidtDecomposition, tol: float = CHECK_ATOL
) -> OptimalityReport:
    """Check |<phi_r^k|phi_r^l> - delta_kl |phi_r^0|^2| <= tol for k, l <= m."""
    _matched_lambdas(meas, schmidt.lambdas)
    m1 = schmidt.effective_rank
    blocks = meas.phi[:, :m1]
    gram = blocks @ blocks.conj().transpose(0, 2, 1)
    norms = gram.real.diagonal(axis1=1, axis2=2)
    errors = np.abs(gram)
    diag = np.arange(m1)
    errors[:, diag, diag] = np.abs(norms - norms[:, :1])
    # np.triu(errors > tol) would be the same mask, but np.triu is slow on booleans
    upper = ~np.tri(m1, k=-1, dtype=bool)
    errors = _freeze(np.where(upper, errors, 0.0))
    return OptimalityReport(not (upper & (errors > tol)).any(), float(errors.max()), errors, tol)


def optimal_bob_corrections(
    meas: AliceMeasurement, schmidt: SchmidtDecomposition
) -> BobCorrections:
    """Best unitary correction for each outcome of a measurement.

    For outcome r the relevant data is A_r = sum_k lambda_k |k><phi_r^k|; the
    unitary maximizing |Tr(B A_r)| is the adjoint of the polar factor of A_r.
    For a :attr:`~AliceMeasurement.monomial` measurement, such as the
    standard one, that factor is read off the entries of A_r
    (:func:`_monomial_polar`); for any other it is recovered from the SVD.
    When A_r is rank deficient either supplies some orthonormal completion
    on the null space, where the mean fidelity is insensitive to the choice.
    """
    a = _a_matrices(meas.phi, _matched_lambdas(meas, schmidt.lambdas))
    if not np.any(a):
        raise ValueError(
            "every outcome has zero weight; measurement and Schmidt coefficients "
            "are mutually inconsistent"
        )
    if meas.monomial:
        polar = _monomial_polar(a)
    else:
        u, _, vh = np.linalg.svd(a)
        polar = u @ vh
    return BobCorrections(polar.conj().transpose(0, 2, 1))


def _monomial_polar(a: np.ndarray) -> np.ndarray:
    """Polar factor of every A_r of an (R, d, d) stack of monomial matrices.

    Each nonzero entry a of A_r becomes its phase a / |a|. The zero rows of
    A_r are then paired with its zero columns, in order, by entries 1: a
    monomial matrix has as many of each, so the factor is a phase times a
    permutation, unitary also when A_r is rank deficient or all zero.
    """
    nonzero = a != 0
    polar = np.divide(a, np.abs(a), out=np.zeros_like(a), where=nonzero)
    outcome, row = np.nonzero(~nonzero.any(axis=2))
    col = np.nonzero(~nonzero.any(axis=1))[1]
    polar[outcome, row, col] = 1.0
    return polar


def standard_protocol(lambdas) -> Protocol:
    """Standard protocol for a resource with the given Schmidt coefficients.

    Pairs the generalized Bell measurement with the per-outcome unitaries
    that maximize the mean fidelity. The result attains the optimal-fidelity
    bound for any Schmidt spectrum.

    The corrections are in closed form, with no SVD. Each outcome's
    A_r = diag(lambda) V_r, where V_r = sqrt(d) phi_r* is a phase times a
    permutation, so V_r is the polar factor of A_r and the optimal
    correction is B_r = V_r† = sqrt(d) phi_r^T, whatever the spectrum. On a
    rank-deficient spectrum :func:`optimal_bob_corrections` may complete the
    null space of A_r differently; the fidelity does not depend on that
    choice. Every C_r = B_r A_r = V_r† diag(lambda) V_r is diagonal, with
    off-diagonal entries exactly zero, because each row of phi_r has one
    nonzero entry.

    Since the corrections do not depend on the spectrum, every protocol of
    dimension d shares one measurement and one :class:`BobCorrections`,
    built and checked on the first call for d (:func:`_standard_pair`).
    """
    schmidt = SchmidtDecomposition(lambdas)
    meas, corrections = _standard_pair(schmidt.dim)
    return Protocol(schmidt, meas, corrections)


def outcome_distribution(proto: Protocol, psi: PureState) -> np.ndarray:
    """Probability of each measurement outcome for the input psi.

    p_r = tr(E_r rho) is the product of the effects' coordinates
    (:attr:`TeleportChannel.effects`) with as many of psi psi†'s, clipped at
    0: only the d diagonal ones |psi_i|^2 when the effects array is d wide.
    It equals sum_i |(A_r psi)_i|^2 up to rounding.
    """
    amps = psi.amplitudes
    if amps.size != proto.d:
        raise ValueError(f"input dimension {amps.size} != protocol dimension {proto.d}")
    values = proto.channel.effects
    return np.maximum(values @ _state_coords(amps, values.shape[1] == amps.size), 0.0)


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """Index i with probability p[i] / sum(p), drawn as ``rng.choice`` draws it.

    Inverts the normalized cumulative sum at one ``rng.random()``, which is
    what ``Generator.choice`` does after checking its arguments; those checks
    cost more than the draw on the short vectors of one shot. A valid
    protocol's weights never all vanish, so a zero or NaN total raises.
    """
    cdf = p.cumsum()
    if not cdf[-1] > 0.0:
        raise ValueError("all probabilities vanish; protocol state is corrupted")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def teleport_once(proto: Protocol, psi: PureState, rng: np.random.Generator) -> TeleportOutcome:
    """Simulate one teleportation round.

    Samples the measurement outcome r from :func:`outcome_distribution`,
    then a Kraus branch with probability |B_rs b_r|^2 / |b_r|^2, where
    b_r = A_r psi is formed for the drawn outcome only, and returns Bob's
    normalized output state. The reported probability is |b_r|^2. Every shot
    takes two uniforms, one for the outcome and one for the branch, also
    when the outcome has a single Kraus operator.
    """
    r = _draw(outcome_distribution(proto, psi), rng)
    b = proto.channel.a[r] @ psi.amplitudes
    kraus = proto.corrections.kraus[r]
    branches = np.einsum("sij,j->si", kraus, b)
    # the array methods run the same reductions as np.sum, bit for bit,
    # without that function's dispatch, which dominates at small d
    weights = (np.abs(branches) ** 2).sum(axis=1)
    if kraus.shape[0] == 1:  # the branch is certain; its uniform is drawn all the same
        rng.random()
        s = 0
    else:
        s = _draw(weights / weights.sum(), rng)
    out = branches[s] / np.sqrt(weights[s])
    probability = float((np.abs(b) ** 2).sum())
    return TeleportOutcome(outcome=r, probability=probability, output_state=PureState(out))


def _numbers(values, field: str) -> np.ndarray:
    """A field's flat list of finite JSON numbers as a float64 array.

    Anything else, an integer beyond the float range or a non-finite float
    included, raises a ValueError that names ``field``.
    """
    # np.array would also convert true, "0.8", null and nested lists
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{field} must be a list of numbers")
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{field} must be a list of numbers") from None
    if not np.isfinite(arr).all():  # json reads NaN, Infinity and 1e400 as non-finite floats
        raise ValueError(f"{field}: numbers must be finite")
    return arr


def _complex_stack(text, field: str, d: int) -> np.ndarray:
    """A field's base64 text as an (n, d, d) complex array, read as little-endian complex128.

    The text must be standard padded base64 and nothing else, and must hold
    n >= 1 matrices, 16 d^2 bytes each, of finite numbers, or a ValueError
    names ``field``. The bytes are read as they are, so signed zeros survive.
    """
    if type(text) is not str:
        raise ValueError(f"{field} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raw = None
    # Python 3.11 accepts excess padding ("AAAA====") that 3.10 rejects; the exact length
    # rules it out on both
    if raw is None or len(text) != 4 * -(-len(raw) // 3):
        raise ValueError(f"{field} must be padded standard base64 with nothing else")
    if not raw or len(raw) % (16 * d * d):
        raise ValueError(f"{field} must hold a positive multiple of 16 d^2 = {16 * d * d} bytes")
    arr = np.frombuffer(raw, "<c16").reshape(-1, d, d)
    if not np.isfinite(arr).all():
        raise ValueError(f"{field}: numbers must be finite")
    return arr


def _protocol_parts(
    text: str,
) -> tuple[SchmidtDecomposition, AliceMeasurement, np.ndarray, np.ndarray]:
    """Resource, measurement, Kraus stack and per-outcome Kraus counts of a protocol file's text.

    Neither completeness nor Kraus normalization is checked, so that a broken
    protocol can still be diagnosed; :func:`protocol_from_json` enforces both.
    The stack and counts are ready for :func:`_kraus_check`. A schema other
    than :data:`PROTOCOL_SCHEMA` or a malformed field raises a ValueError that
    names it; a Kraus count below 1 names its outcome, as :func:`_kraus_shape` does.
    Text that is not JSON, or that nests too deeply for ``json.loads``, raises
    a ValueError too.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("protocol JSON nests too deeply to be read") from None
    try:
        # the schema comes first: a file of another schema may lack the fields below
        schema = data["schema"]
        if type(schema) is not int or schema != PROTOCOL_SCHEMA:
            raise ValueError(f"unsupported protocol schema {schema!r}; expected {PROTOCOL_SCHEMA}")
        d, lambdas, counts, phi, corrections = (
            data[k] for k in ("d", "lambdas", "kraus_counts", "phi", "corrections")
        )
    except KeyError as exc:
        raise ValueError(f"protocol is missing field {exc}") from None
    if type(d) is not int or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    schmidt = SchmidtDecomposition(_numbers(lambdas, "lambdas"))
    if schmidt.dim != d:
        raise ValueError(
            f"declared dimension {d} does not match {schmidt.dim} Schmidt coefficients"
        )
    meas = AliceMeasurement(_complex_stack(phi, "phi", d))
    stack = _complex_stack(corrections, "corrections", d)
    if type(counts) is not list or set(map(type, counts)) - {int}:
        raise ValueError("kraus_counts must be a list of integers")
    if len(counts) != meas.n_outcomes:
        raise ValueError(f"kraus_counts has {len(counts)} entries for {meas.n_outcomes} outcomes")
    for r, n in enumerate(counts):
        _kraus_shape(r, (n, d, d), d)
    if sum(counts) != stack.shape[0]:
        raise ValueError(
            f"kraus_counts add up to {sum(counts)}, but corrections hold {stack.shape[0]} operators"
        )
    return schmidt, meas, stack, np.array(counts, dtype=np.intp)


def _base64(arr: np.ndarray) -> str:
    """An array's bytes as little-endian complex128 in C order, as standard padded base64."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<c16").tobytes()).decode("ascii")


def protocol_to_json(proto: Protocol) -> str:
    """Serialize a protocol; every number survives the round trip bit-exactly.

    The text is ``json.dumps`` of ``{schema, d, lambdas, kraus_counts, phi,
    corrections}`` plus a newline, where ``phi`` and ``corrections`` are the
    measurement blocks and :attr:`BobCorrections.stack`, each as one base64
    string of its bytes (:func:`_base64`). The resource is stored as its
    Schmidt coefficients, which is all a :class:`SchmidtDecomposition` holds.
    """
    corr = proto.corrections
    head = json.dumps({
        "schema": PROTOCOL_SCHEMA,
        "d": proto.d,
        "lambdas": proto.schmidt.lambdas.tolist(),
        "kraus_counts": [block.shape[0] for block in corr.kraus],
    })
    # base64 needs no JSON escaping, so splicing the arrays in gives json.dumps's text
    # without json's scan of each of their characters (about 11 ms at d = 16)
    phi, stack = _base64(proto.measurement.phi), _base64(corr.stack)
    return f'{head[:-1]}, "phi": "{phi}", "corrections": "{stack}"}}\n'


def protocol_from_json(text: str) -> Protocol:
    """Inverse of :func:`protocol_to_json`; raises ValueError unless the protocol is valid."""
    schmidt, meas, stack, sizes = _protocol_parts(text)
    kraus = stack if (sizes == 1).all() else _outcome_blocks(stack, sizes)
    return Protocol(schmidt, meas, BobCorrections(kraus))
