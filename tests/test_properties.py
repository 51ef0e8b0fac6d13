"""Property tests over random spectra, random complete POVMs and random
multi-Kraus corrections.

Every test runs under one fixed profile: derandomized, a bounded number of
examples and no example database, so a run is deterministic and short. The
protocol-file reader's test, whose examples are cheap, draws more of them.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from teleportsim import (
    BobCorrections,
    Protocol,
    SchmidtDecomposition,
    check_optimality,
    fidelity_bound,
    make_rng,
    max_singlet_fraction,
    mean_fidelity_exact,
    mean_fidelity_mkl_form,
    optimal_fidelity_given_measurement,
    random_povm,
    standard_protocol,
)
from teleportsim.protocol import _complex_stack
from helpers import random_kraus_set, random_optimal_measurement

PROFILE = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def spectra(draw):
    """Schmidt spectra at d = 2..5; zero coefficients give rank-deficient and product ones."""
    d = draw(st.integers(2, 5))
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    raw = np.array(draw(st.lists(coeff, min_size=d, max_size=d).filter(any)))
    return np.sort(raw)[::-1] / np.linalg.norm(raw)


@st.composite
def protocols(draw):
    """A random complete POVM with 1-3 random Kraus operators per outcome."""
    lam = draw(spectra())
    d = lam.size
    n_outcomes = d * d + draw(st.integers(0, 3))
    n_kraus = draw(st.lists(st.integers(1, 3), min_size=n_outcomes, max_size=n_outcomes))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    meas = random_povm(d, n_outcomes, rng)
    blocks = tuple(random_kraus_set(d, s, rng) for s in n_kraus)
    return Protocol(SchmidtDecomposition.from_lambdas(lam), meas, BobCorrections(blocks))


@st.composite
def measurements(draw):
    """A spectrum and either a measurement meeting the optimality conditions or a random POVM."""
    lam = draw(spectra())
    d = lam.size
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        meas = random_optimal_measurement(d, draw(st.integers(1, 3)), rng)
    else:
        meas = random_povm(d, d * d + draw(st.integers(0, 3)), rng)
    return lam, meas


@PROFILE
@given(protocols())
def test_bound_above_exact_above_zero(proto):
    exact = mean_fidelity_exact(proto)
    assert 0.0 <= exact <= fidelity_bound(proto.schmidt.lambdas) + 1e-12


@PROFILE
@given(protocols())
def test_exact_equals_moment_operator_form(proto):
    assert abs(mean_fidelity_exact(proto) - mean_fidelity_mkl_form(proto)) <= 1e-12


@PROFILE
@given(spectra())
def test_singlet_fraction_link_for_standard_protocol(lam):
    # F = (d f + 1) / (d + 1) with f the largest singlet fraction of the resource
    d = lam.size
    expected = (d * max_singlet_fraction(lam) + 1) / (d + 1)
    assert abs(mean_fidelity_exact(standard_protocol(lam)) - expected) <= 1e-12


@PROFILE
@given(measurements())
def test_optimality_conditions_hold_exactly_when_bound_is_reached(case):
    # the paper's conditions are necessary and sufficient: with a 1e-10 tolerance
    # on the blocks, the best fidelity reaches the bound to 1e-12 exactly when they pass
    lam, meas = case
    report = check_optimality(meas, SchmidtDecomposition.from_lambdas(lam))
    gap = fidelity_bound(lam) - optimal_fidelity_given_measurement(meas, lam)
    assert gap >= -1e-12
    assert report.passed == (gap <= 1e-12)


#: numbers a protocol file's arrays may hold
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))
#: items no protocol array may hold, though NumPy converts the first four to floats
ODD_ITEMS = st.one_of(
    st.booleans(),
    st.sampled_from(["0.7", "-1e3", float("nan"), float("-inf"), 10**400]),
    st.none(),
    st.text(max_size=3),
    st.lists(NUMBERS, max_size=2),
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
)


@st.composite
def flat_arrays(draw):
    """Flat lists as a d = 2 protocol file's ``phi`` might hold them, many of them malformed.

    Mostly whole matrices of 8 numbers, or a length that is not a multiple
    of 8, then up to two items replaced by a boolean, a numeric string, a
    non-finite or huge number, null, a string, a list or a dict. One in ten
    is no list at all.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(NUMBERS, ODD_ITEMS))
    length = draw(st.one_of(st.sampled_from([0, 8, 16, 32]), st.integers(0, 40)))
    values = draw(st.lists(NUMBERS, min_size=length, max_size=length))
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        values[draw(st.integers(0, len(values) - 1))] = draw(ODD_ITEMS)
    return values


@settings(PROFILE, max_examples=500)
@given(flat_arrays())
def test_flat_reader_matches_numpy_or_raises_value_error(values):
    expected = None  # NumPy's reading of a flat list of JSON numbers
    if type(values) is list and all(type(x) in (int, float) for x in values):
        try:
            expected = np.array(values, dtype=np.float64)
        except OverflowError:
            pass
    whole = expected is not None and expected.size and not expected.size % 8
    if not whole or not np.isfinite(expected).all():
        event("rejected")
        with pytest.raises(ValueError, match="^phi"):
            _complex_stack(values, "phi", 2)
        return
    event("read")
    got = _complex_stack(values, "phi", 2)
    assert got.dtype == np.complex128
    assert got.shape == (expected.size // 8, 2, 2)
    assert got.tobytes() == expected.tobytes()
