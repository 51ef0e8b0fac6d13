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
from teleportsim.protocol import _unpairs
from helpers import ascontiguous_unpairs, random_kraus_set, random_optimal_measurement

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


#: numbers a protocol file's arrays may hold; NumPy reads booleans as 0 and 1
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
#: items no protocol array may hold, as a leaf or where a list belongs
ODD_ITEMS = st.one_of(
    st.none(),
    st.sampled_from([float("nan"), float("-inf"), 10**400]),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
)


@st.composite
def nests(draw):
    """Nested lists as a protocol field might hold them, most of them malformed.

    A rectangular nest, mostly ending in pairs, then up to three edits at
    random depths: an item dropped or added (ragged rows, empty lists,
    triples), wrapped in a list or replaced by a number (mixed depth), or
    replaced by an empty list, a dict, a string or null. One nest in ten is
    no list at all.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(NUMBERS, ODD_ITEMS))
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    shape.append(draw(st.sampled_from([2, 2, 2, 0, 1, 3])))

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(NUMBERS)

    nest = build(shape)
    for _ in range(draw(st.integers(0, 3))):
        node = nest
        while node and draw(st.booleans()):
            child = node[draw(st.integers(0, len(node) - 1))]
            if type(child) is not list:
                break
            node = child
        if not node:
            node.append(draw(st.one_of(NUMBERS, st.just([]))))
            continue
        i = draw(st.integers(0, len(node) - 1))
        edit = draw(st.sampled_from(["drop", "append", "wrap", "number", "empty", "odd"]))
        if edit == "drop":
            del node[i]
        elif edit == "append":
            node.append(node[i])
        elif edit == "wrap":
            node[i] = [node[i]]
        elif edit == "number":
            node[i] = draw(NUMBERS)
        elif edit == "empty":
            node[i] = []
        else:
            node[i] = draw(ODD_ITEMS)
    return nest


@settings(PROFILE, max_examples=500)
@given(nests())
def test_pair_reader_matches_numpy_or_raises_value_error(nest):
    try:
        expected = ascontiguous_unpairs(nest)
    except (TypeError, ValueError, OverflowError):
        event("NumPy rejects")
        with pytest.raises(ValueError, match="^phi: "):
            _unpairs(nest, "phi")
        return
    event("NumPy accepts")
    got = _unpairs(nest, "phi")
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
