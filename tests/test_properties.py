"""Property tests over random spectra, random complete POVMs and random
multi-Kraus corrections.

Every test runs under one fixed profile: derandomized, a bounded number of
examples and no example database, so a run is deterministic and short. The
protocol-file reader's test, whose examples are cheap, draws more of them.
"""

import base64
import re
import struct

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
    return Protocol(SchmidtDecomposition(lam), meas, BobCorrections(blocks))


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
    report = check_optimality(meas, SchmidtDecomposition(lam))
    gap = fidelity_bound(lam) - optimal_fidelity_given_measurement(meas, lam)
    assert gap >= -1e-12
    assert report.passed == (gap <= 1e-12)


#: padded base64 of the standard alphabet and nothing else, which the reader must accept
STRICT_BASE64 = re.compile(r"(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}==|[A-Za-z0-9+/]{3}=)?")
#: characters that can break a base64 text: padding, whitespace, URL-safe, non-ASCII
ODD_CHARS = st.sampled_from(["=", " ", "\n", "-", "_", "*", "\u00e9", "A", "+", "/"])


@st.composite
def base64_texts(draw):
    """Texts as a d = 2 protocol file's ``phi`` might hold them, many of them malformed.

    Mostly the base64 of whole 2 x 2 complex matrices of 64 bytes, or of a byte
    count that is not a multiple of 64, holding any floats (NaN and infinities
    included), then up to two characters replaced, inserted or deleted. One in
    ten is any text at all.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=12))
    n_floats = 8 * draw(st.integers(0, 4)) if draw(st.booleans()) else draw(st.integers(0, 40))
    floats = draw(st.lists(st.floats(), min_size=n_floats, max_size=n_floats))
    raw = struct.pack(f"<{n_floats}d", *floats) + draw(st.sampled_from([b""] * 3 + [b"\0", b"ab"]))
    text = base64.b64encode(raw).decode("ascii")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        tail = text[i + 1 :] if edit != "insert" else text[i:]
        text = text[:i] + (draw(ODD_CHARS) if edit != "delete" else "") + tail
    return text


@settings(PROFILE, max_examples=500)
@given(base64_texts())
def test_base64_reader_matches_numpy_or_raises_value_error(text):
    raw = base64.b64decode(text) if STRICT_BASE64.fullmatch(text) else None
    if not raw or len(raw) % 64:  # not strict base64, or no whole 2 x 2 matrices
        event("rejected")
        with pytest.raises(ValueError, match="^phi"):
            _complex_stack(text, "phi", 2)
        return
    expected = np.frombuffer(raw, "<c16").reshape(-1, 2, 2)
    if not np.isfinite(expected).all():
        event("rejected: not finite")
        with pytest.raises(ValueError, match="^phi: numbers must be finite$"):
            _complex_stack(text, "phi", 2)
        return
    event("read")
    got = _complex_stack(text, "phi", 2)
    assert got.dtype == np.complex128
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
