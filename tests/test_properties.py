"""Property tests for the reflection operators and argmax selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverqss.catalog import MESSAGE_MARKS, initial_state
from groverqss.grover import (
    ARGMAX_TOL,
    argmax_labels,
    collective_op,
    decode_phase1,
    diffusion_apply,
    encode,
    oracle_apply,
)
from groverqss.statevec import StateVector, distribution, index_to_label


def random_state(rng):
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    return StateVector(a / np.linalg.norm(a))


labels3 = st.integers(min_value=0, max_value=7).map(lambda i: format(i, "03b"))
catalog_k = st.integers(min_value=1, max_value=64)


@given(labels3, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_oracle_involution_and_norm(m, seed):
    s = random_state(np.random.default_rng(seed))
    once = oracle_apply(s, m)
    assert abs(np.linalg.norm(once.amps) - 1) <= 1e-12
    assert oracle_apply(once, m).amps.tobytes() == s.amps.tobytes()


@given(catalog_k, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_diffusion_involution_and_norm(k, seed):
    s = random_state(np.random.default_rng(seed))
    about = initial_state(k)
    once = diffusion_apply(s, about)
    assert abs(np.linalg.norm(once.amps) - 1) <= 1e-12
    assert np.max(np.abs(diffusion_apply(once, about).amps - s.amps)) <= 1e-12


@given(catalog_k, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_diffusion_linear(k, seed):
    rng = np.random.default_rng(seed)
    a, b = random_state(rng), random_state(rng)
    alpha = complex(rng.normal(), rng.normal())
    about = initial_state(k)
    combo = StateVector(alpha * a.amps + b.amps)
    # linearity checked on the raw (unnormalized) combination
    lhs = 2 * np.vdot(about.amps, combo.amps) * about.amps - combo.amps
    rhs = alpha * diffusion_apply(a, about).amps + diffusion_apply(b, about).amps
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@given(
    catalog_k,
    labels3,
    st.floats(min_value=0, max_value=2 * np.pi, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_argmax_global_phase_invariant(k, m, phase):
    encoded = encode(initial_state(k), m)
    rotated = StateVector(np.exp(1j * phase) * encoded.amps)
    base = decode_phase1(encoded, initial_state(k))
    rot = decode_phase1(rotated, initial_state(k))
    assert base.argmax_set == rot.argmax_set
    assert base.chosen_M == rot.chosen_M
    assert base.dist == pytest.approx(rot.dist, abs=1e-12)


def test_matching_pipeline_exhaustive_message_marks():
    # 64 catalog states x 3 message marks: the mark is always the unique top
    for k in range(1, 65):
        sk = initial_state(k)
        for m in sorted(MESSAGE_MARKS):
            _, _, dist = collective_op(encode(sk, m), sk)
            assert argmax_labels(dist) == [m]
            assert float(dist.max()) == pytest.approx(121 / 128, abs=1e-12)


def test_distribution_normalized_across_pipeline():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = random_state(rng)
        k = int(rng.integers(1, 65))
        st1 = diffusion_apply(s, initial_state(k))
        assert distribution(st1).sum() == pytest.approx(1.0, abs=1e-12)


def reference_argmax_labels(dist):
    """The validating per-element loop that ``argmax_labels`` replaced."""
    floor = float(dist.max()) - ARGMAX_TOL
    return [index_to_label(i) for i in range(len(dist)) if dist[i] >= floor]


@st.composite
def near_tie_distributions(draw):
    """8-entry distributions whose entries sit at, just inside or just
    outside ARGMAX_TOL below a common top."""
    top = draw(st.floats(min_value=0.01, max_value=1))
    gaps = st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]).map(lambda g: g * ARGMAX_TOL)
    entries = st.one_of(st.floats(min_value=0, max_value=1), gaps.map(lambda gap: top - gap))
    dist = np.array(draw(st.lists(entries, min_size=8, max_size=8)))
    floor = float(dist.max()) - ARGMAX_TOL
    # Entries one ulp either side of the cut.
    for i in draw(st.lists(st.integers(0, 7), max_size=3)):
        dist[i] = np.nextafter(floor, draw(st.sampled_from([-np.inf, np.inf])))
    return dist


@given(near_tie_distributions())
@settings(max_examples=300, deadline=None)
def test_argmax_labels_matches_the_reference_loop(dist):
    assert argmax_labels(dist) == reference_argmax_labels(dist)
