"""States are validated once, where they enter the package.

The operators build their results without re-checking them, so these tests
hold those results to a validated reference computed with the same numpy
expressions, and check that every public constructor still refuses bad
input.
"""

import numpy as np
import pytest

from groverqss.catalog import initial_state
from groverqss.grover import (
    argmax_labels,
    decode_phase1,
    decode_phase2,
    decode_relative,
    diffusion_apply,
    encode,
    oracle_apply,
)
from groverqss.protocol import RoundConfig
from groverqss.statevec import (
    LABELS,
    StateVector,
    distribution,
    index_to_label,
    label_to_index,
)

MARKS = [format(i, "03b") for i in range(8)]


def reference_oracle(s, m):
    amps = s.amps.copy()
    amps[int(m, 2)] *= -1
    return StateVector(amps)


def reference_diffusion(s, about):
    return StateVector(2 * complex(np.vdot(about.amps, s.amps)) * about.amps - s.amps)


def assert_same_state(got, want):
    assert got.amps.dtype == np.complex128
    assert not got.amps.flags.writeable
    assert got.amps.tobytes() == want.amps.tobytes()


@pytest.mark.parametrize("enc_k", range(1, 65))
def test_decode_results_equal_the_validated_reference(enc_k):
    # Eight decoders per encoded state, shifted with enc_k so that the 64
    # parametrizations use every decoder k.
    decoders = range(enc_k % 8 + 1, 65, 8)
    for m in MARKS:
        encoded = encode(initial_state(enc_k), m)
        assert_same_state(encoded, reference_oracle(initial_state(enc_k), m))
        for k in decoders:
            sk = initial_state(k)
            p1 = decode_phase1(encoded, sk)
            ref1 = reference_diffusion(encoded, sk)
            assert_same_state(p1.state, ref1)
            assert p1.dist.tobytes() == distribution(ref1).tobytes()
            assert p1.max_prob == float(distribution(ref1).max())
            assert_same_state(oracle_apply(p1.state, p1.chosen_M),
                              reference_oracle(ref1, p1.chosen_M))
            final, fdist = decode_phase2(p1.state, p1.chosen_M, sk)
            ref2 = reference_diffusion(reference_oracle(ref1, p1.chosen_M), sk)
            assert_same_state(final, ref2)
            assert fdist.tobytes() == distribution(ref2).tobytes()


def test_diffusion_overflow_is_refused():
    huge = StateVector([1e308] * 8)
    with pytest.raises(ValueError, match="finite"):
        diffusion_apply(huge, huge)


@pytest.mark.parametrize("build", [
    lambda: StateVector([np.nan] + [0] * 7),
    lambda: StateVector([np.inf] + [0] * 7),
    lambda: StateVector([1, np.nan] + [0] * 6),
    lambda: StateVector([0.5, 0.5j, complex(np.nan, 0), 0.5] + [0] * 4),
])
def test_public_constructors_refuse_non_finite_amplitudes(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("build", [
    lambda: StateVector(np.zeros(4)),
    lambda: StateVector(np.zeros((2, 4))),
    lambda: StateVector(np.zeros(16)),
    lambda: StateVector(np.zeros(3)),
    lambda: StateVector(np.zeros((4, 4))),
])
def test_public_constructors_refuse_the_wrong_shape(build):
    with pytest.raises(ValueError, match="amplitudes, got shape"):
        build()


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_public_constructor_refuses_the_qubit_count(n):
    # A state holds the 8 amplitudes of 3 qubits, so n qubits' 2**n are refused.
    with pytest.raises(ValueError, match=rf"^expected 8 amplitudes, got shape \({2**n},\)$"):
        StateVector(np.zeros(2**n))


def test_public_constructors_copy_and_freeze_their_input():
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = 1
    s = StateVector(amps)
    amps[0] = 0
    assert s.amps[0] == 1 and not s.amps.flags.writeable
    assert not initial_state(5).amps.flags.writeable


@pytest.mark.parametrize("k", [True, False])
def test_a_bool_k_is_refused_like_round_config_refuses_it(k):
    # operator.index(True) is 1, which would hand back S_1.
    with pytest.raises(ValueError, match=rf"^catalog index k must be an integer in 1\.\.64, got {k}$"):
        initial_state(k)
    with pytest.raises(ValueError, match=rf"^round 'k' must be an integer in 1\.\.64, got {k}$"):
        RoundConfig(k=k, marked="110", round_kind="message")


@pytest.mark.parametrize("rows,size", [(16, 3), (4, 3), (8, 4), (2, 5)])
def test_argmax_labels_refuses_a_distribution_of_the_wrong_length(rows, size):
    # One distribution of ``size`` probabilities, and a stack of ``rows`` of them.
    for dist in (np.full(size, 1 / size), np.full((rows, size), 1 / size)):
        with pytest.raises(ValueError, match=f"^{size} probabilities do not address 3 qubits$"):
            argmax_labels(dist)


@pytest.mark.parametrize("length", [0, 7, 9])
def test_decode_relative_refuses_a_row_that_is_not_8_long(length):
    with pytest.raises(ValueError, match=f"^relative phase row has {length} entries, not 8$"):
        decode_relative([1] * length, "110")


@pytest.mark.parametrize("label,message", [
    ("", "not a bit string: ''"),
    ("10a", "not a bit string: '10a'"),
    ("10101", "label '10101' is not 3 bits"),
    ("01", "label '01' is not 3 bits"),
    ("0110", "label '0110' is not 3 bits"),
])
def test_label_to_index_keeps_its_messages(label, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        label_to_index(label)


@pytest.mark.parametrize("index", [8, -1, 16, np.int64(8)])
def test_index_to_label_keeps_its_message(index):
    with pytest.raises(ValueError, match=f"^index {index} out of range for 3 qubits$"):
        index_to_label(index)


def test_label_tables_agree_with_formatting():
    assert LABELS == tuple(format(i, "03b") for i in range(8))
    for i, label in enumerate(LABELS):
        assert index_to_label(i) == label and label_to_index(label) == i
        assert index_to_label(np.int64(i)) == label
