from itertools import accumulate

import numpy as np
import pytest

from groverqss import grover
from groverqss.attacks import entangle_measure
from groverqss.catalog import initial_state
from groverqss.grover import (
    MAX_SHOTS,
    SAMPLE_CHUNK,
    collective_op,
    decode_phase1,
    decode_phase2,
    diffusion_apply,
    encode,
    iteration_count,
    oracle_apply,
    sample,
)
from groverqss.statevec import StateVector, distribution, index_to_label

SQRT8 = np.sqrt(8.0)


# Independent dense-matrix oracle: build the 8x8 reflections explicitly.
def oracle_matrix(idx, dim=8):
    u = np.eye(dim, dtype=complex)
    u[idx, idx] = -1
    return u


def diffusion_matrix(s):
    return 2 * np.outer(s.amps, s.amps.conj()) - np.eye(len(s.amps))


@pytest.mark.parametrize("n,expected", [(1, 1), (3, 2), (4, 3)])
def test_iteration_count(n, expected):
    assert iteration_count(n) == expected


def test_iteration_count_invalid():
    with pytest.raises(ValueError):
        iteration_count(0)


def test_oracle_negates_marked():
    s = oracle_apply(initial_state(1), "110")
    expected = np.full(8, 1 / SQRT8, dtype=complex)
    expected[6] = -1 / SQRT8
    assert s.amps == pytest.approx(expected, abs=1e-12)


def test_oracle_involution():
    s = initial_state(9)
    assert oracle_apply(oracle_apply(s, "011"), "011").amps.tobytes() == s.amps.tobytes()


def test_oracle_orthogonal_noop():
    s = StateVector(np.eye(8)[0])
    assert np.array_equal(oracle_apply(s, "111").amps, s.amps)


def test_oracle_label_mismatch():
    with pytest.raises(ValueError, match="^label '0110' is not 3 bits$"):
        oracle_apply(initial_state(1), "0110")


def test_diffusion_first_iteration_amplitudes():
    # one oracle + one diffusion on |+++> with mark 110: amplitude 5/(2*sqrt8)
    # at the mark and 1/(2*sqrt8) elsewhere
    s1 = initial_state(1)
    st = diffusion_apply(oracle_apply(s1, "110"), s1)
    expected = np.full(8, 1 / (2 * SQRT8), dtype=complex)
    expected[6] = 5 / (2 * SQRT8)
    assert st.amps == pytest.approx(expected, abs=1e-12)


def test_diffusion_fixed_point():
    s = initial_state(17)
    assert np.max(np.abs(diffusion_apply(s, s).amps - s.amps)) <= 1e-12


def test_diffusion_involution():
    s = encode(initial_state(3), "011")
    about = initial_state(12)
    twice = diffusion_apply(diffusion_apply(s, about), about)
    assert np.max(np.abs(twice.amps - s.amps)) <= 1e-12


def test_diffusion_matches_dense_matrix():
    rng = np.random.default_rng(2)
    about = initial_state(9)
    u = diffusion_matrix(about)
    for _ in range(10):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(a / np.linalg.norm(a))
        assert diffusion_apply(s, about).amps == pytest.approx(u @ s.amps, abs=1e-12)


def test_encode_s1():
    enc = encode(initial_state(1), "110")
    assert enc.amps[6] == pytest.approx(-1 / SQRT8, abs=1e-12)
    assert enc.amps[0] == pytest.approx(1 / SQRT8, abs=1e-12)


def test_encode_s9():
    # |+i,+i,+i> has amplitude i^popcount(j)/sqrt8; encoding negates the mark
    enc = encode(initial_state(9), "110")
    expected = np.array([1j ** bin(j).count("1") for j in range(8)]) / SQRT8
    expected[6] *= -1
    assert enc.amps == pytest.approx(expected, abs=1e-12)


def test_decode_phase1_matching_k():
    enc = encode(initial_state(1), "110")
    res = decode_phase1(enc, initial_state(1))
    assert res.argmax_set == frozenset({"110"})
    assert res.chosen_M == "110"
    assert res.max_prob == pytest.approx(25 / 32, abs=1e-12)


def test_decode_phase1_tied_set():
    enc = encode(initial_state(1), "110")
    res = decode_phase1(enc, initial_state(2))
    assert res.argmax_set == frozenset({"000", "010", "100"})
    assert res.chosen_M == "000"  # lexicographic tie-break
    assert res.max_prob == pytest.approx(9 / 32, abs=1e-12)


def test_decode_phase1_override():
    enc = encode(initial_state(1), "110")
    res = decode_phase1(enc, initial_state(7), choose="001")
    assert res.chosen_M == "001"
    with pytest.raises(ValueError, match="argmax"):
        decode_phase1(enc, initial_state(7), choose="110")


def test_decode_phase1_s9_matches_dense_oracle():
    enc = encode(initial_state(9), "110")
    res = decode_phase1(enc, initial_state(9))
    expected = diffusion_matrix(initial_state(9)) @ enc.amps
    assert res.state.amps == pytest.approx(expected, abs=1e-12)
    assert res.argmax_set == frozenset({"110"})
    assert res.max_prob == pytest.approx(25 / 32, abs=1e-12)


def test_decode_phase2_full_pipeline_amplitudes():
    s1 = initial_state(1)
    p1 = decode_phase1(encode(s1, "110"), s1)
    final, dist = decode_phase2(p1.state, "110", s1)
    expected = np.full(8, -1 / (4 * SQRT8), dtype=complex)
    expected[6] = 11 / (4 * SQRT8)
    assert final.amps == pytest.approx(expected, abs=1e-12)
    assert dist[6] == pytest.approx(121 / 128, abs=1e-12)


def test_decode_phase2_k10_chain():
    enc = encode(initial_state(1), "110")
    p1, final, dist = collective_op(enc, initial_state(10))
    assert p1.argmax_set == frozenset({"001"})
    assert round(float(dist.max()), 3) == 0.477
    assert np.argmax(dist) == 1  # |001>


def test_collective_op_k9_five_way():
    enc = encode(initial_state(1), "110")
    p1, final, dist = collective_op(enc, initial_state(9))
    assert p1.chosen_M == "111"
    top = sorted(format(i, "03b") for i in range(8) if dist[i] >= dist.max() - 1e-9)
    assert top == ["000", "011", "101", "110", "111"]
    assert round(float(dist.max()), 3) == 0.195


def test_pipeline_preserves_probability():
    for k in range(1, 65):
        sk = initial_state(k)
        for m in ("110", "011", "101"):
            _, _, dist = collective_op(encode(sk, m), sk)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic():
    s1 = initial_state(1)
    _, final, _ = collective_op(encode(s1, "110"), s1)
    a = sample(final, 2048, seed=42)
    b = sample(final, 2048, seed=42)
    assert a == b
    assert sum(a.counts.values()) == 2048


def test_sample_basis_state():
    counts = sample(StateVector(np.eye(8)[6]), 100, seed=0)
    assert counts.counts == {"110": 100}


def test_sample_empirical_close():
    s1 = initial_state(1)
    _, final, _ = collective_op(encode(s1, "110"), s1)
    counts = sample(final, 8192, seed=7)
    assert abs(counts.frequency("110") - 121 / 128) < 0.01


def test_sample_zero_shots():
    with pytest.raises(ValueError):
        sample(StateVector(np.eye(8)[0]), 0, seed=1)


def test_sample_over_max_shots_raises_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("sample built a generator for an out-of-range count")

    monkeypatch.setattr(grover.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"shots must be 1..{MAX_SHOTS}, got {MAX_SHOTS + 1}$"):
        sample(StateVector(np.eye(8)[0]), MAX_SHOTS + 1, seed=1)


@pytest.mark.parametrize("shots", [10.0, True, "5"])
def test_sample_non_integer_shots_is_a_type_error(shots):
    with pytest.raises(TypeError):
        sample(StateVector(np.eye(8)[0]), shots, seed=1)


def searchsorted_sample(s, shots, seed):
    """The sampler before chunked counting: one draw array, searched and sorted."""
    cdf = np.cumsum(distribution(s))
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, np.random.default_rng(seed).random(shots), side="right")
    return {
        index_to_label(int(idx)): int(n)
        for idx, n in zip(*np.unique(draws, return_counts=True))
    }


def assert_same_counts(s, shots, seed):
    counts = sample(s, shots, seed).counts
    assert list(counts.items()) == list(searchsorted_sample(s, shots, seed).items())
    assert all(type(n) is int for n in counts.values())


CHUNK_EDGE_SHOTS = [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 5]


@pytest.fixture(scope="module")
def final_states():
    """The decoded state of every (k, m): 512 states, k-major."""
    finals = []
    for k in range(1, 65):
        sk = initial_state(k)
        for i in range(8):
            finals.append(collective_op(encode(sk, format(i, "03b")), sk)[1])
    return finals


@pytest.mark.parametrize("j", range(len(CHUNK_EDGE_SHOTS)))
def test_sample_matches_searchsorted_on_every_final_state(final_states, j):
    # Each shot count takes every fifth state, so the five cover all 512.
    for i in range(j, len(final_states), len(CHUNK_EDGE_SHOTS)):
        assert_same_counts(final_states[i], CHUNK_EDGE_SHOTS[j], seed=1000 + i)


def test_one_shot_sample_matches_searchsorted_on_every_final_state(final_states):
    for i, s in enumerate(final_states):
        for seed in (0, 1, 2**32 + i, 7919 * i + 3):
            assert_same_counts(s, 1, seed)


def test_one_shot_thresholds_are_the_cumsum_doubles(final_states):
    # The one-shot path sums with accumulate; np.cumsum adds in the same order.
    for s in final_states:
        probs = distribution(s)
        assert list(accumulate(probs.tolist()))[:-1] == np.cumsum(probs)[:-1].tolist()


def test_one_shot_sample_is_the_searchsorted_draw(final_states):
    for seed in range(200):
        s = final_states[seed * 5 % len(final_states)]
        u = np.random.default_rng(seed).random()
        index = int(np.searchsorted(np.cumsum(distribution(s)), u, side="right"))
        assert sample(s, 1, seed).counts == {index_to_label(index): 1}


def test_one_shot_sample_builds_one_generator_and_draws_once(monkeypatch):
    built, default_rng = [], np.random.default_rng

    def one_rng(seed):
        rng = default_rng(seed)
        built.append(rng)
        return rng

    monkeypatch.setattr(grover.np.random, "default_rng", one_rng)
    sample(initial_state(5), 1, seed=11)
    assert len(built) == 1
    assert built[0].bit_generator.state == default_rng(11).bit_generator.advance(1).state


@pytest.mark.parametrize("shots", CHUNK_EDGE_SHOTS)
def test_sample_matches_searchsorted_on_1_to_3_qubits(shots):
    # The 1- and 2-qubit states sit on the last qubits of the register, the
    # others idle in |0>, so most outcomes have probability 0.  The entangle
    # attack's ancilla-0 branch after the oracle is 0 on half the outcomes.
    after_oracle = dict(entangle_measure().intermediate_states)["after_mark_oracle"]
    for s in [StateVector(np.eye(8)[5]), StateVector([0.6, 0.8j] + [0] * 6),
              StateVector([0.5, -0.5, 0.5j, 0.5] + [0] * 4),
              StateVector(np.sqrt(2) * after_oracle[0::2])]:
        assert_same_counts(s, shots, seed=shots)


def test_sample_million_shots_recorded_counts():
    # Recorded with the searchsorted sampler; the draws span 16 chunks.
    _, final, _ = collective_op(encode(initial_state(1), "110"), initial_state(9))
    assert sample(final, 10**6, seed=8).counts == {
        "000": 194688, "001": 7794, "010": 7722, "011": 195415,
        "100": 7772, "101": 195828, "110": 195384, "111": 195397,
    }
