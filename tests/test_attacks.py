import functools
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from test_symmetry import exact_step, squared_norms

from groverqss.attacks import (
    computational_basis,
    entangle_measure,
    gram_check,
    intercept_enumeration,
    intercept_resend_analysis,
    intercept_wrong_op,
    lie_attack,
    phase_pattern_basis,
    sign_flip_basis,
)
from groverqss.catalog import CHEAT_DETECT_MARKS, MESSAGE_MARKS, initial_state, phase_table
from groverqss.grover import argmax_labels, decode_phase1, decode_phase2, encode
from groverqss.statevec import LABELS, label_to_index

SQRT8 = np.sqrt(8.0)

# Published intermediate/final state vectors of the intercept analysis.
WRONG_KEY_DIFFUSED = (-1 / (2 * SQRT8)) * np.array(
    [2 + 1j, 1, 1, 2 - 1j, 1, 2 - 1j, -(2 + 1j), 3], dtype=complex
)
# As printed, the second intermediate carries an extra global sign: the
# prefactor should be +1/(2*sqrt8).  The physical state is the one below.
SWAPPED_DIFFUSED_PRINTED_BRACKET = np.array(
    [-2 + 1j, -1j, -1j, 2 + 1j, -1j, 2 + 1j, -2 + 1j, 3j], dtype=complex
)
SWAPPED_DIFFUSED = (1 / (2 * SQRT8)) * SWAPPED_DIFFUSED_PRINTED_BRACKET
WRONG_MARK_FINAL = (1 / (4 * SQRT8)) * np.array(
    [4 + 3j, 1, 1, 4 - 3j, 1, 4 - 3j, -(4 + 3j), -5], dtype=complex
)
# The |101> coefficient is printed as (4-3i) but must equal the |011>
# coefficient (the mark oracle and diffusion treat both identically);
# the corrected vector also carries the same global sign as SWAPPED_DIFFUSED.
SWAPPED_WRONG_MARK_FINAL = (-1 / (4 * SQRT8)) * np.array(
    [-4 + 3j, -1j, -1j, 4 + 3j, -1j, 4 + 3j, -4 + 3j, -5j], dtype=complex
)


def test_lie_attack_two_flips_example():
    report = lie_attack("101", {"P1", "P2"})
    assert report.details["reconstructed"] == "011"
    assert report.dealer_detection_prob == 1.0


def test_lie_attack_no_flips():
    report = lie_attack("110", set())
    assert report.details["detected"] is False
    assert report.details["reconstructed"] == "110"


def test_lie_attack_single_flip_into_cheat_set():
    report = lie_attack("110", {"P3"})
    assert report.details["reconstructed"] == "111"
    assert "111" in CHEAT_DETECT_MARKS


def test_lie_attack_detection_total():
    # all 8 marks x all 7 non-empty flip patterns
    marks = [format(i, "03b") for i in range(8)]
    patterns = [
        set(c)
        for r in (1, 2, 3)
        for c in itertools.combinations(("P1", "P2", "P3"), r)
    ]
    assert len(marks) * len(patterns) == 56
    for m in marks:
        for flips in patterns:
            assert lie_attack(m, flips).details["detected"] is True


def test_lie_attack_unknown_participant():
    with pytest.raises(ValueError):
        lie_attack("110", {"P4"})


def test_intercept_wrong_key_intermediate():
    report = intercept_wrong_op(k_true=1, m="110", k_guess=9)
    name, st = report.intermediate_states[0]
    assert name == "after_first_diffusion"
    assert st == pytest.approx(WRONG_KEY_DIFFUSED, abs=1e-12)


def test_intercept_wrong_mark_final():
    report = intercept_wrong_op(k_true=1, m="110", k_guess=9, M_guess="111")
    _, final = report.intermediate_states[1]
    assert final == pytest.approx(WRONG_MARK_FINAL, abs=1e-12)
    dist = report.outcome_dist
    top = sorted(format(i, "03b") for i in range(8) if dist[i] >= dist.max() - 1e-9)
    assert top == ["000", "011", "101", "110", "111"]
    assert round(float(dist.max()), 3) == 0.195


def test_intercept_forced_correct_mark():
    report = intercept_wrong_op(k_true=1, m="110", k_guess=9, M_guess="110")
    _, final = report.intermediate_states[1]
    expected = (1 / (4 * SQRT8)) * np.array(
        [6 + 1j, 3 + 2j, 3 + 2j, 2 - 1j, 3 + 2j, 2 - 1j, 2 + 3j, 5 - 2j], dtype=complex
    )
    assert final == pytest.approx(expected, abs=1e-12)
    assert report.details["final_argmax"] == ["000"]
    assert round(float(report.outcome_dist.max()), 3) == 0.289


def test_intercept_swapped_roles():
    # dealer prepared S_9, attacker decodes with S_1
    report = intercept_wrong_op(k_true=9, m="110", k_guess=1)
    _, intermediate = report.intermediate_states[0]
    assert intermediate == pytest.approx(SWAPPED_DIFFUSED, abs=1e-12)
    # printed bracket differs from the derived state by a global -1
    assert intermediate == pytest.approx(
        -(-1 / (2 * SQRT8)) * SWAPPED_DIFFUSED_PRINTED_BRACKET, abs=1e-12
    )

    report = intercept_wrong_op(k_true=9, m="110", k_guess=1, M_guess="111")
    _, final = report.intermediate_states[1]
    assert final == pytest.approx(SWAPPED_WRONG_MARK_FINAL, abs=1e-12)

    report = intercept_wrong_op(k_true=9, m="110", k_guess=1, M_guess="110")
    _, final = report.intermediate_states[1]
    expected = (1 / (4 * SQRT8)) * np.array(
        [6 - 1j, 2 + 3j, 2 + 3j, -(2 + 1j), 2 + 3j, -(2 + 1j), -2 + 3j, 2 - 5j],
        dtype=complex,
    )
    assert final == pytest.approx(expected, abs=1e-12)
    assert round(float(report.outcome_dist.max()), 3) == 0.289


def test_intercept_correct_guess():
    report = intercept_wrong_op(k_true=1, m="110", k_guess=1)
    assert report.attacker_success_prob == 121 / 128


def test_intercept_k_guess_5_prints_1_in_128():
    doc = json.loads(intercept_wrong_op(k_true=1, m="110", k_guess=5).to_json())
    assert doc["attacker_success_prob"] == doc["details"]["p_marked"] == 1 / 128


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, "110", 5), "catalog index k must be 1..64, got 0"),
        ((1, "110", 65), "catalog index k must be 1..64, got 65"),
        ((True, "110", 5), "catalog index k must be an integer in 1..64, got True"),
        ((1, "11", 5), "label '11' is not 3 bits"),
        ((1, "110", 5, "abc"), "not a bit string: 'abc'"),
        ((1, "110", 5, "0000"), "label '0000' is not 3 bits"),
    ],
)
def test_intercept_wrong_op_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        intercept_wrong_op(*args)


def float_intercept(k_true, m, k_guess, M=None):
    """The single-guess intercept on the float pipeline: phase-1 state, M,
    final state and final distribution."""
    guess = initial_state(k_guess)
    p1 = decode_phase1(encode(initial_state(k_true), m), guess)
    M = p1.chosen_M if M is None else M
    final, fdist = decode_phase2(p1.state, M, guess)
    return p1.state.amps, M, final.amps, fdist


#: True states whose intercepts are also checked under all 8 forced marks.
SPREAD = range(1, 65, 8)


@pytest.mark.parametrize("k_true", range(1, 65))
def test_exact_intercept_equals_the_float_pipeline(k_true):
    """Every guess and mark, with the automatic M and, for the ``SPREAD``
    true states, each forced M: the same M and final tie set as the float
    pipeline, displays within 16 ulps of 1 of it, and final probabilities
    equal to the exact step's, whose numerators sum to 2048."""
    table = phase_table()
    one = 16 * math.ulp(1.0)
    for k_guess, m in itertools.product(range(1, 65), LABELS):
        r = (table[k_guess - 1].conj() * table[k_true - 1]).tolist()
        n1 = exact_step(r, label_to_index(m))
        for M in (None, *(LABELS if k_true in SPREAD else ())):
            report = intercept_wrong_op(k_true, m, k_guess, M)
            after, ref_M, final, fdist = float_intercept(k_true, m, k_guess, M)
            assert report.details["M"] == ref_M
            assert report.details["final_argmax"] == argmax_labels(fdist)
            (_, got_after), (_, got_final) = report.intermediate_states
            assert np.abs(got_after - after).max() <= one
            assert np.abs(got_final - final).max() <= one
            exact = [p / 2048 for p in squared_norms(exact_step(n1, label_to_index(ref_M)))]
            assert report.outcome_dist.tolist() == exact
            assert sum(p * 2048 for p in exact) == 2048
            assert report.attacker_success_prob == exact[label_to_index(m)]


def test_intercept_enumeration_claims():
    report = intercept_enumeration()
    claims = {c.name: c for c in report.claims}
    # the derived inclusive count is 19/64; the publication states 9/32 = 18/64
    assert report.details["success_inclusive_count"] == 19
    assert not claims["attacker_success_inclusive"].matches
    assert claims["correct_intermediate_mark"].matches  # 13/64 exactly
    assert claims["max_cheat_detect_outcome_prob"].matches  # 37/128 exactly
    assert claims["two_state_scenario_success"].matches  # 1/32 exactly
    assert report.details["success_strict_count"] == 1  # only the correct k


def exact_intercept_claims(k_true, m):
    """The intercept audit's claimed quantities as exact fractions, from the
    integer decode of ``exact_step``: the auto mark is the smallest label of
    the phase-1 tie set, and the cheat-detect exposure is read under M = m."""
    table = phase_table()
    inclusive = correct_M = 0
    cheat = Fraction(0)
    for k in range(1, 65):
        r = (table[k - 1].conj() * table[k_true - 1]).tolist()
        n1 = exact_step(r, label_to_index(m))
        p1 = [int(p) for p in squared_norms(n1)]
        M = p1.index(max(p1))
        p2 = [int(p) for p in squared_norms(exact_step(n1, M))]
        inclusive += p2[label_to_index(m)] == max(p2)
        correct_M += LABELS[M] == m
        forced = squared_norms(exact_step(n1, label_to_index(m)))
        cheat = max(cheat, *(Fraction(int(forced[label_to_index(c)]), 2048)
                             for c in CHEAT_DETECT_MARKS))
    return {
        "attacker_success_inclusive": Fraction(inclusive, 64),
        "correct_intermediate_mark": Fraction(correct_M, 64),
        "dealer_detection": 1 - Fraction(inclusive, 64),
        "max_cheat_detect_outcome_prob": cheat,
        "two_state_scenario_success": Fraction(1, 32),
    }


@pytest.mark.parametrize("m", sorted(MESSAGE_MARKS))
def test_intercept_and_resend_claims_equal_their_exact_fractions(m):
    """Claims match by ==, so each derived value must be exact."""
    for k_true in range(1, 65):
        exact = exact_intercept_claims(k_true, m)
        claims = intercept_enumeration(k_true, m).claims
        assert {c.name: c.derived for c in claims} == exact, k_true
        assert all(c.matches == (c.derived == c.claimed) for c in claims)
    message = Fraction(len(CHEAT_DETECT_MARKS), 8)
    exact = {"detection_message_round": message, "detection_cheat_round": Fraction(7, 8),
             "detection_average": (message + Fraction(7, 8)) / 2}
    assert {c.name: c.derived for c in intercept_resend_analysis().claims} == exact


@pytest.mark.parametrize("m", sorted(MESSAGE_MARKS))
def test_max_cheat_detect_outcome_prob_is_37_in_128_for_every_encoded_state(m):
    for k in range(1, 65):
        claims = {c.name: c for c in intercept_enumeration(k, m).claims}
        claim = claims["max_cheat_detect_outcome_prob"]
        assert (claim.derived, claim.claimed, claim.matches) == (37 / 128, 37 / 128, True), k


def test_intercept_enumeration_per_guess_table():
    report = intercept_enumeration()
    per = report.details["per_guess"]
    assert len(per) == 64
    assert per[0]["top_p"] == pytest.approx(121 / 128, abs=1e-6)
    assert per[0]["success_strict"] is True


def test_gram_computational_basis():
    g, ortho = gram_check(computational_basis())
    assert ortho
    assert np.array_equal(g, np.eye(8))


def test_gram_sign_flip_basis_not_orthonormal():
    basis = sign_flip_basis()
    g, ortho = gram_check(basis)
    assert not ortho
    off = g[~np.eye(8, dtype=bool)]
    assert np.all(off == 0.5)
    assert np.all(np.diag(g) == 1)


def test_gram_phase_pattern_basis_not_orthonormal():
    g, ortho = gram_check(phase_pattern_basis())
    assert not ortho
    # entries 3 and 4 are printed identically, so their overlap is 1
    assert g[2, 3] == 1


def test_gram_single_vector():
    g, ortho = gram_check(computational_basis()[:1])
    assert ortho and g.shape == (1, 1)


def test_intercept_resend_fractions():
    report = intercept_resend_analysis()
    claims = {c.name: c for c in report.claims}
    assert claims["detection_message_round"].derived == pytest.approx(5 / 8, abs=0)
    assert claims["detection_cheat_round"].derived == pytest.approx(7 / 8, abs=0)
    assert claims["detection_average"].derived == pytest.approx(3 / 4, abs=0)
    assert all(c.matches for c in report.claims)


def test_entangle_measure_after_cnot():
    report = entangle_measure()
    states = dict(report.intermediate_states)
    entangled = states["after_entangling_cnot"]
    expected = np.zeros(16, dtype=complex)
    for j, sign in [(0, 1), (1, 1), (2, 1), (3, 1)]:
        expected[2 * j] = sign / SQRT8
    for j, sign in [(4, 1), (5, 1), (6, -1), (7, 1)]:
        expected[2 * j + 1] = sign / SQRT8
    assert entangled == pytest.approx(expected, abs=1e-12)


def test_entangle_measure_after_diffusion():
    report = entangle_measure()
    st = dict(report.intermediate_states)["after_first_diffusion"]
    c = 1 / (4 * np.sqrt(2))
    expected = np.zeros(16, dtype=complex)
    for j in (4, 5, 6, 7):
        expected[2 * j] = 2 * c
    for j, coef in [(0, 1), (1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (6, 3), (7, -1)]:
        expected[2 * j + 1] = coef * c
    assert st == pytest.approx(expected, abs=1e-12)


def test_entangle_measure_after_oracle():
    report = entangle_measure()
    st = dict(report.intermediate_states)["after_mark_oracle"]
    c = 1 / (4 * np.sqrt(2))
    expected = np.zeros(16, dtype=complex)
    for j, coef in [(4, 2), (5, 2), (6, -2), (7, 2)]:
        expected[2 * j] = coef * c
    for j, coef in [(0, 1), (1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (6, -3), (7, -1)]:
        expected[2 * j + 1] = coef * c
    assert st == pytest.approx(expected, abs=1e-12)
    # ancilla branches carry 16/32 each
    probs = np.abs(st) ** 2
    assert probs[0::2].sum() == pytest.approx(0.5, abs=1e-12)
    assert probs[1::2].sum() == pytest.approx(0.5, abs=1e-12)


def test_entangle_measure_detection_claim():
    report = entangle_measure()
    (claim,) = report.claims
    assert claim.derived == pytest.approx(13 / 32, abs=1e-12)
    assert claim.claimed == pytest.approx(5 / 32)
    assert not claim.matches  # the published 5/32 is not reproduced


def test_entangle_measure_mark_auto_choice():
    report = entangle_measure()
    assert report.details["M"] == "110"


def test_entangle_measure_control_positions():
    for control in (1, 2, 3):
        report = entangle_measure(control_qubit=control)
        for _, s in report.intermediate_states:
            assert np.abs(s).max() <= 1 + 1e-12
            assert (np.abs(s) ** 2).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        entangle_measure(control_qubit=4)


def _kron(*ops):
    return functools.reduce(np.kron, ops)


I2, X = np.eye(2), np.array([[0, 1], [1, 0]])
P0, P1 = np.diag([1, 0]), np.diag([0, 1])
LABELS = [format(i, "03b") for i in range(8)]


@pytest.mark.parametrize("control", [1, 2, 3])
def test_entangle_measure_matches_kron_reference(control):
    # Reference built from full 16x16 operators on qubits (1, 2, 3, ancilla).
    ops0, ops1 = [I2] * 4, [I2, I2, I2, X]
    ops0[control - 1], ops1[control - 1] = P0, P1
    cnot = _kron(*ops0) + _kron(*ops1)
    for k in range(1, 65):
        sk = initial_state(k).amps
        diffusion = _kron(2 * np.outer(sk, sk.conj()) - np.eye(8), I2)
        for m in LABELS:
            encoded = sk.copy()
            encoded[int(m, 2)] *= -1
            entangled = cnot @ _kron(encoded, [1, 0])
            diffused = diffusion @ entangled
            marg = (np.abs(diffused) ** 2).reshape(8, 2).sum(axis=1)
            M = LABELS[min(np.flatnonzero(marg >= marg.max() - 1e-12))]
            mark = np.eye(8)
            mark[int(M, 2), int(M, 2)] = -1
            after_oracle = _kron(mark, I2) @ diffused
            final = (np.abs(after_oracle) ** 2).reshape(8, 2).sum(axis=1)

            report = entangle_measure(k, m, control)
            states = dict(report.intermediate_states)
            assert report.details["M"] == M, (k, m)
            for name, want in [
                ("after_entangling_cnot", entangled),
                ("after_first_diffusion", diffused),
                ("after_mark_oracle", after_oracle),
            ]:
                assert np.max(np.abs(states[name] - want)) <= 1e-12, (k, m, name)
            assert np.max(np.abs(report.outcome_dist - final)) <= 1e-12, (k, m)


def test_marginal_over_ancilla():
    # The reported distribution is the displayed 16-amplitude final state's
    # distribution summed over the ancilla, bit for bit.
    for control in (1, 2, 3):
        for k in range(1, 65):
            for m in LABELS:
                report = entangle_measure(k, m, control)
                after_oracle = dict(report.intermediate_states)["after_mark_oracle"]
                traced = (np.abs(after_oracle) ** 2).reshape(8, 2).sum(axis=1)
                assert report.outcome_dist.tobytes() == traced.tobytes(), (k, m, control)


def test_report_json_round_trip():
    report = entangle_measure()
    doc = json.loads(report.to_json())
    assert doc["attack_kind"] == "entangle_measure"
    assert len(doc["intermediate_states"]) == 3
    assert doc["claims"][0]["matches"] is False
    # amplitudes are (re, im) pairs at 12 significant digits
    amp = doc["intermediate_states"][0]["amplitudes"][0]
    assert amp == [0.353553390593, 0.0]


def _json_floats(x):
    if isinstance(x, float):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _json_floats(v)
    elif isinstance(x, list):
        for v in x:
            yield from _json_floats(v)


@pytest.mark.parametrize("control", [1, 2, 3])
def test_entangle_report_json_has_no_signed_zero(control):
    for k in range(1, 65):
        for m in LABELS:
            doc = json.loads(entangle_measure(k, m, control).to_json())
            negative_zeros = [x for x in _json_floats(doc) if x == 0 and np.signbit(x)]
            assert not negative_zeros, (k, m)
