"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import itertools
import json

import numpy as np
import pytest

from groverqss.attacks import (
    computational_basis,
    entangle_measure,
    gram_check,
    intercept_resend_analysis,
    intercept_wrong_op,
    sign_flip_basis,
)
from groverqss.catalog import (
    MESSAGE_MARKS,
    diff_table,
    generate_table1,
    generate_table2,
    initial_state,
    published_table1,
    published_table2,
)
from groverqss.cli import main as cli_main
from groverqss.grover import (
    argmax_labels,
    collective_op,
    decode_phase1,
    decode_phase2,
    diffusion_apply,
    encode,
    oracle_apply,
    sample,
)
from groverqss.protocol import RoundConfig, run_round, run_session
from groverqss.statevec import StateVector

SQRT8 = np.sqrt(8.0)
TOL = 1e-12


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_01_first_diffusion_exact():
    s1 = initial_state(1)
    st = diffusion_apply(encode(s1, "110"), s1)
    expected = np.full(8, 1 / (2 * SQRT8), dtype=complex)
    expected[6] = 5 / (2 * SQRT8)
    assert np.max(np.abs(st.amps - expected)) <= TOL
    p = np.abs(st.amps[6]) ** 2
    assert p == pytest.approx(25 / 32, abs=TOL)
    assert round(p, 3) == 0.781
    report("1 (first diffusion amplitudes, p(110)=25/32)")


def test_criterion_02_full_pipeline_exact():
    s1 = initial_state(1)
    _, final, dist = collective_op(encode(s1, "110"), s1)
    expected = np.full(8, -1 / (4 * SQRT8), dtype=complex)
    expected[6] = 11 / (4 * SQRT8)
    assert np.max(np.abs(final.amps - expected)) <= TOL
    assert dist[6] == pytest.approx(121 / 128, abs=TOL)
    report("2 (full pipeline amplitudes, p(110)=121/128)")


def test_criterion_03_table1_spot_rows_and_diff():
    rows = {r.k: r for r in generate_table1()}
    assert rows[1].phase1_outcomes == frozenset({"110"})
    assert (rows[1].phase1_prob, rows[1].final_prob) == (0.781, 0.945)
    assert rows[2].phase1_outcomes == frozenset({"000", "010", "100"})
    assert rows[2].phase1_prob == 0.281
    assert rows[9].phase1_outcomes == frozenset({"111"})
    assert rows[9].phase1_prob == 0.281
    assert rows[9].final_prob == 0.195 and len(rows[9].final_outcomes) == 5
    assert (rows[10].phase1_prob, rows[10].final_prob) == (0.406, 0.477)
    assert rows[10].final_outcomes == frozenset({"001"})
    assert rows[17].phase1_outcomes == frozenset({"110"})
    assert (rows[17].phase1_prob, rows[17].final_prob) == (0.406, 0.477)
    diffs = diff_table(generate_table1(), published_table1())
    print(f"\ntable 1 diff report: {json.dumps(diffs)}")
    assert diffs == []  # full reproduction; mismatches would be findings
    report("3 (table 1 spot rows k=1,2,9,10,17; full diff empty)")


def test_criterion_04_table2_spot_rows_and_diff():
    rows = {r.k: r for r in generate_table2()}
    assert rows[1].final_outcomes == frozenset({"110"}) and rows[1].final_prob == 0.945
    assert rows[9].final_outcomes == frozenset({"000"}) and rows[9].final_prob == 0.289
    assert rows[17].final_outcomes == frozenset({"110"}) and rows[17].final_prob == 0.477
    diffs = diff_table(generate_table2(), published_table2())
    print(f"\ntable 2 diff report (findings, not failures): {json.dumps(diffs)}")
    assert {d["k"] for d in diffs} <= {46}  # known published typo, spot rows clean
    report("4 (table 2 spot rows k=1,9,17; diff report generated)")


def test_criterion_05_intercept_closed_forms():
    wrong_key_diffused = (-1 / (2 * SQRT8)) * np.array(
        [2 + 1j, 1, 1, 2 - 1j, 1, 2 - 1j, -(2 + 1j), 3], dtype=complex
    )
    q = dict(intercept_wrong_op(1, "110", 9).intermediate_states)["after_first_diffusion"]
    assert np.max(np.abs(q - wrong_key_diffused)) <= TOL

    # the second intermediate is printed with an extra global -1; the derived
    # state (verified against the same pipeline that reproduces the final
    # states below) is +1/(2*sqrt8) times the printed bracket
    swapped_diffused = (1 / (2 * SQRT8)) * np.array(
        [-2 + 1j, -1j, -1j, 2 + 1j, -1j, 2 + 1j, -2 + 1j, 3j], dtype=complex
    )
    r = dict(intercept_wrong_op(9, "110", 1).intermediate_states)["after_first_diffusion"]
    assert np.max(np.abs(r - swapped_diffused)) <= TOL

    wrong_mark_final = (1 / (4 * SQRT8)) * np.array(
        [4 + 3j, 1, 1, 4 - 3j, 1, 4 - 3j, -(4 + 3j), -5], dtype=complex
    )
    rep_wm = intercept_wrong_op(1, "110", 9, M_guess="111")
    fin_wm = dict(rep_wm.intermediate_states)["final"]
    assert np.max(np.abs(fin_wm - wrong_mark_final)) <= TOL
    top_wm = argmax_labels(rep_wm.outcome_dist)
    assert top_wm == ["000", "011", "101", "110", "111"]
    assert round(float(rep_wm.outcome_dist.max()), 3) == 0.195

    # printed |101> coefficient (4-3i) corrected to (4+3i): it must equal the
    # |011> coefficient, which the oracle and diffusion treat identically
    swapped_wrong_mark_final = (-1 / (4 * SQRT8)) * np.array(
        [-4 + 3j, -1j, -1j, 4 + 3j, -1j, 4 + 3j, -4 + 3j, -5j], dtype=complex
    )
    rep_swm = intercept_wrong_op(9, "110", 1, M_guess="111")
    fin_swm = dict(rep_swm.intermediate_states)["final"]
    assert np.max(np.abs(fin_swm - swapped_wrong_mark_final)) <= TOL
    assert round(float(rep_swm.outcome_dist.max()), 3) == 0.195

    correct_mark_final = (1 / (4 * SQRT8)) * np.array(
        [6 + 1j, 3 + 2j, 3 + 2j, 2 - 1j, 3 + 2j, 2 - 1j, 2 + 3j, 5 - 2j], dtype=complex
    )
    rep_cm = intercept_wrong_op(1, "110", 9, M_guess="110")
    assert np.max(np.abs(dict(rep_cm.intermediate_states)["final"] - correct_mark_final)) <= TOL
    assert round(float(rep_cm.outcome_dist.max()), 3) == 0.289
    assert argmax_labels(rep_cm.outcome_dist) == ["000"]

    swapped_correct_mark_final = (1 / (4 * SQRT8)) * np.array(
        [6 - 1j, 2 + 3j, 2 + 3j, -(2 + 1j), 2 + 3j, -(2 + 1j), -2 + 3j, 2 - 5j],
        dtype=complex,
    )
    rep_scm = intercept_wrong_op(9, "110", 1, M_guess="110")
    assert np.max(np.abs(dict(rep_scm.intermediate_states)["final"] - swapped_correct_mark_final)) <= TOL
    assert round(float(rep_scm.outcome_dist.max()), 3) == 0.289
    report("5 (intercept closed-form states, 0.195 five-way and 0.289 top outcomes)")


def test_criterion_06_entangle_measure_chain():
    rep = entangle_measure()
    states = dict(rep.intermediate_states)
    c12 = 1 / (4 * np.sqrt(2))

    entangled = np.zeros(16, dtype=complex)
    for j in (0, 1, 2, 3):
        entangled[2 * j] = 1 / SQRT8
    for j, sign in [(4, 1), (5, 1), (6, -1), (7, 1)]:
        entangled[2 * j + 1] = sign / SQRT8
    assert np.max(np.abs(states["after_entangling_cnot"] - entangled)) <= TOL

    after_diff = np.zeros(16, dtype=complex)
    for j in (4, 5, 6, 7):
        after_diff[2 * j] = 2 * c12
    for j, coef in [(0, 1), (1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (6, 3), (7, -1)]:
        after_diff[2 * j + 1] = coef * c12
    assert np.max(np.abs(states["after_first_diffusion"] - after_diff)) <= TOL

    final = np.zeros(16, dtype=complex)
    for j, coef in [(4, 2), (5, 2), (6, -2), (7, 2)]:
        final[2 * j] = coef * c12
    for j, coef in [(0, 1), (1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (6, -3), (7, -1)]:
        final[2 * j + 1] = coef * c12
    assert np.max(np.abs(states["after_mark_oracle"] - final)) <= TOL

    probs = np.abs(final) ** 2
    assert probs.sum() == pytest.approx(1.0, abs=TOL)
    assert probs[0::2].sum() == pytest.approx(16 / 32, abs=TOL)
    assert probs[1::2].sum() == pytest.approx(16 / 32, abs=TOL)

    (claim,) = rep.claims
    print(
        f"\nentangle-measure detection: derived={claim.derived} "
        f"claimed={claim.claimed} matches={claim.matches}"
    )
    assert claim.derived == pytest.approx(13 / 32, abs=TOL)
    assert claim.claimed == pytest.approx(5 / 32)
    assert claim.matches is False  # reported, not asserted as ground truth
    report("6 (entangle-measure chain; derived detection reported next to 5/32)")


def test_criterion_07_gram_audit():
    g, ortho = gram_check(sign_flip_basis())
    assert not ortho
    off = g[~np.eye(8, dtype=bool)]
    assert np.all(off == 0.5)
    g2, ortho2 = gram_check(computational_basis())
    assert ortho2 and np.array_equal(g2, np.eye(8))
    report("7 (gram audit: published vectors overlap 1/2, computational = identity)")


def test_criterion_08_intercept_resend_fractions():
    rep = intercept_resend_analysis()
    derived = {c.name: c.derived for c in rep.claims}
    assert derived["detection_message_round"] == 5 / 8
    assert derived["detection_cheat_round"] == 7 / 8
    assert derived["detection_average"] == 3 / 4
    report("8 (intercept-resend detection 5/8, 7/8, average 3/4)")


def test_criterion_09_sampling_statistics(capsys):
    s1 = initial_state(1)
    _, final, _ = collective_op(encode(s1, "110"), s1)
    counts = sample(final, 8192, seed=7)
    assert abs(counts.frequency("110") - 121 / 128) < 0.01
    assert counts == sample(final, 8192, seed=7)
    # CLI reruns with the same seed are byte-identical
    cli_main(["sample", "--k", "1", "--m", "110", "--shots", "8192", "--seed", "7"])
    out1 = capsys.readouterr().out
    cli_main(["sample", "--k", "1", "--m", "110", "--shots", "8192", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    report("9 (8192-shot empirical p within 0.01 of 121/128; byte-identical reruns)")


def test_criterion_10_protocol_end_to_end():
    for seed in range(100):
        result = run_session("110011101", seed=seed)
        assert result.verdict == "accept"
        assert result.recovered_secret == "110011101"
    # any lie pattern in any round is rejected: 8 marks x 7 non-empty patterns
    marks = [format(i, "03b") for i in range(8)]
    patterns = [
        frozenset(c)
        for r in (1, 2, 3)
        for c in itertools.combinations(("P1", "P2", "P3"), r)
    ]
    assert len(marks) * len(patterns) == 56
    for m in marks:
        kind = "message" if m in MESSAGE_MARKS else "cheat_detect"
        for liars in patterns:
            t = run_round(RoundConfig(k=7, marked=m, round_kind=kind, liars=liars))
            assert t.verdict.data["verdict"] == "reject"
    report("10 (100/100 honest sessions recover the secret; 56/56 lies rejected)")


def test_criterion_11_property_suite():
    rng = np.random.default_rng(2024)
    for i in range(1000):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(a / np.linalg.norm(a))
        m = format(int(rng.integers(8)), "03b")
        about = initial_state(int(rng.integers(1, 65)))
        o = oracle_apply(s, m)
        d = diffusion_apply(s, about)
        assert abs(np.linalg.norm(o.amps) - 1) <= TOL
        assert abs(np.linalg.norm(d.amps) - 1) <= TOL
        assert oracle_apply(o, m).amps.tobytes() == s.amps.tobytes()
        assert np.max(np.abs(diffusion_apply(d, about).amps - s.amps)) <= TOL
    # 64 catalog states x 3 message marks, matching decode: unique top = mark
    for k in range(1, 65):
        sk = initial_state(k)
        for m in sorted(MESSAGE_MARKS):
            _, _, dist = collective_op(encode(sk, m), sk)
            assert argmax_labels(dist) == [m]
    # global-phase invariance of the argmax selection
    for k in (1, 9, 17, 46):
        encoded = encode(initial_state(k), "110")
        rotated = StateVector(np.exp(0.7j) * encoded.amps)
        base = decode_phase1(encoded, initial_state(k))
        rot = decode_phase1(rotated, initial_state(k))
        assert base.argmax_set == rot.argmax_set and base.chosen_M == rot.chosen_M
    report("11 (1000-state reflection properties; 192 exhaustive decodes; phase invariance)")
