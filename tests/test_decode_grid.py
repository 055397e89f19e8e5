"""The batched decode grid against the per-row decode, over the whole catalog.

``catalog.decode_grid`` runs phase 2 exactly, as one stacked pass per mark
choice.  Every (enc_k, m) is checked here: the final distributions must
equal a per-row exact reference and keep the tie sets of the validated
per-row float reference, and the tables and the intercept audit built
from them must equal those built by the per-row float loop that the grid
replaced.  The exact kernel ``decode_relative`` is held to the same grid
over every (enc_k, m, k).
"""

import functools
import json
import math

import numpy as np
import pytest
from test_boundary import MARKS, reference_diffusion, reference_oracle
from test_symmetry import exact_step, squared_norms

from groverqss import attacks
from groverqss.catalog import (
    MESSAGE_MARKS,
    PUBLISHED_M_OVERRIDES,
    TableRow,
    decode_grid,
    generate_table1,
    generate_table2,
    initial_state,
    phase_table,
    round3,
)
from groverqss.grover import (
    argmax_labels,
    decode_phase1,
    decode_phase2,
    decode_relative,
    decode_relative_rows,
    encode,
)
from groverqss.statevec import LABELS, distribution, label_to_index

#: Encoded states whose grid is also checked under all 8 forced marks, each
#: for one m, and whose tables and audit are checked for each message mark.
SPREAD = range(1, 65, 8)


def forced_marks(enc_k, m):
    return MARKS if enc_k in SPREAD and m == MARKS[enc_k // 8] else []


def per_row_grid(enc_k, m, M=None, overrides=None):
    """The per-row decode_grid loop: one decode_phase2 per catalog state."""
    overrides = overrides or {}
    encoded = encode(initial_state(enc_k), m)
    rows = []
    for k in range(1, 65):
        sk = initial_state(k)
        p1 = decode_phase1(encoded, sk, choose=overrides.get(k))
        rows.append((k, p1, decode_phase2(p1.state, p1.chosen_M if M is None else M, sk)[1]))
    return rows


def per_row_decode_grid(enc_k, m, marks=(None,), overrides=None):
    """decode_grid's results, built from the per-row loop."""
    rows = [per_row_grid(enc_k, m, M, overrides) for M in marks]
    return [p1 for _, p1, _ in rows[0]], [np.array([f for *_, f in r]) for r in rows]


def per_row_table(rows, M=None):
    return [
        TableRow(
            k=k,
            phase1_outcomes=p1.argmax_set if M is None else None,
            phase1_prob=round3(p1.max_prob) if M is None else None,
            chosen_M=p1.chosen_M if M is None else M,
            final_outcomes=frozenset(argmax_labels(fdist)),
            final_prob=round3(float(fdist.max())),
        )
        for k, p1, fdist in rows
    ]


def per_row_intercept_details(k_true, m):
    """``details`` and derived claims of the intercept audit, row by row."""
    per_guess = []
    strict = inclusive = correct_M = 0
    max_cheat = 0.0
    for k, p1, fdist in per_row_grid(k_true, m):
        tied = argmax_labels(fdist)
        top_p = float(fdist.max())
        s_strict = tied == [m] and top_p > 0.5
        s_incl = m in tied
        strict += s_strict
        inclusive += s_incl
        correct_M += p1.chosen_M == m
        forced = decode_phase2(p1.state, m, initial_state(k))[1].tolist()
        for label in ("000", "001", "010", "100", "111"):
            max_cheat = max(max_cheat, forced[label_to_index(label)])
        per_guess.append({"k": k, "M": p1.chosen_M, "final_argmax": tied,
                          "top_p": round(top_p, 6), "success_strict": bool(s_strict),
                          "success_inclusive": bool(s_incl)})
    details = {"per_guess": per_guess, "success_strict_count": strict,
               "success_inclusive_count": inclusive}
    return details, [inclusive / 64, correct_M / 64, 1 - inclusive / 64, max_cheat]


def reference_final(p1_state, M, sk):
    return distribution(reference_diffusion(reference_oracle(p1_state, M), sk)).tolist()


def exact_final(r, m, M):
    """The final distribution of the relative-phase row ``r`` decoded with
    the oracle at m, then at M, in exact dyadics."""
    n2 = exact_step(exact_step(r, label_to_index(m)), label_to_index(M))
    return [p / 2048 for p in squared_norms(n2)]


def within_16_ulps(got, exact):
    return all(abs(g - e) <= 16 * math.ulp(e) for g, e in zip(got, exact))


def within_16_ulps_of_1(got, exact):
    """Within 16 ulps at the scale of a whole distribution.  Off the phase-1
    argmax, a forced mark leaves float entries such as 16/2048 up to 34.5 of
    their own ulps from the exact value."""
    return all(abs(g - e) <= 16 * math.ulp(1.0) for g, e in zip(got, exact))


@functools.cache
def grids(enc_k, m):
    """Each decode grid the tests build for (enc_k, m), with its overrides:
    auto M, forced m and any spread marks, plus table 1's overrides at (1, 110)."""
    forced = forced_marks(enc_k, m)
    out = [(decode_grid(enc_k, m, (None, m, *forced)), {})]
    if (enc_k, m) == (1, "110"):
        out.append((decode_grid(enc_k, m, (None,), PUBLISHED_M_OVERRIDES), PUBLISHED_M_OVERRIDES))
    return out


@pytest.mark.parametrize("enc_k", range(1, 65))
def test_batched_phase2_equals_the_per_row_reference(enc_k):
    table = phase_table()
    rows = (table.conj() * table[enc_k - 1]).tolist()
    for m in MARKS:
        forced = forced_marks(enc_k, m)
        grids_m = grids(enc_k, m)
        for (phase1, finals), overrides in grids_m:
            if overrides:  # table 1's rows k = 7, 8
                assert [p1.chosen_M for p1 in phase1[6:8]] == ["001", "011"]
            assert [f.shape for f in finals] == [(64, 8)] * len(finals)
            for k, p1 in enumerate(phase1, start=1):
                marks = [p1.chosen_M, m, *forced][:len(finals)]
                floats = {M: reference_final(p1.state, M, initial_state(k)) for M in set(marks)}
                for f, M in zip(finals, marks):
                    got = f[k - 1].tolist()
                    assert got == exact_final(rows[k - 1], m, M)
                    assert argmax_labels(f[k - 1]) == argmax_labels(np.array(floats[M]))
                    close = within_16_ulps if M == p1.chosen_M else within_16_ulps_of_1
                    assert close(floats[M], got)
                    assert sum(p * 2048 for p in got) == 2048
        # The honest decoder recovers m as the unique most likely outcome.
        auto = grids_m[0][0][1][0]
        assert argmax_labels(auto[enc_k - 1]) == [m]


@pytest.mark.parametrize("enc_k", range(1, 65))
def test_argmax_labels_of_each_grid_matrix_is_the_per_row_cut(enc_k):
    for m in MARKS:
        for (_, finals), _ in grids(enc_k, m):
            for f in finals:
                assert argmax_labels(f) == [argmax_labels(row) for row in f]


@pytest.mark.parametrize("enc_k", SPREAD)
def test_tables_and_audit_equal_the_per_row_loop(enc_k, monkeypatch):
    for m in sorted(MESSAGE_MARKS):
        overrides = PUBLISHED_M_OVERRIDES if (enc_k, m) == (1, "110") else {}
        assert generate_table1(enc_k, m) == per_row_table(per_row_grid(enc_k, m, None, overrides))
        for M in forced_marks(enc_k, m) or [m]:
            assert generate_table2(enc_k, m, M) == per_row_table(per_row_grid(enc_k, m, M), M)
        doc = json.loads(attacks.intercept_enumeration(enc_k, m).to_json())
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "decode_grid", per_row_decode_grid)
            per_row = json.loads(attacks.intercept_enumeration(enc_k, m).to_json())
        # The per-row float loop reaches 37/128 only within rounding, and a
        # claim matches by ==, so its match flag follows that rounding.
        per_row_cheat = per_row["claims"][3].pop("derived")
        assert within_16_ulps([per_row_cheat], [37 / 128])
        assert per_row["claims"][3].pop("matches") == (per_row_cheat == 37 / 128)
        assert doc["claims"][3].pop("derived") == 37 / 128
        assert doc["claims"][3].pop("matches") is True
        assert doc == per_row
        details, derived = per_row_intercept_details(enc_k, m)
        assert doc["details"] == details
        assert [c["derived"] for c in doc["claims"][:3]] == derived[:3]
        assert derived[3] == per_row_cheat
        assert doc["attacker_success_prob"] == derived[0]


@pytest.mark.parametrize("enc_k", range(1, 65))
def test_exact_kernel_equals_the_decode_grid(enc_k):
    """Decoding |S_enc>_m with S_k is the exact decode of the relative phase
    conj(V_k) ⊙ V_enc, for every decoder k and mark m."""
    table = phase_table()
    rows = (table.conj() * table[enc_k - 1]).tolist()
    for m in MARKS:
        (phase1, (auto, *_)), _ = grids(enc_k, m)[0]  # the auto-M grid
        for p1, r, fdist in zip(phase1, rows, auto):
            d = decode_relative(r, m)
            assert (d.argmax_set, d.chosen_M) == (sorted(p1.argmax_set), p1.chosen_M)
            assert d.final_set == argmax_labels(fdist)
            assert within_16_ulps(p1.dist.tolist(), d.phase1_dist)
            assert fdist.tolist() == d.final_dist
            # Unitarity: the integer numerators sum to 128 and 2048.
            assert sum(p * 128 for p in d.phase1_dist) == 128
            assert sum(p * 2048 for p in d.final_dist) == 2048
            assert all(v.real.is_integer() and v.imag.is_integer() for v in d.n2)


def test_exact_kernel_ignores_a_global_phase():
    """c·r decodes like r for every catalog row r, mark m, c in {1, i, -1, -i}
    and phase-2 mark M, automatic or forced: the same tie sets, M and
    probabilities by equality, and n1 and n2 times c."""
    for r in phase_table().tolist():
        for m in MARKS:
            for M in (None, *MARKS):
                d = decode_relative(r, m, M)
                assert M is None or d.chosen_M == M
                for c in (1, 1j, -1, -1j):
                    e = decode_relative([c * v for v in r], m, M)
                    assert e._replace(n1=d.n1, n2=d.n2) == d
                    assert e.n1 == [c * v for v in d.n1]
                    assert e.n2 == [c * v for v in d.n2]


def test_stacked_exact_decode_equals_decode_relative_on_every_row():
    """One ``decode_relative_rows`` call on every relative row conj(V_k) ⊙
    V_enc with every mark (64 × 64 × 8 complex rows), and one on the honest
    int64 stack with every mark, equal ``decode_relative`` row by row by
    ``==``: the same M, final distribution, final tie set and n2."""
    table = phase_table()
    relative = (table.conj()[None, :, :] * table[:, None, :]).reshape(-1, 8)
    stacks = [(np.repeat(relative, 8, axis=0), list(range(8)) * len(relative)),
              (np.ones((8, 8), dtype=np.int64), list(range(8)))]
    for stack, marks in stacks:
        decoded = decode_relative_rows(stack, marks)
        assert len(decoded[0]) == len(stack)
        for r, m, (M, final_dist, ties, n2) in zip(stack.tolist(), marks, zip(*decoded)):
            d = decode_relative(r, MARKS[m])
            final_set = [label for label, tied in zip(LABELS, ties) if tied]
            assert (LABELS[M], final_dist, final_set, n2) == (
                d.chosen_M, d.final_dist, d.final_set, d.n2)
    # The honest stack's n2 stays integer, as in a round's own decode.
    assert all(type(v) is int for row in decoded[3] for v in row)


def test_argmax_labels_of_a_stack_is_the_list_of_each_row():
    rng = np.random.default_rng(5)
    dists = rng.integers(0, 3, size=(40, 8)) / 8.0
    assert argmax_labels(dists) == [argmax_labels(row) for row in dists]


def test_decode_grid_refuses_a_forced_mark_of_the_wrong_length():
    with pytest.raises(ValueError, match="label '0000' is not 3 bits"):
        decode_grid(1, "110", ("0000",))
