import json
import math
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from groverqss import catalog
from groverqss.catalog import (
    CHEAT_DETECT_MARKS,
    MESSAGE_MARKS,
    PUBLISHED_M_OVERRIDES,
    decode_grid,
    diff_table,
    generate_table1,
    generate_table2,
    initial_state,
    phase_table,
    published_table1,
    published_table2,
    render_table,
    round3,
)
from groverqss.statevec import PHASES

SQRT8 = np.sqrt(8.0)


def build_state(k):
    """Reference S_k: the Kronecker product of the three normalised
    eigenvectors named on catalog line k."""
    line_k, *symbols = catalog._CATALOG_TEXT.splitlines()[k - 1].split()
    assert int(line_k) == k
    a, b, c = (np.array([1, PHASES[s]], dtype=np.complex128) / np.sqrt(2.0) for s in symbols)
    return np.kron(np.kron(a, b), c)


@pytest.mark.parametrize(
    "k,expected",
    [
        (1, [1, 1, 1, 1, 1, 1, 1, 1]),  # + + +
        (9, [1, 1j, 1j, -1, 1j, -1, -1, -1j]),  # +i +i +i
        (17, [1, 1j, 1, 1j, 1, 1j, 1, 1j]),  # + + +i
        (51, [1, -1j, -1j, -1, 1, -1j, -1j, -1]),  # + -i -i
        (64, [1, -1j, -1, 1j, -1j, -1, 1j, 1]),  # -i - -i
    ],
)
def test_catalog_entries(k, expected):
    assert np.array_equal(phase_table()[k - 1], expected)


def test_catalog_out_of_range():
    for k in (0, 65):
        with pytest.raises(ValueError):
            initial_state(k)


def test_initial_state_is_built_once_from_build_state():
    for k in range(1, 65):
        s = initial_state(k)
        assert s.amps.tobytes() == build_state(k).tobytes()
        assert initial_state(k) is s
        with pytest.raises(ValueError):
            s.amps[0] = 0
    with pytest.raises(ValueError):
        phase_table()[0, 0] = 0


BAD_K = [(0, ValueError), (65, ValueError), (1.0, TypeError), ("1", TypeError)]


@pytest.mark.parametrize("k,error", BAD_K)
def test_initial_state_rejects_bad_k_with_a_cold_cache(k, error, monkeypatch):
    monkeypatch.setattr(catalog, "_STATES", {})
    with pytest.raises(error):
        initial_state(k)
    assert catalog._STATES == {}


@pytest.mark.parametrize("k,error", BAD_K)
def test_initial_state_rejects_bad_k_with_a_warm_cache(k, error):
    for good in range(1, 65):
        initial_state(good)
    with pytest.raises(error):
        initial_state(k)


# Counts StateVector.__post_init__ calls with a profile hook, which is set
# before the package's first import.
_COUNT_CONSTRUCTS_AT_IMPORT = """
import sys
calls = 0
def profile(frame, event, arg):
    global calls
    code = frame.f_code
    if event == "call" and code.co_name == "__post_init__":
        calls += code.co_filename.endswith("statevec.py")
sys.setprofile(profile)
import groverqss, groverqss.cli
sys.setprofile(None)
print(calls)
"""


def test_import_builds_no_state(src_env):
    proc = subprocess.run([sys.executable, "-c", _COUNT_CONSTRUCTS_AT_IMPORT],
                          capture_output=True, text=True, env=src_env, check=True, timeout=60)
    assert proc.stdout.split() == ["0"]


def test_catalog_axes_distinct():
    assert len({tuple(row) for row in phase_table()}) == 64


def test_catalog_states_pairwise_distinct():
    states = [initial_state(k).amps for k in range(1, 65)]
    for i in range(64):
        for j in range(i + 1, 64):
            assert np.max(np.abs(states[i] - states[j])) > 1e-9


def test_build_state_k9():
    expected = np.array([1j ** bin(j).count("1") for j in range(8)]) / SQRT8
    assert initial_state(9).amps == pytest.approx(expected, abs=1e-12)


def test_build_state_normalized():
    for k in range(1, 65):
        assert np.linalg.norm(initial_state(k).amps) == pytest.approx(1.0, abs=1e-12)


def test_marked_sets_partition():
    all_labels = {format(i, "03b") for i in range(8)}
    assert MESSAGE_MARKS | CHEAT_DETECT_MARKS == all_labels
    assert not MESSAGE_MARKS & CHEAT_DETECT_MARKS


def decimal_round3(x):
    """Half-up rounding to 3 decimals through ``decimal``, on the float's
    exact value and on its shortest repr."""
    return tuple(float(Decimal(d).quantize(Decimal("0.001"), ROUND_HALF_UP))
                 for d in (x, repr(x)))


def test_round3_half_up():
    assert round3(25 / 32) == 0.781
    assert round3(121 / 128) == 0.945
    assert round3(0.0005) == 0.001
    # Every probability of the decode is k/128 or k/2048 (0.0625 and the
    # other odd multiples of 1/16 are ties); their neighbours one ulp away
    # stand for float noise.
    values = {v for den in (128, 2048) for k in range(den + 1)
              for v in (k / den, math.nextafter(k / den, -1), math.nextafter(k / den, 2))}
    values = sorted(v for v in values if v >= 0)
    assert len(values) == 6146
    assert [v for v in values if decimal_round3(v) != (round3(v),) * 2] == []


def test_table1_reproduces_publication_exactly():
    # with the two mark overrides the whole published table is reproduced
    assert diff_table(generate_table1(), published_table1()) == []


def test_table1_spot_rows():
    rows = {r.k: r for r in generate_table1()}
    assert rows[1].phase1_prob == 0.781 and rows[1].final_prob == 0.945
    assert rows[1].final_outcomes == frozenset({"110"})
    assert rows[2].phase1_outcomes == frozenset({"000", "010", "100"})
    assert rows[10].phase1_prob == 0.406 and rows[10].final_prob == 0.477
    assert rows[10].chosen_M == "001"


def test_table1_mark_overrides_needed():
    # the lexicographic tie-break disagrees with the published marks on
    # k=7, 8 only, and each published mark is in its row's phase-1 tie set
    phase1, _ = decode_grid(1, "110")
    published = published_table1()
    differ = {r.k for p1, r in zip(phase1, published) if p1.chosen_M != r.chosen_M}
    assert differ == set(PUBLISHED_M_OVERRIDES)
    for k, M in PUBLISHED_M_OVERRIDES.items():
        assert M in phase1[k - 1].argmax_set


def test_table1_matching_row_near_one():
    for m in sorted(MESSAGE_MARKS):
        for enc_k in (1, 9, 33):
            rows = generate_table1(enc_k=enc_k, m=m)
            assert rows[enc_k - 1].final_prob > 0.9


def test_table2_single_published_typo():
    # the publication prints {011,101} for k=46; the derivation gives {011,100}
    diffs = diff_table(generate_table2(), published_table2())
    assert len(diffs) == 1
    assert diffs[0]["k"] == 46
    assert diffs[0]["fields"]["final_outcomes"]["computed"] == ["011", "100"]


def test_table2_spot_rows():
    rows = {r.k: r for r in generate_table2()}
    assert rows[1].final_outcomes == frozenset({"110"}) and rows[1].final_prob == 0.945
    assert rows[9].final_outcomes == frozenset({"000"}) and rows[9].final_prob == 0.289
    assert rows[16].final_outcomes == frozenset({"000"}) and rows[16].final_prob == 0.289


def test_table1_against_dense_matrix_oracle():
    # recompute every row with explicit 8x8 reflection matrices
    def oracle_u(idx):
        u = np.eye(8, dtype=complex)
        u[idx, idx] = -1
        return u

    def diffusion_u(s):
        return 2 * np.outer(s.amps, s.amps.conj()) - np.eye(8)

    enc = oracle_u(6) @ initial_state(1).amps
    for row in generate_table1():
        sk = initial_state(row.k)
        v1 = diffusion_u(sk) @ enc
        p1 = np.abs(v1) ** 2
        tied = {format(i, "03b") for i in range(8) if p1[i] >= p1.max() - 1e-9}
        assert tied == row.phase1_outcomes
        assert round3(p1.max()) == row.phase1_prob
        v2 = diffusion_u(sk) @ oracle_u(int(row.chosen_M, 2)) @ v1
        p2 = np.abs(v2) ** 2
        tied2 = {format(i, "03b") for i in range(8) if p2[i] >= p2.max() - 1e-9}
        assert tied2 == row.final_outcomes
        assert round3(p2.max()) == row.final_prob


def test_diff_table_trivial_cases():
    rows = generate_table2()
    assert diff_table(rows, rows) == []
    perturbed = list(rows)
    perturbed[3] = type(rows[3])(
        k=rows[3].k,
        phase1_outcomes=None,
        phase1_prob=None,
        chosen_M=rows[3].chosen_M,
        final_outcomes=rows[3].final_outcomes,
        final_prob=0.5,
    )
    diffs = diff_table(perturbed, rows)
    assert len(diffs) == 1 and "final_prob" in diffs[0]["fields"]


def test_render_csv():
    text = render_table(generate_table1(), "csv")
    lines = text.splitlines()
    assert lines[0] == "k,phase1_outcomes,phase1_p,M,final_outcomes,final_p"
    assert lines[1] == "1,110,0.781,110,110,0.945"
    assert len(lines) == 65


def test_render_json():
    rows = json.loads(render_table(generate_table2(), "json"))
    assert rows[0] == {
        "k": 1,
        "phase1_outcomes": None,
        "phase1_p": None,
        "M": "110",
        "final_outcomes": ["110"],
        "final_p": 0.945,
    }


def test_render_markdown():
    text = render_table(generate_table1(), "markdown")
    assert text.startswith("| k ")
    assert len(text.splitlines()) == 66


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_table(generate_table1(), "yaml")
