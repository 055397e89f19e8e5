import numpy as np
import pytest

from groverqss.catalog import initial_state
from groverqss.statevec import (
    ATOL,
    StateVector,
    all_labels,
    basis_state,
    distribution,
    index_to_label,
    inner,
    label_to_index,
    state,
)

SQRT2 = np.sqrt(2.0)


def test_inner_self_overlap():
    plus3 = initial_state(1)
    assert inner(plus3, plus3) == pytest.approx(1.0, abs=ATOL)


def test_inner_orthogonal():
    assert inner(basis_state("000"), basis_state("111")) == pytest.approx(0.0, abs=ATOL)


def test_inner_plus_minus_i():
    # hand oracle: (1/2)(<0|+<1|)(|0> - i|1>) = (1 - i)/2; conjugation on the
    # bra side gives <+|-i> = (1 - i)/2 and <-i|+> = (1 + i)/2
    plus, minus_i = state(np.array([1, 1]) / SQRT2), state(np.array([1, -1j]) / SQRT2)
    got = inner(plus, minus_i)
    assert got == pytest.approx((1 - 1j) / 2, abs=ATOL)
    got = inner(minus_i, plus)
    assert got == pytest.approx((1 + 1j) / 2, abs=ATOL)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(basis_state("00"), basis_state("000"))


def test_distribution_uniform():
    plus3 = initial_state(1)
    assert distribution(plus3) == pytest.approx(np.full(8, 1 / 8), abs=ATOL)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = state(a / np.linalg.norm(a))
        assert distribution(s).sum() == pytest.approx(1.0, abs=ATOL)


def test_label_index_round_trip():
    for n in (3, 4):
        for lab in all_labels(n):
            assert index_to_label(label_to_index(lab), n) == lab
    assert label_to_index("110") == 6


def test_label_validation():
    with pytest.raises(ValueError):
        label_to_index("10a")
    with pytest.raises(ValueError):
        label_to_index("10101")
    with pytest.raises(ValueError):
        index_to_label(8, 3)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([np.nan, 0]))


def test_amps_immutable():
    s = basis_state("00")
    with pytest.raises(ValueError):
        s.amps[0] = 5
