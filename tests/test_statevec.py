import numpy as np
import pytest

from groverqss.catalog import initial_state
from groverqss.statevec import (
    LABELS,
    StateVector,
    distribution,
    index_to_label,
    label_to_index,
)


def test_distribution_uniform():
    plus3 = initial_state(1)
    assert distribution(plus3) == pytest.approx(np.full(8, 1 / 8), abs=1e-12)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(a / np.linalg.norm(a))
        assert distribution(s).sum() == pytest.approx(1.0, abs=1e-12)


def test_label_index_round_trip():
    for lab in LABELS:
        assert index_to_label(label_to_index(lab)) == lab
    assert label_to_index("110") == 6


def test_label_validation():
    with pytest.raises(ValueError):
        label_to_index("10a")
    with pytest.raises(ValueError):
        label_to_index("10101")
    with pytest.raises(ValueError):
        index_to_label(8)


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([np.nan] + [0] * 7))


def test_amps_immutable():
    s = StateVector(np.eye(8)[0])
    with pytest.raises(ValueError):
        s.amps[0] = 5
