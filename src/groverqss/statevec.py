"""Exact complex-amplitude state vectors of the 3 protocol qubits.

Bit ordering is big-endian throughout: the leftmost symbol of a ket label
is the most significant bit of the basis index, so ``"110"`` is index 6.
All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative phase of each eigenstate symbol: |s> = (|0> + PHASES[s]|1>)/sqrt 2.
PHASES = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}

#: Every ket label, in index order.
LABELS = tuple(format(i, "03b") for i in range(8))

_INDEX = {label: i for i, label in enumerate(LABELS)}


def label_to_index(label: str) -> int:
    """Big-endian integer value of a ket label, e.g. '110' -> 6."""
    try:
        return _INDEX[label]
    except (KeyError, TypeError):
        if isinstance(label, str) and label and not label.strip("01"):
            raise ValueError(f"label {label!r} is not 3 bits") from None
        raise ValueError(f"not a bit string: {label!r}") from None


def index_to_label(index: int) -> str:
    if not 0 <= index < 8:
        raise ValueError(f"index {index} out of range for 3 qubits")
    return LABELS[index]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the 8 computational basis states."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (8,):
            raise ValueError(f"expected 8 amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "StateVector":
        """A state around ``amps`` without the checks and copy above.

        Only for a fresh complex128 array of 8 finite entries that an
        operator has just computed from checked states; it is made
        read-only here and must not be shared.
        """
        amps.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "amps", amps)
        return s


def distribution(s: StateVector) -> np.ndarray:
    """Measurement probabilities p_i = |amps_i|^2 in the computational basis."""
    return np.abs(s.amps) ** 2
