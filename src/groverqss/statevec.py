"""Exact complex-amplitude state vectors: 3 protocol qubits, or 4 with the
attack ancilla.

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

#: Every ket label of 3 and of 4 qubits, by qubit count, in index order.
LABELS = {n: tuple(format(i, f"0{n}b") for i in range(2**n)) for n in (3, 4)}

_INDEX = {label: i for labels in LABELS.values() for i, label in enumerate(labels)}


def label_to_index(label: str) -> int:
    """Big-endian integer value of a ket label, e.g. '110' -> 6."""
    try:
        return _INDEX[label]
    except (KeyError, TypeError):
        if isinstance(label, str) and label and not label.strip("01"):
            raise ValueError(f"label {label!r} is not 3 or 4 qubits") from None
        raise ValueError(f"not a bit string: {label!r}") from None


def index_to_label(index: int, num_qubits: int) -> str:
    labels = LABELS.get(num_qubits, ())
    if not 0 <= index < len(labels):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return labels[index]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of ``num_qubits`` qubits."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.num_qubits not in LABELS:
            raise ValueError(f"num_qubits must be 3 or 4, got {self.num_qubits}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _wrap(cls, num_qubits: int, amps: np.ndarray) -> "StateVector":
        """A state around ``amps`` without the checks and copy above.

        Only for a fresh complex128 array of 2**num_qubits finite entries
        that an operator has just computed from checked states; it is made
        read-only here and must not be shared.
        """
        amps.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "num_qubits", num_qubits)
        object.__setattr__(s, "amps", amps)
        return s


def distribution(s: StateVector) -> np.ndarray:
    """Measurement probabilities p_i = |amps_i|^2 in the computational basis."""
    return np.abs(s.amps) ** 2
