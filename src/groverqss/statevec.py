"""Exact complex-amplitude state vectors for 1-4 qubits.

Bit ordering is big-endian throughout: the leftmost symbol of a ket label
is the most significant bit of the basis index, so ``"110"`` is index 6.
All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute tolerance for "exact" amplitude comparisons.  Every amplitude in
#: scope is a small rational over sqrt(2) or sqrt(8), far above double
#: rounding noise.
ATOL = 1e-12

#: Hard cap on system size: 3 protocol qubits plus 1 ancilla.
MAX_QUBITS = 4

#: Relative phase of each eigenstate symbol: |s> = (|0> + PHASES[s]|1>)/sqrt 2.
PHASES = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}


def validate_label(label: str) -> str:
    """Check that ``label`` is a non-empty bit string of at most MAX_QUBITS bits."""
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"not a bit string: {label!r}")
    if len(label) > MAX_QUBITS:
        raise ValueError(f"label {label!r} exceeds {MAX_QUBITS} qubits")
    return label


#: Every ket label of 1..MAX_QUBITS qubits, by qubit count, in index order.
LABELS = {n: tuple(format(i, f"0{n}b") for i in range(2**n)) for n in range(1, MAX_QUBITS + 1)}

_INDEX = {label: i for labels in LABELS.values() for i, label in enumerate(labels)}


def label_to_index(label: str) -> int:
    """Big-endian integer value of a ket label, e.g. '110' -> 6."""
    try:
        return _INDEX[label]
    except (KeyError, TypeError):
        # Every valid label is in the table, so this raises with the message.
        return int(validate_label(label), 2)


def index_to_label(index: int, num_qubits: int) -> str:
    labels = LABELS.get(num_qubits, ())
    if type(index) is int and 0 <= index < len(labels):
        return labels[index]
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


def all_labels(num_qubits: int) -> list[str]:
    return [index_to_label(i, num_qubits) for i in range(2**num_qubits)]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of ``num_qubits`` qubits."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {self.num_qubits}")
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

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def amp(self, label: str) -> complex:
        """Amplitude at a ket label, e.g. s.amp('110')."""
        if len(label) != self.num_qubits:
            raise ValueError(f"label {label!r} does not address {self.num_qubits} qubits")
        return complex(self.amps[label_to_index(label)])

    def isclose(self, other: "StateVector", atol: float = ATOL) -> bool:
        return (
            self.num_qubits == other.num_qubits
            and float(np.max(np.abs(self.amps - other.amps))) <= atol
        )


def state(amps) -> StateVector:
    """Build a StateVector from a raw amplitude sequence of length 2**n."""
    amps = np.asarray(amps, dtype=np.complex128)
    return StateVector(int(amps.shape[0]).bit_length() - 1, amps)


def basis_state(label: str) -> StateVector:
    """Computational basis state |label>."""
    n = len(validate_label(label))
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[label_to_index(label)] = 1.0
    return StateVector(n, amps)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with conjugation on a."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("inner product of states with different qubit counts")
    return complex(np.vdot(a.amps, b.amps))


def norm(s: StateVector) -> float:
    return float(np.linalg.norm(s.amps))


def distribution(s: StateVector) -> np.ndarray:
    """Measurement probabilities p_i = |amps_i|^2 in the computational basis."""
    return np.abs(s.amps) ** 2
