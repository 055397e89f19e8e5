"""Reflection operators and the two-phase encode/decode pipeline.

The oracle ``U_m = I - 2|m><m|`` flips the sign of the marked amplitude;
the diffusion ``U_S = 2|S><S| - I`` reflects about the initial product
state.  Decoding runs one diffusion, reads off the highest-probability
outcome M, then runs the oracle for M followed by a second diffusion.
``decode_relative`` runs both phases exactly, on the Gaussian-integer
relative phase between the encoded and the decoding catalog state; the
single round and the single-guess intercept use it.  ``exact_step_rows`` is
the same step on a stack of rows: phase 2 of the decode grid of the tables
and the intercept audit, and ``decode_relative_rows`` for a session.

Shot sampling uses inverse-CDF draws from NumPy's PCG64 generator
(``numpy.random.default_rng(seed)``), so counts are reproducible across
runs and builds for a fixed (state, shots, seed).  ``sample`` never stores
the draws: it tallies each chunk's draws at or above every CDF threshold,
and the differences of those tallies are exactly the outcome counts.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .statevec import LABELS, StateVector, distribution, index_to_label, label_to_index

#: Tolerance for membership in the tied-argmax set.  Tied probabilities in
#: scope are exactly equal rationals, so anything above rounding noise works.
ARGMAX_TOL = 1e-9

#: Draws per chunk in ``sample``; 512 KiB of doubles stays in cache.
SAMPLE_CHUNK = 1 << 16

#: Largest ``shots`` that ``sample`` accepts, a few seconds of draws.
MAX_SHOTS = 10**9


def iteration_count(num_qubits: int) -> int:
    """Textbook Grover iteration count round(pi/4 * sqrt(2^n)), half-up."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    return math.floor(math.pi / 4 * math.sqrt(2**num_qubits) + 0.5)


def _flipped(s: StateVector, m: str) -> np.ndarray:
    """A copy of the amplitudes of ``s`` with the sign at label ``m`` flipped."""
    amps = s.amps.copy()
    amps[label_to_index(m)] *= -1
    return amps


def oracle_apply(s: StateVector, m: str) -> StateVector:
    """Apply U_m: negate the amplitude at the marked label, leave the rest."""
    return StateVector._wrap(_flipped(s, m))


def _reflect(amps: np.ndarray, about: np.ndarray) -> np.ndarray:
    """U_S = 2|S><S| - I on one row ``amps``: 2<S|s>|S> - |s>."""
    out = 2 * complex(np.vdot(about, amps)) * about - amps
    # Finite inputs can still overflow; negation in oracle_apply cannot.
    if not all(map(cmath.isfinite, out.tolist())):
        raise ValueError("amplitudes must be finite")
    return out


def diffusion_apply(s: StateVector, about: StateVector) -> StateVector:
    """Apply U_S = 2|S><S| - I, i.e. return 2<S|s>|S> - |s>."""
    return StateVector._wrap(_reflect(s.amps, about.amps))


def encode(initial: StateVector, m: str) -> StateVector:
    """Dealer encoding: |S_k>_m = U_m |S_k>."""
    return oracle_apply(initial, m)


def argmax_labels(dist: np.ndarray) -> list:
    """All outcome labels tied at the maximum probability, sorted; for an
    (n, 8) stack of distributions, one such list per row."""
    if dist.shape[-1] != 8:
        raise ValueError(f"{dist.shape[-1]} probabilities do not address 3 qubits")
    if dist.ndim == 1:
        probs = dist.tolist()
        return _tied(probs, max(probs))
    return [_tied(probs, max(probs)) for probs in dist.tolist()]


def _tied(probs: list[float], top: float) -> list[str]:
    """The labels whose probability is within ARGMAX_TOL of the maximum ``top``."""
    floor = top - ARGMAX_TOL
    return [label for label, p in zip(LABELS, probs) if p >= floor]


class DecodePhase1Result(NamedTuple):
    """State and statistics after the first diffusion of the decode pipeline."""

    state: StateVector
    dist: np.ndarray
    argmax_set: frozenset[str]
    chosen_M: str
    max_prob: float


def decode_phase1(
    encoded: StateVector, initial: StateVector, choose: str | None = None
) -> DecodePhase1Result:
    """First decode phase: diffuse about the announced initial state.

    The intermediate mark M is the lexicographically smallest member of the
    tied-argmax set unless ``choose`` forces a specific member.
    """
    st = diffusion_apply(encoded, initial)
    dist = distribution(st)
    probs = dist.tolist()
    max_prob = max(probs)
    tied = _tied(probs, max_prob)
    if choose is not None and choose not in tied:
        raise ValueError(f"forced mark {choose!r} is not in the argmax set {tied}")
    chosen = tied[0] if choose is None else choose
    return DecodePhase1Result(st, dist, frozenset(tied), chosen, max_prob)


def decode_phase2(
    st: StateVector, M: str, initial: StateVector
) -> tuple[StateVector, np.ndarray]:
    """Second decode phase: oracle for the observed mark M, then diffuse again."""
    final = StateVector._wrap(_reflect(_flipped(st, M), initial.amps))
    return final, distribution(final)


class ExactDecode(NamedTuple):
    """Both decode phases of r ⊙ e_m about S_1, as exact Gaussian integers.

    The phase-1 state is n1 / (4√8) and the final one n2 / (16√8), so the
    probabilities |n1|²/128 and |n2|²/2048 are exact dyadic floats.
    """

    phase1_dist: list[float]
    argmax_set: list[str]
    chosen_M: str
    n1: list[complex]
    n2: list[complex]
    final_dist: list[float]
    final_set: list[str]


def _exact_step(x: list[complex], flip: int) -> list[complex]:
    """The oracle at ``flip``, then U_{S_1}, on 8 Gaussian integers: the
    flipped y goes to (Σy)·1 − 4y, i.e. 4× the reflection about 1/√8."""
    y = x.copy()
    y[flip] = -y[flip]
    total = sum(y)
    return [total - 4 * v for v in y]


def exact_step_rows(x: np.ndarray, flips: Sequence[int]) -> np.ndarray:
    """``_exact_step`` on each row of an (n, 8) stack of Gaussian integers,
    row i flipped at ``flips[i]``; small integers sum exactly in any order."""
    y = x.copy()
    y[np.arange(len(y)), flips] *= -1
    return y.sum(axis=1, keepdims=True) - 4 * y


def _exact_probs(n: list[complex], scale: int) -> list[float]:
    # |v|² term by term: abs() would take a square root and round.
    return [(v.real * v.real + v.imag * v.imag) / scale for v in n]


def decode_relative(r: Sequence[complex], m: str, M: str | None = None) -> ExactDecode:
    """Decode exactly from a relative-phase row ``r`` of 8 Gaussian integers.

    Every oracle is diagonal, so decoding |S_enc>_m with S_k equals
    D_k applied to the decode of r ⊙ e_m / √8 with S_1, where r = conj(V_k)
    ⊙ V_enc for the catalog rows V and e_m is all ones with the sign at m
    flipped.  Phase 2 marks ``M`` (any label, tied or not) or the smallest tied one.
    """
    if len(r) != 8:
        raise ValueError(f"relative phase row has {len(r)} entries, not 8")
    n1 = _exact_step(list(r), label_to_index(m))
    p1 = _exact_probs(n1, 128)
    tied = _tied(p1, max(p1))
    M = tied[0] if M is None else M
    n2 = _exact_step(n1, label_to_index(M))
    p2 = _exact_probs(n2, 2048)
    return ExactDecode(p1, tied, M, n1, n2, p2, _tied(p2, max(p2)))


def decode_relative_rows(rows: np.ndarray, marks: Sequence[int]) -> tuple[list, list, list, list]:
    """``decode_relative`` on each row of an (n, 8) stack of Gaussian integers,
    row i at mark index ``marks[i]``: lists of each row's M index (its first
    phase-1 tie), final probabilities, final tie mask and n2.  Ties compare
    the integers |n|² by ``==``."""
    n1 = exact_step_rows(rows, marks)
    q1 = n1.real * n1.real + n1.imag * n1.imag
    M = (q1 == q1.max(axis=1, keepdims=True)).argmax(axis=1)  # first True of each row
    n2 = exact_step_rows(n1, M)
    q2 = n2.real * n2.real + n2.imag * n2.imag
    ties = q2 == q2.max(axis=1, keepdims=True)
    return M.tolist(), (q2 / 2048).tolist(), ties.tolist(), n2.tolist()


def exact_final_state(decoding: StateVector, n2: Sequence[complex]) -> StateVector:
    """The final state of ``decode_relative`` decoding with the catalog
    state S_k: D_k applied to n2 / (16√8), i.e. S_k ⊙ n2 / 16."""
    return StateVector._wrap(decoding.amps * np.array(n2) / 16)


def collective_op(
    encoded: StateVector, initial: StateVector
) -> tuple[DecodePhase1Result, StateVector, np.ndarray]:
    """Full decode pipeline U_{S_k}, U_M, U_{S_k}; returns all intermediates."""
    phase1 = decode_phase1(encoded, initial)
    final, dist = decode_phase2(phase1.state, phase1.chosen_M, initial)
    return phase1, final, dist


@dataclass(frozen=True)
class ShotCounts:
    """Empirical outcome counts from seeded measurement sampling."""

    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0
    seed: int = 0

    def frequency(self, label: str) -> float:
        return self.counts.get(label, 0) / self.shots


def sample(s: StateVector, shots: int, seed: int) -> ShotCounts:
    """Draw ``shots`` independent outcomes from the state's distribution.

    Deterministic for fixed (state, shots, seed): inverse-CDF sampling over
    NumPy's PCG64 bit generator.  Each double that ``Generator.random``
    returns consumes one 64-bit output, so the chunked draws continue one
    stream and pick the same outcomes as a single ``rng.random(shots)``
    searched with ``np.searchsorted(cdf, u, side="right")``.  That search
    gives index i iff cdf[i-1] <= u < cdf[i], so #(index >= i) is
    #(u >= cdf[i-1]), and each count is a difference of two such tallies.
    The index never exceeds 7 (the search's last entry is set to exactly 1
    and u < 1), so only the first 7 entries are thresholds.
    Counts hold only the outcomes drawn, in ascending order.  One shot
    (a protocol round's measurement) skips the buffer: the same double,
    compared with the same thresholds by ``bisect_right``.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be 1..{MAX_SHOTS}, got {shots}")
    if type(shots) is int and shots == 1:  # True takes the buffer path's TypeError
        # accumulate adds in np.cumsum's order, so these are the same doubles.
        thresholds = list(accumulate(distribution(s).tolist()))[:-1]
        index = bisect_right(thresholds, np.random.default_rng(seed).random())
        return ShotCounts(counts={index_to_label(index): 1}, shots=1, seed=seed)
    cdf = np.cumsum(distribution(s))[:-1]
    # np.empty rejects a float or bool count with the TypeError rng.random gives.
    buf = np.empty(min(shots, SAMPLE_CHUNK))
    rng = np.random.default_rng(seed)
    tallies = [0] * cdf.size  # tallies[j] = #(u >= cdf[j]) = #(index > j)
    for start in range(0, shots, SAMPLE_CHUNK):
        u = rng.random(out=buf[: shots - start])
        for j, threshold in enumerate(cdf):
            tallies[j] += np.count_nonzero(u >= threshold)
    at_least = [shots, *map(int, tallies), 0]  # at_least[i] = #(index >= i)
    counts = {index_to_label(i): at_least[i] - at_least[i + 1]
              for i in range(cdf.size + 1) if at_least[i] > at_least[i + 1]}
    return ShotCounts(counts=counts, shots=shots, seed=seed)
