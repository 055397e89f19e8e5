"""Simulators and enumeration oracles for the four attack scenarios.

Each analysis returns an :class:`AttackReport` carrying the labeled
intermediate states, the outcome distribution, and the attacker-success /
dealer-detection probabilities.  Where the publication states an aggregate
fraction, the report records both the derived value and the claimed one
with an explicit match flag; claimed values are never asserted as ground
truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .catalog import CHEAT_DETECT_MARKS, decode_grid, initial_state
from .grover import (
    argmax_labels,
    decode_phase1,
    decode_phase2,
    diffusion_apply,
    encode,
    oracle_apply,
)
from .statevec import (
    PHASES,
    StateVector,
    basis_state,
    distribution,
    index_to_label,
    inner,
    label_to_index,
    state,
)

GRAM_TOL = 1e-9


@dataclass(frozen=True)
class Claim:
    """A published probability next to the value this build derives."""

    name: str
    derived: float
    claimed: float
    matches: bool

    @staticmethod
    def compare(name: str, derived: float, claimed: float) -> "Claim":
        return Claim(name, float(derived), float(claimed), abs(derived - claimed) <= 1e-9)


@dataclass
class AttackReport:
    attack_kind: str
    intermediate_states: list[tuple[str, StateVector]] = field(default_factory=list)
    outcome_dist: np.ndarray | None = None
    attacker_success_prob: float | None = None
    dealer_detection_prob: float | None = None
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def amps(s: StateVector):
            return [[_sig12(a.real), _sig12(a.imag)] for a in s.amps]

        doc = {
            "attack_kind": self.attack_kind,
            "intermediate_states": [
                {"label": name, "amplitudes": amps(s)} for name, s in self.intermediate_states
            ],
            "outcome_dist": None
            if self.outcome_dist is None
            else [_sig12(p) for p in self.outcome_dist],
            "attacker_success_prob": self.attacker_success_prob,
            "dealer_detection_prob": self.dealer_detection_prob,
            "claims": [
                {
                    "name": c.name,
                    "derived": c.derived,
                    "claimed": c.claimed,
                    "matches": c.matches,
                }
                for c in self.claims
            ],
            "notes": self.notes,
            "details": self.details,
        }
        return json.dumps(doc, indent=2) + "\n"


def _sig12(x: float) -> float:
    return float(f"{x:.12g}") + 0.0  # + 0.0 maps -0.0 to 0.0


def lie_attack(true_m: str, flips: frozenset[str] | set[str]) -> AttackReport:
    """Participants misreport their measured bits; detection is total.

    ``flips`` names the lying participants among P1/P2/P3 (participant Pi
    holds qubit i and flips its reported bit).
    """
    if len(true_m) != 3 or set(true_m) - {"0", "1"}:
        raise ValueError(f"mark must be a 3-bit label, got {true_m!r}")
    positions = {"P1": 0, "P2": 1, "P3": 2}
    unknown = set(flips) - positions.keys()
    if unknown:
        raise ValueError(f"unknown participants: {sorted(unknown)}")
    bits = list(true_m)
    for p in flips:
        i = positions[p]
        bits[i] = "1" if bits[i] == "0" else "0"
    reconstructed = "".join(bits)
    detected = reconstructed != true_m
    return AttackReport(
        attack_kind="lie",
        attacker_success_prob=0.0 if detected else 1.0,
        dealer_detection_prob=1.0 if detected else 0.0,
        notes=[f"reconstructed {reconstructed} from true mark {true_m}"],
        details={"reconstructed": reconstructed, "detected": detected},
    )


def intercept_wrong_op(
    k_true: int, m: str, k_guess: int, M_guess: str | None = None
) -> AttackReport:
    """A dishonest participant decodes with a guessed catalog state.

    Evolves the true encoded state through the pipeline built from the
    guessed initial state.  ``M_guess`` forces the intermediate mark; None
    picks the argmax of the first diffusion (lexicographic tie-break).
    """
    encoded = encode(initial_state(k_true), m)
    guess = initial_state(k_guess)
    p1 = decode_phase1(encoded, guess)
    M = M_guess if M_guess is not None else p1.chosen_M
    final, fdist = decode_phase2(p1.state, M, guess)
    p_m = float(fdist[label_to_index(m)])
    tied = argmax_labels(fdist, 3)
    return AttackReport(
        attack_kind="intercept",
        intermediate_states=[("after_first_diffusion", p1.state), ("final", final)],
        outcome_dist=fdist,
        attacker_success_prob=p_m,
        notes=[
            f"decoded with k={k_guess} against true k={k_true}, M={M}",
            f"final argmax set {{{', '.join(tied)}}} at {float(fdist.max()):.6f}",
        ],
        details={"M": M, "final_argmax": tied, "p_marked": p_m},
    )


def intercept_enumeration(k_true: int = 1, m: str = "110") -> AttackReport:
    """Exhaustive audit of the intercept attack over all 64 operation guesses.

    For each guessed catalog state the full pipeline runs with the
    auto-chosen intermediate mark.  Success criteria (the published
    counting is ambiguous, so both are reported):

    * strict: the unique top final outcome is the true mark with
      probability > 1/2;
    * inclusive: the true mark is a member of the tied final argmax set,
      mirroring "including the cases where the probability of the marked
      state is close to 1/2".

    Dealer detection is the complement of inclusive success.  The report
    also counts guesses whose phase-1 mark equals the honest mark
    (published as 13/64) and the largest single cheat-detect outcome
    probability under a forced mark (published as 37/128).
    """
    per_guess = []
    strict = inclusive = correct_M = 0
    max_cheat_label_prob = 0.0
    for k, guess, p1, fdist in decode_grid(k_true, m):
        tied = argmax_labels(fdist, 3)
        top_p = float(fdist.max())
        s_strict = tied == [m] and top_p > 0.5
        s_incl = m in tied
        strict += s_strict
        inclusive += s_incl
        correct_M += p1.chosen_M == m
        # forced-mark run for the cheat-detect exposure bound
        _, forced_dist = decode_phase2(p1.state, m, guess)
        max_cheat_label_prob = max(
            max_cheat_label_prob,
            max(float(forced_dist[label_to_index(c)]) for c in CHEAT_DETECT_MARKS),
        )
        per_guess.append(
            {
                "k": k,
                "M": p1.chosen_M,
                "final_argmax": tied,
                "top_p": round(top_p, 6),
                "success_strict": bool(s_strict),
                "success_inclusive": bool(s_incl),
            }
        )
    n = 64
    claims = [
        Claim.compare("attacker_success_inclusive", inclusive / n, 9 / 32),
        Claim.compare("correct_intermediate_mark", correct_M / n, 13 / 64),
        Claim.compare("dealer_detection", 1 - inclusive / n, 23 / 32),
        Claim.compare("max_cheat_detect_outcome_prob", max_cheat_label_prob, 37 / 128),
        Claim.compare(
            "two_state_scenario_success", float(Fraction(1, 2) * Fraction(1, 2) * Fraction(1, 8)), 1 / 32
        ),
    ]
    return AttackReport(
        attack_kind="intercept",
        attacker_success_prob=inclusive / n,
        dealer_detection_prob=1 - inclusive / n,
        claims=claims,
        notes=[
            f"strict successes {strict}/{n}, inclusive {inclusive}/{n}",
            "two-state scenario: 1/2 message round x 1/2 correct operation "
            "guess x 1/8 correct mark guess",
        ],
        details={"per_guess": per_guess, "success_strict_count": strict,
                 "success_inclusive_count": inclusive},
    )


@dataclass(frozen=True)
class MeasurementBasis:
    """A set of equal-dimension vectors offered as a measurement basis."""

    vectors: tuple[StateVector, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("basis must be non-empty")
        dims = {v.num_qubits for v in self.vectors}
        if len(dims) != 1:
            raise ValueError("basis vectors must share one dimension")

    def gram(self) -> np.ndarray:
        n = len(self.vectors)
        g = np.empty((n, n), dtype=np.complex128)
        for i, a in enumerate(self.vectors):
            for j, b in enumerate(self.vectors):
                g[i, j] = inner(a, b)
        return g


def gram_check(basis: MeasurementBasis) -> tuple[np.ndarray, bool]:
    """Gram matrix plus whether it is the identity within tolerance."""
    g = basis.gram()
    ortho = bool(np.max(np.abs(g - np.eye(len(basis.vectors)))) <= GRAM_TOL)
    return g, ortho


def computational_basis(num_qubits: int = 3) -> MeasurementBasis:
    labels = [index_to_label(i, num_qubits) for i in range(2**num_qubits)]
    return MeasurementBasis(tuple(basis_state(l) for l in labels))


def sign_flip_basis() -> MeasurementBasis:
    """The eight uniform vectors with one sign flipped, as published.

    Vector i is (1/sqrt 8) * (|0..0> + ... + |111>) with the sign of basis
    state i negated.  Pairwise overlaps are 1/2, so this is NOT an
    orthonormal basis despite being offered as one.
    """
    patterns = (" ".join("-" if j == i else "+" for j in range(8)) for i in range(8))
    return MeasurementBasis(tuple(phase_pattern_vector(p) for p in patterns))


# Phase patterns of the second published basis, transcribed literally
# (entries 3 and 4 are printed identically; the duplication is a finding).
_PHASE_BASIS_PATTERNS = (
    "- - - - +i +i +i +i",
    "+ + + + +i +i +i +i",
    "+ - + + +i -i +i +i",
    "+ - + + +i -i +i +i",
    "+ + - + +i +i +i -i",
    "+ + - + +i +i -i +i",
    "- - + + +i +i -i -i",
    "- - + + -i -i +i +i",
)

def phase_pattern_vector(pattern: str) -> StateVector:
    """Uniform-magnitude 3-qubit vector from eight +, -, +i, -i symbols."""
    symbols = pattern.split()
    if len(symbols) != 8:
        raise ValueError("pattern must list eight phase symbols")
    amps = np.array([PHASES[s] for s in symbols], dtype=np.complex128) / np.sqrt(8)
    return state(amps)


def phase_pattern_basis() -> MeasurementBasis:
    return MeasurementBasis(tuple(phase_pattern_vector(p) for p in _PHASE_BASIS_PATTERNS))


def measure_in_basis(s: StateVector, basis: MeasurementBasis, seed: int) -> int:
    """Projective measurement in an orthonormal basis; seeded outcome index.

    Refuses non-orthonormal vector sets: inventing a POVM for them would
    exceed what the protocol defines.  Run gram_check for the findings.
    """
    g, ortho = gram_check(basis)
    if not ortho:
        raise ValueError(
            "basis is not orthonormal (see gram_check); projective measurement refused"
        )
    if basis.vectors[0].num_qubits != s.num_qubits:
        raise ValueError("state and basis dimensions differ")
    probs = np.array([abs(inner(v, s)) ** 2 for v in basis.vectors])
    total = probs.sum()
    if total < 1 - GRAM_TOL:
        raise ValueError("basis does not span the state")
    probs = probs / total
    rng = np.random.default_rng(seed)
    return int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))


def intercept_resend_analysis() -> AttackReport:
    """Enumerate the attacker's eight equiprobable preparations exactly.

    The attacker replaces the dealer's qubits with an own encoded state
    |S_k'>_{m'}, m' uniform over all 8 labels.  Detection per case:

    * dealer sent a message round: detected iff m' falls in the
      cheat-detect set (the decoded outcome exposes a cheat code);
    * dealer sent a cheat-detect round: detected iff m' differs from the
      dealer's mark.
    """
    marks = [index_to_label(i, 3) for i in range(8)]
    msg_detect = Fraction(
        sum(1 for mp in marks if mp in CHEAT_DETECT_MARKS), len(marks)
    )
    cheat_detect_cases = []
    for m in sorted(CHEAT_DETECT_MARKS):
        cheat_detect_cases.append(Fraction(sum(1 for mp in marks if mp != m), len(marks)))
    cheat_detect = sum(cheat_detect_cases, Fraction(0)) / len(cheat_detect_cases)
    average = (msg_detect + cheat_detect) / 2
    claims = [
        Claim.compare("detection_message_round", float(msg_detect), 5 / 8),
        Claim.compare("detection_cheat_round", float(cheat_detect), 7 / 8),
        Claim.compare("detection_average", float(average), 12 / 16),
    ]
    return AttackReport(
        attack_kind="intercept_resend",
        dealer_detection_prob=float(average),
        attacker_success_prob=float(1 - average),
        claims=claims,
        notes=[
            f"message round detection {msg_detect}, cheat round detection "
            f"{cheat_detect}, average {average}",
        ],
        details={
            "message_round_detection": str(msg_detect),
            "cheat_round_detection": str(cheat_detect),
            "average_detection": str(average),
        },
    )


def _with_ancilla(branches: list[StateVector]) -> StateVector:
    """4-qubit state whose ancilla (qubit 4) value b carries ``branches[b]``."""
    return StateVector(4, np.stack([b.amps for b in branches], axis=1).reshape(16))


def marginal_over_ancilla(s: StateVector) -> np.ndarray:
    """Outcome distribution of the 3 protocol qubits, ancilla traced out."""
    return distribution(s).reshape(8, 2).sum(axis=1)


def entangle_measure(k: int = 1, m: str = "110", control_qubit: int = 1) -> AttackReport:
    """Ancilla-coupling attack: CNOT onto a fresh |0> ancilla, then decode.

    Records the three displayed intermediates: the entangled state, the
    state after the first diffusion, and the state after the mark oracle,
    each applied as U x I to both ancilla branches.  The detection
    probability is the cheat-detect mass of the final 3-qubit marginal,
    reported next to the published 5/32 figure without asserting either as
    ground truth.
    """
    encoded = encode(initial_state(k), m)
    if not 1 <= control_qubit <= 3:
        raise ValueError(f"control qubit must be 1..3, got {control_qubit}")
    # After the CNOT, ancilla value b sits on exactly the amplitudes whose
    # control bit is b, and U x I acts on each such branch as the 3-qubit U.
    control = (np.arange(8) >> (3 - control_qubit)) & 1
    branches = [StateVector(3, np.where(control == b, encoded.amps, 0)) for b in (0, 1)]
    entangled = _with_ancilla(branches)
    sk = initial_state(k)
    branches = [diffusion_apply(s, sk) for s in branches]
    after_diffusion = _with_ancilla(branches)
    M = argmax_labels(marginal_over_ancilla(after_diffusion), 3)[0]
    after_oracle = _with_ancilla([oracle_apply(s, M) for s in branches])
    final_marginal = marginal_over_ancilla(after_oracle)
    detect = float(sum(final_marginal[label_to_index(c)] for c in sorted(CHEAT_DETECT_MARKS)))
    claims = [Claim.compare("cheat_detect_probability", detect, 5 / 32)]
    return AttackReport(
        attack_kind="entangle_measure",
        intermediate_states=[
            ("after_entangling_cnot", entangled),
            ("after_first_diffusion", after_diffusion),
            ("after_mark_oracle", after_oracle),
        ],
        outcome_dist=final_marginal,
        dealer_detection_prob=detect,
        claims=claims,
        notes=[
            f"intermediate mark M={M} from the 3-qubit marginal argmax",
            "detection probability derived from the displayed final state; "
            "the published 5/32 figure is reported, not asserted",
        ],
        details={"M": M, "control_qubit": control_qubit},
    )
