"""Simulators and enumeration oracles for the four attack scenarios.

Each analysis returns an :class:`AttackReport` carrying the labeled
intermediate states, the outcome distribution, and the attacker-success /
dealer-detection probabilities.  Where the publication states an aggregate
fraction, the report records both the derived value and the claimed one
with an explicit match flag; claimed values are never asserted as ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _jsontext
from .catalog import CHEAT_DETECT_MARKS, decode_grid, initial_state, phase_table
from .grover import (
    argmax_labels,
    decode_relative,
    diffusion_apply,
    encode,
    exact_final_state,
    oracle_apply,
)
from .statevec import LABELS, PHASES, StateVector, distribution, label_to_index

#: Basis indices of the cheat-detect marks, ascending.
_CHEAT_DETECT_INDICES = tuple(sorted(map(label_to_index, CHEAT_DETECT_MARKS)))


@dataclass(frozen=True)
class Claim:
    """A published probability next to the value this build derives."""

    name: str
    derived: float
    claimed: float
    matches: bool

    @staticmethod
    def compare(name: str, derived: float, claimed: float) -> "Claim":
        """Matched by ==: every claimed value is a dyadic rational that a float
        holds exactly, and every derived value but the ancilla attack's is exact."""
        return Claim(name, float(derived), float(claimed), derived == claimed)


@dataclass
class AttackReport:
    attack_kind: str
    #: Labelled amplitude arrays: 8 entries, or 16 with the entangle ancilla.
    intermediate_states: list[tuple[str, np.ndarray]] = field(default_factory=list)
    outcome_dist: np.ndarray | None = None
    attacker_success_prob: float | None = None
    dealer_detection_prob: float | None = None
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def amps(a: np.ndarray):
            return [[_sig12(x.real), _sig12(x.imag)] for x in a.tolist()]

        # The fields in their order; a key replaced below keeps its place.
        doc = {
            **vars(self),
            "intermediate_states": [
                {"label": name, "amplitudes": amps(a)} for name, a in self.intermediate_states
            ],
            "outcome_dist": None
            if self.outcome_dist is None
            else [_sig12(p) for p in self.outcome_dist.tolist()],
            "claims": [vars(c) for c in self.claims],
        }
        return _jsontext.dumps(doc) + "\n"


def _sig12(x: float) -> float:
    return float(f"{x:.12g}") + 0.0  # + 0.0 maps -0.0 to 0.0


def lie_attack(true_m: str, flips: frozenset[str] | set[str]) -> AttackReport:
    """Participants misreport their measured bits; detection is total.

    ``flips`` names the lying participants among P1/P2/P3 (participant Pi
    holds qubit i and flips its reported bit).
    """
    label_to_index(true_m)  # refuses a bad mark
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

    Decodes exactly, on the relative phase conj(V_guess) ⊙ V_true of the
    catalog rows.  ``M_guess`` forces the intermediate mark; None picks
    the argmax of the first diffusion (lexicographic tie-break).
    """
    initial_state(k_true)  # refuses a bad k_true
    guess = initial_state(k_guess)
    r = phase_table()[k_guess - 1].conj() * phase_table()[k_true - 1]
    d = decode_relative(r.tolist(), m, M_guess)
    p_m = d.final_dist[label_to_index(m)]
    return AttackReport(
        attack_kind="intercept",
        intermediate_states=[("after_first_diffusion", guess.amps * np.array(d.n1) / 4),
                             ("final", exact_final_state(guess, d.n2).amps)],
        outcome_dist=np.array(d.final_dist),
        attacker_success_prob=p_m,
        notes=[
            f"decoded with k={k_guess} against true k={k_true}, M={d.chosen_M}",
            f"final argmax set {{{', '.join(d.final_set)}}} at {max(d.final_dist):.6f}",
        ],
        details={"M": d.chosen_M, "final_argmax": d.final_set, "p_marked": p_m},
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
    # The forced-mark run (M = m) bounds the cheat-detect exposure.
    phase1, (fdists, forced) = decode_grid(k_true, m, (None, m))
    max_cheat_label_prob = float(forced[:, _CHEAT_DETECT_INDICES].max())
    tops = fdists.max(axis=1).tolist()
    for k, p1, tied, top_p in zip(range(1, 65), phase1, argmax_labels(fdists), tops):
        s_strict = tied == [m] and top_p > 0.5
        s_incl = m in tied
        strict += s_strict
        inclusive += s_incl
        correct_M += p1.chosen_M == m
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


def gram_check(rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """Gram matrix of vectors given as rows of one common squared norm, and
    whether it is the identity.

    Every row here holds Gaussian integers (phases, or 0 and 1), so the
    product and the division by the squared norm (8 or 1) are exact and the
    identity test is an equality.
    """
    g = rows.conj() @ rows.T
    g = g / g[0, 0].real
    return g, bool(np.array_equal(g, np.eye(len(rows))))


def computational_basis() -> np.ndarray:
    return np.eye(8, dtype=np.complex128)


def _phase_rows(patterns) -> np.ndarray:
    """One row of +-1/+-i per pattern of eight +, -, +i, -i symbols."""
    return np.array([[PHASES[s] for s in p.split()] for p in patterns], dtype=np.complex128)


def sign_flip_basis() -> np.ndarray:
    """The eight uniform vectors with one sign flipped, as published.

    Row i is sqrt 8 times published vector i: all phases +1 except the
    sign of basis state i.  Pairwise overlaps are 1/2, so this is NOT an
    orthonormal basis despite being offered as one.
    """
    return _phase_rows(" ".join("-" if j == i else "+" for j in range(8)) for i in range(8))


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


def phase_pattern_basis() -> np.ndarray:
    return _phase_rows(_PHASE_BASIS_PATTERNS)


def intercept_resend_analysis() -> AttackReport:
    """Enumerate the attacker's eight equiprobable preparations exactly.

    The attacker replaces the dealer's qubits with an own encoded state
    |S_k'>_{m'}, m' uniform over all 8 labels.  Detection per case:

    * dealer sent a message round: detected iff m' falls in the
      cheat-detect set (the decoded outcome exposes a cheat code);
    * dealer sent a cheat-detect round: detected iff m' differs from the
      dealer's mark.
    """
    marks = LABELS
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


def _with_ancilla(branches: list[StateVector]) -> np.ndarray:
    """The 16 amplitudes of the state whose ancilla (qubit 4) value b
    carries ``branches[b]``."""
    return np.stack([b.amps for b in branches], axis=1).ravel()


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
    branches = [StateVector(np.where(control == b, encoded.amps, 0)) for b in (0, 1)]
    entangled = _with_ancilla(branches)
    sk = initial_state(k)
    branches = [diffusion_apply(s, sk) for s in branches]
    after_diffusion = _with_ancilla(branches)
    # Tracing out the ancilla sums the two branches' distributions.
    M = argmax_labels(distribution(branches[0]) + distribution(branches[1]))[0]
    branches = [oracle_apply(s, M) for s in branches]
    after_oracle = _with_ancilla(branches)
    final_marginal = distribution(branches[0]) + distribution(branches[1])
    detect = float(sum(final_marginal[i] for i in _CHEAT_DETECT_INDICES))
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
