"""Deterministic simulator for a four-party quantum secret-sharing protocol
built on a three-qubit Grover search."""

from .statevec import (
    ATOL,
    StateVector,
    basis_state,
    distribution,
    index_to_label,
    inner,
    label_to_index,
    norm,
    state,
)
from .grover import (
    DecodePhase1Result,
    ShotCounts,
    collective_op,
    decode_phase1,
    decode_phase2,
    diffusion_apply,
    encode,
    iteration_count,
    oracle_apply,
    sample,
)
from .catalog import (
    CHEAT_DETECT_MARKS,
    MESSAGE_MARKS,
    TableRow,
    diff_table,
    generate_table1,
    generate_table2,
    initial_state,
    published_table1,
    published_table2,
    render_table,
)
from .protocol import (
    ProtocolTranscript,
    RoundConfig,
    SessionResult,
    Share,
    dealer_verify,
    run_round,
    run_session,
    split_secret,
)
from .attacks import (
    AttackReport,
    entangle_measure,
    gram_check,
    intercept_enumeration,
    intercept_resend_analysis,
    intercept_wrong_op,
    lie_attack,
)

__version__ = "0.1.0"
