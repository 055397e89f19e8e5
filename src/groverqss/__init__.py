"""Deterministic simulator for a four-party quantum secret-sharing protocol
built on a three-qubit Grover search."""

from .statevec import (
    ATOL,
    EigenAxis,
    StateVector,
    basis_state,
    distribution,
    eigen_vector,
    index_to_label,
    inner,
    label_to_index,
    norm,
    state,
    tensor,
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
    CATALOG,
    CHEAT_DETECT_MARKS,
    MESSAGE_MARKS,
    InitialStateSpec,
    TableRow,
    build_state,
    catalog_entry,
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
    MeasurementBasis,
    entangle_measure,
    gram_check,
    intercept_enumeration,
    intercept_resend_analysis,
    intercept_wrong_op,
    lie_attack,
    measure_in_basis,
)

__version__ = "0.1.0"
