"""Deterministic simulator for a four-party quantum secret-sharing protocol
built on a three-qubit Grover search."""

from .grover import (
    collective_op,
    decode_phase1,
    encode,
    iteration_count,
    sample,
)
from .catalog import (
    diff_table,
    generate_table1,
    generate_table2,
    initial_state,
    published_table1,
    published_table2,
    render_table,
)
from .protocol import run_session
from .attacks import (
    entangle_measure,
    gram_check,
    intercept_enumeration,
    intercept_resend_analysis,
    intercept_wrong_op,
    lie_attack,
)

__version__ = "0.1.0"
