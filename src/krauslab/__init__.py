"""krauslab: build and verify operator-sum (Kraus) representations connecting
qubit density matrices, including reduced dynamics with initially correlated
environments where the textbook construction breaks down."""

from .linalg import (
    EPS,
    EigenDecomposition,
    dag,
    eigh,
    expm_hermitian_generator,
    kron,
    norm_max,
    partial_trace,
    pauli_x,
    pauli_y,
    pauli_z,
)
from .states import (
    BlochVector,
    DensityMatrix,
    DiagonalizedState,
    Ordering,
    StateValidationError,
    bloch_to_density,
    density_to_bloch,
    diagonalize_state,
    trace_distance,
    validate_density,
)
from .kraus import (
    ChannelReport,
    KrausSet,
    apply_channel,
    closed_form_qubit_kraus,
    conjugate_kraus,
    diagonal_pair_kraus,
    factorable_kraus,
    general_qubit_kraus,
    kraus_set,
    measure_prepare_kraus,
    unitary_remix,
    verify_channel,
)
from .dynamics import (
    CnotScenario,
    CompositeState,
    cnot_analytic_delta_rho,
    cnot_analytic_kraus,
    cnot_analytic_rho,
    cnot_hamiltonian,
    cnot_unitary,
    correlation_operator,
    delta_rho,
    evolve_joint,
    factor_local_unitary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
