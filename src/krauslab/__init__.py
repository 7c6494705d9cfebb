"""krauslab: build and verify operator-sum (Kraus) representations connecting
qubit density matrices, including reduced dynamics with initially correlated
environments where the textbook construction breaks down."""

from .linalg import (
    EPS,
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
    DensityMatrix,
    DiagonalizedState,
    StateValidationError,
    bloch_angles,
    bloch_matrix,
    diagonalize_state,
    trace_distance,
    validate_density,
)
from .kraus import (
    ChannelReport,
    KrausSet,
    closed_form_qubit_kraus,
    factorable_kraus,
    general_qubit_kraus,
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
    evolve_joint,
    factor_local_unitary,
    reduced_dynamics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
