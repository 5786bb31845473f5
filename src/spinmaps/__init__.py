"""Density-matrix simulation of stroboscopic open-system dynamical maps on
trapped-ion spin registers: dissipative pumping into Dicke dark states,
competing Hamiltonian maps, depolarizing noise, QND post-selection and
active excitation-number stabilization."""

from .register import (
    DensityOperator,
    PauliString,
    PureState,
    RegisterError,
    RegisterLayout,
    basis_state,
    embed,
    expectation,
    partial_trace,
    qubit_register,
    system_with_ancilla,
)
from .channels import (
    Channel,
    ChannelError,
    ChoiMatrix,
    apply,
    apply_embedded,
    choi,
    choi_distance,
    depolarizing_channel,
    mean_state_fidelity,
    mix,
    park_from,
    process_fidelity,
    reset_ancilla,
    trace_distance,
    uhlmann_fidelity,
)
from .gateset import (
    Pulse,
    PulseSequence,
    SequenceSyntaxError,
    UnitaryModeError,
    apply_MS,
    apply_R,
    apply_Sz,
    parse_sequence,
    pauli_exp,
    sequence_channel,
    sequence_unitary,
    serialize_sequence,
)
from .maps import (
    DissipativeMapSpec,
    HamiltonianMapSpec,
    circuit_dissipative_map,
    composite_dissipative_sweep,
    composite_map,
    elementary_dissipative_map,
    hamiltonian_map,
    jump_operator,
)
from .observables import (
    ObservableReport,
    analytic_dicke_order,
    dicke_fidelity,
    dicke_mixture,
    dicke_state,
    offdiag_order,
    purity,
    subspace_populations,
)
from .protocols import (
    SubspaceProjector,
    build_projector,
    postselect,
    qnd_unitary,
    stabilization_register,
    stabilize,
    stabilize_inject,
    stabilize_remove,
    stabilize_system,
)
from .lindblad import (
    IntegrationUnstableError,
    MasterEqSpec,
    compare_stroboscopic,
    integrate,
    liouvillian_apply,
)

__version__ = "0.1.0"
