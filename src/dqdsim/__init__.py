"""dqdsim: simulator and verifier for DQD space-state charge qubits.

A charge qubit is encoded in which of two double quantum dots holds the
symmetric (+) versus antisymmetric (-) single-electron space state; both
logical states spread every electron evenly over its two dots, so gates
move no net charge.  The package provides the six-configuration gate
catalog of such a two-qubit register, a pulse-level simulator that
reproduces the catalog from calibrated electrode schedules, compilation
of the controlled-phase/CNOT constructions from swap square roots,
phonon-decoherence scaling laws with a two-phonon quadrature, a
charge-readout/initialization model, and a CLI front end emitting
deterministic machine-readable reports.
"""

from .basis import (
    COMPUTATIONAL_ROWS,
    EXTENDED_BASIS,
    LEAKAGE_ROWS,
    DqdLevel,
    basis_labels,
    basis_state,
    computational_basis_state,
    computational_part,
    dot_occupation_probability,
    embed_computational,
    leakage_population,
)
from .compiler import (
    TRIVIAL_EMBEDDING,
    PhaseEmbedding,
    build_cnot,
    build_pi,
    decomposition_report,
    search_embedding,
    verify_xor_4dim,
    z_gate,
)
from .constants import HBAR_UEV_NS, K_B_UEV_PER_K
from .decoherence import (
    DotGeometry,
    Environment,
    PhononBranch,
    TransitionSpec,
    bose_einstein,
    coulomb_selection_rule,
    fit_scaling_exponent,
    form_factor,
    single_phonon_tau_s,
    stimulated_tau_s,
    two_phonon_rate_per_s,
)
from .gates import GateId, catalog, gate_matrix, identities_pass, verify_catalog_identities
from .linalg import dist_up_to_global_phase, expm_hermitian, is_unitary, max_abs_diff
from .pulses import (
    ELECTRODES,
    PulseSegment,
    calibrate,
    calibrate_phase_flip,
    evolve,
    extend_generator,
    load_schedule,
    reproduction_residuals,
    schedule_from_json,
    schedule_to_json,
    segment_generator,
    single_qubit_hamiltonian,
    sqrt_swap_sequence,
    swap_sequence,
)
from .readout import (
    InitPlan,
    OptimalReadout,
    ReadoutConfig,
    ReadoutTrace,
    init_by_reversed_readout,
    optimal_measurement_time,
    rabi_frequency,
    readout_trace,
    readout_unitary,
    scan_bias,
    thermal_occupancy,
)

__version__ = "0.1.0"
