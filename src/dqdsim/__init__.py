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

The package root exports the names of the README quick start; everything
else is imported from its submodule (``dqdsim.compiler``,
``dqdsim.decoherence``, ``dqdsim.readout``, ...).
"""

from .basis import computational_basis_state, leakage_population
from .gates import GateId, gate_matrix
from .pulses import calibrate, evolve, swap_sequence

__all__ = [
    "GateId",
    "calibrate",
    "computational_basis_state",
    "evolve",
    "gate_matrix",
    "leakage_population",
    "swap_sequence",
]

__version__ = "0.1.0"
