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
``dqdsim.decoherence``, ``dqdsim.readout``, ...).  The pulse-layer names
(``calibrate``, ``evolve``, ``swap_sequence``) load ``dqdsim.pulses`` on
first access, so importing the package, as every CLI run does, does not.
"""

from .basis import computational_basis_state, leakage_population
from .gates import GateId, gate_matrix

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


def __getattr__(name: str):
    if name in ("calibrate", "evolve", "swap_sequence"):
        from . import pulses
        return getattr(pulses, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
