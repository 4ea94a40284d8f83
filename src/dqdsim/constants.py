"""Physical constants in the unit system used throughout the package.

Energies are microelectronvolts (ueV), times nanoseconds (ns), lengths
nanometres (nm), temperatures kelvin (K).  These units put single-qubit
pulse amplitudes, thermal energies at dilution-fridge temperatures and
phonon wavevectors all within a few orders of magnitude of unity.

The caps on input sizes and the phonon kind names live here too, so the
command-line flags can name them without loading the modules that use them.
"""

#: Reduced Planck constant, ueV * ns.
HBAR_UEV_NS = 0.6582119569

#: Boltzmann constant, ueV / K.
K_B_UEV_PER_K = 86.17333262

#: Acoustic phonon coupling kinds, in the order of every per-kind table and report.
PHONON_KINDS = ("deformation", "piezoelectric")

#: Largest two-phonon quadrature resolution; the convergence check runs
#: ``2 * resolution`` Gauss-Legendre nodes, whose O(n^2)-time Newton setup
#: is paid once per node count (see ``decoherence.LEGENDRE_CACHE_SIZE``).
MAX_RESOLUTION = 1024

#: Largest selection-rule resolution; the quadrature passes once over the
#: n/2 x n half of its kernel that the mirror symmetry leaves, in column
#: blocks, so its time grows as n^2 / 2 and its memory as n.
MAX_SELECTION_RESOLUTION = 3200

#: Largest number of samples ``duration / timestep`` may give a readout trace.
MAX_TRACE_SAMPLES = 100_000

#: Largest number of biases ``readout.scan_bias`` evaluates.
MAX_BIAS_SAMPLES = 1000
