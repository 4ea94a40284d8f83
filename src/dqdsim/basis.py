"""Configuration basis for two charge qubits made of double quantum dots.

One qubit is a pair of double quantum dots (DQDs) sharing two electrons,
one electron per DQD.  Each DQD carries a two-level space state: the
symmetric ``+`` and antisymmetric ``-`` combinations of the electron
sitting in the left or right dot.  The logical states are

* ``|0>`` = first DQD in ``+``, second in ``-``
* ``|1>`` = first DQD in ``-``, second in ``+``

so in either logical state every dot is occupied with probability 1/2 and
no net charge moves when a gate is applied.

Two qubits (four DQDs) span sixteen product configurations, but the
interactions used for gates conserve the number of ``-`` excitations per
qubit pair, which closes the dynamics on six configurations: the four
computational ones plus two leakage configurations where a single qubit's
pair is excited symmetrically (``++`` or ``--``).  All matrices in the
package use this six-row ordering.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "DqdLevel",
    "EXTENDED_BASIS",
    "COMPUTATIONAL_ROWS",
    "LEAKAGE_ROWS",
    "LOGICAL_Z",
    "LOGICAL_BITS",
    "basis_labels",
    "basis_state",
    "computational_basis_state",
    "leakage_population",
]


class DqdLevel(Enum):
    """Space state of a single double quantum dot."""

    PLUS = "+"
    MINUS = "-"


_P = DqdLevel.PLUS
_M = DqdLevel.MINUS

#: One configuration = the level of each of the four DQDs, qubit 1 first.
Configuration = tuple[DqdLevel, DqdLevel, DqdLevel, DqdLevel]

#: Row order of every 6x6 matrix and 6-vector in the package.
EXTENDED_BASIS: tuple[Configuration, ...] = (
    (_P, _M, _P, _M),  # row 0: logical |00>
    (_P, _P, _M, _M),  # row 1: leakage, both qubits symmetric/antisymmetric pair
    (_P, _M, _M, _P),  # row 2: logical |01>
    (_M, _P, _P, _M),  # row 3: logical |10>
    (_M, _M, _P, _P),  # row 4: leakage, mirror of row 1
    (_M, _P, _M, _P),  # row 5: logical |11>
)

#: Rows spanning the computational subspace, in |00>, |01>, |10>, |11> order.
COMPUTATIONAL_ROWS: tuple[int, int, int, int] = (0, 2, 3, 5)

#: Rows outside the computational subspace.
LEAKAGE_ROWS: tuple[int, int] = (1, 4)

#: Logical z of qubit 1 and qubit 2 on each row, read off the levels of the qubit's
#: two DQDs: +1 for ``+-`` (qubit value 0), -1 for ``-+`` (value 1), 0 on leakage.
LOGICAL_Z = {q: np.array([{(_P, _M): 1.0, (_M, _P): -1.0}.get(c[2 * q - 2:2 * q], 0.0)
                          for c in EXTENDED_BASIS]) for q in (1, 2)}

#: Logical basis-state labels, qubit 1 first, in :data:`COMPUTATIONAL_ROWS` order.
LOGICAL_BITS = tuple("".join("0" if LOGICAL_Z[q][row] > 0 else "1" for q in (1, 2))
                     for row in COMPUTATIONAL_ROWS)

_BIT_TO_ROW = dict(zip(LOGICAL_BITS, COMPUTATIONAL_ROWS))


def basis_labels() -> tuple[str, ...]:
    """Human-readable labels, e.g. ``"+-,+-"`` for row 0."""
    return tuple(
        f"{c[0].value}{c[1].value},{c[2].value}{c[3].value}" for c in EXTENDED_BASIS
    )


def basis_state(row: int) -> np.ndarray:
    """Unit vector on one of the six configurations."""
    if row not in range(6):
        raise ValueError(f"row must be 0..5, got {row}")
    v = np.zeros(6, dtype=complex)
    v[row] = 1.0
    return v


def computational_basis_state(bits: str) -> np.ndarray:
    """Six-dimensional unit vector for a logical basis state ``"00"``..``"11"``."""
    try:
        return basis_state(_BIT_TO_ROW[bits])
    except KeyError:
        raise ValueError(f"bits must be one of {','.join(map(repr, LOGICAL_BITS))}, "
                         f"got {bits!r}") from None


def leakage_population(v6: np.ndarray) -> float:
    """Total probability carried by the two leakage configurations."""
    v6 = np.asarray(v6, dtype=complex)
    if v6.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {v6.shape}")
    return float(np.sum(np.abs(v6[list(LEAKAGE_ROWS)]) ** 2))
