from __future__ import annotations

import numpy as np
import pytest

from dqdsim.basis import (
    COMPUTATIONAL_ROWS,
    EXTENDED_BASIS,
    LEAKAGE_ROWS,
    basis_labels,
    basis_state,
    computational_basis_state,
    leakage_population,
)


def test_dimensions_and_row_split():
    assert len(EXTENDED_BASIS) == 6
    assert COMPUTATIONAL_ROWS == (0, 2, 3, 5)
    assert LEAKAGE_ROWS == (1, 4)
    assert set(COMPUTATIONAL_ROWS) | set(LEAKAGE_ROWS) == set(range(6))


def test_basis_labels_are_distinct():
    labels = basis_labels()
    assert len(labels) == 6
    assert len(set(labels)) == 6
    for label in labels:
        left, right = label.split(",")
        assert len(left) == 2 and len(right) == 2


def test_leakage_rows_have_both_electrons_on_one_side():
    # leaked configurations put both carriers in the same single-dot level:
    # ++ or -- on a DQD; computational rows always mix one + with one -.
    labels = basis_labels()
    for row in LEAKAGE_ROWS:
        left, right = labels[row].split(",")
        assert left[0] == left[1] and right[0] == right[1]
    for row in COMPUTATIONAL_ROWS:
        left, right = labels[row].split(",")
        assert left[0] != left[1] and right[0] != right[1]


def test_basis_state_one_hot():
    for row in range(6):
        v = basis_state(row)
        assert v.shape == (6,)
        assert v[row] == 1.0
        assert np.count_nonzero(v) == 1


def test_basis_state_rejects_bad_row():
    with pytest.raises(ValueError):
        basis_state(6)
    with pytest.raises(ValueError):
        basis_state(-1)


@pytest.mark.parametrize(
    "bits,row", [("00", 0), ("01", 2), ("10", 3), ("11", 5)]
)
def test_computational_rows(bits: str, row: int):
    v = computational_basis_state(bits)
    assert v[row] == 1.0
    assert leakage_population(v) == 0.0


def test_computational_basis_state_rejects_garbage():
    for bad in ("0", "012", "ab", "2 1"):
        with pytest.raises(ValueError):
            computational_basis_state(bad)


def test_leakage_population_counts_only_leak_rows():
    v = np.zeros(6, dtype=complex)
    v[1] = np.sqrt(0.25)
    v[4] = np.sqrt(0.5) * 1j
    v[0] = np.sqrt(0.25)
    assert abs(leakage_population(v) - 0.75) < 1e-15
