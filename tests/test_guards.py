"""Input guards that no other tier-1 test reaches: each raises its own type and message."""

from __future__ import annotations

import numpy as np
import pytest

from dqdsim.basis import leakage_population
from dqdsim.compiler import z_gate
from dqdsim.decoherence import (
    DotGeometry,
    PhononBranch,
    single_phonon_tau_s,
    two_phonon_rates_per_s,
)
from dqdsim.linalg import dist_up_to_global_phase, is_unitary, require_normalized
from dqdsim.pulses import calibrate_phase_flip, evolve
from dqdsim.reporting import render_json

DEFORMATION = PhononBranch("deformation")

GUARDS = {
    "leakage_population shape": (
        lambda: leakage_population(np.zeros(4)),
        ValueError, "expected a 6-vector, got shape (4,)"),
    "z_gate qubit": (
        lambda: z_gate(3, 0.0),
        ValueError, "qubit must be 1 or 2, got 3"),
    "single_phonon_tau_s splitting": (
        lambda: single_phonon_tau_s(0.0, DEFORMATION),
        ValueError, "deps must be positive, got 0.0"),
    "two_phonon_rates_per_s mode": (
        lambda: two_phonon_rates_per_s(0.1, DEFORMATION, [0.02], DotGeometry(), "approximate"),
        ValueError, "mode must be 'reduced' or 'exact', got 'approximate'"),
    "require_normalized ndim": (
        lambda: require_normalized(np.eye(2)),
        ValueError, "expected a vector, got shape (2, 2)"),
    "dist_up_to_global_phase shape": (
        lambda: dist_up_to_global_phase(np.eye(2), np.eye(3)),
        ValueError, "shape mismatch: (2, 2) vs (3, 3)"),
    "evolve initial vector shape": (
        lambda: evolve([], np.full(4, 0.5)),
        ValueError, "expected a 6-vector, got shape (4,)"),
    "evolve initial matrix unitarity": (
        lambda: evolve([], 2.0 * np.eye(6)),
        ValueError, "initial matrix is not unitary within 1e-9"),
    "evolve initial ndim": (
        lambda: evolve([], np.eye(2)),
        ValueError, "initial must be a 6-vector or 6x6 matrix, got (2, 2)"),
    "calibrate_phase_flip dqd": (
        lambda: calibrate_phase_flip(5, 10.0),
        ValueError, "dqd must be 1..4, got 5"),
    "render_json non-string key": (
        lambda: render_json({1: 2.0}),
        TypeError, "JSON object keys must be strings, got 1"),
    "render_json unrenderable type": (
        lambda: render_json({"value": object()}),
        TypeError, "cannot render object in a report"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_is_unitary_is_false_on_a_non_square_input(shape):
    assert is_unitary(np.ones(shape)) is False
