"""Pauli-basis (Bloch) coordinates of coin operators, and coin-state validation.

A 2x2 coin operator O is stored as the real/complex 4-vector r with
O = sum_i r_i sigma_i, where (sigma_0..sigma_3) = (I, X, Y, Z).  Linear maps
on coin operators then become 4x4 matrices acting on these vectors, which is
the representation the moment engine works in; it changes basis with
``PAULI`` directly, through the constant ``moments._PAULI_MAP`` that
``moments.channel_maps`` applies once per engine call.  This module holds
the basis, the conversions and the validated initial coin states.
"""

from __future__ import annotations

import numpy as np

from .errors import UnnormalizedCoinError

# Basis order is load-bearing: index 0 is the identity, so the top row of any
# trace-preserving map is (1, 0, 0, 0) and Tr(O) = 2 * r_0.
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: Named initial coin states as Pauli 4-vectors of the density matrix.
COIN_PRESETS = {
    "R": (0.5, 0.0, 0.0, 0.5),
    "L": (0.5, 0.0, 0.0, -0.5),
    "symmetric": (0.5, 0.0, 0.5, 0.0),
    "mixed": (0.5, 0.0, 0.0, 0.0),
}

# Largest imaginary Pauli coordinate, and deviation of the trace from 1,
# that ``validate_coin_state`` accepts.
_COIN_TOL = 1e-12


def to_pauli(op: np.ndarray) -> np.ndarray:
    """Expand a (..., 2, 2) operator into Pauli coordinates r_i = Tr(sigma_i O) / 2."""
    return 0.5 * np.einsum("iab,...ba->...i", PAULI, np.asarray(op, dtype=complex))


def from_pauli(vec: np.ndarray) -> np.ndarray:
    """Rebuild the (..., 2, 2) operator from Pauli coordinates."""
    return np.einsum("...i,iab->...ab", np.asarray(vec, dtype=complex), PAULI)


def coin_state(coin) -> np.ndarray:
    """Resolve a coin specification into a validated Pauli 4-vector.

    Accepts a preset name from ``COIN_PRESETS``, a length-2 amplitude vector
    (a pure state), a length-4 Pauli vector, or a 2x2 density matrix.
    """
    if isinstance(coin, str):
        try:
            vec = np.array(COIN_PRESETS[coin], dtype=float)
        except KeyError:
            raise UnnormalizedCoinError(
                f"unknown coin preset {coin!r}; options: {sorted(COIN_PRESETS)}"
            ) from None
        return vec
    arr = np.asarray(coin, dtype=complex)
    if arr.shape == (2,):
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= 1e-12:
            raise UnnormalizedCoinError(f"amplitude norm is {float(norm)}, expected 1")
        vec = to_pauli(np.outer(arr, arr.conj()))
    elif arr.shape == (4,):
        vec = arr
    elif arr.shape == (2, 2):
        if not np.max(np.abs(arr - arr.conj().T)) <= 1e-12:
            raise UnnormalizedCoinError("coin density matrix is not Hermitian")
        vec = to_pauli(arr)
    else:
        raise UnnormalizedCoinError(f"cannot interpret shape {arr.shape} as a coin state")
    return validate_coin_state(vec)


def validate_coin_state(vec: np.ndarray) -> np.ndarray:
    """Check that ``vec`` encodes a unit-trace, Hermitian, positive coin density.

    Returns the vector as a real float array (the imaginary parts must be
    negligible for a Hermitian operator).  Every check fails on NaN.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (4,):
        raise UnnormalizedCoinError(f"coin state must be a 4-vector, got shape {vec.shape}")
    if not np.max(np.abs(vec.imag)) <= _COIN_TOL:
        raise UnnormalizedCoinError("coin density has non-real Pauli coordinates")
    real = vec.real.copy()
    if not abs(real[0] - 0.5) <= _COIN_TOL:
        raise UnnormalizedCoinError(f"coin trace is {float(2 * real[0])}, expected 1")
    bloch_sq = float(np.dot(real[1:], real[1:]))
    if not bloch_sq <= 0.25 + 1e-9:
        raise UnnormalizedCoinError("coin density is not positive semidefinite")
    return real
