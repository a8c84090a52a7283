"""Brute-force density-matrix evolution on a finite window of the line.

This is the reference the momentum engine is tested against: the walker's
full density matrix is stored as a (N, 2, N, 2) array over (position, coin)
and every step applies the Kraus sum directly in position space.  The window
is sized exactly to the light cone and grows by ``channel.max_hop`` sites per
side per step, so no probability is ever lost at the edges.

Each step folds the Kraus sum per shift pair.  Writing every Kraus operator
as E_n = sum_l S_l (x) M_{n,l} (S_l shifts by l sites, M_{n,l} is its 2x2
coin part),

    sum_n E_n rho E_n^dag = sum_{(l, l')} shift_{l,l'}(A_{l,l'} . rho),
    A_{l,l'} = sum_n M_{n,l} (x) conj(M_{n,l'}),

where A_{l,l'} is a 4x4 map on the coin pair (a, b) of rho[x, a, y, b] and
shift_{l,l'} moves the ket index by l and the bra index by l'.  The maps are
built from the channel's Kraus terms alone (no momentum-space code), once
per channel value, and only their nonzero rows are kept.  A step then views
rho coin-pair-major as (4, N*N) and adds one row-times-matrix product per
kept row into an (N, N) block of a (4, N', N') array; ``rho`` is returned as
the transposed (N', 2, N', 2) view of that array, so it is generally not
C-contiguous, and the next step reads it back without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import COIN_INDEX, KrausTerm, WalkChannel
from .pauli import coin_state, from_pauli


@dataclass
class DensityState:
    """Walker state after ``t`` steps, supported on sites x_min..x_max."""

    t: int
    x_min: int
    x_max: int
    # complex, shape (n_sites, 2, n_sites, 2); after a ``step`` this is a
    # transposed view of a coin-pair-major array, so not C-contiguous
    rho: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1)


def init_state(coin, x0: int = 0) -> DensityState:
    """Point mass at site ``x0`` with the given coin state.

    ``coin`` may be a preset name ("R", "L", "symmetric", "mixed"), a
    length-2 amplitude vector, a Pauli 4-vector, or a 2x2 density matrix;
    see ``pauli.coin_state``.
    """
    rho_c = from_pauli(coin_state(coin))
    rho = np.zeros((1, 2, 1, 2), dtype=complex)
    rho[0, :, 0, :] = rho_c
    return DensityState(t=0, x_min=x0, x_max=x0, rho=rho)


@lru_cache(maxsize=64)
def _fold(terms: tuple[KrausTerm, ...]) -> tuple:
    """The Kraus sum folded per shift pair; cached by the terms' values.

    Returns ``(l, l', rows)`` for every shift pair with a nonzero map, where
    ``rows`` holds ``(r, A_{l,l'}[r, :])`` for the nonzero rows ``r = 2 i + i'``
    of A_{l,l'}[(i, i'), (j, j')] = sum_n M_{n,l}[i, j] conj(M_{n,l'}[i', j']).
    The rows are read-only: every caller with equal terms shares them.
    """
    coin = {}  # (n, l) -> M_{n,l}
    for t in terms:
        m = coin.setdefault((t.n, t.l), np.zeros((2, 2), dtype=complex))
        m[COIN_INDEX[t.i], COIN_INDEX[t.j]] += t.amp
    maps = {}  # (l, l') -> A_{l,l'}
    for (n, l), m in coin.items():
        for (n2, l2), m2 in coin.items():
            if n2 == n:
                a = maps.setdefault((l, l2), np.zeros((4, 4), dtype=complex))
                a += np.kron(m, m2.conj())
    folded = []
    for (l, l2), a in sorted(maps.items()):
        a.setflags(write=False)
        rows = tuple((r, a[r]) for r in range(4) if np.any(a[r] != 0))
        if rows:
            folded.append((l, l2, rows))
    return tuple(folded)


def step(state: DensityState, channel: WalkChannel) -> DensityState:
    """One application of the channel; returns a new, wider state."""
    hop = channel.max_hop
    n_old = state.n_sites
    n_new = n_old + 2 * hop
    # rho[x, a, y, b] -> src[2 a + b, x * n_old + y]; a view for step's output
    src = state.rho.transpose(1, 3, 0, 2).reshape(4, n_old * n_old)
    new = np.zeros((4, n_new, n_new), dtype=complex)
    prod = np.empty(n_old * n_old, dtype=complex)
    prod_block = prod.reshape(n_old, n_old)
    for l, l2, rows in _fold(tuple(channel.terms)):
        lo, lo2 = hop + l, hop + l2
        for r, row in rows:
            np.dot(row, src, out=prod)
            new[r, lo:lo + n_old, lo2:lo2 + n_old] += prod_block
    return DensityState(
        t=state.t + 1,
        x_min=state.x_min - hop,
        x_max=state.x_max + hop,
        rho=new.reshape(2, 2, n_new, n_new).transpose(2, 0, 3, 1),
    )


def evolve(
    state: DensityState,
    channel: WalkChannel,
    steps: int,
    check_positivity: bool = False,
) -> DensityState:
    """Apply the channel ``steps`` times.

    With ``check_positivity`` the spectrum of the full density matrix is
    checked after every step (expensive; meant for diagnostics and tests).
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    for _ in range(steps):
        state = step(state, channel)
        if check_positivity:
            dim = 2 * state.n_sites
            lowest = np.linalg.eigvalsh(state.rho.reshape(dim, dim)).min()
            if lowest < -1e-10:
                raise ArithmeticError(
                    f"density matrix lost positivity at t={state.t}: "
                    f"lowest eigenvalue {lowest:.3g}"
                )
    return state


def position_distribution(state: DensityState) -> tuple[np.ndarray, np.ndarray]:
    """(positions, probabilities): the diagonal of rho traced over the coin."""
    probs = np.einsum("xaxa->x", state.rho).real
    return state.positions, probs


def moment_direct(state: DensityState, order: int) -> float:
    """Position moment <x^order> from the stored distribution."""
    if order < 0:
        raise ValueError(f"moment order must be nonnegative, got {order}")
    xs, probs = position_distribution(state)
    return float(np.sum(xs.astype(float) ** order * probs))


def variance_direct(state: DensityState) -> float:
    """Position variance <x^2> - <x>^2."""
    return moment_direct(state, 2) - moment_direct(state, 1) ** 2


def purity(state: DensityState) -> float:
    """Tr(rho^2); decreases (weakly) under any of these channels."""
    return float(np.einsum("xayb,ybxa->", state.rho, state.rho).real)
