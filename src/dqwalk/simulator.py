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
shift_{l,l'} moves the ket index by l and the bra index by l'.  The maps
are ``channels.coin_pair_maps``, the same ones the moment engine reads in
the Pauli basis; ``fold`` keeps only their nonzero rows, grouped by the
output coin pair r = 2 a + b they fill (12 rows in 4 groups for the broken
line).  The oracle's own work is the position-space step below, which no
momentum-space code touches.

A step views rho coin-pair-major as (4, N, N) and fills each (N', N') block
r of a new (4, N', N') array from one matrix product: the group's stacked
rows (k_r, 4) times the source (4, N*N) give one (N, N) slab per row, each
landing in the block at its own shift.  The first slab is written, the
others are added, so the new array is allocated uninitialised and only
the block's border outside the first slab's window is cleared (a block no
row targets, as in a hop-0 measurement, is set to zero).  The product runs
over tiles of the ket axis, about N / k sites each (k the largest group's
row count) and at least ``_TILE_FLOOR``, so its buffer holds about N^2
elements, one block's worth, rather than k N^2.  Tiling and write-first go
together only because each group starts with its largest ket offset l: a
later tile's write then lands on rows past every row that an earlier tile
added to.  ``evolve`` and the CLI fold the channel once per run
(``fold``) and pass the fold to every ``step``.

Three facts cut the work further, and all are exact:

* Kraus operators that are real up to a global phase (the broken line at
  its default phases, coin dephasing, the Hadamard walk) give real maps.
  ``coin_pair_maps`` decides this once per channel, with the tolerance
  that also picks the engine's half-grid sweep, and ``fold`` then stores
  the rows as floats.
* A real start (any coin density with no sigma_y part: the presets R, L
  and mixed among them) is stored as float64 by ``init_state``, and a real
  map keeps it real.  ``step`` takes the new array's dtype from numpy's
  promotion of the state and the rows, so a real state on real rows runs
  a plain float matmul and stays float64, and a real state on complex rows
  turns complex on its first step.  For a complex state on real rows, a
  real row acts on the real and imaginary parts of rho alike, so the
  product runs as a real matmul on float views of the source and the new
  array, where each site spans two adjacent columns; no copy is made.  A
  complex state on complex rows runs the same loop in complex arithmetic.
* Every Kraus map preserves Hermiticity, so block RL (r = 2) is the
  conjugate transpose of block LR (r = 1).  ``step`` computes blocks 0, 1
  and 3 and fills block 2 from block 1; it therefore expects a Hermitian
  ``rho``, which every state from ``init_state`` and ``step`` is.

``rho`` is returned as the transposed (N', 2, N', 2) view of the new array,
so it is generally not C-contiguous, and the next step reads it back
without a copy.  The sums run in a different order from the term-by-term
loop and from earlier versions of this step, so probabilities agree with
them to about 1e-17, not byte for byte; unreachable sites still come out
as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import WalkChannel, coin_pair_maps
from .pauli import coin_state, from_pauli

# Fewest ket rows per tile of a step's product: below this the per-tile
# numpy calls cost more than the smaller buffer saves.
_TILE_FLOOR = 32


@dataclass
class DensityState:
    """Walker state after ``t`` steps, supported on sites x_min..x_max."""

    t: int
    x_min: int
    x_max: int
    # float64 when real, else complex; shape (n_sites, 2, n_sites, 2); after
    # a ``step`` this is a transposed view of a coin-pair-major array, so
    # not C-contiguous
    rho: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def positions(self) -> np.ndarray:
        # offsets from x_min, so a window ending at the int64 maximum fits
        return self.x_min + np.arange(self.n_sites)


def init_state(coin, x0: int = 0) -> DensityState:
    """Point mass at site ``x0`` with the given coin state.

    ``coin`` may be a preset name ("R", "L", "symmetric", "mixed"), a
    length-2 amplitude vector, a Pauli 4-vector, or a 2x2 density matrix;
    see ``pauli.coin_state``.  ``rho`` is float64 when the coin density's
    imaginary part is exactly zero (a Pauli vector with sigma_y = 0, which
    the presets R, L and mixed are) and complex otherwise.  The test has no
    tolerance: a real map keeps an imaginary part of 1e-18 at 1e-18, so
    dropping one would change the walk, unlike the rounding of global
    phases that ``coin_pair_maps`` absorbs in the maps.
    """
    rho_c = from_pauli(coin_state(coin))
    if not np.any(rho_c.imag):
        rho_c = rho_c.real.copy()
    return DensityState(t=0, x_min=x0, x_max=x0, rho=rho_c.reshape(1, 2, 1, 2))


@dataclass(frozen=True)
class FoldedChannel:
    """A channel's Kraus sum folded per output coin pair; see ``fold``."""

    max_hop: int
    # one (rows, shifts) pair per output coin pair r = 2 i + i'
    groups: tuple


def fold(channel: WalkChannel) -> FoldedChannel:
    """The channel in the form ``step`` applies.

    One ``(rows, shifts)`` pair per output coin pair ``r = 2 i + i'``:
    ``rows`` stacks the nonzero rows A_{l,l'}[r, :] of the coin-pair maps
    (``channels.coin_pair_maps``) as a ``(k_r, 4)`` array, float when the
    maps are real, and ``shifts`` holds their shift pairs ``(l, l')``;
    ``k_r`` is 0 for a coin pair no map reaches.  The pairs run in order of
    descending ket offset ``l``, then ascending ``l'``, so each group starts
    with its largest ``l``, which ``step``'s write-first tiling relies on.
    A caller that steps one channel many times folds it once and passes
    the fold to every ``step``.
    """
    hops, maps, real = coin_pair_maps(channel)
    if real:
        maps = maps.real
    maps, kets = maps[::-1], hops[::-1]  # descending ket offset l
    groups = []
    for r in range(4):
        rows = maps[:, :, r]
        kept = np.any(rows != 0, axis=-1)
        ket, bra = np.nonzero(kept)
        shifts = tuple(zip(kets[ket].tolist(), hops[bra].tolist()))
        groups.append((rows[kept], shifts))
    return FoldedChannel(channel.max_hop, tuple(groups))


def step(state: DensityState, channel: WalkChannel | FoldedChannel) -> DensityState:
    """One application of the channel; returns a new, wider state.

    ``channel`` is a ``WalkChannel``, folded afresh on every call, or its
    ``fold``, which a caller stepping many times builds once.
    ``state.rho`` must be Hermitian, as every state from ``init_state`` and
    ``step`` is: the RL coin-pair block is filled as the conjugate
    transpose of the LR block rather than computed.  The new state is
    float64 only if the state and the folded rows both are.
    """
    folded = channel if isinstance(channel, FoldedChannel) else fold(channel)
    hop, groups = folded.max_hop, folded.groups
    n_old = state.n_sites
    n_new = n_old + 2 * hop
    # rho[x, a, y, b] -> src[2 a + b, x, y]; a view for step's output
    src = state.rho.transpose(1, 3, 0, 2).reshape(4, n_old, n_old)
    rows_dtype = groups[0][0].dtype
    new = np.empty((4, n_new, n_new), dtype=np.result_type(src, rows_dtype))
    out, width = new, 1  # width: array columns per site
    if new.dtype != rows_dtype:
        # a complex state on real rows: the rows act on real and imaginary
        # parts alike, so run the products on float views, where a site
        # spans two columns
        src, out, width = src.view(float), new.view(float), 2
    cols = width * n_old
    k_max = max(1, *(len(rows) for rows, _ in groups))
    height = max(_TILE_FLOOR, -(-n_old // k_max))
    buf = np.empty(k_max * min(height, n_old) * cols, dtype=out.dtype)
    for r, (block, (rows, shifts)) in enumerate(zip(out, groups)):
        if r == 2:  # RL: filled from LR below
            continue
        if not shifts:  # no row targets this coin pair
            block[...] = 0
            continue
        lo, lo2 = hop + shifts[0][0], width * (hop + shifts[0][1])
        # the first pair's window is written tile by tile; clear the rest
        block[:lo] = 0
        block[lo + n_old:] = 0
        block[lo:lo + n_old, :lo2] = 0
        block[lo:lo + n_old, lo2 + cols:] = 0
        for x0 in range(0, n_old, height):
            x1 = min(x0 + height, n_old)
            prod = buf[:len(rows) * (x1 - x0) * cols].reshape(len(rows), -1)
            np.matmul(rows, src[:, x0:x1].reshape(4, -1), out=prod)
            slabs = prod.reshape(len(rows), x1 - x0, cols)
            block[lo + x0:lo + x1, lo2:lo2 + cols] = slabs[0]
            for (l, l2), slab in zip(shifts[1:], slabs[1:]):
                lo_q, lo2_q = hop + l, width * (hop + l2)
                block[lo_q + x0:lo_q + x1, lo2_q:lo2_q + cols] += slab
    # the new state is Hermitian: rho[x, R, y, L] = conj(rho[y, L, x, R])
    np.conjugate(new[1].T, out=new[2])
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
    folded = fold(channel)
    for _ in range(steps):
        state = step(state, folded)
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
