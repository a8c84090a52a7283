"""Brute-force density-matrix evolution on a finite window of the line.

This is the oracle the momentum engine is tested against: the walker's full
density matrix is stored over (position, coin) and every step applies the
Kraus sum in position space.  The window is sized exactly to the light cone
and grows by ``channel.max_hop`` sites per side per step, so no probability
is ever lost at the edges.  It comes in two routes:

* ``step`` and ``evolve``, the reference: the literal Kraus sum on the full
  state, read from ``channel.terms`` alone;
* ``distributions``, the run ``walk`` uses: the same sum folded per shift
  pair and stepped on the coherences that can still reach a diagonal.

``step`` writes every Kraus operator as its terms,
E_n = sum a_{n,l,i,j} S_l (x) |i><j| (S_l shifts by l sites), so

    E_n rho E_n^dag = sum_{t, t'} a_t conj(a_t') S_l |i><j| rho |j'><i'| S_l'^dag

over the pairs of terms t = (l, i, j), t' = (l', i', j') of one operator: each
pair moves the ket by l and the bra by l' and carries the coin pair (j, j')
of rho[x, j, y, j'] to (i, i').  ``step`` adds up the weights a_t conj(a_t')
of each (i, i', l, l') into one row over the four source coin pairs (12 rows
for the broken line) and applies each row as one vector-matrix product with
the source, viewed coin-pair-major as (4, N^2), into one (N, N) buffer that
is added to the new state at its shifts.  It reads only ``channel.terms``
and ``COIN_INDEX``, never ``channels.coin_pair_maps`` or the coin blocks
behind it, so a fault in that decoding, which the band run and the moment
engine share, shows up against it.  It runs in complex arithmetic,
computes all four coin-pair blocks and returns ``rho`` as the transposed
(N', 2, N', 2) view of a coin-pair-major array, which the next step reads
back without a copy.

``walk`` reports only diagonals: the moments after every step and the final
distribution.  ``distributions`` runs a start for ``t_max`` steps and yields
just those, stepping only the coherences that can still reach one.  A step
moves the offset y - x of rho(x, y) by l' - l, at most 2 h (h = max_hop),
so at step m a coherence of offset above 2 h (t_max - m) never reaches the
diagonal again, and by Hermiticity rho_ab(x, y) = conj rho_ba(y, x) the
offsets below 0 repeat those above.  The run therefore holds each coin-pair
block as an upper band, diagonal-major:

    band[r, j, x] = rho_ab(x, x + j - 2 h),  j = 0 .. W - 1,
    W = min(N - 1, 2 h (t_max - m)) + 2 h + 1,

zero where x + j - 2 h leaves the window.  Band row 2 h is the diagonal, and
the rows above it, offsets 0 .. W - 2 h - 1, are stepped.  Before each step
the 2 h rows below it are refilled from the mirror image,
rho_ab(x, x - e) = conj rho_ba(x - e, x), because a step reads offsets down
to -2 h to fill offset 0.

The band run applies the channel folded per shift pair (``fold``): with
M_{n,l} the 2x2 coin part of E_n at hop l,

    sum_n E_n rho E_n^dag = sum_{(l, l')} shift_{l,l'}(A_{l,l'} . rho),
    A_{l,l'} = sum_n M_{n,l} (x) conj(M_{n,l'}),

where A_{l,l'} is a 4x4 map on the coin pair (a, b) of rho[x, a, y, b].  The
maps are ``channels.coin_pair_maps``, the ones the moment engine reads in
the Pauli basis; ``fold`` keeps only their nonzero rows, grouped by the
output coin pair r = 2 a + b they fill, each group by descending l' - l.
A pair (l, l') moves band row j to j + l' - l and site x to x + h + l, so
one matrix product of a group's stacked rows (k_r, 4) with a tile of band
rows gives one slab per pair, each a contiguous block of the new band.  The
first slab of a tile is written and the others are added; the descending
order of l' - l makes a later tile's write land on rows past every row that
an earlier tile added to, so the new band is allocated uninitialised and
only its border outside the first pair's window is cleared.  The product
buffer holds about one block, but at least ``_TILE_ELEMENTS``, because band
rows are whole windows long.  All four blocks are computed, the RL block
too, since the band holds only half of each.

Two facts cut the band's work further, and both are exact:

* Kraus operators that are real up to a global phase (the broken line at
  its default phases, coin dephasing, the Hadamard walk) give real maps.
  ``coin_pair_maps`` decides this once per channel, with the tolerance
  that also picks the engine's half-grid sweep, and ``fold`` then stores
  the rows as floats.
* A real map never carries the start's imaginary part into a diagonal:
  the diagonal of Phi^t(rho) is that of Phi^t(Re rho), the fact by which
  the engine's half grid drops sigma_y (``moments`` module docstring).  So
  the band takes the dtype of the rows.  On real rows it holds
  Re rho and every step is a plain float matmul, whatever the coin (the
  symmetric coin then walks exactly as the mixed one); on complex rows it
  is complex from the start.

Four blocks of W N entries per step come to about 0.4 of the full state's
4 N^2 over a run of t = 60 to 240 steps.  For 120 steps of the broken line
at p = 0.3 the band run takes about 22 ms with coin R and with the
symmetric coin alike, and ``evolve`` 210 ms (2-vCPU Xeon, one BLAS
thread).  The sums run in a different order from ``step``, so the
distributions match ``evolve``'s to about 1e-16, not byte for byte;
unreachable sites come out as exact zeros on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import COIN_INDEX, WalkChannel, coin_pair_maps
from .errors import ResourceLimitError
from .pauli import coin_state, from_pauli

# Fewest elements in the product buffer of one of ``distributions``' tiles:
# its band rows are whole sites long, so a tile of one block's size is few
# rows, and the per-tile numpy calls would cost more than the buffer saves.
_TILE_ELEMENTS = 1 << 16

# Site-pair-steps (n_sites^2 summed over the steps of a run) past which a
# run is refused before it starts (``check_run_size``).  They set both the
# time and the state's size.  On a 2-vCPU Xeon ``evolve`` takes about 8 ns
# per row of its Kraus sum (``_kraus_rows``), so 32 ns for the coherent walk's
# 4 rows, 90 ns for the broken line's 12 and 115 ns for a 16-row max_hop-2
# channel; the band run takes 4-40 ns.  The tests and the benchmark reach
# 1.1e7 (t = 200 on a max_hop-1 channel).
_MAX_SITE_PAIR_STEPS = 2 * 10**9


@dataclass
class DensityState:
    """Walker state after ``t`` steps, supported on sites x_min..x_max."""

    t: int
    x_min: int
    x_max: int
    # shape (n_sites, 2, n_sites, 2), complex from ``init_state`` and
    # ``step`` (a float64 array is accepted too); after a ``step`` this is
    # a transposed view of a coin-pair-major array, so not C-contiguous
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
    see ``pauli.coin_state``.  ``rho`` holds the coin density as given, as
    a complex array: ``distributions`` takes its band's dtype from the
    channel's rows, and ``step`` runs complex anyway.
    """
    rho_c = from_pauli(coin_state(coin))
    return DensityState(t=0, x_min=x0, x_max=x0, rho=rho_c.reshape(1, 2, 1, 2))


def fold(channel: WalkChannel) -> tuple:
    """The channel in the form ``distributions`` applies.

    One ``(rows, shifts)`` pair per output coin pair ``r = 2 i + i'``:
    ``rows`` stacks the nonzero rows A_{l,l'}[r, :] of the coin-pair maps
    (``channels.coin_pair_maps``) as a ``(k_r, 4)`` array, float when the
    maps are real, and ``shifts`` holds their shift pairs ``(l, l')``;
    ``k_r`` is 0 for a coin pair no map reaches.  The pairs run in order of
    descending offset shift ``l' - l``, then descending ``l``, the order
    the band run's write-first tiling needs.
    """
    hops, maps, real = coin_pair_maps(channel)
    if real:
        maps = maps.real
    groups = []
    for r in range(4):
        rows = maps[:, :, r]
        ket, bra = np.nonzero(np.any(rows != 0, axis=-1))
        order = np.lexsort((-hops[ket], hops[ket] - hops[bra]))
        ket, bra = ket[order], bra[order]
        shifts = tuple(zip(hops[ket].tolist(), hops[bra].tolist()))
        groups.append((rows[ket, bra], shifts))
    return tuple(groups)


def _kraus_rows(channel: WalkChannel) -> tuple[list, np.ndarray]:
    """The weights of ``step``'s Kraus sum, summed per target and shift pair.

    Returns the keys ``(r, l, l')``, r = 2 i + i' the output coin pair, and
    a complex ``(len(keys), 4)`` array whose row holds, for each source coin
    pair 2 j + j', the sum of a_t conj(a_t') over the term pairs t, t' of
    one Kraus operator with those hops and coins.
    """
    operators: dict[int, list] = {}
    for t in channel.terms:
        operators.setdefault(t.n, []).append(
            (t.l, COIN_INDEX[t.i], COIN_INDEX[t.j], t.amp))
    rows: dict[tuple, list] = {}
    for terms in operators.values():
        for l, i, j, amp in terms:
            for l2, i2, j2, amp2 in terms:
                row = rows.setdefault((2 * i + i2, l, l2), [0j] * 4)
                row[2 * j + j2] += amp * amp2.conjugate()
    return list(rows), np.array(list(rows.values()), dtype=complex)


def step(state: DensityState, channel: WalkChannel) -> DensityState:
    """One application of the channel, sum_n E_n rho E_n^dag; a new, wider state.

    The sum is read from ``channel.terms`` alone (see the module docstring)
    and runs in complex arithmetic, so the new state is complex.
    ``state.rho`` is left untouched.
    """
    hop = channel.max_hop
    keys, rows = _kraus_rows(channel)
    n_old = state.n_sites
    n_new = n_old + 2 * hop
    # rho[x, a, y, b] -> src[2 a + b, x * n_old + y]; a copy unless rho is
    # a step's output, which is complex and coin-pair-major already
    src = np.ascontiguousarray(state.rho.transpose(1, 3, 0, 2), dtype=complex)
    src = src.reshape(4, -1)
    new = np.zeros((4, n_new, n_new), dtype=complex)
    buf = np.empty(n_old * n_old, dtype=complex)
    slab = buf.reshape(n_old, n_old)
    for (r, l, l2), row in zip(keys, rows):
        np.dot(row, src, out=buf)
        new[r, hop + l:hop + l + n_old, hop + l2:hop + l2 + n_old] += slab
    return DensityState(
        t=state.t + 1,
        x_min=state.x_min - hop,
        x_max=state.x_max + hop,
        rho=new.reshape(2, 2, n_new, n_new).transpose(2, 0, 3, 1),
    )


def distributions(state: DensityState, channel: WalkChannel, t_max: int):
    """Run ``state`` for ``t_max`` steps, yielding each position distribution.

    Yields ``(positions, probabilities)`` after 0, 1, ..., ``t_max`` steps:
    ``position_distribution`` of the states ``evolve`` would reach, to about
    1e-16 rather than byte for byte, with unreachable sites as exact zeros.
    Only the coherences that can still reach the diagonal by step ``t_max``
    are stepped, held as the upper band of the module docstring, so no
    ``DensityState`` is formed after the start.  ``state.rho`` must be
    Hermitian and is left untouched; on real rows only its real part is
    read.  The channel is folded once (``fold``).
    """
    if t_max < 0:
        raise ValueError(f"step count must be nonnegative, got {t_max}")
    hop = channel.max_hop
    check_run_size(state.n_sites, hop, t_max)
    groups = fold(channel)
    diag = 2 * hop  # the band row of offset 0

    def width(n_sites: int, steps_left: int) -> int:
        return min(n_sites - 1, diag * steps_left) + diag + 1

    n_old = state.n_sites
    w_old = width(n_old, t_max)
    square = state.rho.transpose(1, 3, 0, 2).reshape(4, n_old, n_old)
    dtype = groups[0][0].dtype
    if dtype == float:  # real rows: Re rho alone reaches a diagonal
        square = square.real
    band = np.zeros((4, w_old, n_old), dtype=dtype)
    for d in range(w_old - diag):
        band[:, diag + d, :n_old - d] = square.diagonal(d, 1, 2)
    k_max = max(1, *(len(rows) for rows, _ in groups))
    x_min = state.x_min
    for m in range(t_max + 1):
        probs = band[0, diag] + band[3, diag]
        yield x_min + np.arange(n_old), probs.real
        if m == t_max:
            return
        # the 2 hop rows below the diagonal from the mirror image,
        # rho_ab(x, x - e) = conj rho_ba(x - e, x), zero left of the window
        band[:, :diag, :diag] = 0
        for e in range(1, min(diag, n_old - 1) + 1):
            np.conjugate(band[::3, diag + e, :n_old - e], out=band[::3, diag - e, e:])
            np.conjugate(band[2:0:-1, diag + e, :n_old - e], out=band[1:3, diag - e, e:])
        n_new = n_old + diag
        w_new = width(n_new, t_max - m - 1)
        new = np.empty((4, w_new, n_new), dtype=dtype)
        height = max(-(-w_old // k_max), _TILE_ELEMENTS // (k_max * n_old))
        buf = np.empty(k_max * min(height, w_old) * n_old, dtype=dtype)
        for block, (rows, shifts) in zip(new, groups):
            if not shifts:  # no row targets this coin pair
                block[diag:] = 0
                continue
            # pair (l, l') moves band row j to j + l' - l, kept where it
            # lands in [diag, w_new), and site x to x + hop + l
            spans = []
            for l, l2 in shifts:
                s = l2 - l
                lo, hi = max(diag, s), min(w_old + s, w_new)
                spans.append((lo - s, hi - s, s, hop + l))
            j0, j1, s, c = spans[0]
            # the first pair's window is written tile by tile; clear the rest
            # of the upper band (the rows below it are refilled before use)
            block[diag:j0 + s] = 0
            block[j1 + s:] = 0
            block[j0 + s:j1 + s, :c] = 0
            block[j0 + s:j1 + s, c + n_old:] = 0
            for y0 in range(0, w_old, height):
                y1 = min(y0 + height, w_old)
                prod = buf[:len(rows) * (y1 - y0) * n_old].reshape(len(rows), -1)
                np.matmul(rows, band[:, y0:y1].reshape(4, -1), out=prod)
                slabs = prod.reshape(len(rows), y1 - y0, n_old)
                for q, ((j0, j1, s, c), slab) in enumerate(zip(spans, slabs)):
                    a, b = max(y0, j0), min(y1, j1)
                    if a >= b:
                        continue
                    if q:
                        block[a + s:b + s, c:c + n_old] += slab[a - y0:b - y0]
                    else:
                        block[a + s:b + s, c:c + n_old] = slab[a - y0:b - y0]
        band, n_old, w_old, x_min = new, n_new, w_new, x_min - hop


def check_run_size(n_sites: int, max_hop: int, steps: int) -> None:
    """Refuse a run of ``steps`` steps from ``n_sites`` sites that is too large.

    Step s holds n_sites + 2 * max_hop * s sites; the squares summed over
    the run are counted exactly, and if they exceed ``_MAX_SITE_PAIR_STEPS``
    a ``ResourceLimitError`` names the limit.
    """
    sum_s = steps * (steps + 1) // 2
    sum_s2 = steps * (steps + 1) * (2 * steps + 1) // 6
    count = (steps * n_sites**2 + 4 * max_hop * n_sites * sum_s
             + 4 * max_hop**2 * sum_s2)
    ResourceLimitError.check(count, _MAX_SITE_PAIR_STEPS, "site-pair-step count")


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
    check_run_size(state.n_sites, channel.max_hop, steps)
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
