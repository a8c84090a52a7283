"""Exact position moments via momentum-space transfer matrices.

For a translation-invariant channel started from a point mass at the origin,
every position moment is an integral over a single momentum k of traces of
small (4x4 in the Pauli basis) matrices:

    <x>_t   = i * Int dk/2pi  sum_{m=1..t} Tr{ G_k a_m }
    <x^2>_t =     Int dk/2pi [ sum_{m=1..t} Tr{ J_k a_m }
              + sum_{m=1..t} sum_{m'<m} ( Tr{ G*_k L^{m-m'-1} (G_k a_{m'}) }
                                        + Tr{ G_k L^{m-m'-1} (G*_k a_{m'}) } ) ]

with a_m = L_k^{m-1} rho0 and G*_k the partner map carrying the derivative
on the conjugated factor,

where L_k applies one step at fixed momentum, G_k is its derivative with the
right (conjugated) factor frozen, and J_k carries the derivative on both
sides.  The double sum telescopes into a second running vector, so the
default path costs O(t) work per momentum node: both running vectors are
advanced by one 8x8 block map B and read by a 3x8 readout R.  The sweep
(``_accumulate``) reads s = 16 horizons per advance from rows R B^j built by
doubling, advances by B^s, and reads a group of 16 such blocks with two
BLAS GEMMs.  Per node-step that is 16 multiply-adds in the GEMMs, 4 in the
advance and 3584 / t in the tables, where one advance per horizon would
cost 88.  ``naive=True`` keeps the literal complex double sum for
cross-checking.

The sweep runs in real arithmetic, which is exact rather than an
approximation.  In the Pauli basis a Hermiticity-preserving map has a real
matrix, so L_k and J_k are real.  Differentiating completeness,
sum_n C_n^dag C_n = I, makes sum_n C_n^dag C_n' anti-Hermitian, so the top
rows of G_k and G*_k (the only rows a trace reads) are purely imaginary.
G*_k is the complex conjugate of G_k, so G_k - G*_k = 2i Im G_k and the
telescoping vector is i times a real vector; the factors of i are put back
analytically.  The discarded parts are checked to be negligible once per
channel, on its Fourier coefficients, which bounds them at every k
(``_coefficient_residue``; ``NonRealMomentError`` otherwise).  That residue
is ``MomentSeries.max_imag_residue``.

The k-integral is evaluated on a uniform grid, which is *exact* once the
node count exceeds the trigonometric degree of the integrand, not merely
approximate.  One step at momentum k has degree 2 * max_hop: the entries of
C_n(k) (x) conj(C_n(k)) carry only the frequencies l - l' with
|l|, |l'| <= max_hop.  The derivative maps carry the same frequencies
(d/dk turns e^{ilk} into i*l*e^{ilk}), so every term of the integrand at
horizon t, a product of at most t such maps, has degree <= 2 * max_hop * t.
A uniform n-node rule integrates e^{ijk} exactly for every |j| < n, so
n_k = 2 * max_hop * t + 1 nodes suffice (``exact_node_bound``), and every
series runs on exactly that count; no caller sets it.  The same
frequencies build the maps: the channel's terms fold into one Fourier
coefficient per frequency l - l' and map (``_fourier_coefficients``), with
the change to Pauli coordinates a constant matrix (``_PAULI_MAP``).  Each
engine call decodes and checks them once (``channel_maps``, one
``ChannelMaps`` value).  Every route evaluates only the real parts it
reads, the block map B and the readout R, laid out by another constant
(``_LAYOUT``) and built from the cosine and sine parts of the checked
coefficients; ``transfer_grids`` is the one place that evaluates them at
momenta.  Only ``naive=True`` evaluates the complex maps
(``_complex_maps``).

Many channels need only half of that grid.  If the coin-pair maps of
``channels.coin_pair_maps`` are real (every Kraus operator real up to a
global phase: the broken line at its default phases, coin dephasing with
the Hadamard coin), each commutes with rho -> conj(rho), so
L(-k) = P conj(L(k)) P, G(-k) = -P conj(G(k)) P and J(-k) = P conj(J(k)) P,
where P = diag(1, 1, -1, 1) is complex conjugation in the Pauli basis.
Node -k then carries the integrand of node k started from P rho0, and since
the moments are linear in rho0 the pair sums to twice node k started from
rho0 with its sigma_y part removed.  The same flag picks the real rows of
``walk``'s band run.  The series (``moment_series``) and the limit
(``asymptotic_first_moment``) then sweep only nodes 0 .. n_k // 2, with
weight 2 except at the self-paired nodes -pi and 0 (``_swept_rule``).  In
the series the weights go into the start vector, so the sweep itself is
unchanged.  This is the same n_k-node rule, not a coarser one, and n_k is
still the exactness bound.  Any other channel sweeps all n_k nodes.

The limit picks its own node count: from ``_LIMIT_NODES`` it doubles until
its rule agrees with the rule of half as many nodes that it contains.  It
needs no eigenvalues where every node clearly contracts: a Frobenius-norm
certificate on powers of the Bloch blocks decides first
(``_check_contracting``).

Besides the sweep, the module holds the checks the sweep is played against:
the literal double sum (``naive=True``), the coin-noise reduction of Brun
et al. (``second_moment_coin_specialized``, a whole series in one pass) and
the finite-horizon variance slope (``diffusion_from_slope``).  Everything
here returns numbers; ``cli`` writes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import WalkChannel, coin_pair_maps, is_coin_channel, momentum_grid
from .errors import (
    BallisticRegimeError,
    NonRealMomentError,
    NotACoinChannelError,
    NotContractingError,
    QuadratureTooCoarseWarning,
    ResourceLimitError,
)
from .pauli import PAULI, coin_state

# Momentum nodes are swept in fixed-size chunks, summed in order: the sweep's
# workspace is sized for one chunk (see ``_accumulate``).
_CHUNK = 256

# Horizons the sweep reads per advance, s in ``_accumulate``.  Per node the
# row tables cost about 96 s + 512 log2(s) multiply-adds and the advances
# 64 t / s.  On a 2-vCPU Xeon (numpy 2.4, one BLAS thread) s = 16 ties s = 8
# in calls at t = 10-200 and is 7% faster at t = 250 and 17% at t = 511;
# s = 32 doubles the tables and pays only past t = 2000.
_BLOCK = 16

# Blocks of horizons advanced before one GEMM reads them all.
_GROUP = 16


# A grid part the real sweep discards, or the imaginary part of a moment
# computed in complex arithmetic, above this is reported as an error rather
# than silently truncated.
_IMAG_TOL = 1e-8

# The change of basis of a coin-pair map A (``coin_pair_maps``) to Pauli
# coordinates: vec(T^dag A T) / 2 = _PAULI_MAP @ vec(A), row-major, with T
# the Pauli matrices as columns.
_PAULI_MAP = np.kron(PAULI.reshape(4, 4).conj(), PAULI.reshape(4, 4)) / 2

# The sweep's B (rows 0-63) and R (rows 64-87) as linear forms in the step,
# drift and dispersion maps L, G, J (column 16 w + 4 i + j: entry (i, j) of
# map w).  B = [[L, 2 Im G], [0, L]] advances (w_r, a), 2 Im G being the real
# part of -2i G (see the module docstring); with d = 2 Im G[0], R's rows read
# the first moment (0, -d), the dispersion (0, 2 Re J[0]) and the cross sum
# (d, 0), each with its factors of i put back.
_ENTRY = np.eye(16).reshape(4, 4, 16)
_LAYOUT = np.zeros((11, 8, 3, 16), dtype=complex)
_LAYOUT[:4, :4, 0] = _LAYOUT[4:8, 4:, 0] = _ENTRY
_LAYOUT[:4, 4:, 1] = -2j * _ENTRY
_LAYOUT[8, 4:, 1] = 2j * _ENTRY[0]
_LAYOUT[9, 4:, 2] = 2.0 * _ENTRY[0]
_LAYOUT[10, :4, 1] = -2j * _ENTRY[0]
_LAYOUT = _LAYOUT.reshape(88, 48)

# Sizes refused before they are allocated (``ResourceLimitError``): nodes,
# horizon (a series holds O(t) arrays at any node count) and swept
# node-steps (about 10 ns each on a 2-vCPU Xeon).  Each is over 100 times
# what the tests and the benchmark use: 2001 nodes, t = 1000, 1e6 steps.
_MAX_NODES = 10**6
_MAX_HORIZON = 10**6
_MAX_NODE_STEPS = 10**10

# The contraction certificate (``_check_contracting``): squarings of each
# Bloch block, and the squared Frobenius norm of M^(2^_SQUARINGS) below
# which its radius is under 1 - 2e-9.
_SQUARINGS = 10
_CERTIFIED = (1.0 - 2e-9) ** (2 * 2**_SQUARINGS)

# The first node count of the limit's rule (``asymptotic_first_moment``).  At 64
# nodes all 648 limits of the benchmark's grid agree with the 32-node rule
# (0.59 ms a call on a 2-vCPU Xeon, numpy 2.4); starting at 32, 142 of them
# double once and a call takes 0.66 ms.
_LIMIT_NODES = 64
# The last count, which returns with a warning if its rule still disagrees
# with the rule of half as many nodes.  A call that reaches it peaks at 42 MiB
# (tracemalloc) in 0.25 s on the full grid (broken line, theta1 = 0.4,
# p = 1e-8, symmetric coin) and at 21 MiB in 0.11 s on a half grid (p = 2e-9,
# coin R, where rounding limits the agreement); 2**16 doubles both.
_MAX_LIMIT_NODES = 2**15


def exact_node_bound(channel: WalkChannel, t_max: int) -> int:
    """Minimum node count for which the uniform rule is exact at horizon t.

    Every term of the moment integrand up to horizon t is a trigonometric
    polynomial in k of degree <= 2 * max_hop * t (each step map has degree
    2 * max_hop; see the module docstring), and an n-node uniform rule
    integrates every frequency |j| < n exactly.
    """
    return 2 * channel.max_hop * t_max + 1


# --- transfer matrices ------------------------------------------------------

def _fourier_coefficients(channel: WalkChannel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Frequencies d and Fourier coefficients of the step, drift and dispersion maps.

    With C_n(k) = sum_l M_{n,l} e^{-ilk}, each map sums w S_{l,l'} e^{-i(l-l')k}
    over hop pairs: S_{l,l'} is A_{l,l'} of ``coin_pair_maps`` in Pauli
    coordinates, w = 1 (step), -i*l (drift: C_n' on the left) or l*l'
    (dispersion: C_n' on both sides).  Returns the distinct d = l - l', the
    (48, n_d) array whose column d stacks the three 4x4 coefficients of
    e^{-idk}, and whether the maps A are real (licensing the half grid).
    """
    hops, maps, real = coin_pair_maps(channel)
    left, right = np.repeat(hops, len(hops)), np.tile(hops, len(hops))
    freqs, slot = np.unique(left - right, return_inverse=True)
    # (3, n_d, pairs): each pair's three weights in its frequency's row
    fold = np.zeros((3, len(freqs), len(left)), dtype=complex)
    fold[:, slot, np.arange(len(left))] = (np.ones(len(left)), -1j * left, left * right)
    coef = fold @ (maps.reshape(-1, 16) @ _PAULI_MAP.T)
    return freqs, coef.transpose(0, 2, 1).reshape(48, -1), real


@dataclass(frozen=True)
class ChannelMaps:
    """A channel's step, drift and dispersion maps as checked Fourier coefficients.

    ``freqs`` are the frequencies d and ``coef`` the (48, n_d) complex
    coefficients of ``_fourier_coefficients``, ``residue`` their
    ``_coefficient_residue``.  ``sweep`` is the (2 n_d, 88) real array of
    the sweep's B and R: every entry is the real part of a map
    sum_d A_d e^{-idk}, which is sum_d Re A_d cos(dk) + Im A_d sin(dk), so
    [cos(dk), sin(dk)] @ ``sweep`` gives the 64 entries of B and the 24 of
    R at momentum k (``_LAYOUT``).  ``real`` says whether the coin-pair maps
    are real, which licenses the half grid (``_swept_rule``).
    """

    freqs: np.ndarray
    coef: np.ndarray
    sweep: np.ndarray
    residue: float
    real: bool


def channel_maps(channel: WalkChannel) -> ChannelMaps:
    """Decode and check the channel's maps, once per engine call.

    Raises:
        NonRealMomentError: if the coefficients are not finite or lack the
            structure the real sweep assumes (``_coefficient_residue``).
    """
    freqs, coef, real = _fourier_coefficients(channel)
    residue = _coefficient_residue(coef)
    parts = _LAYOUT @ coef
    sweep = np.concatenate([parts.real, parts.imag], axis=1).T
    return ChannelMaps(freqs, coef, sweep, residue, real)


def transfer_grids(
    maps: ChannelMaps, ks: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The real block map B (n, 8, 8) and readout R (n, 3, 8) at the momenta ``ks``.

    One (n, 2 n_d) @ (2 n_d, 88) product of [cos(dk), sin(dk)] with
    ``maps.sweep``: the maps every route but ``naive=True`` reads.  Written
    into the flat buffer ``out`` if given (the sweep's workspace), and B and
    R are views of it.
    """
    n = len(ks)
    phases = np.multiply.outer(ks, maps.freqs)
    grid = np.matmul(np.concatenate([np.cos(phases), np.sin(phases)], axis=1), maps.sweep,
                     out=None if out is None else _take(out, n, 88))
    return grid[:, :64].reshape(n, 8, 8), grid[:, 64:].reshape(n, 3, 8)


def _complex_maps(
    maps: ChannelMaps, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The complex step, drift and dispersion maps (n, 4, 4) at ``ks``, for ``naive``.

    One (48, n_d) @ (n_d, n_k) product of the checked ``maps.coef`` with
    e^{-idk}.  The drift's partner map O -> sum_n C_n O C_n'^dag is its
    complex conjugate.
    """
    grid = (maps.coef @ np.exp(-1j * np.multiply.outer(maps.freqs, ks))).reshape(3, 4, 4, -1)
    step, drift, dispersion = np.moveaxis(grid, -1, 1)
    return step, drift, dispersion


def _coefficient_residue(coef: np.ndarray) -> float:
    """Worst deviation of the coefficients from the structure the real sweep assumes.

    The sweep keeps only the real step map, the imaginary top row of the
    drift map and the real top row of the dispersion map.  A map
    sum_d A_d e^{-idk} is real at every k exactly when A_{-d} = conj(A_d),
    and i times a real map when A_{-d} = -conj(A_d); the frequency set is
    symmetric, so -d is the reversed column order.  Each discarded part is
    at most n_d / 2 times this residue at any k.  Every coefficient must be
    finite and the residue below tolerance, or the channel is rejected; a
    NaN fails the check, so bad channel data cannot pass silently.
    """
    maps = coef.reshape(3, 4, 4, -1)
    mirror = maps[..., ::-1].conj()
    discarded = (
        maps[0] - mirror[0],
        maps[1, 0] + mirror[1, 0],
        maps[2, 0] - mirror[2, 0],
    )
    residue = max(float(np.abs(part).max()) for part in discarded)
    if not (np.isfinite(coef).all() and residue <= _IMAG_TOL):
        raise NonRealMomentError(
            f"channel coefficients are not finite with the real/imaginary structure "
            f"of a trace-preserving channel (residue {residue:.3g}); "
            "the channel data are inconsistent"
        )
    return residue


# --- the moment sweep -------------------------------------------------------

def _naive_cross(
    maps: tuple[np.ndarray, np.ndarray, np.ndarray], start: np.ndarray, t_max: int
) -> np.ndarray:
    """Literal complex double sum of the cross term, O(t^2) per momentum.

    Kept as an independent route to catch bookkeeping errors in the
    telescoped real recursion; ``maps`` are the chunk's ``_complex_maps``.
    Returns, for each m, the chunk sum of the m-th inner sum over m' < m
    (not yet accumulated over m).
    """
    def mv(mats, vecs):
        return np.matmul(mats, vecs[..., None])[..., 0]

    step, drift, _ = maps
    # Tr{A O} = 2 * (row 0 of A) . (Pauli vector of O); fold in the factor 2.
    partner = drift.conj()  # G*: O -> sum_n C_n O C_n'^dag
    g_row = 2.0 * drift[:, 0, :]
    gd_row = 2.0 * partner[:, 0, :]
    a_list = [start.T.astype(complex)]
    for _ in range(1, t_max):
        a_list.append(mv(step, a_list[-1]))
    inner = np.zeros(t_max + 1, dtype=complex)
    for m_prime in range(1, t_max):
        y1 = mv(drift, a_list[m_prime - 1])
        y2 = mv(partner, a_list[m_prime - 1])
        for m in range(m_prime + 1, t_max + 1):
            inner[m] += np.einsum("ni,ni->", gd_row, y1)
            inner[m] += np.einsum("ni,ni->", g_row, y2)
            if m < t_max:
                y1 = mv(step, y1)
                y2 = mv(step, y2)
    return inner


def _take(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of the flat buffer ``buf`` as a C-ordered array."""
    return buf[:math.prod(shape)].reshape(shape)


class _Workspace:
    """The buffers of one call's sweep, allocated once and sized for one chunk.

    Each buffer serves two stages of ``_accumulate``: ``spare`` holds the
    chunk's B and R, then its power B^s (s = ``_BLOCK``); ``table`` the
    readout rows R B^j node-first, then a group of running vectors; ``rows``
    the powers B^h, then the readout rows laid out for the GEMMs.  ``reads``
    takes a group's readouts, and ``sums`` collects them over all chunks.
    """

    def __init__(self, t_max: int, n: int) -> None:
        n_blocks = -(-max(t_max, 1) // _BLOCK)
        self.group = min(_GROUP, n_blocks)
        # One allocation, not three: glibc's malloc trims the heap once its
        # free top exceeds twice the largest block freed so far, so three
        # blocks of the same total were returned to the system after every
        # call and faulted back in (88 minor page faults per t = 60 call on
        # a max_hop-2 channel; one block takes none).  ``table`` also holds
        # _GROUP running 8-vectors per node and ``rows`` two 8x8 maps.
        arena = np.empty((88 + 32 * _BLOCK) * n)
        self.spare = arena[:88 * n]
        self.table = arena[88 * n:(88 + 16 * _BLOCK) * n]
        self.rows = arena[(88 + 16 * _BLOCK) * n:]
        self.reads = np.empty((self.group, 4 * _BLOCK))
        self.sums = np.zeros((n_blocks, 4 * _BLOCK))

    def series(self, t_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three running sums of ``_accumulate`` for t = 0 .. t_max."""
        n_blocks = len(self.sums)
        reads = self.sums[:, :3 * _BLOCK].reshape(n_blocks, _BLOCK, 3)
        reads[:, :, 2] += self.sums[:, 3 * _BLOCK:]
        per_horizon = np.zeros((3, t_max + 1))
        per_horizon[:, 1:] = reads.reshape(n_blocks * _BLOCK, 3)[:t_max].T
        first, jsum, cross = np.cumsum(per_horizon, axis=1)
        return first, cross, jsum


def _accumulate(
    maps: tuple[np.ndarray, np.ndarray],
    coin: np.ndarray,
    weights: np.ndarray,
    work: _Workspace,
) -> None:
    """Add one chunk's per-horizon trace sums to ``work.sums``, in real arithmetic.

    ``maps`` are the chunk's ``transfer_grids``, ``coin`` the Pauli vector of
    rho0 and ``weights`` each node's quadrature weight; the sums are linear
    in the start rho0 * weight.  ``work.series`` turns the sums of all
    chunks into, for each horizon t, the sum over the momenta of

        first:  i * sum_{m<=t} Tr{ G a_m },
        cross:  the double sum over m' < m <= t (both orderings),
        jsum:   sum_{m<=t} Tr{ J a_m },

    with a_m = L^{m-1} rho0.  The mean over momenta is taken by the caller.

    Every series is swept s = ``_BLOCK`` horizons per advance.  Per chunk,
    the rows R B^j (j < s) are built by doubling, R B^{j+h} = (R B^j) B^h,
    with the squarings B^h that also give B^s.  Then each group of
    ``_GROUP`` blocks is advanced by B^s and read with two GEMMs, one per
    half of the state: 16 multiply-adds per node-step in BLAS, plus 64 / s
    in the advance.  This rounds in another order than a one-step sweep and
    agrees with it to about 1e-14 relative.
    """
    block, readout = maps
    s = _BLOCK
    n, group, n_blocks = len(block), work.group, len(work.sums)
    # B is block upper-triangular, B^j = [[L^j, X_j], [0, L^j]], so the
    # first-moment and dispersion rows of R B^j stay zero on the w_r half and
    # are kept as their a halves; the cross row is kept whole.  Node-first.
    a_rows = _take(work.table, n, s, 2, 4)
    cross = _take(work.table[8 * s * n:], n, s, 8)
    a_rows[:, 0] = readout[:, :2, 4:]
    cross[:, 0] = readout[:, 2]
    power = block
    for level in range(s.bit_length() - 1):
        # R B^{j+h} = (R B^j) B^h for j < h, then B^2h
        h = 1 << level
        np.matmul(a_rows[:, :h].reshape(n, 2 * h, 4), power[:, 4:, 4:],
                  out=a_rows[:, h:2 * h].reshape(n, 2 * h, 4))
        np.matmul(cross[:, :h], power, out=cross[:, h:2 * h])
        square = _take(work.rows[64 * n * (level % 2):], n, 8, 8)
        np.matmul(power, power, out=square)
        power = square
    advance = _take(work.spare, 8, 8, n)
    np.copyto(advance, power.transpose(1, 2, 0))
    # The GEMMs read each row as one contiguous vector over (component, node):
    # on the a half the first-moment, dispersion and cross rows of each j,
    # on the w_r half the cross row.
    rows_a = _take(work.rows, s, 3, 4, n)
    rows_w = _take(work.rows[12 * s * n:], s, 4, n)
    np.copyto(rows_a[:, :2], a_rows.transpose(1, 2, 3, 0))
    np.copyto(rows_a[:, 2], cross[:, :, 4:].transpose(1, 2, 0))
    np.copyto(rows_w, cross[:, :, :4].transpose(1, 2, 0))
    rows_a = rows_a.reshape(3 * s, 4 * n).T
    rows_w = rows_w.reshape(s, 4 * n).T

    # w_m = sum_{m'<m} [ L^{m-m'-1} (G - G^dag') a_{m'} ]; then the double sum
    # collapses to sum_m Tr{ G^dag' w_m } because for each inner pair the G
    # term and the G^dag' term differ only in which factor carries the
    # derivative, and the remaining imbalance telescopes.  Horizon m reads
    # R v_m with v_m = B^{m-1} v_1, so a block of s horizons starting at m
    # reads the rows R B^j (j < s) against v_m, and the next block starts
    # from B^s v_m.  A group of blocks is stored, then read by two GEMMs.
    states = _take(work.table, group, 8, n)
    states[0, :4] = 0.0
    np.multiply.outer(coin, weights, out=states[0, 4:])
    flat = states.reshape(group, 8 * n)
    reads_a, reads_w = work.reads[:, :3 * s], work.reads[:, 3 * s:]
    for b in range(0, n_blocks, group):
        size = min(group, n_blocks - b)
        if b:
            np.einsum("ijn,jn->in", advance, states[-1], out=states[0])
        for g in range(1, size):
            np.einsum("ijn,jn->in", advance, states[g - 1], out=states[g])
        np.matmul(flat[:size, 4 * n:], rows_a, out=reads_a[:size])
        np.matmul(flat[:size, :4 * n], rows_w, out=reads_w[:size])
        work.sums[b:b + size] += work.reads[:size]


def _rule_weights(n_k: int, real: bool) -> np.ndarray:
    """Weights of the n_k-node rule on the nodes it sweeps, in grid order.

    Weight 1 at every node, or for real coin-pair maps at nodes
    0 .. n_k // 2 only: 2, except 1 at the self-paired -pi and (even n_k) 0.
    """
    if not real:
        return np.ones(n_k)
    weights = np.full(n_k // 2 + 1, 2.0)
    weights[0] = 1.0
    if n_k % 2 == 0:
        weights[-1] = 1.0
    return weights


def _swept_rule(
    n_k: int, real: bool, rho_vec: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The swept momenta, weights (``_rule_weights``) and start of the n_k-node rule.

    For real coin-pair maps the half grid starts from rho0 without its
    sigma_y part (see the module docstring).
    """
    ks = momentum_grid(n_k)
    weights = _rule_weights(n_k, real)
    if real:
        rho_vec = rho_vec * (1.0, 1.0, 0.0, 1.0)
    return ks[:len(weights)], weights, rho_vec


@dataclass(frozen=True)
class MomentSeries:
    """First and second position moments for t = 0 .. t_max.

    ``dispersion`` is the single-sum part of the second moment,
    Int dk/2pi sum_{m<=t} Tr{ J_k a_m }: the mean squared hop per step times
    t for any channel whose Kraus operators each displace by a fixed +-1
    or 0, which makes it a structural probe on its own.
    ``max_imag_residue`` records the largest deviation of the channel's
    Fourier coefficients from the structure the real sweep assumes (see
    ``_coefficient_residue``) and, with ``naive=True``, the imaginary part of
    the literal double sum; it is a numerical health indicator and is kept
    far below any physical scale by construction.
    """

    channel_label: str
    coin: tuple[float, float, float, float]
    n_k: int
    first: np.ndarray
    second: np.ndarray
    variance: np.ndarray
    dispersion: np.ndarray
    max_imag_residue: float

    @property
    def t_max(self) -> int:
        return len(self.first) - 1


def _imag_residue(val, what: str) -> float:
    """Largest imaginary part of ``val``, which must be finite and below tolerance.

    A NaN fails the check, so bad channel data cannot pass silently.
    """
    val = np.asarray(val)
    residue = float(np.max(np.abs(val.imag)))
    if not (np.isfinite(val).all() and residue <= _IMAG_TOL):
        raise NonRealMomentError(
            f"{what} is not a finite real number (imaginary part {residue:.3g}); "
            "the channel data are inconsistent"
        )
    return residue


def _prepare(channel: WalkChannel, coin, t_max: int) -> tuple[np.ndarray, int]:
    """The start vector and node count, ``exact_node_bound``, of a moment call.

    Rejects a negative horizon and sizes past ``_MAX_HORIZON`` or
    ``_MAX_NODES``.
    """
    if t_max < 0:
        raise ValueError(f"horizon must be nonnegative, got {t_max}")
    ResourceLimitError.check(t_max, _MAX_HORIZON, "horizon")
    rho_vec = coin_state(coin)
    n_k = exact_node_bound(channel, t_max)
    ResourceLimitError.check(n_k, _MAX_NODES, "momentum node count")
    return rho_vec, n_k


def moment_series(
    channel: WalkChannel, coin, t_max: int, naive: bool = False
) -> MomentSeries:
    """Exact <x>_t, <x^2>_t and variance for all t up to ``t_max``.

    The walker starts as a point mass at the origin with the given coin
    state (any form accepted by ``pauli.coin_state``).  The momentum rule
    has the exactness bound 2 * max_hop * t_max + 1 (``exact_node_bound``)
    of nodes, recorded as ``MomentSeries.n_k``: fewer would alias and more
    give the same numbers.  The channel's maps are decoded and checked once
    (``channel_maps``).  The momentum grid, or half of it for real
    coin-pair maps (``_swept_rule``), is swept in fixed 256-node chunks
    summed in order, so the result depends only on the arguments.
    ``naive`` switches the second moment to the literal complex double sum,
    from each chunk's ``_complex_maps``, whose imaginary part joins
    ``max_imag_residue``.

    Raises:
        NonRealMomentError: if the channel fails the structure check or a
            moment is not finite.
    """
    rho_vec, n_k = _prepare(channel, coin, t_max)
    maps = channel_maps(channel)
    ks, weights, start = _swept_rule(n_k, maps.real, rho_vec)
    ResourceLimitError.check(len(ks) * t_max, _MAX_NODE_STEPS, "swept node-step count")
    work = _Workspace(t_max, min(_CHUNK, len(ks)))
    naive_cross = 0.0
    for i in range(0, len(ks), _CHUNK):
        part, chunk_weights = ks[i:i + _CHUNK], weights[i:i + _CHUNK]
        _accumulate(transfer_grids(maps, part, work.spare), start, chunk_weights, work)
        if naive:
            naive_cross = naive_cross + np.cumsum(_naive_cross(
                _complex_maps(maps, part), np.multiply.outer(start, chunk_weights), t_max
            ))
    first, cross, jsum = work.series(t_max)
    residue = maps.residue
    if naive:
        residue = max(residue, _imag_residue(naive_cross / n_k, "naive cross term"))
        cross = naive_cross.real
    first = first / n_k
    second = (cross + jsum) / n_k
    if not (np.isfinite(first).all() and np.isfinite(second).all()):
        raise NonRealMomentError(
            "moments are not finite numbers; the channel data are inconsistent"
        )
    return MomentSeries(
        channel_label=channel.label,
        coin=tuple(float(v) for v in rho_vec),
        n_k=n_k,
        first=first,
        second=second,
        variance=second - first**2,
        dispersion=jsum / n_k,
        max_imag_residue=residue,
    )


def second_moment_coin_specialized(channel: WalkChannel, coin, t_max: int) -> np.ndarray:
    """<x^2>_t for t = 0 .. t_max for coin-noise channels via the reduced recursion.

    When every Kraus operator is (shift) * (coin operator), the derivative
    maps collapse onto multiplication by the coin-basis sign operator Z and
    the dispersion term equals t exactly, leaving

        <x^2>_t = t + Int dk/2pi sum_{m'<m<=t} [ Tr{ Z L^{m-m'}(Z b_{m'}) }
                                               + Tr{ Z L^{m-m'}(b_{m'} Z) } ]

    with b_m = L^m rho0.  Both traces are evaluated with one running vector,
    whose partial sums over m give every horizon in one pass.

    Raises:
        NotACoinChannelError: if the channel has any other shift structure.
    """
    if not is_coin_channel(channel):
        raise NotACoinChannelError(
            f"channel {channel.label!r} is not of coin-noise form"
        )
    rho_vec, n_k = _prepare(channel, coin, t_max)
    ResourceLimitError.check(n_k * t_max, _MAX_NODE_STEPS, "swept node-step count")
    block, _ = transfer_grids(channel_maps(channel), momentum_grid(n_k))
    # the step map L, (4, 4, n_k): the momentum axis innermost
    step = np.ascontiguousarray(np.moveaxis(block[:, 4:, 4:], 0, -1))
    b = np.einsum("ijn,j->in", step, rho_vec)
    u = np.zeros((4, n_k))
    traces = np.zeros(t_max + 1)
    for m in range(2, t_max + 1):
        # anticommutator {Z, b} in Pauli coordinates: swaps components 0 and 3
        u[0] += 2.0 * b[3]
        u[3] += 2.0 * b[0]
        u = np.einsum("ijn,jn->in", step, u)
        b = np.einsum("ijn,jn->in", step, b)
        traces[m] = 2.0 * u[3].sum()  # Tr{Z u} = 2 u_3
    return np.arange(t_max + 1) + np.cumsum(traces) / n_k


# --- long-time behaviour ----------------------------------------------------

def _check_contracting(bloch: np.ndarray, ks: np.ndarray) -> None:
    """Raise ``NotContractingError`` if a Bloch block has spectral radius >= 1 - 1e-9.

    A certificate decides first: rho(M)^m <= ||M^m||_F, m = 2^``_SQUARINGS``
    by batched squarings, so ||M^m||_F < (1 - 2e-9)^m at every node passes.
    Otherwise the eigenvalues of every block decide.  The margin between
    2e-9 and 1e-9 absorbs the squarings' rounding; an overflowing power (a
    channel that is not trace preserving) fails the certificate.
    """
    power = bloch
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SQUARINGS):
            power = power @ power
        norms = np.einsum("nij,nij->n", power, power)
    if (norms < _CERTIFIED).all():
        return
    radius = np.abs(np.linalg.eigvals(bloch)).max(axis=1)
    worst = int(np.argmax(radius))
    if radius[worst] >= 1.0 - 1e-9:
        raise NotContractingError(
            f"momentum block at k = {ks[worst]:.6f} has spectral radius "
            f"{radius[worst]:.12f}; no stationary first moment exists",
            k=float(ks[worst]),
            spectral_radius=float(radius[worst]),
        )


def asymptotic_first_moment(channel: WalkChannel, coin) -> float:
    """Limit of <x>_t for channels whose Bloch block is a strict contraction.

    Writing the one-step map as the affine action r -> M_k r + c_k r_0 on the
    Bloch part, each momentum relaxes to r*(k) = (I - M_k)^{-1} c_k r_0, and
    summing the geometric transient gives

        lim_t <x>_t = i * Int dk/2pi  2 gamma(k) . (I - M_k)^{-1} (r_init - r*(k))

    provided the k-average of the stationary drift vanishes (it must, or no
    limit exists).  Everything runs in real arithmetic on the maps of
    ``transfer_grids``: M_k and c_k are blocks of L, and i * 2 gamma is the
    real first-moment row of the readout R (``_LAYOUT``).  The channel is
    decoded and checked once (``channel_maps``), whatever the node count.

    The integral is an n-node rule, on half the grid when the coin-pair
    maps are real (``_swept_rule``, as for the series).  From n =
    ``_LIMIT_NODES`` it is compared with the (n / 2)-node rule on its
    even-indexed nodes, and while the two differ by more than
    1e-10 * max(1, |value|), n doubles and the value is computed afresh.
    If they still differ at n = ``_MAX_LIMIT_NODES``, that value is
    returned and a ``QuadratureTooCoarseWarning`` names both counts.

    Raises:
        NotContractingError: if some momentum block has spectral radius
            within 1e-9 of 1 (e.g. the fully coherent walk); a certificate
            spares the eigenvalues where every block is clearly inside
            (``_check_contracting``).
        BallisticRegimeError: if the stationary drift is nonzero, so the
            first moment grows linearly.
    """
    rho_vec = coin_state(coin)
    maps = channel_maps(channel)
    n_k = _LIMIT_NODES
    while True:
        ks, weights, rho_vec = _swept_rule(n_k, maps.real, rho_vec)
        block, readout = transfer_grids(maps, ks)
        step = block[:, 4:, 4:]
        bloch = step[:, 1:, 1:]
        _check_contracting(bloch, ks)
        r0 = rho_vec[0]
        relax = np.eye(3) - bloch
        r_star = np.linalg.solve(relax, step[:, 1:, 0:1] * r0)[..., 0]
        # R's first-moment row: i * 2 * (i g) = -2 g, g = Im of the drift top row
        velocity = readout[:, 0, 4:]
        stationary = velocity[:, 0] * r0 + np.einsum("ni,ni->n", velocity[:, 1:], r_star)
        drift = float(weights @ stationary) / n_k
        if not abs(drift) <= _IMAG_TOL:
            raise BallisticRegimeError(
                f"channel has nonzero stationary drift {drift:.6g}; "
                "the first moment grows linearly and has no limit"
            )
        transient = np.linalg.solve(relax, (rho_vec[1:] - r_star)[..., None])[..., 0]
        per_node = np.einsum("ni,ni->n", velocity[:, 1:], transient)
        val = weights @ per_node / n_k
        _imag_residue(val, "asymptotic first moment")
        # n_k is a power of two, so the even-indexed swept nodes are those
        # of the (n_k / 2)-node rule
        gap = abs(val - _rule_weights(n_k // 2, maps.real) @ per_node[::2] / (n_k // 2))
        if gap <= 1e-10 * max(1.0, abs(val)):
            return float(val)
        if n_k >= _MAX_LIMIT_NODES:
            warnings.warn(QuadratureTooCoarseWarning(
                f"the {n_k}- and {n_k // 2}-node rules differ by {gap:.3g} in the "
                "asymptotic first moment; more nodes are needed"), stacklevel=2)
            return float(val)
        n_k *= 2


def diffusion_from_slope(
    channel: WalkChannel, coin, t_lo: int = 400, t_hi: int = 500
) -> float:
    """Finite-horizon diffusion estimate D = (var(t_hi) - var(t_lo)) / 2 dt."""
    if not 1 <= t_lo < t_hi:
        raise ValueError(f"need 1 <= t_lo < t_hi, got {t_lo}, {t_hi}")
    series = moment_series(channel, coin, t_hi)
    return float(
        0.5 * (series.variance[t_hi] - series.variance[t_lo]) / (t_hi - t_lo)
    )
