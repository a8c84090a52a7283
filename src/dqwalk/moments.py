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
advanced by one 8x8 block map B and read by a 3x8 readout R.  At every
horizon the sweep reads ``_BLOCK`` horizons per advance from precomputed
rows R B^j and advances by B^_BLOCK, about 16 + 64/_BLOCK multiply-adds per
node-step instead of the 88 of one advance per horizon (``_accumulate``).
``naive=True`` keeps the literal complex double sum for cross-checking.

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
n_k = 2 * max_hop * t + 1 nodes suffice (``exact_node_bound``).  The same
frequencies build the grids: ``transfer_grids`` folds the channel's terms
into one Fourier coefficient per frequency l - l' and map, and evaluates
them with a single matrix product per grid.

Many channels need only half of that grid.  If the coin-pair maps of
``channels.coin_pair_maps`` are real (every Kraus operator real up to a
global phase: the broken line at its default phases, coin dephasing with
the Hadamard coin), each commutes with rho -> conj(rho), so
L(-k) = P conj(L(k)) P, G(-k) = -P conj(G(k)) P and J(-k) = P conj(J(k)) P,
where P = diag(1, 1, -1, 1) is complex conjugation in the Pauli basis.
Node -k then carries the integrand of node k started from P rho0, and since
the moments are linear in rho0 the pair sums to twice node k started from
rho0 with its sigma_y part removed.  The same flag picks the oracle's real
rows.  ``_series_sums`` then sweeps only nodes 0 .. n_k // 2, with weight 2
except at the self-paired nodes -pi and 0.
The weights go into the start vector, so the sweep itself is unchanged.
This is the same n_k-node rule, not a coarser one: ``n_k``, the exactness
bound and the coarse-grid warning keep their meaning.  Any other channel
sweeps all n_k nodes.
"""

from __future__ import annotations

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
)
from .pauli import PAULI, coin_state

# Momentum nodes are swept in fixed-size chunks, summed in order: this bounds
# the transfer grids and running vectors held in memory at once.
_CHUNK = 512

# The sweep reads _BLOCK horizons per advance (see ``_accumulate``).  On a
# 2-vCPU Xeon (numpy 2.4), 8 and 16 tie at t = 1000 and 16 is faster at
# t = 4000, but its row tables (1 MB per chunk) raise the peak memory of a
# t = 1000 call by about 0.7 MB more; 4 is slower.
_BLOCK = 8  # a power of two: B^_BLOCK is formed by repeated squaring

# A grid part the real sweep discards, or the imaginary part of a moment
# computed in complex arithmetic, above this is reported as an error rather
# than silently truncated.
_IMAG_TOL = 1e-8

# Column j is sigma_j flattened row-major: the change of basis from Pauli
# coordinates to the coin pair (i, i') of ``coin_pair_maps``.
_PAULI_COLUMNS = PAULI.reshape(4, 4).T


def exact_node_bound(channel: WalkChannel, t_max: int) -> int:
    """Minimum node count for which the uniform rule is exact at horizon t.

    Every term of the moment integrand up to horizon t is a trigonometric
    polynomial in k of degree <= 2 * max_hop * t (each step map has degree
    2 * max_hop; see the module docstring), and an n-node uniform rule
    integrates every frequency |j| < n exactly.
    """
    return 2 * channel.max_hop * t_max + 1


# --- transfer matrices ------------------------------------------------------

@dataclass(frozen=True)
class TransferGrids:
    """The step, drift and dispersion maps evaluated on a momentum grid.

    Arrays have shape (len(ks), 4, 4).  The partner map
    O -> sum_n C_n O C_n'^dag of the drift is its complex conjugate, so it is
    not stored.
    """

    ks: np.ndarray
    step: np.ndarray
    drift: np.ndarray
    dispersion: np.ndarray


def _fourier_coefficients(channel: WalkChannel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Frequencies d and Fourier coefficients of the step, drift and dispersion maps.

    With C_n(k) = sum_l M_{n,l} e^{-ilk}, the Pauli matrix of
    O -> sum_n M_{n,l} O M_{n,l'}^dag is S_{l,l'} = T^dag A_{l,l'} T / 2,
    A_{l,l'} the coin-pair map of ``coin_pair_maps`` and T the Pauli
    matrices as columns.  Each map is sum_{l,l'} w S_{l,l'} e^{-i(l-l')k}
    with weight w = 1 (step), -i*l (drift: C_n' on the left) or l*l'
    (dispersion: C_n' on both sides).  Returns the distinct frequencies
    d = l - l' (at most 4 * max_hop + 1), the (48, n_d) array whose column
    d stacks the three 4x4 coefficients of e^{-idk}, and whether the
    coin-pair maps are real, which licenses the half-grid sweep.
    """
    hops, maps, real = coin_pair_maps(channel)
    pairs = (_PAULI_COLUMNS.conj().T @ maps @ _PAULI_COLUMNS).reshape(-1, 16) / 2
    left, right = (a.ravel() for a in np.meshgrid(hops, hops, indexing="ij"))
    weights = np.stack([np.ones(len(left)), -1j * left, left * right])
    freqs, slot = np.unique(left - right, return_inverse=True)
    # weights (3, P) spread over the frequency columns, then summed over pairs P
    fold = weights[:, :, None] * (slot[:, None] == np.arange(len(freqs)))
    return freqs, np.einsum("wpd,px->wxd", fold, pairs).reshape(48, -1), real


def transfer_grids(
    channel: WalkChannel,
    ks: np.ndarray,
    coefficients: tuple[np.ndarray, np.ndarray, bool] | None = None,
) -> TransferGrids:
    """Evaluate step/drift/dispersion maps on a whole momentum grid at once.

    One (48, n_d) @ (n_d, n_k) product of the channel's Fourier coefficients
    with e^{-idk}, which are checked first (``_coefficient_residue``).
    ``coefficients`` (from ``_fourier_coefficients(channel)``, already
    checked) lets a caller evaluating several chunks of one grid build and
    check them once.
    """
    if coefficients is None:
        coefficients = _fourier_coefficients(channel)
        _coefficient_residue(coefficients[1])
    freqs, coef, _ = coefficients
    grid = (coef @ np.exp(-1j * np.multiply.outer(freqs, ks))).reshape(3, 4, 4, -1)
    step, drift, dispersion = np.moveaxis(grid, -1, 1)
    return TransferGrids(ks=ks, step=step, drift=drift, dispersion=dispersion)


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

def _nodes_last(mats: np.ndarray) -> np.ndarray:
    """(n_k, 4, ...) -> contiguous (4, ..., n_k): the momentum axis innermost."""
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1))


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Per-node matrix @ vector on the (4, 4, n_k) x (4, n_k) layout."""
    return np.einsum("ijn,jn->in", mats, vecs)


def _naive_cross(grids: TransferGrids, start: np.ndarray, t_max: int) -> np.ndarray:
    """Literal complex double sum of the cross term, O(t^2) per momentum.

    Kept as an independent route to catch bookkeeping errors in the
    telescoped real recursion.  Returns, for each m, the chunk sum of the
    m-th inner sum over m' < m (not yet accumulated over m).
    """
    def mv(mats, vecs):
        return np.matmul(mats, vecs[..., None])[..., 0]

    step = grids.step
    # Tr{A O} = 2 * (row 0 of A) . (Pauli vector of O); fold in the factor 2.
    partner = grids.drift.conj()  # G*: O -> sum_n C_n O C_n'^dag
    g_row = 2.0 * grids.drift[:, 0, :]
    gd_row = 2.0 * partner[:, 0, :]
    a_list = [start.T.astype(complex)]
    for _ in range(1, t_max):
        a_list.append(mv(step, a_list[-1]))
    inner = np.zeros(t_max + 1, dtype=complex)
    for m_prime in range(1, t_max):
        y1 = mv(grids.drift, a_list[m_prime - 1])
        y2 = mv(partner, a_list[m_prime - 1])
        for m in range(m_prime + 1, t_max + 1):
            inner[m] += np.einsum("ni,ni->", gd_row, y1)
            inner[m] += np.einsum("ni,ni->", g_row, y2)
            if m < t_max:
                y1 = mv(step, y1)
                y2 = mv(step, y2)
    return inner


def _accumulate(
    grids: TransferGrids, start: np.ndarray, t_max: int, naive: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-chunk sweep in real arithmetic.

    Returns three float arrays of length t_max + 1 holding, for each
    horizon t, the *sum over this chunk's momenta* of

        first:  i * sum_{m<=t} Tr{ G a_m },
        cross:  the double sum over m' < m <= t (both orderings),
        jsum:   sum_{m<=t} Tr{ J a_m },

    with a_m = L^{m-1} rho0.  With ``naive`` the cross sum is the complex
    literal double sum, whose imaginary part the caller checks.  ``start`` is
    (4, n_nodes): rho0 at each node, already scaled by the node's quadrature
    weight (the sums are linear in rho0).  The mean over momenta is taken by
    the caller.

    Every series is swept ``s = _BLOCK`` horizons per advance: the rows
    R B^j (j < s) and the power B^s are built once per chunk, and each block
    of s horizons takes two readout products and one B^s map, about
    16 + 64/s multiply-adds per node-step instead of the 88 of reading R v
    and advancing v by B once per horizon.  The blocked sweep rounds in
    another order than the one-step sweep and agrees with it to about 1e-14
    relative.
    """
    n_k = len(grids.ks)
    if naive:
        cross_c = np.cumsum(_naive_cross(grids, start, t_max))
    step = grids.step.real
    # The running vectors are stacked as v = (w_r, a) and advanced by the
    # block map B = [[L, drive], [0, L]] (node-first here, (n_k, 8, 8)).
    # G - G^dag' = G - conj(G) is i times the real map 2 Im G, so w = i * w_r
    # below.
    block = np.zeros((n_k, 8, 8))
    block[:, :4, :4] = step
    block[:, :4, 4:] = 2.0 * grids.drift.imag
    block[:, 4:, 4:] = step
    # Tr{A O} = 2 * (row 0 of A) . (Pauli vector of O).  The drift rows are i
    # times a real row and meet one more factor i (the i of <x>, or that of
    # w), so their real coefficient is -2 * Im, which is +2 * Im G for
    # G^dag' = conj(G).  Row 0 of the readout R gives the first-moment sum
    # (from a), row 1 the cross sum (from w_r), row 2 the dispersion sum
    # (from a).
    readout = np.zeros((n_k, 3, 8))
    readout[:, 0, 4:] = -2.0 * grids.drift[:, 0, :].imag
    readout[:, 1, :4] = 2.0 * grids.drift[:, 0, :].imag
    readout[:, 2, 4:] = 2.0 * grids.dispersion[:, 0, :].real
    # The row tables are the sweep's largest arrays.  Dropping the grids
    # here, and B once its rows are read, bounds the peak memory (the caller
    # passes the chunk's grids as a temporary, so this releases them).
    del grids, step

    # w_m = sum_{m'<m} [ L^{m-m'-1} (G - G^dag') a_{m'} ]; then the double sum
    # collapses to sum_m Tr{ G^dag' w_m } because for each inner pair the G
    # term and the G^dag' term differ only in which factor carries the
    # derivative, and the remaining imbalance telescopes.
    v = np.zeros((8, n_k))
    v[4:] = start
    # Horizon m reads R v_m with v_m = B^{m-1} v_1, so a block of s horizons
    # starting at m reads the rows R B^j (j < s) against the same v_m, and
    # the next block starts from B^s v_m.  B is block upper-triangular, so
    # R B^j keeps R's zeros on the w_r half of v in the first-moment and
    # dispersion rows: the rows are kept as an a-half table (s, 3, 4, n_k)
    # for all three sums and a w_r-half table (s, 4, n_k) for the cross sum,
    # nodes-last, so that each block reads them with one (3s, 4 n_k) @ (4 n_k)
    # and one (s, 4 n_k) @ (4 n_k) product.
    s = _BLOCK
    rows_a = np.empty((s, 3, 4, n_k))
    rows_w = np.empty((s, 4, n_k))
    row = readout
    for j in range(s):
        if j:
            row = row @ block
        rows_a[j] = np.moveaxis(row[:, :, 4:], 0, -1)
        rows_w[j] = row[:, 1, :4].T
    rows_a = rows_a.reshape(3 * s, 4 * n_k)
    rows_w = rows_w.reshape(s, 4 * n_k)
    power = block
    del block, readout, row
    for _ in range(s.bit_length() - 1):
        power = power @ power
    power = _nodes_last(power)

    n_blocks = -(-t_max // s)
    out = np.empty((n_blocks, 3 * s))
    out_w = np.empty((n_blocks, s))
    for b in range(n_blocks):
        if b:
            v = np.einsum("ijn,jn->in", power, v)
        out[b] = rows_a @ v[4:].ravel()
        out_w[b] = rows_w @ v[:4].ravel()
    out = out.reshape(n_blocks, s, 3)
    out[:, :, 1] += out_w
    sums = np.zeros((3, t_max + 1))
    sums[:, 1:] = out.reshape(n_blocks * s, 3)[:t_max].T
    s_first, s_cross, s_j = np.cumsum(sums, axis=1)
    if naive:
        s_cross = cross_c
    return s_first, s_cross, s_j


def _series_sums(
    channel: WalkChannel,
    rho_vec: np.ndarray,
    t_max: int,
    n_k: int,
    naive: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Sweep the n_k-node momentum grid chunk by chunk, summing in order.

    The channel's coefficients are built and checked once
    (``_coefficient_residue``).  A channel whose coin-pair maps are real is
    swept on the nodes j = 0 .. n_k // 2 only, from rho0 without its
    sigma_y part, with weight 2 except at the self-paired nodes -pi and
    (for even n_k) 0 (see the module docstring).  Any other channel sweeps
    every node with weight 1.  Returns the three sums and the residue: the
    coefficients' and, with ``naive``, the imaginary part of the literal
    double sum.
    """
    ks = momentum_grid(n_k)
    coefficients = _fourier_coefficients(channel)
    residue = _coefficient_residue(coefficients[1])
    weights = np.ones(n_k)
    if coefficients[2]:  # real coin-pair maps: sweep half the grid
        ks = ks[:n_k // 2 + 1]
        weights = np.full(len(ks), 2.0)
        weights[0] = 1.0
        if n_k % 2 == 0:
            weights[-1] = 1.0
        rho_vec = rho_vec * (1.0, 1.0, 0.0, 1.0)
    first = cross = jsum = 0.0
    for i in range(0, len(ks), _CHUNK):
        part_first, part_cross, part_j = _accumulate(
            transfer_grids(channel, ks[i:i + _CHUNK], coefficients),
            np.multiply.outer(rho_vec, weights[i:i + _CHUNK]), t_max, naive,
        )
        first = first + part_first
        cross = cross + part_cross
        jsum = jsum + part_j
    if naive:
        residue = max(residue, _imag_residue(cross / n_k, "naive cross term"))
        cross = cross.real
    return first, cross, jsum, residue


def write_moment_csv(fh, first, second, variance) -> None:
    """Write the ``t,first,second,variance`` table, one row per t from 0.

    The columns are sequences of floats (``.tolist()`` of an array formats
    fastest); every value is written with 17 significant digits.
    """
    rows = zip(first, second, variance)
    fh.write("t,first,second,variance\n" + "".join(
        f"{t},{m1:.17g},{m2:.17g},{var:.17g}\n"
        for t, (m1, m2, var) in enumerate(rows)
    ))


@dataclass(frozen=True)
class MomentSeries:
    """First and second position moments for t = 0 .. t_max.

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
    max_imag_residue: float

    @property
    def t_max(self) -> int:
        return len(self.first) - 1

    def to_csv(self, fh) -> None:
        write_moment_csv(
            fh, self.first.tolist(), self.second.tolist(), self.variance.tolist()
        )

    def to_json_dict(self) -> dict:
        return {
            "channel": self.channel_label,
            "coin": list(self.coin),
            "n_k": self.n_k,
            "max_imag_residue": self.max_imag_residue,
            "t": list(range(self.t_max + 1)),
            "first": self.first.tolist(),
            "second": self.second.tolist(),
            "variance": self.variance.tolist(),
        }


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


def _finalize(
    first_sums: np.ndarray,
    cross_sums: np.ndarray,
    j_sums: np.ndarray,
    n_k: int,
    label: str,
    rho_vec: np.ndarray,
    residue: float,
) -> MomentSeries:
    first = first_sums / n_k
    second = (cross_sums + j_sums) / n_k
    if not (np.isfinite(first).all() and np.isfinite(second).all()):
        raise NonRealMomentError(
            "moments are not finite numbers; the channel data are inconsistent"
        )
    return MomentSeries(
        channel_label=label,
        coin=tuple(float(v) for v in rho_vec),
        n_k=n_k,
        first=first,
        second=second,
        variance=second - first**2,
        max_imag_residue=residue,
    )


def _prepare(
    channel: WalkChannel, coin, t_max: int, n_k: int | None
) -> tuple[np.ndarray, int]:
    """The start vector and node count of a moment call.

    Rejects a negative horizon and a nonpositive node count; ``n_k``
    defaults to ``exact_node_bound``, and fewer nodes warn.
    """
    if t_max < 0:
        raise ValueError(f"horizon must be nonnegative, got {t_max}")
    rho_vec = coin_state(coin)
    bound = exact_node_bound(channel, t_max)
    if n_k is None:
        n_k = bound
    if n_k < 1:
        raise ValueError(f"node count must be positive, got {n_k}")
    if n_k < bound:
        warnings.warn(
            QuadratureTooCoarseWarning(
                f"{n_k} momentum nodes < {bound} needed for exactness at t={t_max}; "
                "results are approximate"
            ),
            stacklevel=3,
        )
    return rho_vec, n_k


def moment_series(
    channel: WalkChannel,
    coin,
    t_max: int,
    n_k: int | None = None,
    naive: bool = False,
) -> MomentSeries:
    """Exact <x>_t, <x^2>_t and variance for all t up to ``t_max``.

    The walker starts as a point mass at the origin with the given coin
    state (any form accepted by ``pauli.coin_state``).  ``n_k`` defaults to
    the exactness bound 2 * max_hop * t_max + 1 (``exact_node_bound``).
    Smaller values are allowed but trigger ``QuadratureTooCoarseWarning``.
    ``naive`` switches the second moment to the literal double sum.  The
    momentum grid is swept in fixed 512-node chunks summed in order, so the
    result depends only on the arguments.
    """
    rho_vec, n_k = _prepare(channel, coin, t_max, n_k)
    first, cross, jsum, residue = _series_sums(channel, rho_vec, t_max, n_k, naive)
    return _finalize(first, cross, jsum, n_k, channel.label, rho_vec, residue)


def j_term(
    channel: WalkChannel,
    coin,
    t: int,
    n_k: int | None = None,
) -> float:
    """The single-sum (dispersion) part of <x^2>_t.

    For any channel whose Kraus operators each displace by a fixed +-1 or 0,
    this equals the mean squared hop per step times t; it is a useful
    structural probe on its own.
    """
    rho_vec, n_k = _prepare(channel, coin, t, n_k)
    _, _, jsum, _ = _series_sums(channel, rho_vec, t, n_k, naive=False)
    return float(jsum[t] / n_k)


def second_moment_coin_specialized(
    channel: WalkChannel, coin, t: int, n_k: int | None = None
) -> float:
    """<x^2>_t for coin-noise channels via the reduced recursion.

    When every Kraus operator is (shift) * (coin operator), the derivative
    maps collapse onto multiplication by the coin-basis sign operator Z and
    the dispersion term equals t exactly, leaving

        <x^2>_t = t + Int dk/2pi sum_{m'<m<=t} [ Tr{ Z L^{m-m'}(Z b_{m'}) }
                                               + Tr{ Z L^{m-m'}(b_{m'} Z) } ]

    with b_m = L^m rho0.  Both traces are evaluated with one running vector.

    Raises:
        NotACoinChannelError: if the channel has any other shift structure.
    """
    if not is_coin_channel(channel):
        raise NotACoinChannelError(
            f"channel {channel.label!r} is not of coin-noise form"
        )
    rho_vec, n_k = _prepare(channel, coin, t, n_k)
    grids = transfer_grids(channel, momentum_grid(n_k))
    step = _nodes_last(grids.step.real)
    b = _mv(step, np.repeat(rho_vec[:, None], n_k, axis=1))
    u = np.zeros((4, n_k))
    acc = 0.0
    for _ in range(1, t + 1):
        acc += 2.0 * u[3].sum()  # Tr{Z u} = 2 u_3
        # anticommutator {Z, b} in Pauli coordinates: swaps components 0 and 3
        y = np.zeros_like(u)
        y[0] = 2.0 * b[3]
        y[3] = 2.0 * b[0]
        u = _mv(step, u + y)
        b = _mv(step, b)
    return float(t + acc / n_k)


# --- long-time behaviour ----------------------------------------------------

def asymptotic_first_moment(channel: WalkChannel, coin, n_k: int = 512) -> float:
    """Limit of <x>_t for channels whose Bloch block is a strict contraction.

    Writing the one-step map as the affine action r -> M_k r + c_k r_0 on the
    Bloch part, each momentum relaxes to r*(k) = (I - M_k)^{-1} c_k r_0, and
    summing the geometric transient gives

        lim_t <x>_t = i * Int dk/2pi  2 gamma(k) . (I - M_k)^{-1} (r_init - r*(k))

    provided the k-average of the stationary drift vanishes (it must, or no
    limit exists).  Everything runs in real arithmetic: M_k and c_k are real,
    and the drift top row gamma is i times a real row (module docstring).

    Raises:
        NotContractingError: if some momentum block has spectral radius
            within 1e-9 of 1 (e.g. the fully coherent walk).
        BallisticRegimeError: if the stationary drift is nonzero, so the
            first moment grows linearly.
    """
    rho_vec = coin_state(coin)
    ks = momentum_grid(n_k)
    grids = transfer_grids(channel, ks)
    step = grids.step.real
    block = step[:, 1:, 1:]
    radius = np.abs(np.linalg.eigvals(block)).max(axis=1)
    worst = int(np.argmax(radius))
    if radius[worst] >= 1.0 - 1e-9:
        raise NotContractingError(
            f"momentum block at k = {ks[worst]:.6f} has spectral radius "
            f"{radius[worst]:.12f}; no stationary first moment exists",
            k=float(ks[worst]),
            spectral_radius=float(radius[worst]),
        )
    r0 = rho_vec[0]
    relax = np.eye(3) - block
    r_star = np.linalg.solve(relax, step[:, 1:, 0:1] * r0)[..., 0]
    # i * 2 * (i g) . r = -2 g . r with g = Im of the drift top row
    gamma = grids.drift[:, 0, :].imag
    stationary = gamma[:, 0] * r0 + np.einsum("ni,ni->n", gamma[:, 1:], r_star)
    drift = -2.0 * float(stationary.mean())
    if not abs(drift) <= _IMAG_TOL:
        raise BallisticRegimeError(
            f"channel has nonzero stationary drift {drift:.6g}; "
            "the first moment grows linearly and has no limit"
        )
    transient = np.linalg.solve(relax, (rho_vec[1:] - r_star)[..., None])[..., 0]
    val = -2.0 * np.einsum("ni,ni->n", gamma[:, 1:], transient).mean()
    _imag_residue(val, "asymptotic first moment")
    return float(val)


def diffusion_from_slope(
    channel: WalkChannel,
    coin,
    t_lo: int = 400,
    t_hi: int = 500,
    n_k: int | None = None,
) -> float:
    """Finite-horizon diffusion estimate D = (var(t_hi) - var(t_lo)) / 2 dt."""
    if not 1 <= t_lo < t_hi:
        raise ValueError(f"need 1 <= t_lo < t_hi, got {t_lo}, {t_hi}")
    series = moment_series(channel, coin, t_hi, n_k=n_k)
    return float(
        0.5 * (series.variance[t_hi] - series.variance[t_lo]) / (t_hi - t_lo)
    )
