"""Translation-invariant Kraus channels for a walk on the integer line.

A single time step acts on the walker's density matrix as
rho -> sum_n E_n rho E_n^dag, where every Kraus operator is a finite sum of
hop-and-coin terms

    E_n = sum_{l,i,j} a^(n)_{l,i,j} (shift by l) (x) |i><j|,

with coin labels i, j in {R, L}.  A channel is stored sparsely as the list of
nonzero amplitudes a^(n)_{l,i,j}.  In momentum space each Kraus operator
collapses to a 2x2 coin matrix

    C_n(k) = sum_{l,i,j} a^(n)_{l,i,j} e^{-i l k} |i><j|,

and trace preservation is equivalent to sum_n C_n(k)^dag C_n(k) = I at every
momentum.  ``_coin_blocks`` decodes the term list once into the Fourier blocks
M_{n,l} of C_n(k) = sum_l M_{n,l} e^{-ilk}.  The completeness certificate
reads their Gram coefficients, and ``coin_pair_maps`` folds them into the
one Kraus sum that both the oracle (``simulator.fold``) and the moment
engine read.  Builders for the standard models live here:

* ``build_coherent`` -- noiseless coined walk for any unitary coin,
* ``build_broken_line`` -- each lattice link next to the walker fails
  independently with probability p each step (four Kraus operators),
* ``build_coin_channel`` -- noise acting on the coin alone, followed by the
  usual conditional shift,
* ``dephasing_channel`` -- the coin-measurement special case of the above.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    CompletenessError,
    DomainError,
    InvalidCoinKrausError,
    NonUnitaryCoinError,
    PhaseConstraintError,
    ResourceLimitError,
)

COIN_LABELS = ("R", "L")
COIN_INDEX = {"R": 0, "L": 1}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Largest completeness residual a channel may have and still be accepted.
_COMPLETENESS_TOL = 1e-10

# Largest imaginary part, relative to the largest entry, of coin-pair maps
# that count as real: the rounding that phases such as e^{i pi} leave (about
# 1e-17); a broken line with theta1 = 1e-12 sits at 5e-13 and is complex.
_REAL_TOL = 1e-15

# Largest completeness certificate built (``completeness_residual``), in
# entries of its (H, H, 4 max_hop + 1) phase array or of its (num_kraus, H)
# coin blocks, H the number of distinct hops.  A phase entry costs about
# 32 B, so the limit is about 32 MB; the tests and the benchmark need at
# most 208 (81 for the benchmark's hop-2 channel).
_MAX_CERTIFICATE_ENTRIES = 10**6


@dataclass(frozen=True)
class KrausTerm:
    """One nonzero amplitude a^(n)_{l,i,j} of Kraus operator ``n``.

    Attributes:
        n: index of the Kraus operator the term belongs to.
        l: hop distance (positive = rightward shift).
        i: output coin label, "R" or "L".
        j: input coin label.
        amp: complex amplitude.
    """

    n: int
    l: int
    i: str
    j: str
    amp: complex


@dataclass(frozen=True)
class WalkChannel:
    """A translation-invariant channel, stored as its nonzero Kraus terms."""

    label: str
    terms: tuple[KrausTerm, ...]

    @property
    def kraus_indices(self) -> tuple[int, ...]:
        """Sorted distinct Kraus-operator indices present in the term list."""
        return tuple(sorted({t.n for t in self.terms}))

    @property
    def num_kraus(self) -> int:
        return len(self.kraus_indices)

    @property
    def max_hop(self) -> int:
        """Largest |l| over all terms; the light cone grows this fast."""
        return max(abs(t.l) for t in self.terms)


def _from_rows(label: str, kraus: Sequence[Sequence[tuple]]) -> WalkChannel:
    """A channel from, per Kraus operator, its (hop, output coin, row) triples.

    ``row`` holds the amplitudes for input coins R and L.  Zero amplitudes
    are dropped, then all-zero operators, and the rest numbered 0..m-1.
    """
    groups = (
        [(l, i, j, complex(amp)) for l, i, row in rows
         for j, amp in zip(COIN_LABELS, row) if amp != 0]
        for rows in kraus
    )
    return WalkChannel(label, tuple(
        KrausTerm(n, *term) for n, group in enumerate(g for g in groups if g)
        for term in group
    ))


def _unitary_coin(coin: np.ndarray) -> np.ndarray:
    """``coin`` as a complex 2x2 array; raises unless unitary to 1e-12."""
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise NonUnitaryCoinError(f"coin must be 2x2, got shape {coin.shape}")
    if not np.max(np.abs(coin.conj().T @ coin - np.eye(2))) <= 1e-12:
        raise NonUnitaryCoinError("coin matrix is not unitary")  # NaN fails too
    return coin


def build_coherent(coin: np.ndarray) -> WalkChannel:
    """Noiseless coined walk: flip the coin with a unitary, then shift.

    The single Kraus operator moves the |R> component one site right and the
    |L> component one site left after the coin flip.

    Raises:
        NonUnitaryCoinError: if ``coin`` is not unitary to 1e-12.
    """
    coin = _unitary_coin(coin)
    return _from_rows("coherent", [[(+1, "R", coin[0]), (-1, "L", coin[1])]])


@dataclass(frozen=True)
class BrokenLineParams:
    """Parameters of the broken-line noise model.

    ``p`` is the per-step probability that a given link adjacent to the
    walker is down.  The four phases are picked up on the reflected
    components; trace preservation forces theta2 - theta3 = pi (mod 2*pi),
    while theta1 and theta4 are free knobs (exposed here, defaulted to 0).
    """

    p: float
    theta1: float = 0.0
    theta2: float = math.pi
    theta3: float = 0.0
    theta4: float = 0.0


def _broken_line_rows(params: BrokenLineParams) -> list[list[tuple]]:
    """The broken line's Kraus operators as ``_from_rows`` triples."""
    p = params.p
    h = HADAMARD
    w = math.sqrt(p * (1.0 - p))
    e1, e2, e3, e4 = (cmath.exp(1j * theta) for theta in
                      (params.theta1, params.theta2, params.theta3, params.theta4))
    return [
        # Both links intact: flip, then move.
        [(+1, "R", (1 - p) * h[0]), (-1, "L", (1 - p) * e1 * h[1])],
        # Exactly one adjacent link broken, in each orientation: the mover on
        # the intact side passes, the other component is reflected in place.
        [(+1, "R", w * h[0]), (0, "R", w * e2 * h[1])],
        [(0, "L", w * h[0]), (-1, "L", w * e3 * h[1])],
        # Both links broken: the walker is boxed in and both components reflect.
        [(0, "R", p * h[1]), (0, "L", p * e4 * h[0])],
    ]


def build_broken_line(params: BrokenLineParams) -> WalkChannel:
    """Build the broken-line channel (Hadamard coin with failing links).

    Raises:
        DomainError: if p is outside [0, 1].
        PhaseConstraintError: if theta2 - theta3 != pi (mod 2*pi); the error
            carries the completeness residual of the offending channel.
    """
    p = params.p
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"link-failure probability must be in [0, 1], got {p!r}")
    # p in full, then every phase that differs from its default
    label = "broken-line(" + ", ".join(
        f"{field.name}={float(getattr(params, field.name))!r}"
        for field in fields(params)
        if field.name == "p" or getattr(params, field.name) != field.default
    ) + ")"
    channel = _from_rows(label, _broken_line_rows(params))
    wrapped = (params.theta2 - params.theta3 - math.pi + math.pi) % (2 * math.pi) - math.pi
    if not abs(wrapped) <= 1e-9:
        _, residual = completeness_residual(channel)
        raise PhaseConstraintError(
            "broken-line phases must satisfy theta2 - theta3 = pi (mod 2*pi); "
            f"got theta2 - theta3 = {params.theta2 - params.theta3!r} "
            f"(completeness residual {residual:.3g})",
            residual=residual,
        )
    validate_completeness(channel)
    return channel


def build_coin_channel(
    coin: np.ndarray,
    coin_kraus: Sequence[tuple[float, np.ndarray]],
    label: str = "coin-noise",
) -> WalkChannel:
    """Noise on the coin alone, then the usual conditional shift.

    Each step applies the coin unitary preceded by one of the 2x2 operators
    D_n with probability weight p_n, i.e. Kraus operators
    E_n = sqrt(p_n) * shift * (coin @ D_n).

    Args:
        coin: 2x2 unitary coin matrix.
        coin_kraus: sequence of (weight, D_n) pairs.  Weights must sum to 1
            and the D_n must satisfy sum_n p_n D_n^dag D_n = I.
        label: free-text channel label.

    Raises:
        NonUnitaryCoinError: if ``coin`` is not unitary.
        InvalidCoinKrausError: if the weights or the completeness sum are off.
    """
    coin = _unitary_coin(coin)
    weights = np.array([float(p) for p, _ in coin_kraus])
    if not np.all(weights >= 0):
        raise InvalidCoinKrausError(
            f"coin Kraus weights must be nonnegative, got {weights}"
        )
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise InvalidCoinKrausError(
            f"coin Kraus weights sum to {float(weights.sum())}, expected 1"
        )
    total = np.zeros((2, 2), dtype=complex)
    for p_n, d_n in coin_kraus:
        d_n = np.asarray(d_n, dtype=complex)
        if d_n.shape != (2, 2):
            raise InvalidCoinKrausError(f"coin Kraus operator has shape {d_n.shape}")
        total += p_n * (d_n.conj().T @ d_n)
    if not np.max(np.abs(total - np.eye(2))) <= 1e-10:
        raise InvalidCoinKrausError(
            "sum_n p_n D_n^dag D_n deviates from the identity by "
            f"{np.max(np.abs(total - np.eye(2))):.3g}"
        )
    gammas = [math.sqrt(p_n) * (coin @ np.asarray(d_n, dtype=complex))
              for p_n, d_n in coin_kraus]
    return _from_rows(label, [[(+1, "R", g[0]), (-1, "L", g[1])] for g in gammas])


def dephasing_channel(q: float) -> WalkChannel:
    """Coin measured in the walk basis with probability q before each flip.

    The flip is the Hadamard coin.  q = 0 is the coherent walk; q = 1 destroys the coin coherences every step
    and the position variance grows exactly like the classical random walk.

    Raises:
        DomainError: if q is outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"dephasing strength must be in [0, 1], got {q!r}")
    proj_r = np.array([[1, 0], [0, 0]], dtype=complex)
    proj_l = np.array([[0, 0], [0, 1]], dtype=complex)
    sets = [
        (1.0 - q, np.eye(2, dtype=complex)),
        (q / 2.0, math.sqrt(2.0) * proj_r),
        (q / 2.0, math.sqrt(2.0) * proj_l),
    ]
    return build_coin_channel(HADAMARD, sets, label=f"coin-dephasing(q={float(q)!r})")


def is_coin_channel(channel: WalkChannel) -> bool:
    """True if every Kraus operator factors as shift * (2x2 coin operator).

    Equivalently: every term with output coin R hops +1 and every term with
    output coin L hops -1.
    """
    return all(t.l == (+1 if t.i == "R" else -1) for t in channel.terms)


def _coin_blocks(channel: WalkChannel) -> tuple[np.ndarray, np.ndarray]:
    """Hops l and Fourier blocks M_{n,l} of C_n(k) = sum_l M_{n,l} e^{-ilk}.

    Returns the sorted distinct hops, shape (num_hops,), and the blocks,
    shape (num_kraus, num_hops, 2, 2), with Kraus operators in
    ``kraus_indices`` order.
    """
    kraus = {n: i for i, n in enumerate(channel.kraus_indices)}
    hops = sorted({t.l for t in channel.terms})
    blocks = np.zeros((len(kraus), len(hops), 2, 2), dtype=complex)
    for t in channel.terms:
        blocks[kraus[t.n], hops.index(t.l), COIN_INDEX[t.i], COIN_INDEX[t.j]] += t.amp
    return np.array(hops), blocks


def coin_pair_maps(channel: WalkChannel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Hops l and the coin-pair maps A_{l,l'} = sum_n M_{n,l} (x) conj(M_{n,l'}).

    A_{l,l'}[(i, i'), (j, j')] = sum_n M_{n,l}[i, j] conj(M_{n,l'}[i', j'])
    is rho -> sum_n M_{n,l} rho M_{n,l'}^dag on the coin pair (i, i'): the
    part of a step that moves the ket by l sites and the bra by l'.  Returns
    the sorted hops (H,), the maps (H, H, 4, 4) indexed [l, l'], and whether
    they are real: no imaginary part above ``_REAL_TOL`` of the largest
    entry (a NaN fails).  Kraus operators real up to a global phase (the
    broken line at its default phases, coin dephasing) give real maps.
    """
    hops, blocks = _coin_blocks(channel)
    maps = np.einsum("nlij,nmab->lmiajb", blocks, blocks.conj())
    maps = maps.reshape(len(hops), len(hops), 4, 4)
    real = bool(np.abs(maps.imag).max() <= _REAL_TOL * np.abs(maps).max())
    return hops, maps, real


def momentum_grid(n_k: int) -> np.ndarray:
    """``n_k`` equispaced momenta on [-pi, pi)."""
    if n_k < 1:
        raise ValueError(f"node count must be positive, got {n_k}")
    return -math.pi + 2.0 * math.pi * np.arange(n_k) / n_k


def completeness_residual(channel: WalkChannel) -> tuple[float, float]:
    """Worst deviation of sum_n C_n(k)^dag C_n(k) from the identity.

    The sum is sum_{l,l'} G_{l,l'} e^{i(l-l')k} with Gram coefficients
    G_{l,l'} = sum_n M_{n,l}^dag M_{n,l'}: a trigonometric polynomial of
    degree 2*max_hop in k.  Evaluating it on 4*max_hop + 1 equispaced momenta
    certifies it exactly, since a degree-d trig polynomial vanishing on
    2d+1 equispaced points vanishes identically.

    Returns:
        (worst_k, residual): the momentum of the largest deviation and its
        max-norm.

    Raises:
        ResourceLimitError: past ``_MAX_CERTIFICATE_ENTRIES``, before any is built.
    """
    num_hops = len({t.l for t in channel.terms})
    size = max(num_hops**2 * (4 * channel.max_hop + 1), channel.num_kraus * num_hops)
    ResourceLimitError.check(size, _MAX_CERTIFICATE_ENTRIES,
                             "completeness certificate size")
    hops, blocks = _coin_blocks(channel)
    ks = momentum_grid(4 * channel.max_hop + 1)
    gram = np.einsum("nlba,nmbc->lmac", blocks.conj(), blocks)
    phases = np.exp(1j * np.multiply.outer(np.subtract.outer(hops, hops), ks))
    total = np.einsum("lmac,lmk->kac", gram, phases)
    dev = np.max(np.abs(total - np.eye(2)), axis=(-2, -1))
    worst = int(np.argmax(dev))
    return float(ks[worst]), float(dev[worst])


def validate_completeness(channel: WalkChannel) -> None:
    """Raise CompletenessError unless the channel is trace preserving to 1e-10.

    A NaN residual (from a NaN amplitude) fails the check too.
    """
    worst_k, residual = completeness_residual(channel)
    if not residual <= _COMPLETENESS_TOL:
        raise CompletenessError(
            f"channel {channel.label!r} violates Kraus completeness: "
            f"residual {residual:.3g} at k = {worst_k:.6f}",
            worst_k=worst_k,
            residual=residual,
        )


# --- JSON serialization ----------------------------------------------------

def channel_to_dict(channel: WalkChannel) -> dict:
    """Plain-dict form used by the JSON channel files."""
    return {
        "label": channel.label,
        "terms": [
            {
                "n": t.n,
                "l": t.l,
                "i": t.i,
                "j": t.j,
                "re": float(t.amp.real),
                "im": float(t.amp.imag),
            }
            for t in channel.terms
        ],
    }


def _is_number(value) -> bool:
    """A JSON number: int or float, not bool and not a numeric string."""
    return type(value) is float or type(value) is int


def _is_integer(value) -> bool:
    """An integral JSON number: ``1`` or ``1.0``, not ``1.5`` or ``true``."""
    return type(value) is int or (type(value) is float and value.is_integer())


def channel_from_dict(data: dict) -> WalkChannel:
    """Inverse of ``channel_to_dict``.  Performs schema checks only."""
    if not isinstance(data, dict):
        raise ValueError(f"channel must be a JSON object, got {type(data).__name__}")
    try:
        label = data["label"]
        raw_terms = data["terms"]
    except KeyError as exc:
        raise ValueError(f"channel dict is missing field {exc}") from None
    if not isinstance(label, str):
        raise ValueError("channel label must be a string")
    if not isinstance(raw_terms, list):
        raise ValueError(f"channel terms must be a list, got {raw_terms!r}")
    terms = []
    for raw in raw_terms:
        if not isinstance(raw, dict):
            raise ValueError(f"channel term must be an object, got {raw!r}")
        try:
            n, l, i, j, re, im = raw["n"], raw["l"], raw["i"], raw["j"], raw["re"], raw["im"]
        except KeyError as exc:
            raise ValueError(f"malformed channel term {raw!r}: missing {exc}") from None
        if not (_is_integer(n) and _is_integer(l)):
            raise ValueError(f"malformed channel term {raw!r}: n and l must be integers")
        if not (_is_number(re) and _is_number(im)):
            raise ValueError(f"malformed channel term {raw!r}: re and im must be numbers")
        # tuple membership compares by ==, so unhashable labels are rejected too
        if i not in COIN_LABELS or j not in COIN_LABELS:
            raise ValueError(f"coin labels must be 'R' or 'L', got {i!r}, {j!r}")
        try:
            amp = complex(re, im)
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"malformed channel term {raw!r}: {exc}") from None
        terms.append(KrausTerm(int(n), int(l), i, j, amp))
    if not terms:
        raise ValueError("channel has no terms")
    return WalkChannel(label, tuple(terms))


def save_channel(channel: WalkChannel, path) -> None:
    """Write the channel to a JSON file (round-trips amplitudes bit-exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(channel), fh, indent=2)
        fh.write("\n")


def load_channel(path) -> WalkChannel:
    """Load a channel from JSON and reject it if completeness fails.

    Raises:
        ValueError: on malformed JSON or schema violations.
        CompletenessError: if the stored channel is not trace preserving.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    channel = channel_from_dict(data)
    # a file's amplitudes may be finite yet overflow in the certificate's
    # sums and squares: that gives an inf or NaN residual, which fails it
    with np.errstate(over="ignore", invalid="ignore"):
        validate_completeness(channel)
    return channel
