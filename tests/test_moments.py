"""Momentum-space moment engine tests.

Covers the superoperator maps (transfer, drift, dispersion: complex, as
the naive route evaluates them, and the real block map and readout every
other route reads), the finite-time moment recursions and their naive
double-sum twin, the coin-noise specialization, the asymptotic first
moment, quadrature exactness, and the half-grid sweep of
conjugation-symmetric channels.  Structural matrices are pinned against the
independently coded broken-line closed forms and against the node-by-node
route, both kept here as references (``transfer_matrix_closed_form`` ...,
``reference_grids``, ``block_maps``); moments are pinned against the direct
simulator and the one-step, full-grid ``reference_series``.
"""

import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import brokenline, moments, simulator
from dqwalk.cli import _series_json, _write_moment_csv
from dqwalk.channels import (
    COIN_INDEX,
    HADAMARD,
    BrokenLineParams,
    KrausTerm,
    WalkChannel,
    build_broken_line,
    build_coherent,
    build_coin_channel,
    coin_pair_maps,
    dephasing_channel,
    validate_completeness,
)
from dqwalk.errors import (
    BallisticRegimeError,
    NonRealMomentError,
    NotACoinChannelError,
    NotContractingError,
    QuadratureTooCoarseWarning,
    ResourceLimitError,
)
from dqwalk.moments import (
    _BLOCK,
    _CHUNK,
    _GROUP,
    _fourier_coefficients,
    asymptotic_first_moment,
    diffusion_from_slope,
    exact_node_bound,
    moment_series,
    momentum_grid,
    second_moment_coin_specialized,
    transfer_grids,
)
from dqwalk.pauli import coin_state
from dqwalk.simulator import evolve, init_state, moment_direct
from test_pauli import sandwich_superop


HAD = build_coherent(HADAMARD)

# hop 0: the coin is measured in the walk basis and the walker never moves
MEASURE = WalkChannel(
    label="coin-measurement",
    terms=(KrausTerm(0, 0, "R", "R", 1.0), KrausTerm(1, 0, "L", "L", 1.0)),
)


def complex_maps(channel, ks):
    """The complex step, drift and dispersion maps at ``ks``, (n, 4, 4) each.

    The evaluator of the naive route, the only one that builds them.
    """
    return moments._complex_maps(_fourier_coefficients(channel), np.asarray(ks))


def at_k(channel, k):
    """The complex step, drift and dispersion maps (4x4) at the single momentum k."""
    return tuple(mats[0] for mats in complex_maps(channel, np.array([k])))


def block_maps(step, drift, dispersion):
    """Test-only reference: the real B (n, 8, 8) and R (n, 3, 8) of complex maps.

    B = [[L, 2 Im G], [0, L]] advances the sweep's (w_r, a); the rows of R
    read the first moment (0, -2 Im G[0]), the dispersion (0, 2 Re J[0])
    and the cross sum (2 Im G[0], 0).  Written from the docstring of
    ``moments._real_coefficients``, not from its code.
    """
    n = len(step)
    drive = 2.0 * drift.imag
    block = np.zeros((n, 8, 8))
    block[:, :4, :4] = block[:, 4:, 4:] = step.real
    block[:, :4, 4:] = drive
    readout = np.zeros((n, 3, 8))
    readout[:, 0, 4:] = -drive[:, 0]
    readout[:, 1, 4:] = 2.0 * dispersion[:, 0].real
    readout[:, 2, :4] = drive[:, 0]
    return block, readout


def _efgh(p, k):
    """The four trigonometric building blocks of the closed-form matrices."""
    k = np.asarray(k, dtype=float)
    coherent = (1.0 - p) ** 2
    mixed = p * (1.0 - p)
    return (
        coherent * np.sin(2 * k),
        coherent * np.cos(2 * k),
        mixed * np.sin(k),
        mixed * np.cos(k),
    )


def transfer_matrix_closed_form(p, k):
    """Test-only reference: the broken line's one-step Pauli transfer matrix."""
    e, f, g, h = _efgh(p, k)
    out = np.zeros(np.shape(e) + (4, 4), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 2] = e
    out[..., 1, 3] = f + p * p
    out[..., 2, 2] = -f + p * p
    out[..., 2, 3] = e
    out[..., 3, 1] = 1.0 - 2.0 * p
    out[..., 3, 2] = -2.0 * g
    out[..., 3, 3] = -2.0 * h
    return out


def drift_matrix_closed_form(p, k):
    """Test-only reference: the left-derivative map; its top row is pure imaginary."""
    e, f, g, h = _efgh(p, k)
    out = np.zeros(np.shape(e) + (4, 4), dtype=complex)
    out[..., 0, 1] = 1j * (p - 1.0)
    out[..., 0, 2] = 1j * g
    out[..., 0, 3] = 1j * h
    out[..., 1, 2] = f
    out[..., 1, 3] = -e
    out[..., 2, 2] = e
    out[..., 2, 3] = f
    out[..., 3, 0] = 1j * (p - 1.0)
    out[..., 3, 2] = -h
    out[..., 3, 3] = g
    return out


def dispersion_matrix_closed_form(p, k):
    """Test-only reference: the doubly-differentiated map; top row ((1-p), 0, 0, 0)."""
    e, f, _, _ = _efgh(p, k)
    out = np.zeros(np.shape(e) + (4, 4), dtype=complex)
    out[..., 0, 0] = 1.0 - p
    out[..., 1, 2] = -e
    out[..., 1, 3] = -f
    out[..., 2, 2] = f
    out[..., 2, 3] = -e
    out[..., 3, 1] = 1.0 - p
    return out


# the printed step, drift and dispersion maps, in that order
CLOSED_FORMS = (transfer_matrix_closed_form, drift_matrix_closed_form,
                dispersion_matrix_closed_form)


def reference_coin_matrices(channel, k, derivative=False):
    """Test-only reference: C_n(k), or dC_n/dk, summed term by term.

    ``k`` may be a scalar or an array; the result has shape
    (num_kraus,) + k.shape + (2, 2), Kraus operators in ``kraus_indices``
    order.  The derivative gives each term a factor -i l.  This reads the
    term list directly, not the Fourier blocks the package decodes.
    """
    k = np.asarray(k, dtype=float)
    slot = {n: i for i, n in enumerate(channel.kraus_indices)}
    out = np.zeros((len(slot),) + k.shape + (2, 2), dtype=complex)
    for t in channel.terms:
        weight = -1j * t.l if derivative else 1.0
        out[slot[t.n], ..., COIN_INDEX[t.i], COIN_INDEX[t.j]] += (
            weight * t.amp * np.exp(-1j * t.l * k)
        )
    return out


def reference_grids(channel, ks):
    """Test-only reference: the step, drift and dispersion maps, node by node.

    Stacks C_n(k) and C_n'(k) per Kraus operator and contracts each map with
    ``sandwich_superop``; ``complex_maps`` must agree with it, and
    ``transfer_grids`` with its ``block_maps``.
    """
    cs = reference_coin_matrices(channel, ks)
    ds = reference_coin_matrices(channel, ks, derivative=True)
    return (sandwich_superop(cs, cs), sandwich_superop(ds, cs),
            sandwich_superop(ds, ds))


def reference_series(channel, coin, t_max, n_k=None):
    """Test-only reference: the moment sweep advanced one step at a time.

    Per chunk of ``_CHUNK`` nodes, horizon m reads R v_m and then advances
    v_{m+1} = B v_m, with the block map B and readout R built node by node
    (``block_maps`` of ``reference_grids``).  The engine reads ``_BLOCK``
    horizons per advance from a table of rows R B^j instead, so the two
    agree to rounding, not bit for bit.  Returns (first, second, variance).
    """
    rho_vec = coin_state(coin)
    if n_k is None:
        n_k = exact_node_bound(channel, t_max)
    ks = momentum_grid(n_k)

    first = cross = jsum = 0.0
    for i in range(0, n_k, _CHUNK):
        block, readout = block_maps(*reference_grids(channel, ks[i:i + _CHUNK]))
        n = len(block)
        block = np.ascontiguousarray(np.moveaxis(block, 0, -1))  # (8, 8, n)
        readout = np.moveaxis(readout, 0, -1).reshape(3, 8 * n)
        sums = np.zeros((3, t_max + 1))
        v = np.zeros((8, n))
        v[4:] = rho_vec[:, None]
        for m in range(1, t_max + 1):
            sums[:, m] = readout @ v.ravel()
            v = np.einsum("ijn,jn->in", block, v)
        part_first, part_j, part_cross = np.cumsum(sums, axis=1)
        first = first + part_first
        cross = cross + part_cross
        jsum = jsum + part_j
    first = first / n_k
    second = (cross + jsum) / n_k
    return first, second, second - first**2


def reference_asymptotic(channel, coin, n_k=512):
    """Test-only reference: the limit of <x>_t in complex arithmetic.

    Complex eigenvalues and solves on the node-by-node grids; the checks of
    ``asymptotic_first_moment`` are left out.
    """
    rho_vec = coin_state(coin)
    step, drift, _ = reference_grids(channel, momentum_grid(n_k))
    block = step[:, 1:, 1:]
    r0 = rho_vec[0]
    r_init = np.asarray(rho_vec, dtype=complex)[1:]
    eye3 = np.eye(3, dtype=complex)
    r_star = np.linalg.solve(eye3 - block, (step[:, 1:, 0] * r0)[..., None])[..., 0]
    transient = np.linalg.solve(eye3 - block, (r_init - r_star)[..., None])[..., 0]
    gamma = drift[:, 0, 1:]
    return 1j * (2.0 * np.einsum("ni,ni->n", gamma, transient)).mean()


def random_layered_channel(seed, num_kraus, layers):
    """C_n(k) = S(k) V_layers ... S(k) V_2 S(k) U_n: max_hop = layers.

    S(k) moves the R component by +1 and the L component by -1, the V_i are
    random unitaries and the U_n are cut from a random isometry, so
    sum_n C_n^dag C_n = sum_n U_n^dag U_n = I holds by construction.
    """
    gen = np.random.default_rng(seed)

    def gaussian(rows, cols):
        return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))

    shift = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}

    def times(a, b):
        # product of Laurent polynomials in e^{ik}: {hop: 2x2 coefficient}
        out = {}
        for la, ma in a.items():
            for lb, mb in b.items():
                out[la + lb] = out.get(la + lb, 0) + ma @ mb
        return out

    unitaries = [np.linalg.qr(gaussian(2, 2))[0] for _ in range(layers - 1)]
    iso, _ = np.linalg.qr(gaussian(2 * num_kraus, 2))
    walk = shift
    for v in unitaries:
        walk = times(times(walk, {0: v}), shift)
    terms = []
    for n in range(num_kraus):
        for hop, mat in sorted(times(walk, {0: iso[2 * n:2 * n + 2]}).items()):
            for i in range(2):
                for j_in in range(2):
                    if mat[i, j_in] != 0:
                        terms.append(
                            KrausTerm(n, hop, "RL"[i], "RL"[j_in], complex(mat[i, j_in]))
                        )
    channel = WalkChannel(f"random-layers{layers}", tuple(terms))
    validate_completeness(channel)
    assert channel.max_hop == layers
    return channel


def random_hop2_channel(seed=2003, num_kraus=3):
    """The seeded max_hop-2 channel C_n(k) = S(k) V S(k) U_n."""
    return random_layered_channel(seed, num_kraus, layers=2)


def random_coin_channel(seed):
    """A coin channel of two random unitaries with random weights.

    ``seed`` may be a ``Generator``, whose draws it then advances.
    """
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(2))
    mats = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mats.append(q * (np.diagonal(r) / abs(np.diagonal(r))))
    return build_coin_channel(HADAMARD, list(zip(weights, mats)))


P_GRID = (0.0, 0.3, 0.7, 1.0)
K_GRID = (0.0, 0.5, 1.0, 2.0, -2.5, np.pi)


# ---------------------------------------------------------------------------
# structural superoperator matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("k", K_GRID)
def test_transfer_matrix_matches_closed_form(p, k):
    got, _, _ = at_k(brokenline.default_channel(p), k)
    assert np.max(np.abs(got - transfer_matrix_closed_form(p, k))) <= 1e-12


@pytest.mark.parametrize("p", (0.3, 0.7))
@pytest.mark.parametrize("k", (0.0, 1.0, 2.0))
def test_drift_matrix_matches_closed_form(p, k):
    _, got, _ = at_k(brokenline.default_channel(p), k)
    assert np.max(np.abs(got - drift_matrix_closed_form(p, k))) <= 1e-12


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("k", K_GRID)
def test_dispersion_matrix_matches_closed_form(p, k):
    _, _, got = at_k(brokenline.default_channel(p), k)
    assert np.max(np.abs(got - dispersion_matrix_closed_form(p, k))) <= 1e-12
    assert got[0, 0] == pytest.approx(1 - p)  # printed top-left entry


def test_transfer_matrix_coherent_limit_at_k0():
    # p=0, k=0: e=0, f=1, g=h=0 specialization of the printed matrix
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(at_k(brokenline.default_channel(0.0), 0.0)[0], want, atol=1e-14)


@pytest.mark.parametrize(
    "channel",
    [HAD, brokenline.default_channel(0.4), dephasing_channel(0.6)],
    ids=["coherent", "broken-line", "dephasing"],
)
def test_transfer_matrix_is_trace_preserving(channel):
    for k in K_GRID:
        mat, _, _ = at_k(channel, k)
        assert np.allclose(mat[0], [1, 0, 0, 0], atol=1e-13)


def test_trace_preserved_under_iteration():
    ch = brokenline.default_channel(0.3)
    for k in (0.0, 0.9, -1.7):
        vec = np.array([0.5, 0.1, -0.2, 0.3], dtype=complex)
        step, _, _ = at_k(ch, k)
        for _ in range(50):
            vec = step @ vec
            assert abs(2 * vec[0] - 1.0) <= 1e-12


def test_coherent_transfer_has_unit_modulus_spectrum():
    for k in K_GRID:
        eig = np.linalg.eigvals(at_k(HAD, k)[0])
        assert np.allclose(np.abs(eig), 1.0, atol=1e-12)


def test_noisy_transfer_contracts_bloch_block():
    for p in (0.1, 0.5, 0.9):
        block = transfer_matrix_closed_form(p, 1.3)[1:, 1:]
        assert np.abs(np.linalg.eigvals(block)).max() < 1.0


def test_drift_adjoint_is_conjugate():
    # the sweep reads the partner map O -> sum_n C_n O C_n'^dag as conj(drift)
    ch = brokenline.default_channel(0.45)
    for k in K_GRID:
        cs = reference_coin_matrices(ch, np.array([k]))
        ds = reference_coin_matrices(ch, np.array([k]), derivative=True)
        adjoint = sandwich_superop(cs, ds)[0]
        assert np.allclose(adjoint, at_k(ch, k)[1].conj())


def test_drift_matches_mixed_momentum_finite_difference():
    # drift = d/dk' of the two-momentum transfer map with the right factor
    # frozen at k: L(k', k) rho = sum_n C_n(k') rho C_n(k)^dag
    def mixed(ch, k_left, k_right):
        return sandwich_superop(
            reference_coin_matrices(ch, k_left), reference_coin_matrices(ch, k_right)
        )

    h = 1e-6
    for ch in (HAD, brokenline.default_channel(0.35), dephasing_channel(0.25)):
        for k in (0.0, 1.1):
            fd = (mixed(ch, k + h, k) - mixed(ch, k - h, k)) / (2 * h)
            assert np.max(np.abs(fd - at_k(ch, k)[1])) < 1e-7


def test_coin_channel_drift_is_minus_iz_after_transfer():
    # for shift-after-coin-noise channels the k-derivative acts as left
    # multiplication by -iZ, so drift = (-iZ .) o transfer
    # -iZ O in Pauli coordinates: (r0,r1,r2,r3) -> (-i r3, -r2, r1, -i r0)
    z_left = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [-1j, 0, 0, 0],
        ],
        dtype=complex,
    )
    for ch in (HAD, dephasing_channel(0.7)):
        for k in (0.0, 0.8, -1.9):
            step, drift, _ = at_k(ch, k)
            assert np.allclose(drift, z_left @ step, atol=1e-13)


def test_coin_channel_dispersion_is_z_sandwich_of_transfer():
    z_conj = np.diag([1.0, -1.0, -1.0, 1.0])
    for ch in (HAD, dephasing_channel(0.3)):
        for k in (0.0, 2.2):
            step, _, dispersion = at_k(ch, k)
            assert np.allclose(dispersion, z_conj @ step, atol=1e-13)


@pytest.mark.parametrize("n_k", [1, 7, 512, 1200])
@pytest.mark.parametrize(
    "channel",
    [HAD, dephasing_channel(0.4), brokenline.default_channel(0.3), brokenline.default_channel(1.0),
     build_broken_line(BrokenLineParams(p=0.3, theta1=0.7, theta4=-1.2)),
     random_layered_channel(2003, 3, layers=2), MEASURE],
    ids=["coherent", "dephasing04", "bl03", "bl1", "bl03-phases", "hop2", "measure"],
)
def test_transfer_grids_match_per_node_reference(channel, n_k):
    ks = momentum_grid(n_k)
    want = reference_grids(channel, ks)
    for got, ref, name in zip(complex_maps(channel, ks), want,
                              ("step", "drift", "dispersion")):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14, err_msg=name)
    # the real maps drop only parts that vanish, and agree at the same atol
    step, drift, dispersion = want
    dropped = (step.imag, drift[:, 0].real, dispersion[:, 0].imag)
    assert max(np.abs(part).max() for part in dropped) <= 1e-14
    for got, ref, name in zip(transfer_grids(channel, ks), block_maps(*want), ("B", "R")):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14, err_msg=name)


# ---------------------------------------------------------------------------
# finite-time moments vs the direct simulator
# ---------------------------------------------------------------------------


def oracle_moments(channel, coin, t):
    state = evolve(init_state(coin), channel, t)
    return moment_direct(state, 1), moment_direct(state, 2)


def oracle_prefix(channel, coin, t_max):
    """<x>_m and <x^2>_m for m = 0..t_max from the density-matrix oracle."""
    state = init_state(coin)
    first, second = [0.0], [0.0]
    for _ in range(t_max):
        state = evolve(state, channel, 1)
        first.append(moment_direct(state, 1))
        second.append(moment_direct(state, 2))
    return np.array(first), np.array(second)


def series_on_nodes(n_k, channel, coin, t):
    """``moment_series`` run end to end on an n_k-node rule, not its exactness bound.

    The probes of the rule itself (aliasing, node doubling, even grids,
    chunk edges) patch ``moments.exact_node_bound``, which ``_prepare``
    looks up at call time; ``n_k=None`` keeps the bound.
    """
    if n_k is None:
        return moment_series(channel, coin, t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "exact_node_bound", lambda channel, t_max: n_k)
        return moment_series(channel, coin, t)


def deviation_from_oracle(channel, coin, t, oracle):
    series = moment_series(channel, coin, t)
    first, second = oracle
    # one np.max over both columns, so a NaN anywhere propagates
    return np.max(np.abs(np.concatenate(
        [series.first - first[:t + 1], series.second - second[:t + 1]]
    )))


def test_moments_start_at_zero():
    series = moment_series(brokenline.default_channel(0.5), "R", 0)
    assert series.first[0] == 0.0 and series.second[0] == 0.0


def test_coherent_first_step_matches_oracle():
    m1, m2 = oracle_moments(HAD, "R", 1)
    series = moment_series(HAD, "R", 1)
    assert series.first[1] == pytest.approx(m1, abs=1e-12)
    assert series.second[1] == pytest.approx(m2, abs=1e-12)
    assert m2 == pytest.approx(1.0)


@pytest.mark.parametrize(
    "channel,coin",
    [
        (HAD, "R"),
        (brokenline.default_channel(0.5), "mixed"),
        (brokenline.default_channel(0.9), "symmetric"),
        (dephasing_channel(0.3), "R"),
        (random_hop2_channel(), "symmetric"),
    ],
    ids=["coherent-R", "bl05-mixed", "bl09-symmetric", "dephasing03-R",
         "hop2-symmetric"],
)
def test_engine_matches_oracle(channel, coin):
    t = 12
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_from_oracle(channel, coin, t, oracle) <= 1e-9


# Four full blocks of the moment sweep and one partial block.
PAST_BLOCK_THRESHOLD = 65
# (horizon, nodes): half a block on 64 nodes, and four full blocks plus a
# partial one on the exact grid (None: the bound)
SWEEP_CASES = [(8, 64), (PAST_BLOCK_THRESHOLD, None)]


@pytest.mark.parametrize(
    "channel,coin",
    [(brokenline.default_channel(0.3), "mixed"), (random_hop2_channel(), "symmetric")],
    ids=["bl03-mixed", "hop2-symmetric"],
)
def test_engine_matches_oracle_past_block_threshold(channel, coin):
    t = PAST_BLOCK_THRESHOLD
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_from_oracle(channel, coin, t, oracle) <= 1e-9


def test_naive_double_sum_agrees_with_recursion():
    ch = brokenline.default_channel(0.3)
    for t in (12, PAST_BLOCK_THRESHOLD):
        fast = moment_series(ch, "R", t)
        slow = moment_series(ch, "R", t, naive=True)
        assert np.max(np.abs(fast.second - slow.second)) <= 1e-11
        assert np.array_equal(fast.first, slow.first)  # same code path


# The sweep reads blocks of 16 horizons, and a group of 16 blocks ends every
# 256 horizons.  Both sides of the first two block edges and of the first
# two group edges, no block at all, and a long series whose last block is
# cut short.
BLOCK_HORIZONS = [0, 1, 15, 16, 17, 31, 32, 33, 203,
                  255, 256, 257, 511, 512, 513]
# Nodes swept per call on both sides of the first and second chunk edges.
SWEPT_NODES = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1)


@pytest.mark.parametrize(
    "channel",
    [brokenline.default_channel(0.3), dephasing_channel(0.4), random_hop2_channel()],
    ids=["bl03", "dephasing04", "hop2"],
)
def test_blocked_sweep_matches_one_step_reference(channel):
    assert (_BLOCK, _GROUP) == (16, 16)  # the edges of BLOCK_HORIZONS
    assert 203 % _BLOCK  # a last block cut short
    # a channel with real coin-pair maps sweeps nodes 0 .. n_k // 2; at
    # t = 63 every grid here is at or above the exactness bound
    folds = coin_pair_maps(channel)[2]
    cases = [(t, None) for t in BLOCK_HORIZONS] + [
        (63, 2 * (swept - 1) if folds else swept) for swept in SWEPT_NODES
    ]
    for t, n_k in cases:
        series = series_on_nodes(n_k, channel, GENERIC_COIN, t)
        got = (series.first, series.second, series.variance)
        want = reference_series(channel, GENERIC_COIN, t, n_k=n_k)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), (t, n_k)


# Traced peak of one moment_series(brokenline.default_channel(0.3), "mixed", t) call, in
# MiB.  The sweep that allocated its row tables per 512-node chunk and read
# them one GEMV at a time peaked at 1.11 (t = 1000) and 1.39 (t = 4000); the
# per-call workspace of 256-node chunks peaks at 1.30 and 1.59.  The budget
# is that earlier peak plus 25% (7% and 9% above today's); a sweep that
# allocates per chunk or per group of blocks reaches 2.7 and 4.6.
@pytest.mark.parametrize("t, budget_mib", [(1000, 1.25 * 1.11), (4000, 1.25 * 1.39)],
                         ids=["t1000", "t4000"])
def test_sweep_memory_budget(t, budget_mib):
    channel = brokenline.default_channel(0.3)
    moment_series(channel, "mixed", t)  # numpy's one-time set-up is not the sweep's
    tracemalloc.start()
    try:
        moment_series(channel, "mixed", t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget_mib * 2**20


def test_series_health_fields():
    for channel, coin in [(HAD, "R"), (brokenline.default_channel(0.6), "symmetric")]:
        series = moment_series(channel, coin, 20)
        assert series.max_imag_residue <= 1e-10
        assert np.all(series.variance >= -1e-10)
        assert series.t_max == 20
        assert np.allclose(series.variance, series.second - series.first**2)


# ---------------------------------------------------------------------------
# dispersion (J) term identities
# ---------------------------------------------------------------------------


def test_j_term_linear_in_t_for_coin_channels():
    # MomentSeries.dispersion: the J term at every horizon up to t
    for q in (0.0, 0.4, 1.0):
        ch = dephasing_channel(q)
        for t in (1, 7, 20):
            dispersion = moment_series(ch, "R", t).dispersion
            assert np.max(np.abs(dispersion - np.arange(t + 1))) <= 1e-12


def test_j_term_broken_line():
    for p in (0.0, 0.3, 0.7, 1.0):
        ch = brokenline.default_channel(p)
        for t in (1, 10):
            dispersion = moment_series(ch, "mixed", t).dispersion
            assert np.max(np.abs(dispersion - (1 - p) * np.arange(t + 1))) <= 1e-12


# ---------------------------------------------------------------------------
# coin-noise specialization
# ---------------------------------------------------------------------------


def test_specialized_second_moment_matches_generic():
    for q in (0.0, 0.2, 0.5, 1.0):
        ch = dephasing_channel(q)
        generic = moment_series(ch, "R", 20).second
        special = second_moment_coin_specialized(ch, "R", 20)
        assert special.shape == (21,)
        assert np.max(np.abs(generic - special)) <= 1e-10, q


def test_specialized_series_extends_shorter_series():
    # one pass at t_max = 20 (41 nodes) reads every shorter horizon, where a
    # call at that horizon uses its own, smaller exact grid
    ch = dephasing_channel(0.3)
    series = second_moment_coin_specialized(ch, "symmetric", 20)
    for t in (0, 1, 7):
        short = second_moment_coin_specialized(ch, "symmetric", t)
        assert np.max(np.abs(series[:t + 1] - short)) <= 1e-13 * max(t, 1)


def test_specialized_rejects_shift_noise():
    with pytest.raises(NotACoinChannelError):
        second_moment_coin_specialized(brokenline.default_channel(0.3), "R", 5)


def test_full_dephasing_variance_is_classical():
    ch = dephasing_channel(1.0)
    series = moment_series(ch, "mixed", 40)
    assert np.max(np.abs(series.variance - np.arange(41))) <= 1e-10


def test_phase_flip_coin_noise_cross_checked():
    # {(1-q) I, q sigma_z} coin noise: engine vs oracle at t=15
    sigma_z = np.diag([1.0, -1.0])
    ch = build_coin_channel(HADAMARD, [(0.45, np.eye(2)), (0.55, sigma_z)], label="phase-flip")
    m1, m2 = oracle_moments(ch, "symmetric", 15)
    series = moment_series(ch, "symmetric", 15)
    assert series.first[15] == pytest.approx(m1, abs=1e-9)
    assert series.second[15] == pytest.approx(m2, abs=1e-9)


# ---------------------------------------------------------------------------
# long-time behaviour
# ---------------------------------------------------------------------------


def test_asymptotic_first_moment_matches_large_t():
    ch = brokenline.default_channel(0.5)
    limit = asymptotic_first_moment(ch, "R")
    assert abs(limit - moment_series(ch, "R", 200).first[200]) <= 1e-6


def test_asymptotic_first_moment_symmetric_coin_vanishes():
    assert abs(asymptotic_first_moment(brokenline.default_channel(0.4), "mixed")) <= 1e-12


def test_asymptotic_rejects_coherent_walk():
    with pytest.raises(NotContractingError) as err:
        asymptotic_first_moment(brokenline.default_channel(0.0), "R")
    assert err.value.spectral_radius >= 1 - 1e-9
    # the first rule, of 64 nodes, already decides
    assert err.value.k in momentum_grid(64)
    assert f"k = {err.value.k:.6f}" in str(err.value)


@pytest.mark.parametrize(
    "channel",
    [*(brokenline.default_channel(p) for p in (0.1, 0.3, 0.8)),
     dephasing_channel(0.2), dephasing_channel(0.6)],
    ids=["bl01", "bl03", "bl08", "dephasing02", "dephasing06"],
)
def test_asymptotic_matches_complex_reference(channel):
    for coin in ("R", "L", "symmetric", "mixed"):
        want = reference_asymptotic(channel, coin)
        assert abs(want.imag) <= 1e-13
        assert abs(asymptotic_first_moment(channel, coin) - want.real) <= 1e-13, coin


# every step moves the walker one site right, whatever the coin
DRIFTING = WalkChannel(
    label="always-right",
    terms=(KrausTerm(0, 1, "R", "R", 1.0), KrausTerm(1, 1, "R", "L", 1.0)),
)


def test_asymptotic_drifting_channel_is_ballistic():
    validate_completeness(DRIFTING)
    with pytest.raises(BallisticRegimeError, match=r"nonzero stationary drift 1;"):
        asymptotic_first_moment(DRIFTING, "R")


def test_slope_diffusion_estimate_brackets():
    with pytest.raises(ValueError):
        diffusion_from_slope(brokenline.default_channel(0.5), "R", t_lo=0, t_hi=10)
    with pytest.raises(ValueError):
        diffusion_from_slope(brokenline.default_channel(0.5), "R", t_lo=10, t_hi=10)


def test_slope_diffusion_frozen_walker_is_zero():
    frozen = brokenline.default_channel(1.0)
    assert diffusion_from_slope(frozen, "R", t_lo=5, t_hi=10) == pytest.approx(0.0, abs=1e-12)


def test_slope_diffusion_full_dephasing_is_half():
    got = diffusion_from_slope(dephasing_channel(1.0), "mixed", t_lo=20, t_hi=40)
    assert abs(got - 0.5) <= 0.005


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("coin", ["R", "mixed", "symmetric"])
def test_slope_diffusion_matches_coin_dephasing_closed_form(q, coin):
    # The coin-only case of Brun, Carteret & Ambainis (PRA 67, 032304, 2003):
    # with l = 1 - q, D = (1 + l^2) / (2 (1 - l^2)), the classical 1/2 at
    # q = 1.  By t = 300 the transient has decayed below rounding for
    # q >= 0.3 (at q = 0.1 it is still about 1e-8).
    want = (q * q - 2 * q + 2) / (2 * q * (2 - q))
    got = diffusion_from_slope(dephasing_channel(q), coin, t_lo=300, t_hi=400)
    assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# quadrature and reproducibility
# ---------------------------------------------------------------------------


def test_momentum_grid_layout():
    ks = momentum_grid(8)
    assert ks[0] == -np.pi
    assert np.allclose(np.diff(ks), 2 * np.pi / 8)
    assert ks[-1] < np.pi


def test_node_doubling_changes_nothing():
    ch = brokenline.default_channel(0.3)
    t = 15
    base_n = exact_node_bound(ch, t)
    a = moment_series(ch, "R", t)
    b = series_on_nodes(2 * base_n, ch, "R", t)
    assert (a.n_k, b.n_k) == (base_n, 2 * base_n)
    assert np.max(np.abs(a.first - b.first)) <= 1e-12
    assert np.max(np.abs(a.second - b.second)) <= 1e-12


GENERIC_COIN = np.array([0.5, 0.1, 0.2, -0.3])


@pytest.mark.parametrize(
    "channel",
    [brokenline.default_channel(0.3), brokenline.default_channel(1.0), dephasing_channel(0.4), HAD,
     random_hop2_channel()],
    ids=["bl03", "bl1", "dephasing04", "coherent", "hop2"],
)
def test_exact_node_bound_is_exact(channel):
    # the degree argument: 2 * max_hop * t + 1 nodes integrate every moment
    # up to horizon t without error, on each horizon's own grid
    oracle = oracle_prefix(channel, GENERIC_COIN, 10)
    for t in range(1, 11):
        assert deviation_from_oracle(channel, GENERIC_COIN, t, oracle) <= 1e-9


def test_grid_below_exact_node_bound_aliases(monkeypatch):
    # the bound is tight enough to matter: two nodes fewer and the top
    # frequencies of the broken-line integrand alias onto the mean
    ch = brokenline.default_channel(0.3)
    t = 7
    n_k = exact_node_bound(ch, t) - 2
    assert n_k == 13
    monkeypatch.setattr(moments, "exact_node_bound", lambda channel, t_max: n_k)
    dev = deviation_from_oracle(ch, GENERIC_COIN, t, oracle_prefix(ch, GENERIC_COIN, t))
    assert dev > 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_kraus=st.integers(1, 3),
    layers=st.integers(1, 2),
    coin=st.sampled_from(["R", "L", "symmetric", "mixed"]),
    t=st.integers(1, 6),
)
def test_engine_matches_oracle_on_random_channels(seed, num_kraus, layers, coin, t):
    channel = random_layered_channel(seed, num_kraus, layers)
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_from_oracle(channel, coin, t, oracle) <= 1e-9


def _imaginary_step(freqs, coef, real):
    """Adds 1e-6j to the step map at every k: to its d = 0 coefficient."""
    coef = coef.copy()
    coef[:16, freqs == 0] += 1e-6j
    return freqs, coef, real


def _real_drift_top_row(freqs, coef, real):
    """Adds 1e-6 to the drift map's top row at every k."""
    coef = coef.copy()
    coef[16:20, freqs == 0] += 1e-6
    return freqs, coef, real


def _structure_routes():
    """Every route that reads the transfer maps, as zero-argument calls."""
    bl, deph = brokenline.default_channel(0.4), dephasing_channel(0.4)
    series = [lambda t=t, n_k=n_k: series_on_nodes(n_k, bl, "R", t)
              for t, n_k in SWEEP_CASES]
    return series + [
        lambda: moment_series(bl, "R", 6, naive=True),
        lambda: transfer_grids(bl, momentum_grid(8)),
        lambda: second_moment_coin_specialized(deph, "R", 8),
        lambda: asymptotic_first_moment(bl, "R"),
    ]


@pytest.mark.parametrize("corrupt", [_imaginary_step, _real_drift_top_row])
def test_grid_structure_check_bites(corrupt, monkeypatch):
    # the real sweep discards these parts, so every route must refuse a
    # channel whose coefficients have them
    routes = _structure_routes()
    for route in routes:
        clean = route()
        if isinstance(clean, moments.MomentSeries):
            assert clean.max_imag_residue <= 1e-14
    build = moments._fourier_coefficients
    monkeypatch.setattr(
        moments, "_fourier_coefficients", lambda channel: corrupt(*build(channel))
    )
    for route in routes:
        with pytest.raises(NonRealMomentError):
            route()


def test_structure_check_runs_once_per_call(monkeypatch):
    checks, chunks = [], []
    check, maps = moments._coefficient_residue, moments._node_maps

    def check_spy(coef):
        checks.append(1)
        return check(coef)

    def maps_spy(coefficients, ks, out):
        chunks.append(len(ks))
        return maps(coefficients, ks, out)

    monkeypatch.setattr(moments, "_coefficient_residue", check_spy)
    monkeypatch.setattr(moments, "_node_maps", maps_spy)
    # t = 600: a half grid of 605 of 1208 nodes, in three chunks
    series_on_nodes(1208, brokenline.default_channel(0.7), "R", 600)
    assert chunks == [256, 256, 93]
    assert len(checks) == 1
    # the limit checks once per node count; its case converges at the first
    for route in _structure_routes():
        checks.clear()
        route()
        assert len(checks) == 1


def test_only_the_naive_route_evaluates_complex_maps(monkeypatch):
    # one map representation: every route reads the real node maps, and
    # only the literal double sum (naive=True) also builds the complex ones
    calls = {"real": 0, "complex": 0}
    node_maps, complex_eval = moments._node_maps, moments._complex_maps

    def node_spy(*args):
        calls["real"] += 1
        return node_maps(*args)

    def complex_spy(*args):
        calls["complex"] += 1
        return complex_eval(*args)

    monkeypatch.setattr(moments, "_node_maps", node_spy)
    monkeypatch.setattr(moments, "_complex_maps", complex_spy)
    bl, deph = brokenline.default_channel(0.4), dephasing_channel(0.4)
    routes = {
        "moment_series": lambda: moment_series(bl, "R", 6),
        "naive": lambda: moment_series(bl, "R", 6, naive=True),
        "transfer_grids": lambda: transfer_grids(bl, momentum_grid(8)),
        "coin-specialized": lambda: second_moment_coin_specialized(deph, "R", 8),
        "asymptotic": lambda: asymptotic_first_moment(bl, "R"),
    }
    for name, route in routes.items():
        calls.update(real=0, complex=0)
        route()
        assert calls["real"] >= 1, name
        assert (calls["complex"] > 0) == (name == "naive"), name


def _nan_coherent_channel():
    # built by hand, so no completeness certificate stands in the way
    terms = list(HAD.terms)
    terms[0] = KrausTerm(0, terms[0].l, terms[0].i, terms[0].j, complex(np.nan, 0.0))
    return WalkChannel("nan-amplitude", tuple(terms))


def test_nan_channel_data_fail_closed():
    ch = _nan_coherent_channel()
    # NaN maps are not real, and the structure check raises before any sweep
    assert not coin_pair_maps(ch)[2]
    with pytest.raises(NonRealMomentError):
        moment_series(ch, "R", 4)
    with pytest.raises(NonRealMomentError):
        moment_series(ch, "R", 4, naive=True)
    with pytest.raises(NonRealMomentError):
        transfer_grids(ch, momentum_grid(4))
    with pytest.raises(NonRealMomentError):
        second_moment_coin_specialized(ch, "R", 4)
    with pytest.raises(NonRealMomentError):
        asymptotic_first_moment(ch, "R")


def test_coin_specialized_sweep_past_the_node_step_limit_is_refused():
    # the CLI tests cover the other limits; this route has no CLI of its own.
    # Its n_k = 2t + 1 nodes take about 930 B each (tracemalloc at t = 2000
    # and 8000), so the largest admissible call peaks near 132 MB
    with pytest.raises(ResourceLimitError, match="swept node-step count 10000161753 exceeds"):
        second_moment_coin_specialized(dephasing_channel(0.3), "R", 70711)


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        moment_series(HAD, "R", -3)


# ---------------------------------------------------------------------------
# conjugation symmetry: the half-grid sweep
# ---------------------------------------------------------------------------

# rho -> conj(rho) in Pauli coordinates: conjugation flips sigma_y
PAULI_FLIP = np.diag([1.0, 1.0, -1.0, 1.0])
MIRROR_SIGNS = (("step", 1.0), ("drift", -1.0), ("dispersion", 1.0))


def mirrored(mats, sign):
    """sign * P conj(A) P: what a folding channel's map A(k) is at -k."""
    return sign * (PAULI_FLIP @ mats.conj() @ PAULI_FLIP)


def with_kraus_phases(channel, phases):
    """The same channel with Kraus operator n multiplied by e^{i phases[n]}."""
    return WalkChannel(f"{channel.label}-phased", tuple(
        dataclasses.replace(t, amp=t.amp * np.exp(1j * phases[t.n]))
        for t in channel.terms
    ))


BL_PHASED = with_kraus_phases(brokenline.default_channel(0.3), (0.3, 1.7, -2.2, 2.9))
BL_THETA1 = build_broken_line(BrokenLineParams(p=0.3, theta1=0.4))


@pytest.mark.parametrize("p", P_GRID)
def test_closed_forms_obey_mirror_relations(p):
    # L(-k) = P conj(L(k)) P, G(-k) = -P conj(G(k)) P, J(-k) = P conj(J(k)) P
    ks = np.array(K_GRID)
    for form, (name, sign) in zip(CLOSED_FORMS, MIRROR_SIGNS):
        np.testing.assert_allclose(
            form(p, -ks), mirrored(form(p, ks), sign), rtol=0.0, atol=1e-15, err_msg=name
        )


@pytest.mark.parametrize(
    "channel, folds",
    [(brokenline.default_channel(0.3), True), (brokenline.default_channel(1.0), True),
     (dephasing_channel(0.4), True),
     (HAD, True), (BL_PHASED, True), (BL_THETA1, False),
     (build_broken_line(BrokenLineParams(p=0.3, theta4=-1.2)), False),
     (random_hop2_channel(), False), (MEASURE, True), (random_coin_channel(77), False)],
    ids=["bl03", "bl1", "dephasing04", "coherent", "bl03-kraus-phases", "bl03-theta1",
         "bl03-theta4", "hop2", "measurement", "random-coin"],
)
def test_conjugation_symmetry_check_matches_grids(channel, folds):
    # one flag, from coin_pair_maps, picks both the engine's half-grid sweep
    # and the band run's real rows: check it against what each consumer needs
    real = coin_pair_maps(channel)[2]
    assert real == folds
    assert _fourier_coefficients(channel)[2] == real
    ks = np.linspace(-3.0, 3.0, 13)
    plus, minus = complex_maps(channel, ks), complex_maps(channel, -ks)
    gap = max(
        np.abs(m - mirrored(p, sign)).max()
        for p, m, (_, sign) in zip(plus, minus, MIRROR_SIGNS)
    )
    assert gap <= 1e-14 if real else gap > 1e-2
    dtypes = {rows.dtype for rows, _ in simulator.fold(channel)}
    assert dtypes == {np.dtype(float) if real else np.dtype(complex)}


def test_symmetric_channel_sweeps_half_the_grid(monkeypatch):
    swept = []
    maps = moments._node_maps

    def spy(coefficients, ks, out):
        swept.append(len(ks))
        return maps(coefficients, ks, out)

    monkeypatch.setattr(moments, "_node_maps", spy)
    # nodes 0 .. n_k // 2 in 256-node chunks; a channel that fails the check
    # sweeps all of them
    for channel, n_k, want in [(brokenline.default_channel(0.3), 1208, [256, 256, 93]),
                               (brokenline.default_channel(0.3), 1201, [256, 256, 89]),
                               (BL_THETA1, 48, [48])]:
        swept.clear()
        assert series_on_nodes(n_k, channel, "R", 20).n_k == n_k
        assert swept == want


@pytest.mark.parametrize(
    "channel, t, n_k",
    [(brokenline.default_channel(0.3), 40, "even"), (brokenline.default_channel(0.3), 40, "exact"),
     (brokenline.default_channel(0.7), 600, "exact"), (dephasing_channel(0.4), 50, "even"),
     (BL_PHASED, 40, "even")],
    ids=["bl03-even", "bl03-odd", "bl07-two-chunks", "dephasing04-even",
         "bl03-kraus-phases"],
)
@pytest.mark.parametrize("coin", [GENERIC_COIN, (0.6, 0.8j)], ids=["generic", "amplitude"])
def test_half_grid_sweep_matches_full_grid_reference(channel, t, n_k, coin):
    # both coins carry sigma_y, which the fold removes from the start vector
    assert coin_state(coin)[2] != 0
    # the exactness bound is odd; one node more gives an even grid
    n_k = exact_node_bound(channel, t) + (n_k == "even")
    series = series_on_nodes(n_k, channel, coin, t)
    assert series.n_k == n_k
    want = reference_series(channel, coin, t, n_k=n_k)
    for g, w in zip((series.first, series.second, series.variance), want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_asymptotic_sweeps_half_the_grid_of_real_maps(monkeypatch):
    # the limit uses the series' half-grid rule: real maps reach the grids
    # with nodes 0 .. n // 2 of the n-node rule, complex ones with all n;
    # n starts at 64 and doubles until the n- and n/2-node rules agree
    swept = []
    grids = moments.transfer_grids

    def spy(channel, ks):
        swept.append(len(ks))
        return grids(channel, ks)

    monkeypatch.setattr(moments, "transfer_grids", spy)
    for channel, coin, want in [(brokenline.default_channel(0.3), "R", [33]),
                                (dephasing_channel(0.4), "R", [33]),
                                (BL_THETA1, "R", [64]),
                                (BL_THETA1, "symmetric", [64, 128])]:
        swept.clear()
        asymptotic_first_moment(channel, coin)
        assert swept == want, (channel.label, coin)


def full_grid_asymptotic(channel, coin, n_k=512):
    """Test-only reference: the limit on all n_k nodes, each with weight 1."""
    block, readout = transfer_grids(channel, momentum_grid(n_k))
    rho_vec, step = coin_state(coin), block[:, 4:, 4:]
    relax = np.eye(3) - step[:, 1:, 1:]
    r_star = np.linalg.solve(relax, step[:, 1:, 0:1] * rho_vec[0])[..., 0]
    transient = np.linalg.solve(relax, (rho_vec[1:] - r_star)[..., None])[..., 0]
    return np.einsum("ni,ni->n", readout[:, 0, 5:], transient).mean()


@pytest.mark.parametrize(
    "channel",
    [brokenline.default_channel(0.3), dephasing_channel(0.4), BL_THETA1],
    ids=["bl03", "dephasing04", "theta1"],
)
def test_asymptotic_half_grid_matches_full_grid(channel):
    # GENERIC_COIN has a sigma_y part, which the half grid drops
    for coin in ("R", "L", "symmetric", "mixed", GENERIC_COIN):
        want = full_grid_asymptotic(channel, coin)
        assert abs(asymptotic_first_moment(channel, coin) - want) <= 1e-15, coin


def eigvals_decision(bloch):
    """Today's contraction test alone: does some block have radius >= 1 - 1e-9?"""
    return bool(np.abs(np.linalg.eigvals(bloch)).max() >= 1.0 - 1e-9)


def certified_decision(channel, n_k=512):
    """The certificate-then-eigenvalues verdict and the eigenvalue-only one."""
    ks = momentum_grid(n_k)
    bloch = transfer_grids(channel, ks)[0][:, 5:, 5:]
    try:
        moments._check_contracting(bloch, ks)
    except NotContractingError as err:
        assert err.k in ks
        return True, eigvals_decision(bloch)
    return False, eigvals_decision(bloch)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_kraus=st.integers(1, 3), layers=st.integers(1, 2))
def test_contraction_certificate_agrees_with_eigenvalues(seed, num_kraus, layers):
    # one Kraus operator is a unitary walk (never contracting); more almost
    # always contract, and the certificate alone decides those
    got, want = certified_decision(random_layered_channel(seed, num_kraus, layers))
    assert got == want


@pytest.mark.parametrize(
    "channel, contracting",
    [(brokenline.default_channel(1.0), False), (brokenline.default_channel(1e-4), True),
     (brokenline.default_channel(1e-3), True), (HAD, False), (DRIFTING, True)],
    ids=["bl1", "bl1e-4", "bl1e-3", "coherent", "drifting"],
)
def test_contraction_certificate_near_the_threshold(channel, contracting):
    # radius 1 to rounding (p = 1, coherent), 1 - 1e-4 (the certificate
    # fails and the eigenvalues decide), 1 - 1e-3 and 0
    got, want = certified_decision(channel)
    assert got == want == (not contracting)


def test_contraction_certificate_spares_the_eigenvalues(monkeypatch):
    # a clearly contracting channel never reaches np.linalg.eigvals
    def refuse(*args):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert abs(asymptotic_first_moment(brokenline.default_channel(0.5), "R")
               - 0.3033400534048355) <= 1e-12


def test_asymptotic_doubled_rule_matches_a_fine_reference():
    # the symmetric coin stops at 128 nodes (the 128- and 64-node rules
    # agree); 4096 nodes give the same limit
    for coin in ("symmetric", GENERIC_COIN):
        want = full_grid_asymptotic(BL_THETA1, coin, n_k=4096)
        assert abs(asymptotic_first_moment(BL_THETA1, coin) - want) <= 1e-13, coin


def test_asymptotic_rule_warns_at_the_cap(monkeypatch):
    # this case doubles once (see the spy test above), so a cap at the first
    # count leaves its rule unconverged: the last value comes with a warning
    monkeypatch.setattr(moments, "_MAX_LIMIT_NODES", 64)
    with pytest.warns(QuadratureTooCoarseWarning, match="the 64- and 32-node rules differ"):
        asymptotic_first_moment(BL_THETA1, "symmetric")


@pytest.mark.parametrize("n_k, message", [
    (8, "the 8- and 4-node rules differ"), (4, "the 4- and 2-node rules differ"),
    (10, "the 10- and 5-node rules differ"),
])
def test_asymptotic_coarse_rule_warns(n_k, message, monkeypatch):
    # a rule that starts at the cap gets one comparison with the rule of half
    # as many nodes that it contains; these are too coarse, so it warns
    monkeypatch.setattr(moments, "_LIMIT_NODES", n_k)
    monkeypatch.setattr(moments, "_MAX_LIMIT_NODES", n_k)
    with pytest.warns(QuadratureTooCoarseWarning, match=message):
        asymptotic_first_moment(brokenline.default_channel(0.5), "R")


def test_asymptotic_rule_memory_at_the_cap():
    # a full-grid channel whose rule never converges (the block of the
    # slowest momentum relaxes over ~1e8 steps) runs every count up to
    # _MAX_LIMIT_NODES = 2**15 and warns; its traced peak was 42 MiB
    channel = build_broken_line(BrokenLineParams(p=1e-8, theta1=0.4))
    tracemalloc.start()
    try:
        with pytest.warns(QuadratureTooCoarseWarning, match="the 32768- and 16384-node"):
            asymptotic_first_moment(channel, "symmetric")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20


@pytest.mark.parametrize("n_k", [512, 2048])
@pytest.mark.parametrize(
    "channel",
    [*(brokenline.default_channel(p) for p in (0.1, 0.9)),
     *(dephasing_channel(q) for q in (0.1, 0.9)), BL_THETA1],
    ids=["bl01", "bl09", "dephasing01", "dephasing09", "theta1"],
)
def test_asymptotic_converged_rule_is_silent(channel, n_k, monkeypatch):
    # the ends of the benchmark's grid and a full-grid channel: the rule
    # converges below the cap (any warning fails the suite), and a rule
    # started at n_k, whose n_k and n_k / 2 rules agree, gives the same value
    for coin in ("R", "symmetric"):
        want = asymptotic_first_moment(channel, coin)
        with monkeypatch.context() as patch:
            patch.setattr(moments, "_LIMIT_NODES", n_k)
            got = asymptotic_first_moment(channel, coin)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), coin


# ---------------------------------------------------------------------------
# exports: the CLI's writers of a series
# ---------------------------------------------------------------------------


def write_csv(buf, series):
    _write_moment_csv(buf, series.first.tolist(), series.second.tolist(),
                      series.variance.tolist())


def test_csv_export_shape():
    series = moment_series(brokenline.default_channel(0.5), "R", 4)
    buf = io.StringIO()
    write_csv(buf, series)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,first,second,variance"
    assert len(lines) == 6
    t, first, second, var = lines[3].split(",")
    assert int(t) == 2
    assert float(second) == pytest.approx(series.second[2])


@pytest.mark.parametrize("kind", ["series", "edge-values"])
def test_writers_match_row_by_row_format(kind):
    # the CSV writer formats the whole table at once; the per-row f-string
    # below is the reference, byte for byte
    series = moment_series(brokenline.default_channel(0.3), GENERIC_COIN, 1000)
    if kind == "edge-values":
        vals = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1 / 3, -0.1,
                         123456789.125, -2.5])
        series = dataclasses.replace(series, first=-vals, second=vals[::-1], variance=0.5 * vals)
    else:
        assert series.t_max == 1000 and np.any(series.first < 0)
    buf = io.StringIO()
    write_csv(buf, series)
    want = "t,first,second,variance\n" + "".join(
        f"{t},{series.first[t]:.17g},{series.second[t]:.17g},{series.variance[t]:.17g}\n"
        for t in range(series.t_max + 1)
    )
    assert buf.getvalue() == want
    want_json = {
        "channel": series.channel_label,
        "coin": list(series.coin),
        "n_k": series.n_k,
        "max_imag_residue": series.max_imag_residue,
        "t": list(range(series.t_max + 1)),
        "first": [float(v) for v in series.first],
        "second": [float(v) for v in series.second],
        "variance": [float(v) for v in series.variance],
    }
    assert _series_json(series) == json.dumps(want_json, indent=2) + "\n"


def test_json_export_round_trips():
    series = moment_series(dephasing_channel(0.4), "symmetric", 6)
    data = json.loads(_series_json(series))
    assert data["n_k"] == series.n_k
    assert data["channel"] == series.channel_label
    assert data["coin"] == [0.5, 0.0, 0.5, 0.0]
    assert np.allclose(data["variance"], series.variance)
    assert data["t"] == list(range(7))
