"""Momentum-space moment engine tests.

Covers the affine superoperator grids (transfer, drift, dispersion),
the finite-time moment recursions and their naive double-sum twin, the
coin-noise specialization, the asymptotic first moment, quadrature
exactness, and the half-grid sweep of conjugation-symmetric channels.
Structural matrices are pinned against the independently coded broken-line
closed forms and against the node-by-node route, both kept here as
references (``transfer_matrix_closed_form`` ..., ``reference_grids``);
moments are pinned against the direct simulator and the one-step,
full-grid ``reference_series``.
"""

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import moments, simulator
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
)
from dqwalk.moments import (
    _BLOCK,
    _CHUNK,
    TransferGrids,
    _fourier_coefficients,
    asymptotic_first_moment,
    diffusion_from_slope,
    exact_node_bound,
    j_term,
    moment_series,
    momentum_grid,
    second_moment_coin_specialized,
    transfer_grids,
)
from dqwalk.pauli import coin_state, sandwich_superop
from dqwalk.simulator import evolve, init_state, moment_direct


def broken_line(p):
    return build_broken_line(BrokenLineParams(p=p))


HAD = build_coherent(HADAMARD)

# hop 0: the coin is measured in the walk basis and the walker never moves
MEASURE = WalkChannel(
    label="coin-measurement",
    terms=(KrausTerm(0, 0, "R", "R", 1.0), KrausTerm(1, 0, "L", "L", 1.0)),
)


def at_k(channel, k):
    """The four transfer grids at the single momentum k."""
    return transfer_grids(channel, np.array([k]))


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
    """Test-only reference: the grids built node by node from C_n(k).

    Stacks C_n(k) and C_n'(k) per Kraus operator and contracts each map with
    ``sandwich_superop``; ``transfer_grids`` must agree with it.
    """
    cs = reference_coin_matrices(channel, ks)
    ds = reference_coin_matrices(channel, ks, derivative=True)
    return TransferGrids(
        ks=ks,
        step=sandwich_superop(cs, cs),
        drift=sandwich_superop(ds, cs),
        dispersion=sandwich_superop(ds, ds),
    )


def reference_series(channel, coin, t_max, n_k=None):
    """Test-only reference: the moment sweep advanced one step at a time.

    Per chunk of ``_CHUNK`` nodes, horizon m reads R v_m and then advances
    v_{m+1} = B v_m, with the block map B and readout R of ``_accumulate``.
    The engine reads ``_BLOCK`` horizons per advance instead, so the two
    agree to rounding, not bit for bit.  Returns (first, second, variance).
    """
    rho_vec = coin_state(coin)
    if n_k is None:
        n_k = exact_node_bound(channel, t_max)
    ks = momentum_grid(n_k)

    def nodes_last(mats):
        return np.ascontiguousarray(np.moveaxis(mats, 0, -1))

    first = cross = jsum = 0.0
    for i in range(0, n_k, _CHUNK):
        grids = transfer_grids(channel, ks[i:i + _CHUNK])
        n = len(grids.ks)
        step = nodes_last(grids.step.real)
        drift_adj = grids.drift.conj()  # O -> sum_n C_n O C_n'^dag
        block = np.zeros((8, 8, n))
        block[:4, :4] = step
        block[:4, 4:] = nodes_last((grids.drift - drift_adj).imag)
        block[4:, 4:] = step
        readout = np.zeros((3, 8, n))
        readout[0, 4:] = nodes_last(-2.0 * grids.drift[:, 0, :].imag)
        readout[1, :4] = nodes_last(-2.0 * drift_adj[:, 0, :].imag)
        readout[2, 4:] = nodes_last(2.0 * grids.dispersion[:, 0, :].real)
        readout = readout.reshape(3, 8 * n)
        sums = np.zeros((3, t_max + 1))
        v = np.zeros((8, n))
        v[4:] = rho_vec[:, None]
        for m in range(1, t_max + 1):
            sums[:, m] = readout @ v.ravel()
            v = np.einsum("ijn,jn->in", block, v)
        part_first, part_cross, part_j = np.cumsum(sums, axis=1)
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
    grids = reference_grids(channel, momentum_grid(n_k))
    block = grids.step[:, 1:, 1:]
    r0 = rho_vec[0]
    r_init = np.asarray(rho_vec, dtype=complex)[1:]
    eye3 = np.eye(3, dtype=complex)
    r_star = np.linalg.solve(eye3 - block, (grids.step[:, 1:, 0] * r0)[..., None])[..., 0]
    transient = np.linalg.solve(eye3 - block, (r_init - r_star)[..., None])[..., 0]
    gamma = grids.drift[:, 0, 1:]
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
    got = at_k(broken_line(p), k).step[0]
    assert np.max(np.abs(got - transfer_matrix_closed_form(p, k))) <= 1e-12


@pytest.mark.parametrize("p", (0.3, 0.7))
@pytest.mark.parametrize("k", (0.0, 1.0, 2.0))
def test_drift_matrix_matches_closed_form(p, k):
    got = at_k(broken_line(p), k).drift[0]
    assert np.max(np.abs(got - drift_matrix_closed_form(p, k))) <= 1e-12


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("k", K_GRID)
def test_dispersion_matrix_matches_closed_form(p, k):
    got = at_k(broken_line(p), k).dispersion[0]
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
    assert np.allclose(at_k(broken_line(0.0), 0.0).step[0], want, atol=1e-14)


@pytest.mark.parametrize(
    "channel",
    [HAD, broken_line(0.4), dephasing_channel(0.6)],
    ids=["coherent", "broken-line", "dephasing"],
)
def test_transfer_matrix_is_trace_preserving(channel):
    for k in K_GRID:
        mat = at_k(channel, k).step[0]
        assert np.allclose(mat[0], [1, 0, 0, 0], atol=1e-13)


def test_trace_preserved_under_iteration():
    ch = broken_line(0.3)
    for k in (0.0, 0.9, -1.7):
        vec = np.array([0.5, 0.1, -0.2, 0.3], dtype=complex)
        step = at_k(ch, k).step[0]
        for _ in range(50):
            vec = step @ vec
            assert abs(2 * vec[0] - 1.0) <= 1e-12


def test_coherent_transfer_has_unit_modulus_spectrum():
    for k in K_GRID:
        eig = np.linalg.eigvals(at_k(HAD, k).step[0])
        assert np.allclose(np.abs(eig), 1.0, atol=1e-12)


def test_noisy_transfer_contracts_bloch_block():
    for p in (0.1, 0.5, 0.9):
        block = transfer_matrix_closed_form(p, 1.3)[1:, 1:]
        assert np.abs(np.linalg.eigvals(block)).max() < 1.0


def test_drift_adjoint_is_conjugate():
    # the sweep reads the partner map O -> sum_n C_n O C_n'^dag as conj(drift)
    ch = broken_line(0.45)
    for k in K_GRID:
        cs = reference_coin_matrices(ch, np.array([k]))
        ds = reference_coin_matrices(ch, np.array([k]), derivative=True)
        adjoint = sandwich_superop(cs, ds)[0]
        assert np.allclose(adjoint, at_k(ch, k).drift[0].conj())


def test_drift_matches_mixed_momentum_finite_difference():
    # drift = d/dk' of the two-momentum transfer map with the right factor
    # frozen at k: L(k', k) rho = sum_n C_n(k') rho C_n(k)^dag
    def mixed(ch, k_left, k_right):
        return sandwich_superop(
            reference_coin_matrices(ch, k_left), reference_coin_matrices(ch, k_right)
        )

    h = 1e-6
    for ch in (HAD, broken_line(0.35), dephasing_channel(0.25)):
        for k in (0.0, 1.1):
            fd = (mixed(ch, k + h, k) - mixed(ch, k - h, k)) / (2 * h)
            assert np.max(np.abs(fd - at_k(ch, k).drift[0])) < 1e-7


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
            grids = at_k(ch, k)
            assert np.allclose(grids.drift[0], z_left @ grids.step[0], atol=1e-13)


def test_coin_channel_dispersion_is_z_sandwich_of_transfer():
    z_conj = np.diag([1.0, -1.0, -1.0, 1.0])
    for ch in (HAD, dephasing_channel(0.3)):
        for k in (0.0, 2.2):
            grids = at_k(ch, k)
            assert np.allclose(grids.dispersion[0], z_conj @ grids.step[0], atol=1e-13)


@pytest.mark.parametrize("n_k", [1, 7, 512, 1200])
@pytest.mark.parametrize(
    "channel",
    [HAD, dephasing_channel(0.4), broken_line(0.3), broken_line(1.0),
     build_broken_line(BrokenLineParams(p=0.3, theta1=0.7, theta4=-1.2)),
     random_layered_channel(2003, 3, layers=2), MEASURE],
    ids=["coherent", "dephasing04", "bl03", "bl1", "bl03-phases", "hop2", "measure"],
)
def test_transfer_grids_match_per_node_reference(channel, n_k):
    ks = momentum_grid(n_k)
    got, want = transfer_grids(channel, ks), reference_grids(channel, ks)
    for name in ("step", "drift", "dispersion"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-14, err_msg=name
        )


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


def deviation_at_nodes(channel, coin, t, n_k, oracle):
    series = moment_series(channel, coin, t, n_k=n_k)
    first, second = oracle
    # one np.max over both columns, so a NaN anywhere propagates
    return np.max(np.abs(np.concatenate(
        [series.first - first[:t + 1], series.second - second[:t + 1]]
    )))


def test_moments_start_at_zero():
    series = moment_series(broken_line(0.5), "R", 0)
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
        (broken_line(0.5), "mixed"),
        (broken_line(0.9), "symmetric"),
        (dephasing_channel(0.3), "R"),
        (random_hop2_channel(), "symmetric"),
    ],
    ids=["coherent-R", "bl05-mixed", "bl09-symmetric", "dephasing03-R",
         "hop2-symmetric"],
)
def test_engine_matches_oracle(channel, coin):
    t = 12
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_at_nodes(channel, coin, t, None, oracle) <= 1e-9


# Eight full blocks of the moment sweep and one partial block.
PAST_BLOCK_THRESHOLD = 65
# (horizon, nodes): a single full block, and eight full blocks plus a
# partial one on the broken line's exact grid
SWEEP_CASES = [(8, 64), (65, 131)]


@pytest.mark.parametrize(
    "channel,coin",
    [(broken_line(0.3), "mixed"), (random_hop2_channel(), "symmetric")],
    ids=["bl03-mixed", "hop2-symmetric"],
)
def test_engine_matches_oracle_past_block_threshold(channel, coin):
    t = PAST_BLOCK_THRESHOLD
    n_k = exact_node_bound(channel, t)
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_at_nodes(channel, coin, t, n_k, oracle) <= 1e-9


def test_naive_double_sum_agrees_with_recursion():
    ch = broken_line(0.3)
    for t, n_k in [(12, None), SWEEP_CASES[-1]]:
        fast = moment_series(ch, "R", t, n_k=n_k)
        slow = moment_series(ch, "R", t, n_k=n_k, naive=True)
        assert np.max(np.abs(fast.second - slow.second)) <= 1e-11
        assert np.array_equal(fast.first, slow.first)  # same code path


# Both sides of the first, second and eighth block edges, no block at all,
# and a long series whose last block is cut short.
BLOCK_HORIZONS = sorted(
    {0, 1, 203} | {e + d for e in (_BLOCK, 2 * _BLOCK, 8 * _BLOCK) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize(
    "channel",
    [broken_line(0.3), dephasing_channel(0.4), random_hop2_channel()],
    ids=["bl03", "dephasing04", "hop2"],
)
def test_blocked_sweep_matches_one_step_reference(channel):
    assert 203 % _BLOCK  # a last block cut short
    for t in BLOCK_HORIZONS:
        series = moment_series(channel, GENERIC_COIN, t)
        got = (series.first, series.second, series.variance)
        want = reference_series(channel, GENERIC_COIN, t)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), t


def test_series_health_fields():
    for channel, coin in [(HAD, "R"), (broken_line(0.6), "symmetric")]:
        series = moment_series(channel, coin, 20)
        assert series.max_imag_residue <= 1e-10
        assert np.all(series.variance >= -1e-10)
        assert series.t_max == 20
        assert np.allclose(series.variance, series.second - series.first**2)


# ---------------------------------------------------------------------------
# dispersion (J) term identities
# ---------------------------------------------------------------------------


def test_j_term_linear_in_t_for_coin_channels():
    for q in (0.0, 0.4, 1.0):
        ch = dephasing_channel(q)
        for t in (1, 7, 20):
            assert abs(j_term(ch, "R", t) - t) <= 1e-12


def test_j_term_broken_line():
    for p in (0.0, 0.3, 0.7, 1.0):
        ch = broken_line(p)
        for t in (1, 10):
            assert abs(j_term(ch, "mixed", t) - (1 - p) * t) <= 1e-12


def test_j_term_rejects_negative_horizon():
    with pytest.raises(ValueError):
        j_term(HAD, "R", -1)


# ---------------------------------------------------------------------------
# coin-noise specialization
# ---------------------------------------------------------------------------


def test_specialized_second_moment_matches_generic():
    for q in (0.0, 0.2, 0.5, 1.0):
        ch = dephasing_channel(q)
        for t in (1, 5, 13, 20):
            generic = moment_series(ch, "R", t).second[t]
            special = second_moment_coin_specialized(ch, "R", t)
            assert abs(generic - special) <= 1e-10, (q, t)


def test_specialized_rejects_shift_noise():
    with pytest.raises(NotACoinChannelError):
        second_moment_coin_specialized(broken_line(0.3), "R", 5)


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
    ch = broken_line(0.5)
    limit = asymptotic_first_moment(ch, "R")
    assert abs(limit - moment_series(ch, "R", 200).first[200]) <= 1e-6


def test_asymptotic_first_moment_symmetric_coin_vanishes():
    assert abs(asymptotic_first_moment(broken_line(0.4), "mixed")) <= 1e-12


def test_asymptotic_rejects_coherent_walk():
    with pytest.raises(NotContractingError) as err:
        asymptotic_first_moment(broken_line(0.0), "R")
    assert err.value.spectral_radius >= 1 - 1e-9
    assert err.value.k in momentum_grid(512)
    assert f"k = {err.value.k:.6f}" in str(err.value)


@pytest.mark.parametrize(
    "channel",
    [broken_line(0.1), broken_line(0.3), broken_line(0.8),
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
        diffusion_from_slope(broken_line(0.5), "R", t_lo=0, t_hi=10)
    with pytest.raises(ValueError):
        diffusion_from_slope(broken_line(0.5), "R", t_lo=10, t_hi=10)


def test_slope_diffusion_frozen_walker_is_zero():
    assert diffusion_from_slope(broken_line(1.0), "R", t_lo=5, t_hi=10) == pytest.approx(
        0.0, abs=1e-12
    )


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
    ch = broken_line(0.3)
    t = 15
    base_n = exact_node_bound(ch, t)
    a = moment_series(ch, "R", t, n_k=base_n)
    b = moment_series(ch, "R", t, n_k=2 * base_n)
    assert np.max(np.abs(a.first - b.first)) <= 1e-12
    assert np.max(np.abs(a.second - b.second)) <= 1e-12


def test_coarse_grid_warns():
    ch = broken_line(0.3)
    with pytest.warns(QuadratureTooCoarseWarning):
        moment_series(ch, "R", 10, n_k=exact_node_bound(ch, 10) - 2)


GENERIC_COIN = np.array([0.5, 0.1, 0.2, -0.3])


@pytest.mark.parametrize(
    "channel",
    [broken_line(0.3), broken_line(1.0), dephasing_channel(0.4), HAD,
     random_hop2_channel()],
    ids=["bl03", "bl1", "dephasing04", "coherent", "hop2"],
)
def test_exact_node_bound_is_exact(channel):
    # the degree argument: 2 * max_hop * t + 1 nodes integrate every moment
    # up to horizon t without error, on each horizon's own grid
    oracle = oracle_prefix(channel, GENERIC_COIN, 10)
    for t in range(1, 11):
        n_k = exact_node_bound(channel, t)
        assert deviation_at_nodes(channel, GENERIC_COIN, t, n_k, oracle) <= 1e-9


def test_grid_below_exact_node_bound_aliases():
    # the bound is tight enough to matter: two nodes fewer and the top
    # frequencies of the broken-line integrand alias onto the mean
    ch = broken_line(0.3)
    t = 7
    n_k = exact_node_bound(ch, t) - 2
    assert n_k == 13
    with pytest.warns(QuadratureTooCoarseWarning):
        dev = deviation_at_nodes(ch, GENERIC_COIN, t, n_k,
                                 oracle_prefix(ch, GENERIC_COIN, t))
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
    n_k = exact_node_bound(channel, t)
    oracle = oracle_prefix(channel, coin, t)
    assert deviation_at_nodes(channel, coin, t, n_k, oracle) <= 1e-9


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
    bl, deph = broken_line(0.4), dephasing_channel(0.4)
    series = [lambda t=t, n_k=n_k: moment_series(bl, "R", t, n_k=n_k)
              for t, n_k in SWEEP_CASES]
    return series + [
        lambda: moment_series(bl, "R", 6, naive=True),
        lambda: j_term(bl, "R", 8),
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
    check, grids = moments._coefficient_residue, moments.transfer_grids

    def check_spy(coef):
        checks.append(1)
        return check(coef)

    def grids_spy(channel, ks, coefficients=None):
        chunks.append(len(ks))
        return grids(channel, ks, coefficients)

    monkeypatch.setattr(moments, "_coefficient_residue", check_spy)
    monkeypatch.setattr(moments, "transfer_grids", grids_spy)
    # t = 600: a half grid of 605 of 1208 nodes, in two chunks
    moment_series(broken_line(0.7), "R", 600, n_k=1208)
    assert chunks == [512, 93]
    assert len(checks) == 1
    for route in _structure_routes():
        checks.clear()
        route()
        assert len(checks) == 1


@pytest.mark.parametrize("n_k", [0, -4])
@pytest.mark.parametrize(
    "route", [moment_series, j_term, second_moment_coin_specialized]
)
def test_nonpositive_node_count_rejected_without_warning(route, n_k, recwarn):
    with pytest.raises(ValueError, match="node count must be positive"):
        route(dephasing_channel(0.3), "R", 3, n_k=n_k)
    assert not [w for w in recwarn if w.category is QuadratureTooCoarseWarning]


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
        j_term(ch, "R", 4)
    with pytest.raises(NonRealMomentError):
        second_moment_coin_specialized(ch, "R", 4)
    with pytest.raises(NonRealMomentError):
        asymptotic_first_moment(ch, "R")


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


BL_PHASED = with_kraus_phases(broken_line(0.3), (0.3, 1.7, -2.2, 2.9))
BL_THETA1 = build_broken_line(BrokenLineParams(p=0.3, theta1=0.4))


@pytest.mark.parametrize("p", P_GRID)
def test_closed_forms_obey_mirror_relations(p):
    # L(-k) = P conj(L(k)) P, G(-k) = -P conj(G(k)) P, J(-k) = P conj(J(k)) P
    ks = np.array(K_GRID)
    forms = (transfer_matrix_closed_form, drift_matrix_closed_form,
             dispersion_matrix_closed_form)
    for form, (name, sign) in zip(forms, MIRROR_SIGNS):
        np.testing.assert_allclose(
            form(p, -ks), mirrored(form(p, ks), sign), rtol=0.0, atol=1e-15, err_msg=name
        )


@pytest.mark.parametrize(
    "channel, folds",
    [(broken_line(0.3), True), (broken_line(1.0), True), (dephasing_channel(0.4), True),
     (HAD, True), (BL_PHASED, True), (BL_THETA1, False),
     (build_broken_line(BrokenLineParams(p=0.3, theta4=-1.2)), False),
     (random_hop2_channel(), False), (MEASURE, True), (random_coin_channel(77), False)],
    ids=["bl03", "bl1", "dephasing04", "coherent", "bl03-kraus-phases", "bl03-theta1",
         "bl03-theta4", "hop2", "measurement", "random-coin"],
)
def test_conjugation_symmetry_check_matches_grids(channel, folds):
    # one flag, from coin_pair_maps, picks both the engine's half-grid sweep
    # and the oracle's real rows: check it against what each consumer needs
    real = coin_pair_maps(channel)[2]
    assert real == folds
    assert _fourier_coefficients(channel)[2] == real
    ks = np.linspace(-3.0, 3.0, 13)
    plus, minus = transfer_grids(channel, ks), transfer_grids(channel, -ks)
    gap = max(
        np.abs(getattr(minus, name) - mirrored(getattr(plus, name), sign)).max()
        for name, sign in MIRROR_SIGNS
    )
    assert gap <= 1e-14 if real else gap > 1e-2
    dtypes = {rows.dtype for rows, _ in simulator.fold(channel).groups}
    assert dtypes == {np.dtype(float) if real else np.dtype(complex)}


def test_symmetric_channel_sweeps_half_the_grid(monkeypatch):
    swept = []

    def spy(channel, ks, coefficients=None):
        swept.append(len(ks))
        return transfer_grids(channel, ks, coefficients)

    monkeypatch.setattr(moments, "transfer_grids", spy)
    # nodes 0 .. n_k // 2 in 512-node chunks; a channel that fails the check
    # sweeps all of them
    for channel, n_k, want in [(broken_line(0.3), 1208, [512, 93]),
                               (broken_line(0.3), 1201, [512, 89]),
                               (BL_THETA1, 48, [48])]:
        swept.clear()
        assert moment_series(channel, "R", 20, n_k=n_k).n_k == n_k
        assert swept == want


@pytest.mark.parametrize(
    "channel, t, n_k",
    [(broken_line(0.3), 40, "even"), (broken_line(0.3), 40, "exact"),
     (broken_line(0.7), 600, "exact"), (dephasing_channel(0.4), 50, "even"),
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
    series = moment_series(channel, coin, t, n_k=n_k)
    assert series.n_k == n_k
    want = reference_series(channel, coin, t, n_k=n_k)
    for g, w in zip((series.first, series.second, series.variance), want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_csv_export_shape():
    series = moment_series(broken_line(0.5), "R", 4)
    buf = io.StringIO()
    series.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,first,second,variance"
    assert len(lines) == 6
    t, first, second, var = lines[3].split(",")
    assert int(t) == 2
    assert float(second) == pytest.approx(series.second[2])


@pytest.mark.parametrize("kind", ["series", "edge-values"])
def test_writers_match_row_by_row_format(kind):
    series = moment_series(broken_line(0.3), GENERIC_COIN, 200)
    if kind == "edge-values":
        vals = np.array([0.0, -0.0, 5e-324, -1e300, 1 / 3, 0.1, 123456789.125])
        series = dataclasses.replace(series, first=vals, second=-vals[::-1], variance=0.5 * vals)
    buf = io.StringIO()
    series.to_csv(buf)
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
    assert json.dumps(series.to_json_dict()) == json.dumps(want_json)


def test_json_export_round_trips():
    series = moment_series(dephasing_channel(0.4), "symmetric", 6)
    blob = json.dumps(series.to_json_dict())
    data = json.loads(blob)
    assert data["n_k"] == series.n_k
    assert data["channel"] == series.channel_label
    assert data["coin"] == [0.5, 0.0, 0.5, 0.0]
    assert np.allclose(data["variance"], series.variance)
    assert data["t"] == list(range(7))
