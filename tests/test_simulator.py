"""Direct density-matrix simulator: hand-checked values and invariants.

These tests pin the reference simulator against numbers small enough to do
on paper, then check the structural invariants (trace, hermiticity, light
cone, positivity, purity decay) that any valid channel evolution must obey.
The simulator is the oracle the fast momentum-space engine is judged
against, so it gets its own independent scrutiny here.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import brokenline, cli, simulator
from dqwalk.channels import (
    COIN_INDEX,
    HADAMARD,
    BrokenLineParams,
    WalkChannel,
    build_broken_line,
    build_coherent,
    dephasing_channel,
)
from dqwalk.errors import ResourceLimitError
from dqwalk.pauli import COIN_PRESETS, coin_state, from_pauli
from dqwalk.simulator import (
    DensityState,
    distributions,
    evolve,
    init_state,
    moment_direct,
    position_distribution,
    step,
)
from test_moments import (
    MEASURE,
    random_coin_channel,
    random_hop2_channel,
    random_layered_channel,
)


def dist_dict(state):
    xs, probs = position_distribution(state)
    return {int(x): float(p) for x, p in zip(xs, probs) if abs(p) > 1e-15}


HAD = build_coherent(HADAMARD)
BROKEN_THETA1 = build_broken_line(BrokenLineParams(p=0.3, theta1=0.4))


RANDOM_COIN = random_coin_channel(77)


def variance_direct(state):
    """Test-only reference: position variance <x^2> - <x>^2 from the oracle."""
    return moment_direct(state, 2) - moment_direct(state, 1) ** 2


def purity(state):
    """Test-only reference: Tr(rho^2); decreases (weakly) under any channel."""
    return float(np.einsum("xayb,ybxa->", state.rho, state.rho).real)


def reference_step(state, channel):
    """Test-only reference: one step applied literally, term by term.

    For each Kraus operator E_n this forms E_n rho one amplitude at a time,
    then (E_n rho) E_n^dag the same way; ``step`` must agree with it.
    """
    hop = channel.max_hop
    n_old = state.n_sites
    n_new = n_old + 2 * hop
    new = np.zeros((n_new, 2, n_new, 2), dtype=complex)
    for n in channel.kraus_indices:
        terms = [t for t in channel.terms if t.n == n]
        half = np.zeros((n_new, 2, n_old, 2), dtype=complex)
        for t in terms:  # E_n rho
            i, j = COIN_INDEX[t.i], COIN_INDEX[t.j]
            lo = hop + t.l
            half[lo:lo + n_old, i, :, :] += t.amp * state.rho[:, j, :, :]
        for t in terms:  # (E_n rho) E_n^dag
            i, j = COIN_INDEX[t.i], COIN_INDEX[t.j]
            lo = hop + t.l
            new[:, :, lo:lo + n_old, i] += np.conj(t.amp) * half[:, :, :, j]
    return DensityState(
        t=state.t + 1,
        x_min=state.x_min - hop,
        x_max=state.x_max + hop,
        rho=new,
    )


def test_initial_state():
    state = init_state("R", x0=3)
    assert state.t == 0 and state.x_min == state.x_max == 3
    assert dist_dict(state) == {3: 1.0}
    assert np.isclose(purity(state), 1.0)


def test_hadamard_two_steps_hand_values():
    # |R> through two Hadamard steps: P(-2)=1/4, P(0)=1/2, P(2)=1/4
    state = evolve(init_state("R"), HAD, 2)
    d = dist_dict(state)
    assert d.keys() == {-2, 0, 2}
    assert np.isclose(d[-2], 0.25) and np.isclose(d[0], 0.5) and np.isclose(d[2], 0.25)


def test_hadamard_three_steps_hand_values():
    # The t=3 asymmetry of the Hadamard walk started in |R>.
    state = evolve(init_state("R"), HAD, 3)
    d = dist_dict(state)
    assert np.isclose(d[-3], 0.125)
    assert np.isclose(d[-1], 0.125)
    assert np.isclose(d[1], 0.625)
    assert np.isclose(d[3], 0.125)
    assert np.isclose(moment_direct(state, 1), 0.5)


def test_symmetric_coin_gives_symmetric_distribution():
    state = evolve(init_state("symmetric"), HAD, 25)
    xs, probs = position_distribution(state)
    assert np.allclose(probs, probs[::-1], atol=1e-13)
    assert abs(moment_direct(state, 1)) < 1e-12


def test_identity_coin_is_ballistic():
    ident = build_coherent(np.eye(2))
    state = evolve(init_state("R"), ident, 17)
    assert dist_dict(state) == pytest.approx({17: 1.0})
    state = evolve(init_state("L"), ident, 17)
    assert dist_dict(state) == pytest.approx({-17: 1.0})


def test_fully_broken_line_freezes_walker():
    state = evolve(init_state("symmetric"), brokenline.default_channel(1.0), 40)
    assert dist_dict(state) == pytest.approx({0: 1.0})
    assert variance_direct(state) == pytest.approx(0.0, abs=1e-14)


def test_full_dephasing_is_classical_random_walk():
    # Measured coin every step: binomial spreading, sigma^2 = t exactly.
    state = evolve(init_state("mixed"), dephasing_channel(1.0), 30)
    assert variance_direct(state) == pytest.approx(30.0, abs=1e-10)
    assert abs(moment_direct(state, 1)) < 1e-12


def test_coherent_peaks_near_t_over_sqrt2():
    # Hallmark of the ballistic regime: the distribution peaks near +-t/sqrt(2).
    state = evolve(init_state("symmetric"), HAD, 100)
    xs, probs = position_distribution(state)
    peak = abs(int(xs[np.argmax(probs)]))
    assert 66 <= peak <= 76  # 100/sqrt(2) ~ 70.7


def test_trace_hermiticity_light_cone_random_channels():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        ch = random_coin_channel(rng)
        t = int(rng.integers(3, 8))
        state = evolve(init_state("symmetric"), ch, t)
        dim = 2 * state.n_sites
        mat = state.rho.reshape(dim, dim)
        assert np.isclose(np.trace(mat).real, 1.0, atol=1e-12), f"trial {trial}"
        assert np.allclose(mat, mat.conj().T, atol=1e-12)
        # sites of the wrong parity are unreachable for hop = +-1 channels
        xs, probs = position_distribution(state)
        assert np.all(np.abs(probs[(xs + t) % 2 == 1]) < 1e-15)
        assert state.n_sites == 2 * t + 1


def test_positivity_check_accepts_valid_evolution():
    evolve(init_state("R"), brokenline.default_channel(0.4), 12, check_positivity=True)


def test_positivity_check_flags_indefinite_state():
    # Kraus conjugation preserves (in)definiteness, so feeding an invalid
    # state with a negative eigenvalue through a coherent step must trip
    # the optional positivity diagnostic.
    from dqwalk.simulator import DensityState

    rho = np.zeros((1, 2, 1, 2), dtype=complex)
    rho[0, :, 0, :] = np.diag([1.1, -0.1])
    bad = DensityState(t=0, x_min=0, x_max=0, rho=rho)
    with pytest.raises(ArithmeticError, match="positivity"):
        evolve(bad, HAD, 1, check_positivity=True)


def test_evolve_zero_steps_and_negative():
    state = init_state("R")
    assert evolve(state, HAD, 0) is state
    with pytest.raises(ValueError):
        evolve(state, HAD, -1)


def test_moment_direct_rejects_negative_order():
    with pytest.raises(ValueError, match="moment order must be nonnegative"):
        moment_direct(init_state("R"), -1)


@pytest.mark.parametrize("n_sites, max_hop, steps", [(1, 1, 7), (5, 2, 4), (1, 1, 0)])
def test_run_size_counts_site_pair_steps_exactly(n_sites, max_hop, steps, monkeypatch):
    # the closed form against the sum of squared widths that the steps hold
    count = sum((n_sites + 2 * max_hop * s) ** 2 for s in range(1, steps + 1))
    monkeypatch.setattr(simulator, "_MAX_SITE_PAIR_STEPS", count)
    simulator.check_run_size(n_sites, max_hop, steps)
    monkeypatch.setattr(simulator, "_MAX_SITE_PAIR_STEPS", count - 1)
    with pytest.raises(ResourceLimitError, match=f"site-pair-step count {count} exceeds"):
        simulator.check_run_size(n_sites, max_hop, steps)


def test_evolve_refuses_an_infeasible_run_before_stepping():
    state = evolve(init_state("R"), HAD, 3)
    with pytest.raises(ResourceLimitError, match="exceeds the limit of 2000000000"):
        evolve(state, HAD, 10**6)


def test_purity_decreases_under_noise():
    for p in (0.2, 0.5, 0.8):
        state = init_state("R")
        last = purity(state)
        ch = brokenline.default_channel(p)
        for _ in range(10):
            state = step(state, ch)
            now = purity(state)
            assert now <= last + 1e-10, f"purity grew at t={state.t}, p={p}"
            last = now


def test_coherent_evolution_keeps_purity():
    state = evolve(init_state("symmetric"), HAD, 15)
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_broken_line_variance_reaches_diffusive_rate():
    # Long-time check against the closed-form diffusion coefficient:
    # var(t)/(2 D t) -> 1.  p=0.9 converges fast enough to test directly.
    from dqwalk.brokenline import diffusion_closed_form

    p = 0.9
    state = evolve(init_state("mixed"), brokenline.default_channel(p), 200)
    rate = variance_direct(state) / (2 * diffusion_closed_form(p).diffusion * 200)
    assert abs(rate - 1.0) < 0.05


def test_measurement_collapse_matches_classical_walk():
    # Alternating a Hadamard step with a position-basis coin measurement
    # (the q=1 dephasing channel with no shift) must reproduce the classical
    # random walk exactly: var = number of shift steps.
    state = init_state("R")
    for _ in range(12):
        state = step(state, HAD)
        state = step(state, MEASURE)
    assert variance_direct(state) == pytest.approx(12.0, abs=1e-10)
    assert moment_direct(state, 1) == pytest.approx(0.0, abs=1e-12)


def assert_rl_block_mirrors_lr(state):
    # ``step`` fills the RL coin pair as the conjugate transpose of LR
    np.testing.assert_array_equal(state.rho[:, 1, :, 0], state.rho[:, 0, :, 1].conj().T)


@pytest.mark.parametrize(
    "channel, coin",
    [
        (HAD, "R"),
        (HAD, "symmetric"),
        (dephasing_channel(0.4), "symmetric"),
        (dephasing_channel(0.4), "R"),
        (brokenline.default_channel(0.3), "mixed"),
        (brokenline.default_channel(0.3), "R"),
        (brokenline.default_channel(1.0), "symmetric"),
        (BROKEN_THETA1, "R"),
        (BROKEN_THETA1, "symmetric"),
        (random_hop2_channel(), "symmetric"),
        (random_hop2_channel(), "mixed"),
        (RANDOM_COIN, "symmetric"),
        (RANDOM_COIN, "R"),
        (MEASURE, "symmetric"),
        (MEASURE, "mixed"),
    ],
    ids=["coherent", "coherent-symmetric", "dephasing-0.4", "dephasing-0.4-R",
         "broken-0.3", "broken-0.3-R", "broken-1", "broken-theta1",
         "broken-theta1-symmetric", "hop2", "hop2-mixed", "random-coin",
         "random-coin-R", "measurement", "measurement-mixed"],
)
def test_step_matches_term_by_term_reference(channel, coin):
    fast = ref = init_state(coin)
    for _ in range(15):
        fast, ref = step(fast, channel), reference_step(ref, channel)
        assert (fast.t, fast.x_min, fast.x_max) == (ref.t, ref.x_min, ref.x_max)
        assert fast.rho.shape == ref.rho.shape
        np.testing.assert_allclose(fast.rho, ref.rho, rtol=0, atol=1e-14)
        assert_rl_block_mirrors_lr(fast)
        # unreachable sites (parity, light cone) get exactly zero probability
        # on both routes; ``walk`` drops its rows by that test
        _, p_fast = position_distribution(fast)
        _, p_ref = position_distribution(ref)
        np.testing.assert_array_equal(p_fast == 0.0, p_ref == 0.0)


# Step sequences long enough that ``step`` splits its product into several
# ket tiles (n_old > simulator._TILE_FLOOR rows per tile); the last case ends
# on wide states stepped by the hop-0 measurement, whose coin pairs RL and
# LR no row targets.  The R and mixed starts are real, so they run in real
# arithmetic on real rows and turn complex on the first step of complex rows.
TILED_RUNS = {
    "broken-0.3-t80": ("mixed", [(brokenline.default_channel(0.3), 80)]),
    "broken-0.3-t80-R": ("R", [(brokenline.default_channel(0.3), 80)]),
    "broken-0.3-t80-symmetric": ("symmetric", [(brokenline.default_channel(0.3), 80)]),
    "hop2-t40": ("symmetric", [(random_hop2_channel(), 40)]),
    "hop2-t40-mixed": ("mixed", [(random_hop2_channel(), 40)]),
    "measurement-wide": (
        "symmetric",
        [(brokenline.default_channel(0.3), 40), (MEASURE, 1),
         (brokenline.default_channel(0.3), 1), (MEASURE, 1)],
    ),
}


def tile_count(state, channel):
    """How many ket tiles ``step`` splits ``state``'s product into."""
    k_max = max(len(rows) for rows, _ in simulator.fold(channel).groups)
    height = max(simulator._TILE_FLOOR, -(-state.n_sites // k_max))
    return -(-state.n_sites // height)


def assert_runs_like_reference(coin, run):
    fast = ref = init_state(coin)
    most_tiles = 0
    for channel, steps in run:
        for _ in range(steps):
            most_tiles = max(most_tiles, tile_count(fast, channel))
            fast, ref = step(fast, channel), reference_step(ref, channel)
            assert (fast.t, fast.x_min, fast.x_max) == (ref.t, ref.x_min, ref.x_max)
            np.testing.assert_allclose(fast.rho, ref.rho, rtol=0, atol=1e-13)
            assert_rl_block_mirrors_lr(fast)
            _, p_fast = position_distribution(fast)
            _, p_ref = position_distribution(ref)
            np.testing.assert_array_equal(p_fast == 0.0, p_ref == 0.0)
    assert most_tiles >= 3  # the run really crossed tile boundaries


@pytest.mark.parametrize("coin, run", TILED_RUNS.values(), ids=TILED_RUNS.keys())
def test_tiled_step_matches_term_by_term_reference(coin, run):
    assert_runs_like_reference(coin, run)


class _NaNFilledEmpty:
    """Stands in for ``numpy`` with an ``empty`` that fills with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        fill = np.nan * (1 + 1j) if np.dtype(dtype).kind == "c" else np.nan
        return np.full(shape, fill, dtype=dtype)


@pytest.mark.parametrize("coin, run", TILED_RUNS.values(), ids=TILED_RUNS.keys())
def test_step_writes_every_entry_of_its_output(coin, run, monkeypatch):
    # ``step`` allocates its output uninitialised and must write every entry:
    # a skipped border or an untargeted coin pair would surface as NaN here
    # (freshly mapped pages are zero, so np.empty alone would hide it)
    monkeypatch.setattr(simulator, "np", _NaNFilledEmpty())
    assert_runs_like_reference(coin, run)


def test_fold_is_keyed_by_channel_value():
    # Two channels under one label: each must be stepped with its own Kraus
    # terms, never with the fold of the other.
    a = WalkChannel("custom", brokenline.default_channel(0.3).terms)
    b = WalkChannel("custom", random_hop2_channel().terms)
    for channel in (a, b, a, b):
        state = init_state("symmetric")
        for _ in range(4):
            state, ref = step(state, channel), reference_step(state, channel)
            np.testing.assert_allclose(state.rho, ref.rho, rtol=0, atol=1e-14)


def test_step_leaves_input_untouched_and_returns_fresh_array():
    state = evolve(init_state("symmetric"), brokenline.default_channel(0.3), 5)
    before = state.rho.copy()
    after = step(state, brokenline.default_channel(0.3))
    np.testing.assert_array_equal(state.rho, before)
    assert not np.shares_memory(after.rho, state.rho)


@pytest.mark.parametrize(
    "channel, real",
    [
        (brokenline.default_channel(0.3), True),
        (dephasing_channel(0.4), True),
        (HAD, True),
        (BROKEN_THETA1, False),
        (random_hop2_channel(), False),
        (RANDOM_COIN, False),
    ],
    ids=["broken-0.3", "dephasing-0.4", "coherent", "broken-theta1", "hop2", "random-coin"],
)
def test_fold_steps_real_channels_in_real_arithmetic(channel, real):
    # Kraus operators real up to a global phase give real coin-pair maps
    # (the broken line's e^{i pi} phases leave ~1e-17 of rounding); those
    # rows are stored as floats and ``step`` runs on float views
    groups = simulator.fold(channel).groups
    dtypes = {rows.dtype for rows, _ in groups}
    assert dtypes == {np.dtype(float) if real else np.dtype(complex)}


def test_step_allocates_only_its_output_and_tile_buffer():
    # a hidden copy of the source state (or of one block) on the float-view
    # path, or a real state silently promoted to complex, would show here
    # before it shows in a process's peak memory; the slack covers numpy's
    # per-operand iteration buffers (8192 elements).  The byte budget per
    # element is the one the step should produce: 8 for a real state on real
    # rows, 16 for a complex state (a real start turns complex on the first
    # step of complex rows)
    cases = [
        (brokenline.default_channel(0.3), "mixed", 8),
        (brokenline.default_channel(0.3), "symmetric", 16),
        (BROKEN_THETA1, "mixed", 16),
    ]
    for channel, coin, itemsize in cases:
        state = evolve(init_state(coin), channel, 120)
        n_old, n_new = state.n_sites, state.n_sites + 2
        k_max = max(len(rows) for rows, _ in simulator.fold(channel).groups)
        height = max(simulator._TILE_FLOOR, -(-n_old // k_max))
        budget = itemsize * (4 * n_new**2 + k_max * min(height, n_old) * n_old)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            after = step(state, channel)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert n_old == 241
        assert after.rho.itemsize == itemsize
        assert peak <= budget + 512 * 1024, (coin, peak, budget)


@pytest.mark.parametrize(
    "coin, real",
    [
        ("R", True),
        ("L", True),
        ("mixed", True),
        ((0.5, 0.3, 0.0, 0.1), True),
        ([[0.5, 0.5], [0.5, 0.5]], True),
        ((0.6, 0.8), True),
        ("symmetric", False),
        ((0.5, 0.0, 0.3, 0.1), False),
        ((0.5, 0.1, -0.2, 0.0), False),
        ((0.5, 0.0, 1e-18, 0.0), False),
        ((0.6, 0.8j), False),
    ],
    ids=["R", "L", "mixed", "pauli-real", "density-real", "amplitudes-real",
         "symmetric", "pauli-sy", "pauli-sy-negative", "pauli-sy-tiny",
         "amplitudes-complex"],
)
def test_init_state_is_real_exactly_when_the_coin_density_is(coin, real):
    # no tolerance: a real map keeps a 1e-18 imaginary part at 1e-18, so
    # dropping it would change the walk
    rho = init_state(coin).rho
    assert rho.dtype == (np.dtype(float) if real else np.dtype(complex))
    want = from_pauli(coin_state(coin))
    np.testing.assert_array_equal(rho[0, :, 0, :], want)


@pytest.mark.parametrize(
    "channel, coin, steps, real",
    [
        (brokenline.default_channel(0.3), "R", 120, True),
        (dephasing_channel(0.4), "mixed", 120, True),
        (HAD, "L", 120, True),
        (MEASURE, "mixed", 120, True),
        (brokenline.default_channel(0.3), "symmetric", 5, False),
        (BROKEN_THETA1, "R", 1, False),
        (random_hop2_channel(), "mixed", 1, False),
        (RANDOM_COIN, "R", 1, False),
        (BROKEN_THETA1, "symmetric", 5, False),
    ],
    ids=["real-broken", "real-dephasing", "real-coherent", "real-measurement",
         "complex-state-real-rows", "real-state-theta1", "real-state-hop2",
         "real-state-random-coin", "complex-state-complex-rows"],
)
def test_state_dtype_follows_start_and_rows(channel, coin, steps, real):
    # numpy promotion picks the step's dtype: a real state stays real on
    # real rows for the whole run and turns complex on the first step of
    # complex rows; a complex state stays complex
    state = evolve(init_state(coin), channel, steps)
    assert state.rho.dtype == (np.dtype(float) if real else np.dtype(complex))
    assert_rl_block_mirrors_lr(state)


@pytest.fixture
def fold_calls(monkeypatch):
    """The channels ``simulator.coin_pair_maps`` is called with during the test."""
    calls = []
    maps = simulator.coin_pair_maps

    def counted(channel):
        calls.append(channel)
        return maps(channel)

    monkeypatch.setattr(simulator, "coin_pair_maps", counted)
    return calls


def test_evolve_folds_the_channel_once(fold_calls):
    evolve(init_state("mixed"), brokenline.default_channel(0.3), 30)
    assert len(fold_calls) == 1


WALK_CHANNELS = {
    "broken-0.3": ["--channel", "broken-line", "--p", "0.3"],
    "dephasing-0.3": ["--channel", "coin-dephasing", "--q", "0.3"],
    "coherent": ["--channel", "coherent"],
}


@pytest.mark.parametrize("coin", ["R", "L", "mixed"])
@pytest.mark.parametrize("flags", WALK_CHANNELS.values(), ids=WALK_CHANNELS.keys())
def test_real_start_walks_like_the_same_start_held_complex(flags, coin, tmp_path,
                                                           monkeypatch):
    # the real start on real rows must print the bytes the complex state
    # prints, which runs on float views of the same numbers
    argv = ["walk", *flags, "--coin", coin, "--t", "60"]
    assert cli.main([*argv, "--out", str(tmp_path / "real.csv")]) == 0

    def held_complex(coin, x0=0):
        state = init_state(coin, x0)
        assert state.rho.dtype == float
        return DensityState(state.t, state.x_min, state.x_max, state.rho.astype(complex))

    monkeypatch.setattr(cli, "init_state", held_complex)
    assert cli.main([*argv, "--out", str(tmp_path / "complex.csv")]) == 0
    real = (tmp_path / "real.csv").read_bytes()
    assert real == (tmp_path / "complex.csv").read_bytes()
    assert real.count(b"\n") > 30


def test_walk_folds_the_channel_once(fold_calls, tmp_path):
    argv = ["walk", *WALK_CHANNELS["broken-0.3"], "--t", "30",
            "--out", str(tmp_path / "walk.csv")]
    assert cli.main(argv) == 0
    assert len(fold_calls) == 1


# ---------------------------------------------------------------------------
# walk's band run (``distributions``) against the full state
# ---------------------------------------------------------------------------


@st.composite
def band_channels(draw):
    """Channels of max_hop 0, 1 and 2, with real rows and with complex rows."""
    phase = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    prob = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["measurement", "boxed", "broken", "dephasing",
                                 "coherent", "random-coin", "layered", "two-steps"]))
    if kind == "measurement":
        return MEASURE
    if kind == "boxed":  # p = 1: hop 0, complex rows where theta4 is not 0
        return build_broken_line(BrokenLineParams(p=1.0, theta4=draw(phase)))
    if kind in ("broken", "two-steps"):
        channel = build_broken_line(BrokenLineParams(p=draw(prob), theta1=draw(phase)))
        return cli._two_steps(channel) if kind == "two-steps" else channel
    if kind == "dephasing":
        return dephasing_channel(draw(prob))
    if kind == "coherent":
        return HAD
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "random-coin":
        return random_coin_channel(seed)
    return random_layered_channel(seed, draw(st.integers(1, 3)), draw(st.integers(1, 2)))


@st.composite
def band_coins(draw):
    """A coin preset or a Pauli vector, real (sigma_y = 0) or complex."""
    if draw(st.booleans()):
        return draw(st.sampled_from(sorted(COIN_PRESETS)))
    unit = st.floats(-1.0, 1.0)
    bloch = np.array([draw(unit), draw(st.sampled_from([0.0, 0.3, -0.5])), draw(unit)])
    return np.array([0.5, *(0.5 * bloch / max(1.0, np.linalg.norm(bloch)))])


def assert_band_run_matches_evolve(start, channel, t_max):
    state, count = start, 0
    for t, (xs, probs) in enumerate(distributions(start, channel, t_max)):
        if t:
            state = evolve(state, channel, 1)
        want_xs, want = position_distribution(state)
        np.testing.assert_array_equal(xs, want_xs)
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-15)
        # walk prints a row exactly where evolve's probability is not 0.0
        np.testing.assert_array_equal(probs == 0.0, want == 0.0)
        count += 1
    assert count == t_max + 1


@settings(max_examples=80, deadline=None)
@given(channel=band_channels(), coin=band_coins(), t_max=st.integers(0, 20),
       x0=st.integers(-30, 30), tile_elements=st.sampled_from([1, 1 << 16]))
def test_band_run_matches_evolve(channel, coin, t_max, x0, tile_elements):
    # a floor of one element splits every product into tiles of band rows
    with mock.patch.object(simulator, "_TILE_ELEMENTS", tile_elements):
        assert_band_run_matches_evolve(init_state(coin, x0), channel, t_max)


@pytest.mark.parametrize("t_max", [0, 1])
@pytest.mark.parametrize("channel", [HAD, BROKEN_THETA1, random_hop2_channel(), MEASURE],
                         ids=["coherent", "broken-theta1", "hop2", "measurement"])
def test_band_run_of_zero_and_one_step(channel, t_max):
    start = init_state("symmetric", x0=4)
    runs = list(distributions(start, channel, t_max))
    assert len(runs) == t_max + 1
    xs, probs = runs[0]
    assert xs.tolist() == [4] and probs.tolist() == [1.0]
    assert_band_run_matches_evolve(start, channel, t_max)


def test_band_run_leaves_coherent_walk_parity_sites_exactly_zero():
    *_, (xs, probs) = distributions(init_state("symmetric"), HAD, 31)
    assert np.all(probs[xs % 2 == 0] == 0.0)
    assert np.all(probs[xs % 2 == 1] != 0.0)


def test_band_run_starts_from_a_wide_state_and_leaves_it_untouched():
    # a start of many sites, complex, with every coherence in the band
    start = evolve(init_state("symmetric"), BROKEN_THETA1, 6)
    before = start.rho.copy()
    assert_band_run_matches_evolve(start, random_hop2_channel(), 8)
    np.testing.assert_array_equal(start.rho, before)


def test_band_run_checks_its_arguments_before_stepping():
    with pytest.raises(ValueError, match="nonnegative"):
        next(distributions(init_state("R"), HAD, -1))
    with pytest.raises(ResourceLimitError, match="site-pair-step count"):
        next(distributions(init_state("R"), HAD, 10**7))


@pytest.mark.parametrize("coin, run", TILED_RUNS.values(), ids=TILED_RUNS.keys())
def test_tiled_band_run_writes_every_entry_it_reads(coin, run, monkeypatch):
    # with the tile floor at one element, every step splits its product into
    # k tiles of band rows; the uninitialised arrays are NaN-filled, so a
    # skipped clear or a row read before it is refilled surfaces as NaN
    monkeypatch.setattr(simulator, "_TILE_ELEMENTS", 1)
    monkeypatch.setattr(simulator, "np", _NaNFilledEmpty())
    state = init_state(coin)
    for channel, steps in run:
        assert_band_run_matches_evolve(state, channel, steps)
        state = evolve(state, channel, steps)
