"""Acceptance suite: the eight package-level criteria, one test each.

Every test prints a single `CRITERION n ... PASS|FAIL` line (visible with
``pytest -s`` / in captured output) and then asserts, so a red run always
names the criterion that fell over and by how much.  Tolerances and
parameter grids are exactly the contracted ones; nothing here is loosened
to make the suite green.
"""

import time

import numpy as np
import pytest

from dqwalk import brokenline
from dqwalk.channels import (
    HADAMARD,
    BrokenLineParams,
    build_broken_line,
    build_coherent,
    dephasing_channel,
)
from dqwalk.errors import PhaseConstraintError
from dqwalk.moments import (
    diffusion_from_slope,
    exact_node_bound,
    moment_series,
    second_moment_coin_specialized,
    transfer_grids,
)
from dqwalk.simulator import evolve, init_state, moment_direct
from test_moments import (
    CLOSED_FORMS,
    at_k,
    block_maps,
    dispersion_matrix_closed_form,
    drift_matrix_closed_form,
    series_on_nodes,
    transfer_matrix_closed_form,
)


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {num} {title}: {status}{suffix}", flush=True)


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Engine moments equal brute-force moments for every contracted combo."""
    channels = [("coherent", build_coherent(HADAMARD))]
    channels += [(f"broken-line p={p}", brokenline.default_channel(p))
                 for p in (0, 0.1, 0.5, 0.9, 1)]
    channels += [(f"dephasing q={q}", dephasing_channel(q)) for q in (0.3, 0.8)]
    coins = ("R", "symmetric", "mixed")
    t_max = 25

    start = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for chan_name, channel in channels:
        for coin in coins:
            series = moment_series(channel, coin, t_max)
            state = init_state(coin)
            for t in range(1, t_max + 1):
                state = evolve(state, channel, 1)
                d1 = abs(series.first[t] - moment_direct(state, 1))
                d2 = abs(series.second[t] - moment_direct(state, 2))
                if max(d1, d2) > worst:
                    worst = max(d1, d2)
                    worst_at = f"{chan_name}, coin {coin}, t={t}"
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, "oracle equivalence (24 channel/coin combos, t <= 25)", ok,
           f"max |delta| = {worst:.3g} at {worst_at}; {elapsed:.1f}s")
    assert worst <= 1e-9, f"worst deviation {worst:.3g} at {worst_at}"
    assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_2_crossover_probability():
    """critical_p ~ 0.417 and D at the root equals 1/2 to a tight tolerance."""
    c = brokenline.critical_p()
    d_at_c = brokenline.diffusion_closed_form(c).diffusion
    ok = abs(c - 0.417) <= 0.005 and abs(d_at_c - 0.5) <= 1e-6
    report(2, "quantum-to-classical crossover", ok,
           f"critical p = {c:.6f}, D = {d_at_c:.9f}")
    assert abs(c - 0.417) <= 0.005, f"critical p = {c}"
    assert abs(d_at_c - 0.5) <= 1e-6, f"D(critical) = {d_at_c}"


def test_criterion_3_prefactor_endpoints_and_shape():
    """K(1) = 1/2 exactly, K(0) ~ 0.19, monotone on a 200-point grid."""
    k1 = brokenline.diffusion_closed_form(1.0).prefactor
    k0 = (1.0 - brokenline.diffusion_integral(1.0)) / 2  # D(0) diverges
    grid = np.linspace(0.0, 1.0, 200)
    values = [k0] + [brokenline.diffusion_closed_form(p).prefactor for p in grid[1:]]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    ok = abs(k1 - 0.5) <= 1e-9 and abs(k0 - 0.19) <= 0.01 and monotone
    report(3, "prefactor endpoints and monotonicity", ok,
           f"K(0) = {k0:.6f}, K(1) = {k1:.12f}, monotone = {monotone}")
    assert abs(k1 - 0.5) <= 1e-9
    assert abs(k0 - 0.19) <= 0.01
    assert monotone


def test_criterion_4_closed_form_vs_dynamics():
    """Closed-form D(p) vs the variance slope of the generic engine."""
    start = time.perf_counter()
    worst = 0.0
    worst_p = None
    for p in np.arange(0.2, 0.901, 0.1):
        p = round(float(p), 10)
        closed = brokenline.diffusion_closed_form(p).diffusion
        slope = diffusion_from_slope(brokenline.default_channel(p), "mixed",
                                     t_lo=400, t_hi=500)
        rel = abs(slope - closed) / closed
        if rel > worst:
            worst, worst_p = rel, p
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed <= 300.0
    report(4, "closed form vs slope dynamics (p = 0.2..0.9, t in [400,500])", ok,
           f"max rel dev = {worst:.4%} at p = {worst_p}; {elapsed:.0f}s")
    assert worst <= 0.02, f"relative deviation {worst:.4%} at p = {worst_p}"
    assert elapsed <= 300.0, f"runtime budget exceeded: {elapsed:.0f}s"


def test_criterion_5_coin_noise_reduction():
    """Generic vs specialized second moment, and the two dispersion identities."""
    worst = 0.0
    for q in (0.0, 0.2, 0.5, 1.0):
        channel = dephasing_channel(q)
        delta = (moment_series(channel, "R", 20).second
                 - second_moment_coin_specialized(channel, "R", 20))
        worst = max(worst, float(np.max(np.abs(delta))))
    worst_j = 0.0
    for q in (0.0, 0.2, 0.5, 1.0):
        dispersion = moment_series(dephasing_channel(q), "R", 15).dispersion[15]
        worst_j = max(worst_j, abs(dispersion - 15.0))
    for p in (0.0, 0.3, 0.7, 1.0):
        dispersion = moment_series(brokenline.default_channel(p), "mixed", 10).dispersion[10]
        worst_j = max(worst_j, abs(dispersion - (1 - p) * 10))
    ok = worst <= 1e-10 and worst_j <= 1e-12
    report(5, "coin-noise reduction identities", ok,
           f"max generic-vs-specialized |delta| = {worst:.3g}, "
           f"max dispersion-identity |delta| = {worst_j:.3g}")
    assert worst <= 1e-10
    assert worst_j <= 1e-12


def test_criterion_6_regime_properties():
    """Ballistic exponent, classical variance, frozen walker."""
    coherent = moment_series(build_coherent(HADAMARD), "symmetric", 400)
    ts = np.arange(100, 401)
    slope = np.polyfit(np.log(ts), np.log(coherent.variance[100:401]), 1)[0]

    classical = moment_series(dephasing_channel(1.0), "mixed", 40)
    classical_dev = float(np.max(np.abs(classical.variance - np.arange(41))))

    frozen = moment_series(brokenline.default_channel(1.0), "R", 40)
    frozen_dev = float(np.max(np.abs(frozen.variance)))

    ok = abs(slope - 2.0) <= 0.01 and classical_dev <= 1e-10 and frozen_dev <= 1e-10
    report(6, "regime properties (ballistic / classical / frozen)", ok,
           f"log-log slope = {slope:.4f}, classical dev = {classical_dev:.3g}, "
           f"frozen dev = {frozen_dev:.3g}")
    assert abs(slope - 2.0) <= 0.01, f"ballistic exponent {slope}"
    assert classical_dev <= 1e-10
    assert frozen_dev <= 1e-10


def test_criterion_7_structural_matrices():
    """Affine maps match the printed closed forms; phase constraint enforced.

    The complex maps are those of the naive route; the real block map and
    readout, which every other route reads, are checked where all three
    printed forms are.
    """
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        channel = brokenline.default_channel(p)
        for k in np.linspace(-np.pi, np.pi, 9):
            step, _, dispersion = at_k(channel, k)
            worst = max(worst, float(np.max(np.abs(
                step - transfer_matrix_closed_form(p, k)))))
            worst = max(worst, float(np.max(np.abs(
                dispersion - dispersion_matrix_closed_form(p, k)))))
    for p in (0.3, 0.7):
        channel = brokenline.default_channel(p)
        for k in (0.0, 1.0, 2.0):
            _, drift, _ = at_k(channel, k)
            worst = max(worst, float(np.max(np.abs(
                drift - drift_matrix_closed_form(p, k)))))
            want = block_maps(*(form(p, np.array([k])) for form in CLOSED_FORMS))
            for got, ref in zip(transfer_grids(channel, np.array([k])), want):
                worst = max(worst, float(np.max(np.abs(got - ref))))

    good_phase = True
    try:
        build_broken_line(BrokenLineParams(p=0.4, theta2=2.0, theta3=2.0 - np.pi))
    except PhaseConstraintError:
        good_phase = False
    bad_phase_caught = False
    try:
        build_broken_line(BrokenLineParams(p=0.4, theta2=np.pi / 2, theta3=0.0))
    except PhaseConstraintError:
        bad_phase_caught = True

    ok = worst <= 1e-12 and good_phase and bad_phase_caught
    report(7, "structural matrices and phase constraint", ok,
           f"max matrix |delta| = {worst:.3g}, phase pair = "
           f"({'ok' if good_phase else 'rejected'}, "
           f"{'caught' if bad_phase_caught else 'missed'})")
    assert worst <= 1e-12
    assert good_phase, "valid theta2 - theta3 = pi channel was rejected"
    assert bad_phase_caught, "theta2 - theta3 != pi channel was accepted"


def test_criterion_8_quadrature_exactness():
    """Doubling the momentum grid beyond the bound changes nothing."""
    worst = 0.0
    for channel, coin in [
        (brokenline.default_channel(0.3), "R"),
        (build_coherent(HADAMARD), "symmetric"),
        (dephasing_channel(0.6), "mixed"),
    ]:
        t = 20
        base = exact_node_bound(channel, t)
        a = moment_series(channel, coin, t)
        b = series_on_nodes(2 * base, channel, coin, t)
        assert (a.n_k, b.n_k) == (base, 2 * base)
        worst = max(worst, float(np.max(np.abs(a.first - b.first))))
        worst = max(worst, float(np.max(np.abs(a.second - b.second))))
    ok = worst <= 1e-12
    report(8, "quadrature exactness under node doubling", ok,
           f"max moment shift = {worst:.3g}")
    assert worst <= 1e-12


if __name__ == "__main__":
    # allow running the acceptance gate directly: python tests/test_acceptance.py
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"  -> {exc}")
    sys.exit(1 if failures else 0)
