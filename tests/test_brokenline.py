"""Closed-form broken-line results: the lattice integral, K(p), D(p) and
the quantum-to-classical crossover probability.

The exact residue form of the integral is cross-checked against scipy's
adaptive quadrature (an entirely independent algorithm), against its
small-x series and against frozen regression values recorded from converged
quadrature runs of this package.
"""

import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from dqwalk.brokenline import (
    DiffusionResult,
    critical_p,
    diffusion_closed_form,
    diffusion_integral,
    diffusion_prefactor,
    diffusion_slope_estimate,
    write_sweep_csv,
)
from dqwalk.errors import BallisticRegimeError, DomainError


def integrand(k, x):
    return (math.cos(k) + x) / (
        x * math.cos(k) ** 2 + x * math.cos(k) + 2 * x * x - 2 * x + 1
    )


# ---------------------------------------------------------------------------
# the lattice integral I(x)
# ---------------------------------------------------------------------------

# regression values recorded from converged quadrature runs (12+ digits stable)
I_REGRESSION = {
    1.0: 0.6204032394013997,
    0.8: 0.63298663294489799,
}


@pytest.mark.parametrize("x,value", sorted(I_REGRESSION.items()))
def test_integral_regression_values(x, value):
    assert diffusion_integral(x) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 0.8, 1.0])
def test_integral_against_scipy(x):
    # integrate the even half-range with an adaptive method, an algorithm
    # with nothing in common with the residue form under test
    ref, err = quad(integrand, 0.0, np.pi, args=(x,), epsabs=1e-13, epsrel=1e-13,
                    limit=300)
    assert err < 1e-12
    assert diffusion_integral(x) == pytest.approx(ref / np.pi, abs=1e-12)


def test_integral_vanishes_as_x_to_zero():
    # integrand -> cos k, whose mean is 0
    assert abs(diffusion_integral(1e-6)) < 1e-5
    assert abs(diffusion_integral(1e-3)) < 5e-3


def test_integral_small_x_series():
    # expanding the integrand in x and averaging over k term by term gives
    # I(x) = x/2 + x^2/4 + x^3/16 + O(x^4); at x = 1e-6 the rest is about 1e-24
    x = 1e-6
    want = x / 2 + x**2 / 4 + x**3 / 16
    assert abs(diffusion_integral(x) - want) <= 1e-12 * want


def test_integral_domain():
    for x in (0.0, -0.5, 1.0001):
        with pytest.raises(DomainError):
            diffusion_integral(x)


def test_integral_even_symmetry():
    # even integrand: doubling the half-range equals the full range
    n = 1 << 15
    for x in (0.3, 0.9):
        ks = -np.pi + 2 * np.pi * np.arange(n) / n
        full = np.mean(integrand(0, 0) * 0 + (np.cos(ks) + x) /
                       (x * np.cos(ks) ** 2 + x * np.cos(ks) + 2 * x * x - 2 * x + 1))
        half_ks = np.linspace(0.0, np.pi, n // 2 + 1)
        vals = (np.cos(half_ks) + x) / (
            x * np.cos(half_ks) ** 2 + x * np.cos(half_ks) + 2 * x * x - 2 * x + 1
        )
        half = np.trapezoid(vals, half_ks) / np.pi
        assert abs(full - half) <= 1e-13
        assert diffusion_integral(x) == pytest.approx(full, abs=1e-12)


# ---------------------------------------------------------------------------
# K(p) and D(p)
# ---------------------------------------------------------------------------


def test_prefactor_endpoints():
    assert diffusion_prefactor(1.0) == 0.5  # exact by the I -> 0 limit
    k0 = diffusion_prefactor(0.0)
    assert abs(k0 - 0.19) <= 0.01
    assert k0 == pytest.approx(0.18979838029930013, abs=1e-12)


def test_prefactor_monotone_nondecreasing():
    grid = np.linspace(0.0, 1.0, 50)
    values = [diffusion_prefactor(p) for p in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "p,d_value",
    [
        (0.2, 0.98722138728816322),
        (0.4, 0.5224814006556755),
        (0.5, 0.4016700267024178),
        (0.6, 0.29591807653117647),
    ],
)
def test_diffusion_regression_values(p, d_value):
    assert diffusion_closed_form(p).diffusion == pytest.approx(d_value, abs=1e-12)


def test_two_printed_diffusion_forms_agree():
    # D = (1-p)/p K(p) must equal the expanded form
    # D = 1/2 { (1-p) + (1-p)^2/p (1 - I(1-p)) } ... rewritten so the
    # comparison is between two independently coded expressions.
    for p in (0.25, 0.5, 0.75):
        x = 1.0 - p
        expanded = 0.5 * ((x / p) * (1.0 - x * diffusion_integral(x)))
        assert diffusion_closed_form(p).diffusion == pytest.approx(expanded, abs=1e-12)
        assert diffusion_prefactor(p) == pytest.approx(
            expanded * p / (1.0 - p), abs=1e-12
        )


def test_diffusion_result_identity():
    for p in (0.1, 0.417, 0.9, 1.0):
        res = diffusion_closed_form(p)
        assert res.diffusion == pytest.approx((1 - p) / p * res.prefactor, abs=1e-12)
        assert res.method == "closed-form"


def test_frozen_walker_has_zero_diffusion():
    res = diffusion_closed_form(1.0)
    assert res.diffusion == 0.0
    assert res.prefactor == 0.5
    assert res.integral == 0.0


def test_ballistic_regime_is_an_error():
    with pytest.raises(BallisticRegimeError):
        diffusion_closed_form(0.0)
    with pytest.raises(DomainError):
        diffusion_closed_form(1.5)


# ---------------------------------------------------------------------------
# slope-method agreement (small horizons here; the full [400,500] run lives
# in the acceptance suite)
# ---------------------------------------------------------------------------


def test_slope_estimate_agrees_with_closed_form():
    closed = diffusion_closed_form(0.7).diffusion
    est = diffusion_slope_estimate(0.7, t_lo=100, t_hi=140)
    assert est.method == "slope"
    assert abs(est.diffusion - closed) / closed < 0.02
    # back-derived prefactor obeys the same identity
    assert est.diffusion == pytest.approx(
        (1 - est.p) / est.p * est.prefactor, abs=1e-12
    )


def test_slope_estimate_ballistic_error():
    with pytest.raises(BallisticRegimeError):
        diffusion_slope_estimate(0.0, t_lo=10, t_hi=20)


def test_slope_estimate_frozen_walker():
    est = diffusion_slope_estimate(1.0, t_lo=5, t_hi=10)
    assert est.diffusion == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(est.prefactor) and math.isnan(est.integral)


# ---------------------------------------------------------------------------
# crossover probability
# ---------------------------------------------------------------------------


def test_critical_p_value():
    c = critical_p()
    assert 0.412 <= c <= 0.422
    assert abs(c - 0.44) > 0.01  # sharper than the old numerical estimate
    assert diffusion_closed_form(c).diffusion == pytest.approx(0.5, abs=1e-6)


def test_critical_p_respects_tolerance():
    coarse = critical_p(tol=1e-3)
    fine = critical_p(tol=1e-12)
    assert abs(coarse - fine) <= 1e-3
    with pytest.raises(DomainError):
        critical_p(tol=0.0)


# ---------------------------------------------------------------------------
# sweep + CSV export
# ---------------------------------------------------------------------------


def test_sweep_reproduces_prefactor_curve():
    ps = np.arange(0.05, 1.0001, 0.05)
    rows = [diffusion_closed_form(p) for p in ps]
    assert [r.p for r in rows] == pytest.approx(list(ps))
    ks = [r.prefactor for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ks, ks[1:]))
    assert abs(ks[0] - 0.19) < 0.02  # left end of the curve
    assert ks[-1] == 0.5  # right end exactly
    for r in rows:
        assert r.diffusion == pytest.approx((1 - r.p) / r.p * r.prefactor, abs=1e-12)


def test_sweep_csv_format():
    rows = [diffusion_closed_form(p) for p in (0.5, 1.0)]
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "p,K,D,I,method"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert float(fields[2]) == pytest.approx(rows[0].diffusion)
    assert fields[4] == "closed-form"


def test_sweep_csv_with_slope_column():
    rows = [DiffusionResult(p=0.5, prefactor=0.4, diffusion=0.4, integral=0.6,
                            method="closed-form")]
    buf = io.StringIO()
    write_sweep_csv(rows, buf, slopes=[0.39])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "p,K,D,I,method,D_slope"
    assert lines[1].endswith(",0.39000000000000001")
