"""Closed-form broken-line results: the lattice integral, K(p), D(p) and
the quantum-to-classical crossover probability.

The exact residue form of the integral is cross-checked against scipy's
adaptive quadrature (an entirely independent algorithm), against its
small-x series and against frozen regression values recorded from converged
quadrature runs of this package.  The variance slope of the generic engine
(``moments.diffusion_from_slope``) is the dynamical check on D(p).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from dqwalk import brokenline, cli
from dqwalk.brokenline import (
    critical_p,
    default_channel,
    diffusion_closed_form,
    diffusion_integral,
)
from dqwalk.errors import BallisticRegimeError, DomainError
from dqwalk.moments import diffusion_from_slope


def integrand(k, x):
    c = np.cos(k)
    return (c + x) / (x * c ** 2 + x * c + 2 * x * x - 2 * x + 1)


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
        full = np.mean(integrand(ks, x))
        half_ks = np.linspace(0.0, np.pi, n // 2 + 1)
        # the trapezoid rule on the uniform half grid, spelt out: numpy 1.x
        # has no np.trapezoid
        values = integrand(half_ks, x)
        step = half_ks[1] - half_ks[0]
        half = step * (values.sum() - (values[0] + values[-1]) / 2) / np.pi
        assert abs(full - half) <= 1e-13
        assert diffusion_integral(x) == pytest.approx(full, abs=1e-12)


# ---------------------------------------------------------------------------
# K(p) and D(p)
# ---------------------------------------------------------------------------


def k_at_zero():
    """K(0) = (1 - I(1)) / 2; the closed form stops short of it at p = 0."""
    return (1.0 - diffusion_integral(1.0)) / 2


def test_prefactor_endpoints():
    assert diffusion_closed_form(1.0).prefactor == 0.5  # exact by the I -> 0 limit
    k0 = k_at_zero()
    assert abs(k0 - 0.19) <= 0.01
    assert k0 == pytest.approx(0.18979838029930013, abs=1e-12)


def test_prefactor_monotone_nondecreasing():
    grid = np.linspace(0.0, 1.0, 50)
    values = [k_at_zero()] + [diffusion_closed_form(p).prefactor for p in grid[1:]]
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
        assert diffusion_closed_form(p).prefactor == pytest.approx(
            expanded * p / (1.0 - p), abs=1e-12
        )


def test_diffusion_result_identity():
    for p in (0.1, 0.417, 0.9, 1.0):
        res = diffusion_closed_form(p)
        assert res.diffusion == pytest.approx((1 - p) / p * res.prefactor, abs=1e-12)


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


@pytest.mark.parametrize("p", [5e-324, 1e-309, 5e-309])
def test_subnormal_p_overflowing_the_diffusion_constant_is_an_error(p):
    # (1 - p) / p overflows below 1 / max float, about 5.56e-309
    with pytest.raises(BallisticRegimeError, match="overflows a float at p = "):
        diffusion_closed_form(p)


def test_smallest_normal_p_has_a_finite_diffusion_constant():
    assert diffusion_closed_form(1e-308).diffusion == 1.8979838029930002e+307


# ---------------------------------------------------------------------------
# slope-method agreement (small horizons here; the full [400,500] run lives
# in the acceptance suite)
# ---------------------------------------------------------------------------


def test_slope_estimate_agrees_with_closed_form():
    closed = diffusion_closed_form(0.7).diffusion
    est = diffusion_from_slope(default_channel(0.7), "mixed", t_lo=100, t_hi=140)
    assert abs(est - closed) / closed < 0.02


def test_slope_estimate_ballistic_error():
    # no diffusion constant at p = 0: the closed form refuses, and the
    # variance slope does not converge but doubles with the horizon
    with pytest.raises(BallisticRegimeError):
        diffusion_closed_form(0.0)
    coherent = default_channel(0.0)
    early = diffusion_from_slope(coherent, "mixed", t_lo=10, t_hi=20)
    late = diffusion_from_slope(coherent, "mixed", t_lo=20, t_hi=40)
    assert late / early == pytest.approx(2.0, rel=0.1)


def test_slope_estimate_frozen_walker():
    est = diffusion_from_slope(default_channel(1.0), "mixed", t_lo=5, t_hi=10)
    assert est == pytest.approx(0.0, abs=1e-12)


def test_independent_of_the_engine():
    # the closed forms are a check on the engine only if they never call it
    tree = ast.parse(Path(brokenline.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & {"moments", "simulator"}
    assert {"channels", "errors"} <= imported


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


def test_sweep_csv_format(capsys):
    assert cli.main(["diffusion", "--p-min", "0.5", "--p-max", "1", "--p-step", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,K,D,I,method"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert float(fields[2]) == pytest.approx(diffusion_closed_form(0.5).diffusion)
    assert fields[4] == "closed-form"
    assert lines[2] == "1,0.5,0,0,closed-form"


def test_sweep_csv_with_slope_column(capsys, monkeypatch):
    monkeypatch.setattr(cli, "diffusion_from_slope", lambda *args: 0.39)
    assert cli.main(["diffusion", "--p-min", "0.5", "--p-max", "0.5",
                     "--with-slope"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,K,D,I,method,D_slope"
    assert lines[1].endswith(",closed-form,0.39000000000000001")
