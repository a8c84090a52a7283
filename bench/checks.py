"""Output checks: every timed call's output is recomputed along an independent
route and compared.  Checks run after the timed loop, never inside it.

* moment series (``moments``): the first steps against the density-matrix
  oracle, the variance column against second - first**2, and, for long
  horizons, the late variance slope against the closed-form D(p);
* ``walk``: the distribution sums to 1 and the per-step moment table matches
  the momentum engine;
* ``--asymptotic``, ``--critical`` and sweep rows: values pinned in
  ``reference.json`` (regenerate with ``pin_reference.py``).
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np

from dqwalk.brokenline import diffusion_closed_form
from dqwalk.channels import (
    BrokenLineParams,
    KrausTerm,
    WalkChannel,
    build_broken_line,
    dephasing_channel,
)
from dqwalk.moments import moment_series
from dqwalk.simulator import init_state, moment_direct, step

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

MOMENT_TOL = 1e-9
PINNED_TOL = 1e-9
SLOPE_REL_TOL = 0.02
TOTAL_PROB_TOL = 1e-12
# Oracle depth: the whole prefix for long series, a short prefix otherwise
# (the oracle costs O(t^3); engine errors show up from the first steps).
LONG_ORACLE_STEPS = 30
SHORT_ORACLE_STEPS = 12
# Series at least this long also get the slope check over [0.9 t, t].
SLOPE_MIN_T = 100


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_channel(spec: dict) -> WalkChannel:
    """The channel a call's spec describes, built without the JSON loader."""
    if spec["channel"] == "broken-line":
        return build_broken_line(BrokenLineParams(p=spec["p"]))
    if spec["channel"] == "coin-dephasing":
        return dephasing_channel(spec["q"])
    terms = tuple(
        KrausTerm(t["n"], t["l"], t["i"], t["j"], complex(t["re"], t["im"]))
        for t in spec["terms"]
    )
    return WalkChannel("custom", terms)


def oracle_moments(channel: WalkChannel, coin, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """<x>_t and <x^2>_t for t = 0..t_max from the density-matrix simulator."""
    state = init_state(coin)
    first, second = [0.0], [0.0]
    for _ in range(t_max):
        state = step(state, channel)
        first.append(moment_direct(state, 1))
        second.append(moment_direct(state, 2))
    return np.array(first), np.array(second)


def parse_series(text: str, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, variance) columns of a CSV or JSON moment series."""
    if fmt == "json":
        data = json.loads(text)
        return (np.array(data["first"]), np.array(data["second"]),
                np.array(data["variance"]))
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1], rows[:, 2], rows[:, 3]


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    dev = float(np.max(np.abs(a - b)))
    return dev if math.isfinite(dev) else math.inf


def check_series(spec: dict, text: str) -> str | None:
    first, second, variance = parse_series(text, spec["fmt"])
    t_max = spec["t"]
    if len(first) != t_max + 1:
        return f"expected {t_max + 1} rows, got {len(first)}"
    dev = _max_dev(variance, second - first**2)
    if not dev <= MOMENT_TOL:
        return f"variance column off second - first^2 by {dev:.3g}"
    depth = min(t_max, LONG_ORACLE_STEPS if t_max >= SLOPE_MIN_T else SHORT_ORACLE_STEPS)
    channel = build_channel(spec)
    ref_first, ref_second = oracle_moments(channel, spec["coin"], depth)
    dev = max(_max_dev(first[:depth + 1], ref_first),
              _max_dev(second[:depth + 1], ref_second))
    if not dev <= MOMENT_TOL:
        return f"moments differ from the oracle by {dev:.3g} within t <= {depth}"
    if spec["channel"] == "broken-line" and t_max >= SLOPE_MIN_T:
        t_lo = t_max - t_max // 10
        slope = 0.5 * (variance[t_max] - variance[t_lo]) / (t_max - t_lo)
        expected = diffusion_closed_form(spec["p"]).diffusion
        rel = abs(slope - expected) / expected
        if not rel <= SLOPE_REL_TOL:
            return f"variance slope {slope:.6g} vs closed-form D {expected:.6g}"
    return None


def check_walk(spec: dict, dist_text: str, moments_text: str) -> str | None:
    probs = np.loadtxt(io.StringIO(dist_text), delimiter=",", skiprows=1, ndmin=2)[:, 1]
    total = float(probs.sum())
    if not abs(total - 1.0) <= TOTAL_PROB_TOL:
        return f"distribution sums to {total!r}"
    first, second, variance = parse_series(moments_text, "csv")
    if len(first) != spec["t"] + 1:
        return f"expected {spec['t'] + 1} moment rows, got {len(first)}"
    series = moment_series(build_channel(spec), spec["coin"], spec["t"])
    dev = max(_max_dev(first, series.first), _max_dev(second, series.second))
    if not dev <= MOMENT_TOL:
        return f"walk moments differ from the engine by {dev:.3g}"
    return None


def _scalar(text: str) -> float:
    return float(text.strip())


def check_sweep(text: str, reference: dict) -> str | None:
    lines = text.strip().splitlines()
    if lines[0] != "p,K,D,I,method" or len(lines) < 2:
        return f"unexpected sweep output header {lines[0]!r}"
    pinned = reference["closed_form"]
    for line in lines[1:]:
        fields = line.split(",")
        p = float(fields[0])
        j = round(p * 20)
        if not abs(p - j / 20) <= 1e-12 or str(j) not in pinned:
            return f"sweep row at unpinned p = {p!r}"
        got = [float(v) for v in fields[1:4]]
        dev = max(abs(a - b) for a, b in zip(got, pinned[str(j)]))
        if not dev <= PINNED_TOL or fields[4] != "closed-form":
            return f"sweep row p = {p!r} differs from the pinned row by {dev:.3g}"
    return None


def check_call(call, outputs: dict[str, str], reference: dict) -> str | None:
    """None if the call's outputs are right, else the reason they are not."""
    if call.kind == "series":
        return check_series(call.spec, outputs["out"])
    if call.kind == "walk":
        return check_walk(call.spec, outputs["out"], outputs["moments_out"])
    if call.kind == "sweep":
        return check_sweep(outputs["out"], reference)
    if call.kind == "asymptotic":
        expected = reference["asymptotic"][call.spec["key"]]
    else:
        expected = reference["critical_p"]
    got = _scalar(outputs["out"])
    if not abs(got - expected) <= PINNED_TOL:
        return f"{call.kind} value {got!r}, pinned {expected!r}"
    return None
