"""Seeded call streams for the three benchmark workloads.

A workload is a stream of dqwalk CLI calls.  A run repeats the stream in
rounds; round ``i`` of seed ``s`` draws its inputs from its own generator, so
the same seed always yields the same calls, while no two rounds of a run
repeat an input (an in-process cache could otherwise turn the repeats into
hits that a real CLI user, who starts a fresh process per call, never sees).

Why these three:

* ``series-long`` -- one long exact series.  The per-momentum recursion and
  the grid build dominate; this is what a faster engine must move.
* ``queries-short`` -- ~240 short calls.  Fixed per-call costs dominate
  (argparse, channel build and certificate, JSON load, small-array numpy
  overhead), so work moved into per-call set-up shows up here.
* ``oracle-walk`` -- the brute-force simulator.  The momentum engine is
  bypassed, so an engine change should leave it unchanged.

The program sees only the generated argv and the channel files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("series-long", "queries-short", "oracle-walk")

# The host-speed reference kernel (hostspeed.py) whose work resembles each
# workload's hot loop.
REFERENCE_KERNEL = {
    "series-long": "small-arrays",
    "queries-short": "small-arrays",
    "oracle-walk": "large-arrays",
}

COINS = ("R", "L", "symmetric", "mixed")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke tests."""

    series_t: int = 1000
    walk_t: int = 120
    query_t: tuple[int, int] = (10, 60)
    # Calls per queries-short round, by kind.  Asymptotic calls are ~10% of
    # the stream so that p95 falls inside their population, not on its edge.
    query_mix: tuple[tuple[str, int], ...] = (
        ("broken-line", 60),
        ("coin-dephasing", 45),
        ("custom", 45),
        ("asymptotic", 24),
        ("sweep", 57),
        ("critical", 9),
    )


FULL = Sizes()
TINY = Sizes(
    series_t=100,
    walk_t=12,
    query_t=(4, 12),
    query_mix=(
        ("broken-line", 3),
        ("coin-dephasing", 3),
        ("custom", 3),
        ("asymptotic", 2),
        ("sweep", 3),
        ("critical", 1),
    ),
)


@dataclass
class Call:
    """One CLI invocation and what its checker needs to recompute the answer."""

    kind: str  # "series", "walk", "asymptotic", "sweep" or "critical"
    argv: list[str]
    spec: dict = field(default_factory=dict)
    out: str = ""
    moments_out: str | None = None


def _rng(workload: str, seed: int, index: int | str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _prob(rng: random.Random) -> float:
    return rng.uniform(0.1, 0.9)


def custom_channel_terms(rng: random.Random, num_kraus: int = 3) -> list[dict]:
    """A random complete channel with max_hop 2, as JSON term dicts.

    C_n(k) = S(k) V S(k) U_n with S = diag(e^{-ik}, e^{ik}), V a random
    unitary and the U_n cut from a random isometry, so
    sum_n C_n^dag C_n = sum_n U_n^dag U_n = I holds by construction.
    """
    gen = np.random.default_rng(rng.getrandbits(64))

    def gaussian(rows: int, cols: int) -> np.ndarray:
        return gen.normal(size=(rows, cols)) + 1j * gen.normal(size=(rows, cols))

    v, _ = np.linalg.qr(gaussian(2, 2))
    w, _ = np.linalg.qr(gaussian(2 * num_kraus, 2))
    # Hop of the (output i, middle j) entry of S V S: e^{-ik} on R, e^{+ik} on L.
    hops = {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): -2}
    labels = "RL"
    terms = []
    for n in range(num_kraus):
        u_n = w[2 * n:2 * n + 2]
        for (i, j), hop in hops.items():
            for jin in range(2):
                amp = complex(v[i, j] * u_n[j, jin])
                terms.append({
                    "n": n, "l": hop, "i": labels[i], "j": labels[jin],
                    "re": amp.real, "im": amp.imag,
                })
    return terms


def _series_call(tmpdir: str, channel_args: list[str], spec: dict, coin: str,
                 t: int, fmt: str = "csv") -> Call:
    out = os.path.join(tmpdir, "out." + fmt)
    argv = ["moments", *channel_args, "--coin", coin, "--t", str(t),
            "--format", fmt, "--out", out]
    return Call("series", argv, {**spec, "coin": coin, "t": t, "fmt": fmt}, out)


def _series_long(rng: random.Random, tmpdir: str, sizes: Sizes) -> list[Call]:
    p = _prob(rng)
    spec = {"channel": "broken-line", "p": p}
    return [_series_call(tmpdir, ["--channel", "broken-line", "--p", repr(p)],
                         spec, rng.choice(COINS), sizes.series_t)]


def _oracle_walk(rng: random.Random, tmpdir: str, sizes: Sizes) -> list[Call]:
    p = _prob(rng)
    coin = rng.choice(COINS)
    out = os.path.join(tmpdir, "dist.csv")
    moments_out = os.path.join(tmpdir, "moments.csv")
    argv = ["walk", "--channel", "broken-line", "--p", repr(p), "--coin", coin,
            "--t", str(sizes.walk_t), "--out", out, "--moments-out", moments_out]
    spec = {"channel": "broken-line", "p": p, "coin": coin, "t": sizes.walk_t}
    return [Call("walk", argv, spec, out, moments_out)]


def _grid_value(rng: random.Random, lo: int, hi: int) -> str:
    """A probability j/100 with lo <= j <= hi, as the CLI text "0.jj"."""
    return f"{rng.randint(lo, hi) / 100:.2f}"


def _queries_short(rng: random.Random, tmpdir: str, sizes: Sizes) -> list[Call]:
    calls: list[Call] = []
    t_lo, t_hi = sizes.query_t
    for kind, count in sizes.query_mix:
        # Horizons are spread evenly over the range, not drawn, so every
        # round costs about the same and only the order varies with the seed.
        ts = [t_lo + (t_hi - t_lo) * i // max(count - 1, 1) for i in range(count)]
        for idx, t in enumerate(ts):
            coin = rng.choice(COINS)
            if kind == "broken-line":
                p = _prob(rng)
                calls.append(_series_call(
                    tmpdir, ["--channel", "broken-line", "--p", repr(p)],
                    {"channel": "broken-line", "p": p}, coin, t))
            elif kind == "coin-dephasing":
                q = _prob(rng)
                calls.append(_series_call(
                    tmpdir, ["--channel", "coin-dephasing", "--q", repr(q)],
                    {"channel": "coin-dephasing", "q": q}, coin, t))
            elif kind == "custom":
                terms = custom_channel_terms(rng)
                path = os.path.join(tmpdir, f"channel{idx}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"label": f"custom-{idx}", "terms": terms}, fh)
                calls.append(_series_call(
                    tmpdir, ["--channel-file", path],
                    {"channel": "custom", "terms": terms}, coin, t, fmt="json"))
            elif kind == "asymptotic":
                # Values come from the pinned table in reference.json, whose
                # keys are this grid.
                if rng.random() < 0.5:
                    name, flag = "broken-line", "--p"
                else:
                    name, flag = "coin-dephasing", "--q"
                value = _grid_value(rng, 10, 90)
                out = os.path.join(tmpdir, "asym.txt")
                argv = ["moments", "--channel", name, flag, value, "--coin", coin,
                        "--asymptotic", "--out", out]
                key = f"{name} {flag[2:]}={value} coin={coin}"
                calls.append(Call("asymptotic", argv, {"key": key}, out))
            elif kind == "sweep":
                # Sweep points lie on the p = j/20 grid pinned in reference.json.
                step = rng.choice((1, 2, 4))
                first = rng.randint(1, 12)
                last = min(20, first + step * rng.randint(2, 8))
                out = os.path.join(tmpdir, "sweep.csv")
                argv = ["diffusion", "--p-min", f"{first / 20:g}",
                        "--p-max", f"{last / 20:g}", "--p-step", f"{step / 20:g}",
                        "--out", out]
                calls.append(Call("sweep", argv, {}, out))
            else:
                out = os.path.join(tmpdir, "critical.txt")
                calls.append(Call("critical", ["diffusion", "--critical", "--out", out],
                                  {}, out))
    rng.shuffle(calls)
    return calls


_BUILDERS = {
    "series-long": _series_long,
    "queries-short": _queries_short,
    "oracle-walk": _oracle_walk,
}


def make_round(workload: str, seed: int, index: int | str, tmpdir: str,
               sizes: Sizes = FULL) -> list[Call]:
    """The calls of round ``index``; channel files are written into ``tmpdir``."""
    return _BUILDERS[workload](_rng(workload, seed, index), tmpdir, sizes)
