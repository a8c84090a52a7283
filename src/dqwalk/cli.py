"""Command-line front end.

Subcommands:
    walk       brute-force density-matrix run; writes the position
               distribution (and optionally the per-step moment table)
    moments    momentum-space engine; writes the exact moment series
    diffusion  closed-form diffusion-constant sweep / crossover probability
    xcheck     plays the independent routes against each other

The computing modules return numbers; every output format (the CSV tables,
the JSON series, the xcheck report) is written here.

Exit codes: 0 ok, 1 cross-check failure, 2 invalid input or channel
(including NaN values and negative horizons), 3 regime error
(non-contracting / ballistic).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import itertools
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import brokenline
from .channels import (
    HADAMARD,
    BrokenLineParams,
    KrausTerm,
    WalkChannel,
    build_broken_line,
    build_coherent,
    dephasing_channel,
    load_channel,
)
from .errors import (
    BallisticRegimeError,
    DomainError,
    DQWalkError,
    NotContractingError,
)
from .moments import (
    MomentSeries,
    asymptotic_first_moment,
    diffusion_from_slope,
    moment_series,
    second_moment_coin_specialized,
)
from .pauli import COIN_PRESETS
from .simulator import (
    DensityState,
    distributions,
    evolve,
    init_state,
    position_distribution,
)

_BUILTIN_CHANNELS = ("coherent", "broken-line", "coin-dephasing")
_MAX_SWEEP_ROWS = 10**6
# A token that starts like a negative number: a digit, ".digit", inf or nan.
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, as plain JSON-serializable values."""

    subcommand: str
    channel: str = "broken-line"
    channel_file: str | None = None
    p: float = 0.5
    q: float = 0.5
    theta1: float = BrokenLineParams.theta1
    theta2: float = BrokenLineParams.theta2
    theta3: float = BrokenLineParams.theta3
    theta4: float = BrokenLineParams.theta4
    coin: str | tuple = "R"
    x0: int = 0
    t: int = 20
    t_lo: int = 400
    t_hi: int = 500
    out: str | None = None
    moments_out: str | None = None
    fmt: str = "csv"
    naive: bool = False
    asymptotic: bool = False
    p_min: float = 0.05
    p_max: float = 1.0
    p_step: float = 0.05
    critical: bool = False
    with_slope: bool = False


def _parse_coin(text: str):
    """A preset name, or four comma-separated Pauli coordinates."""
    if text in COIN_PRESETS:
        return text
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"coin must be one of {sorted(COIN_PRESETS)} or four comma-separated reals"
        )
    try:
        return tuple(float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse coin {text!r}") from None


def _coin_arg(config: RunConfig):
    return config.coin if isinstance(config.coin, str) else np.array(config.coin)


def _resolve_channel(config: RunConfig) -> WalkChannel:
    if config.channel_file is not None:
        return load_channel(config.channel_file)
    if config.channel == "coherent":
        return build_coherent(HADAMARD)
    if config.channel == "broken-line":
        return build_broken_line(
            BrokenLineParams(
                p=config.p,
                theta1=config.theta1,
                theta2=config.theta2,
                theta3=config.theta3,
                theta4=config.theta4,
            )
        )
    if config.channel == "coin-dephasing":
        return dephasing_channel(config.q)
    raise ValueError(f"unknown channel {config.channel!r}")


def _out_stream(path: str | None):
    if path in (None, "-"):
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


# --- output formats ----------------------------------------------------------

def _write_moment_csv(fh, first, second, variance) -> None:
    """Write the ``t,first,second,variance`` table, one row per t from 0.

    The columns are equally long sequences of floats (``.tolist()`` of an
    array formats fastest); every value is written with 17 significant
    digits.  The whole table is formatted by one ``%`` operation over the
    interleaved columns: the same bytes as a per-row f-string, in less time.
    """
    n = len(first)
    flat = [None] * (4 * n)
    flat[0::4] = range(n)
    flat[1::4] = first
    flat[2::4] = second
    flat[3::4] = variance
    fh.write("t,first,second,variance\n"
             + ("%d,%.17g,%.17g,%.17g\n" * n) % tuple(flat))


def _series_json(series: MomentSeries) -> str:
    """The ``moments --format json`` document of a series, as text.

    The bytes ``json.dump(doc, fh, indent=2)`` and a newline would write,
    formatted directly: with ``indent`` the json module runs its
    pure-Python encoder, which took 1.4 to 2.7 times as long at t = 60 to
    0 (2-vCPU Xeon, Python 3.11).  Numbers are
    written by ``repr``, as json writes ints and finite floats; every value
    here is finite (``moments._finalize``).  The label is the one string,
    escaped by json itself.
    """
    def array(values) -> str:
        return "[\n    " + ",\n    ".join(map(repr, values)) + "\n  ]"

    fields = (
        ("channel", json.dumps(series.channel_label)),
        ("coin", array(series.coin)),
        ("n_k", repr(series.n_k)),
        ("max_imag_residue", repr(series.max_imag_residue)),
        ("t", array(range(series.t_max + 1))),
        ("first", array(series.first.tolist())),
        ("second", array(series.second.tolist())),
        ("variance", array(series.variance.tolist())),
    )
    return "{\n" + ",\n".join(f'  "{name}": {text}' for name, text in fields) + "\n}\n"


def _sweep_row(p: float, config: RunConfig) -> str:
    """One ``diffusion`` row: ``p,K,D,I,method``, plus ``D_slope`` with ``--with-slope``.

    ``D_slope`` is the engine's variance slope from the mixed coin.  The
    coherent walk (p = 0) has no diffusion constant: its row is annotated
    with the error and nan values, not fatal.
    """
    try:
        res = brokenline.diffusion_closed_form(p)
    except BallisticRegimeError as exc:
        row, slope = f"{p:.17g},nan,nan,nan,error: {type(exc).__name__}", float("nan")
    else:
        row = (f"{res.p:.17g},{res.prefactor:.17g},{res.diffusion:.17g},"
               f"{res.integral:.17g},closed-form")
        if config.with_slope:
            slope = diffusion_from_slope(brokenline.default_channel(p), "mixed",
                                         config.t_lo, config.t_hi)
    return row + (f",{slope:.17g}\n" if config.with_slope else "\n")


# --- subcommands -------------------------------------------------------------

def _oracle_run(channel: WalkChannel, coin, t_max: int, x0: int = 0):
    """Run the density-matrix oracle for ``t_max`` steps from site ``x0``.

    Returns the final ``(positions, probabilities)`` and the lists of <x>,
    <x^2> and the variance after 0..t_max steps.  The variance is taken from
    the offsets x - x0, so a far start does not cancel it away.
    """
    if t_max < 0:
        raise ValueError(f"horizon must be nonnegative, got {t_max}")
    reach = channel.max_hop * t_max
    sites = np.iinfo(np.int64)
    if not (sites.min <= x0 - reach and x0 + reach <= sites.max):
        raise ValueError(
            f"start {x0} with {t_max} steps of up to {channel.max_hop} sites "
            "leaves the 64-bit position range"
        )
    runs = distributions(init_state(coin, x0=x0), channel, t_max)
    first = next(runs)  # distributions checks the run's size, before the table
    # rows x, x^2, x - x0 and (x - x0)^2 over the last window, in which each
    # step's window is centred: one product per step gives all four sums,
    # moment_direct's to about 1e-16 relative (they run in another order)
    ints = np.arange(-reach, reach + 1)
    xf, offsets = (x0 + ints).astype(float), ints.astype(float)
    table = np.stack([xf, xf * xf, offsets, offsets * offsets])
    sums = np.empty((t_max + 1, 4))
    for m, (xs, probs) in enumerate(itertools.chain([first], runs)):
        edge = channel.max_hop * (t_max - m)
        np.matmul(table[:, edge:len(ints) - edge], probs, out=sums[m])
    variances = sums[:, 3] - sums[:, 2] ** 2
    return (xs, probs), sums[:, 0].tolist(), sums[:, 1].tolist(), variances.tolist()


def cmd_walk(config: RunConfig) -> int:
    channel = _resolve_channel(config)
    (xs, probs), firsts, seconds, variances = _oracle_run(
        channel, _coin_arg(config), config.t, x0=config.x0
    )
    # parity / light-cone sites that were never touched are exact zeros
    with _out_stream(config.out) as fh:
        fh.write("x,prob\n" + "".join(
            f"{x},{prob:.17g}\n"
            for x, prob in zip(xs.tolist(), probs.tolist()) if prob != 0.0
        ))
    if config.moments_out is not None:
        with _out_stream(config.moments_out) as fh:
            _write_moment_csv(fh, firsts, seconds, variances)
    return 0


def cmd_moments(config: RunConfig) -> int:
    channel = _resolve_channel(config)
    coin = _coin_arg(config)
    if config.asymptotic:
        value = asymptotic_first_moment(channel, coin)
        with _out_stream(config.out) as fh:
            fh.write(f"{value:.17g}\n")
        return 0
    series = moment_series(channel, coin, config.t, naive=config.naive)
    with _out_stream(config.out) as fh:
        if config.fmt == "json":
            fh.write(_series_json(series))
        else:
            _write_moment_csv(fh, series.first.tolist(), series.second.tolist(),
                              series.variance.tolist())
    return 0


def cmd_diffusion(config: RunConfig) -> int:
    if config.critical:
        value = brokenline.critical_p()
        with _out_stream(config.out) as fh:
            fh.write(f"{value:.17g}\n")
        return 0
    bounds = (config.p_min, config.p_max, config.p_step)
    if not (all(map(math.isfinite, bounds))
            and config.p_step > 0 and config.p_max >= config.p_min):
        raise ValueError("need p_step > 0 and p_max >= p_min, all finite")
    intervals = (config.p_max - config.p_min) / config.p_step  # may overflow to inf
    if not intervals <= _MAX_SWEEP_ROWS - 1:
        raise ValueError(
            f"sweep would have more than {_MAX_SWEEP_ROWS} rows; raise --p-step"
        )
    if not (0.0 <= config.p_min and config.p_max <= 1.0):
        raise DomainError("link-failure probabilities must be in [0, 1], got "
                          f"--p-min {config.p_min!r} --p-max {config.p_max!r}")
    count = int(round(intervals)) + 1
    grid = (config.p_min + i * config.p_step for i in range(count))
    # a point at most 1e-12 past p_max is p_max up to rounding: clamp it
    ps = [min(p, config.p_max) for p in grid if p <= config.p_max + 1e-12]
    header = "p,K,D,I,method" + (",D_slope" if config.with_slope else "")
    rows = [_sweep_row(p, config) for p in ps]
    with _out_stream(config.out) as fh:
        fh.write(header + "\n" + "".join(rows))
    return 0


def _two_steps(channel: WalkChannel) -> WalkChannel:
    """Two steps of ``channel`` as one channel, of Kraus operators E_m E_n."""
    count = max(channel.kraus_indices) + 1
    amps: dict[tuple, complex] = {}
    for a in channel.terms:
        for b in channel.terms:
            if a.j == b.i:
                key = (a.n * count + b.n, a.l + b.l, a.i, b.j)
                amps[key] = amps.get(key, 0) + a.amp * b.amp
    return WalkChannel(f"{channel.label}-twice", tuple(
        KrausTerm(*key, amp) for key, amp in amps.items() if amp != 0))


def _xcheck_rows() -> list[tuple[str, float, float]]:
    """Each row is (name, max |delta|, tolerance)."""
    rows: list[tuple[str, float, float]] = []

    def deviations(channel: WalkChannel, coin, t_max: int) -> tuple[float, float]:
        """max |engine - oracle| of the first and of the second moment."""
        _, first_ref, second_ref, _ = _oracle_run(channel, coin, t_max)
        series = moment_series(channel, coin, t_max)
        return (float(np.max(np.abs(series.first - first_ref))),
                float(np.max(np.abs(series.second - second_ref))))

    def engine_vs_oracle(name: str, channel: WalkChannel, coin, t_max: int,
                         tol: float = 1e-9) -> None:
        first, second = deviations(channel, coin, t_max)
        rows.append((f"{name}: first moment vs oracle", first, tol))
        rows.append((f"{name}: second moment vs oracle", second, tol))

    engine_vs_oracle("coherent, coin R", build_coherent(HADAMARD), "R", 12)
    engine_vs_oracle(
        "broken-line p=0.3, mixed coin", brokenline.default_channel(0.3), "mixed", 12
    )
    engine_vs_oracle(
        "broken-line p=0.8, coin R", brokenline.default_channel(0.8), "R", 12
    )
    # complex link phases: the channel is not conjugation-symmetric, so these
    # rows sweep the full momentum grid where the others sweep half of it,
    # and the oracle steps a complex band from either start
    theta1 = build_broken_line(BrokenLineParams(p=0.3, theta1=0.4))
    engine_vs_oracle("broken-line p=0.3, theta1=0.4, coin R", theta1, "R", 12)
    engine_vs_oracle(
        "broken-line p=0.3, theta1=0.4, symmetric coin", theta1, "symmetric", 12
    )
    engine_vs_oracle(
        "coin-dephasing q=0.5, symmetric coin", dephasing_channel(0.5), "symmetric", 12
    )
    # four full blocks of the moment sweep and one partial block
    engine_vs_oracle(
        "broken-line p=0.3, coin R, t=65", brokenline.default_channel(0.3), "R", 65
    )

    # walk's band run decodes the channel through coin_pair_maps, evolve
    # reads its Kraus terms alone.  The wide start, a fixed 5-site complex
    # density matrix with coherences at every offset, is what shows a fault
    # that swaps the ket and bra hops of the maps: from a point mass such a
    # fault moves no diagonal.  On the default broken line its real rows
    # step the start's real part alone
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    rho = amps @ amps.conj().T
    wide = DensityState(t=0, x_min=-2, x_max=2,
                        rho=(rho / np.trace(rho).real).reshape(5, 2, 5, 2))

    def band_vs_evolve(channel: WalkChannel, start: DensityState) -> float:
        """max |walk's band run - evolve| per site at t = 16."""
        *_, (_, band) = distributions(start, channel, 16)
        _, full = position_distribution(evolve(start, channel, 16))
        return float(np.max(np.abs(band - full)))

    bl = brokenline.default_channel(0.3)
    rows.append((
        "broken-line p=0.3, theta1=0.4 and its two-step channel, symmetric coin "
        "and a wide start; broken-line p=0.3, wide start: walk's band run vs "
        "evolve, t=16",
        max(band_vs_evolve(bl, wide), *(
            band_vs_evolve(channel, start)
            for channel in (theta1, _two_steps(theta1))
            for start in (init_state("symmetric"), wide))),
        1e-15,
    ))

    # a different global phase per Kraus operator: complex Kraus operators
    # whose coin-pair maps are real, so the oracle steps real rows and the
    # engine sweeps half the grid, both from the one flag of coin_pair_maps
    phases = (0.3, 1.7, -2.2, 2.9)
    phased = WalkChannel(f"{bl.label}-phased", tuple(
        dataclasses.replace(t, amp=t.amp * cmath.exp(1j * phases[t.n])) for t in bl.terms
    ))
    rows.append((
        "broken-line p=0.3, Kraus phases, symmetric coin: moments vs oracle",
        max(deviations(phased, "symmetric", 12)),
        1e-9,
    ))
    rows.append((
        "broken-line p=0.3: dispersion term vs (1-p)t",
        abs(moment_series(bl, "mixed", 10).dispersion[10] - 0.7 * 10),
        1e-12,
    ))
    series_fast = moment_series(bl, "R", 10)
    series_naive = moment_series(bl, "R", 10, naive=True)
    rows.append((
        "broken-line p=0.3: naive double sum vs recursion",
        float(np.max(np.abs(series_fast.second - series_naive.second))),
        1e-11,
    ))
    deph = dephasing_channel(0.2)
    rows.append((
        "coin-dephasing q=0.2: generic vs coin-specialized <x^2>",
        abs(
            moment_series(deph, "R", 12).second[12]
            - second_moment_coin_specialized(deph, "R", 12)[12]
        ),
        1e-10,
    ))
    # the coin-noise reduction to the Brun formalism
    for q in (0.0, 0.2, 0.5, 1.0):
        chan = dephasing_channel(q)
        series = moment_series(chan, "symmetric", 20)
        worst = float(np.max(np.abs(
            series.second - second_moment_coin_specialized(chan, "symmetric", 20)
        )))
        rows.append((
            f"coin-dephasing q={q:g}: generic vs coin-specialized, t<=20",
            worst,
            1e-10,
        ))
        rows.append((
            f"coin-dephasing q={q:g}: dispersion term vs t",
            abs(moment_series(chan, "mixed", 15).dispersion[15] - 15.0),
            1e-12,
        ))
    return rows


def cmd_xcheck(config: RunConfig) -> int:
    rows = _xcheck_rows()
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    with _out_stream(config.out) as fh:
        fh.write(f"{'check':<{width}}  {'max|delta|':>12}  {'tol':>8}  status\n")
        for name, delta, tol in rows:
            ok = delta <= tol
            failures += 0 if ok else 1
            fh.write(
                f"{name:<{width}}  {delta:>12.3e}  {tol:>8.0e}  "
                f"{'PASS' if ok else 'FAIL'}\n"
            )
        fh.write(f"{len(rows) - failures}/{len(rows)} checks passed\n")
    return 0 if failures == 0 else 1


# --- argument parsing --------------------------------------------------------

def _channel_flags(parser: argparse.ArgumentParser) -> None:
    """The channel, coin and output flags that ``walk`` and ``moments`` share."""
    group = parser.add_argument_group("channel")
    group.add_argument("--channel", choices=_BUILTIN_CHANNELS)
    group.add_argument("--channel-file", metavar="PATH",
                       help="load a channel from JSON instead of --channel")
    group.add_argument("--p", type=float,
                       help="broken-line link-failure probability")
    group.add_argument("--q", type=float,
                       help="coin-dephasing measurement probability")
    for i in (1, 2, 3, 4):
        group.add_argument(f"--theta{i}", type=float, help=argparse.SUPPRESS)
    parser.add_argument(
        "--coin", type=_parse_coin,
        help="initial coin: preset name or four comma-separated Pauli coordinates",
    )
    parser.add_argument("--out", help="output path ('-' or omitted = stdout)")


def _walk_flags(parser: argparse.ArgumentParser) -> None:
    _channel_flags(parser)
    parser.add_argument("--t", type=int, help="number of steps")
    parser.add_argument("--x0", type=int, help="starting site")
    parser.add_argument("--moments-out", metavar="PATH",
                        help="also write the per-step moment table here")


def _moments_flags(parser: argparse.ArgumentParser) -> None:
    _channel_flags(parser)
    parser.add_argument("--t", type=int, help="horizon")
    parser.add_argument("--naive", action="store_true",
                        help="use the literal double sum for the second moment")
    parser.add_argument("--asymptotic", action="store_true",
                        help="print the long-time first moment instead of a series")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")


def _diffusion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-min", type=float)
    parser.add_argument("--p-max", type=float)
    parser.add_argument("--p-step", type=float)
    parser.add_argument("--critical", action="store_true",
                        help="print the p where D = 1/2 and exit")
    parser.add_argument("--with-slope", action="store_true",
                        help="add a D_slope column from the finite-horizon engine")
    parser.add_argument("--t-lo", type=int)
    parser.add_argument("--t-hi", type=int)
    parser.add_argument("--out")


def _xcheck_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out")


# name: (help line, flags, command)
_SUBCOMMANDS = {
    "walk": ("run the brute-force density-matrix simulator", _walk_flags, cmd_walk),
    "moments": ("run the momentum-space moment engine", _moments_flags, cmd_moments),
    "diffusion": ("broken-line diffusion-constant sweep", _diffusion_flags,
                  cmd_diffusion),
    "xcheck": ("cross-check the independent computation routes", _xcheck_flags,
               cmd_xcheck),
}


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand or, given none, the usage parser.

    A subcommand's parser is one flat ``dqwalk <name>`` parser with that
    subcommand's flags only.  The usage parser lists the subcommands and
    takes no flags: ``main`` runs it only when the first argument names no
    subcommand, to print the usage, the help or the error.  Each call builds
    its parser anew; nothing is kept between calls.
    """
    if subcommand is None:
        parser = argparse.ArgumentParser(
            prog="dqwalk",
            description="Decoherent quantum walks on the line: exact moments "
            "and diffusion constants.",
        )
        sub = parser.add_subparsers(dest="subcommand", required=True)
        for name, (help_line, _, _) in _SUBCOMMANDS.items():
            sub.add_parser(name, help=help_line)
        return parser
    _, add_flags, _ = _SUBCOMMANDS[subcommand]
    parser = argparse.ArgumentParser(prog=f"dqwalk {subcommand}")
    add_flags(parser)
    parser.set_defaults(subcommand=subcommand)
    return parser


# Flags that a mode flag turns off: ``moments --asymptotic`` prints one
# number, and ``diffusion --critical`` runs no sweep.  The slope flags act
# only with ``diffusion --with-slope``.
_SLOPE_FLAGS = {"t_lo": "--t-lo", "t_hi": "--t-hi"}
_MODE_IGNORES = {
    "asymptotic": {"t": "--t", "naive": "--naive", "fmt": "--format"},
    "critical": {"p_min": "--p-min", "p_max": "--p-max", "p_step": "--p-step",
                 "with_slope": "--with-slope", **_SLOPE_FLAGS},
}


def _ignored_flag(args: argparse.Namespace) -> str | None:
    """Why a given flag would have no effect, or None if none would.

    ``--asymptotic`` and ``--critical`` turn off the flags in
    ``_MODE_IGNORES``, and a ``diffusion`` sweep without ``--with-slope``
    those in ``_SLOPE_FLAGS``.  ``--p`` and ``--theta1..4`` shape only the
    broken line, ``--q`` only coin dephasing, and a channel file replaces
    ``--channel`` altogether.
    """
    for mode, ignored in _MODE_IGNORES.items():
        if getattr(args, mode, False):
            for name, flag in ignored.items():
                # compared by identity: 0 == False, yet --t 0 is a given flag
                if getattr(args, name) is not None and getattr(args, name) is not False:
                    return f"{flag} has no effect with --{mode}"
    if not getattr(args, "with_slope", True):
        for name, flag in _SLOPE_FLAGS.items():
            if getattr(args, name) is not None:
                return f"{flag} has no effect without --with-slope"
    if not hasattr(args, "channel_file"):  # a subcommand without channel flags
        return None
    if args.channel_file is not None:
        if args.channel is not None:
            return "--channel cannot be combined with --channel-file"
        channel = "a channel file"
    else:
        channel = args.channel or RunConfig.channel
    owners = {"p": "broken-line", "q": "coin-dephasing"}
    owners.update({f"theta{i}": "broken-line" for i in (1, 2, 3, 4)})
    for name, owner in owners.items():
        if getattr(args, name) is not None and channel != owner:
            return f"--{name} applies only to --channel {owner}, not to {channel}"
    return None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration of parsed flags, defaults filled in.

    Raises:
        ValueError: if ``--with-slope`` is given with a slope range that is
            not 1 <= t_lo < t_hi, so no sweep row runs before it is refused.
    """
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    config = RunConfig(**values)
    if config.with_slope and not 1 <= config.t_lo < config.t_hi:
        raise ValueError(
            f"need 1 <= --t-lo < --t-hi, got {config.t_lo}, {config.t_hi}"
        )
    return config


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse takes a token after a flag for its value only if it looks like
    ``-<digits>[.<digits>]``, and reads any other negative number ("-1e-3",
    "-inf", "-0.5,0,0,0.5") as an unknown option.  No option name starts
    like a number, so the join cannot capture one.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name not in _SUBCOMMANDS:
        usage = build_parser()
        usage.parse_args(argv)  # prints the usage, the help or the error, and exits
        # reached only if argparse accepts a subcommand after a leading "--"
        usage.error("the subcommand must come first")
    parser = build_parser(name)
    args = parser.parse_args(_attach_negative_values(argv[1:]))
    ignored = _ignored_flag(args)
    if ignored is not None:
        parser.error(ignored)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    _, _, command = _SUBCOMMANDS[name]
    try:
        return command(config)
    except (NotContractingError, BallisticRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DQWalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
