"""End-to-end CLI tests; every invocation goes through ``cli.main`` in-process."""

import contextlib
import dataclasses
import inspect
import io
import json
import re
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk import channels, moments, simulator
from dqwalk.channels import (
    HADAMARD,
    BrokenLineParams,
    WalkChannel,
    build_broken_line,
    build_coherent,
    channel_to_dict,
    load_channel,
    save_channel,
)
from dqwalk.cli import (
    RunConfig,
    _oracle_run,
    _parse_coin,
    build_parser,
    config_from_args,
    main,
)
from dqwalk.errors import QuadratureTooCoarseWarning
from dqwalk.pauli import COIN_PRESETS
from test_moments import random_layered_channel


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def csv_column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def test_walk_coherent_two_steps(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["walk", "--channel", "coherent", "--t", "2", "--coin", "R",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "prob"]
    got = {int(x): float(p) for x, p in rows}
    assert got == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


def test_walk_frozen_walker_single_row(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["walk", "--channel", "broken-line", "--p", "1", "--t", "50",
                 "--coin", "R", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert int(rows[0][0]) == 0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_walk_respects_start_site(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["walk", "--channel", "broken-line", "--p", "1", "--t", "3",
                 "--x0", "-7", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert int(rows[0][0]) == -7
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_walk_variance_does_not_depend_on_start_site(tmp_path, capsys):
    # the variance column is taken about x0, so a far start cannot cancel it
    columns = []
    for x0 in ("0", "100000000"):
        assert main(["walk", "--p", "0.3", "--t", "3", "--coin", "R", "--x0", x0,
                     "--out", str(tmp_path / "dist.csv"), "--moments-out", "-"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        columns.append([row.split(",")[3] for row in rows])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("channel", ["coherent", "broken-line"])
def test_walk_distribution_table_bytes(channel, tmp_path):
    # one row per site the oracle reached, in the final state's order
    out = tmp_path / "dist.csv"
    assert main(["walk", "--channel", channel, "--t", "9", "--coin", "mixed",
                 "--x0", "-3", "--out", str(out)]) == 0
    # the values are checked against evolve by the oracle's property test
    chan = build_coherent(HADAMARD) if channel == "coherent" else build_broken_line(
        BrokenLineParams(p=RunConfig.p))
    (xs, probs), _, _, _ = _oracle_run(chan, "mixed", 9, x0=-3)
    want = "x,prob\n" + "".join(
        f"{x},{prob:.17g}\n" for x, prob in zip(xs, probs) if prob != 0.0
    )
    assert out.read_bytes() == want.encode()


def test_walk_moment_table_bytes(tmp_path):
    table = tmp_path / "moments.csv"
    assert main(["walk", "--p", "0.3", "--t", "12", "--coin", "mixed", "--x0", "5",
                 "--out", str(tmp_path / "dist.csv"), "--moments-out", str(table)]) == 0
    _, firsts, seconds, variances = _oracle_run(
        build_broken_line(BrokenLineParams(p=0.3)), "mixed", 12, x0=5
    )
    assert firsts[12] > 4.0  # the columns are about the origin, not x0
    want = "t,first,second,variance\n" + "".join(
        f"{t},{firsts[t]:.17g},{seconds[t]:.17g},{variances[t]:.17g}\n"
        for t in range(13)
    )
    assert table.read_bytes() == want.encode()


COIN_PAIR_CHANNELS = {
    "broken-0.3": (["--channel", "broken-line", "--p", "0.3"], True),
    "dephasing-0.4": (["--channel", "coin-dephasing", "--q", "0.4"], True),
    "coherent": (["--channel", "coherent"], True),
    "broken-0.3-theta1": (["--channel", "broken-line", "--p", "0.3", "--theta1", "0.4"],
                          False),
}


@pytest.mark.parametrize("flags, real", COIN_PAIR_CHANNELS.values(),
                         ids=COIN_PAIR_CHANNELS.keys())
def test_symmetric_and_mixed_coins_agree_exactly_on_real_channels(flags, real, capsys):
    # the two coin densities differ only in their sigma_y part, which a real
    # channel never carries into a diagonal: the oracle steps Re rho on real
    # rows and the engine's half grid drops sigma_y, so both print the same
    # bytes; complex link phases tell the two coins apart
    printed = {}
    for coin in ("symmetric", "mixed"):
        assert main(["walk", *flags, "--coin", coin, "--t", "40",
                     "--moments-out", "-"]) == 0
        assert main(["moments", *flags, "--coin", coin, "--t", "40"]) == 0
        printed[coin] = capsys.readouterr().out
    assert printed["symmetric"].count("\n") > 2 * 42
    assert (printed["symmetric"] == printed["mixed"]) is real


@pytest.mark.parametrize("x0", ["9223372036854775807", "-9223372036854775808"])
def test_walk_start_whose_light_cone_overflows_exits_2(x0, capsys):
    assert main(["walk", "--x0", x0, "--t", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "64-bit position range" in captured.err


def test_walk_light_cone_may_end_at_the_int64_maximum(capsys):
    assert main(["walk", "--x0", "9223372036854775806", "--t", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "9223372036854775805", "9223372036854775806", "9223372036854775807"]


def test_walk_to_stdout(capsys):
    assert main(["walk", "--channel", "coherent", "--t", "1", "--coin", "R"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,prob"
    assert len(lines) == 3  # x = -1 and x = +1


def test_walk_prints_only_sites_of_the_right_parity(capsys):
    # After t coherent steps only sites with x = t (mod 2) are reachable; the
    # others come out of the oracle as exact zeros and their rows are dropped.
    assert main(["walk", "--channel", "coherent", "--t", "40", "--coin", "R"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,prob"
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    assert xs == list(range(-40, 41, 2))


def test_walk_rejects_bad_channel_file(tmp_path, capsys):
    bad = tmp_path / "chan.json"
    bad.write_text(json.dumps({
        "label": "lossy",
        "terms": [{"n": 0, "l": 1, "i": "R", "j": "R", "re": 0.9, "im": 0.0}],
    }))
    code = main(["walk", "--channel-file", str(bad), "--t", "2"])
    assert code == 2
    assert "residual" in capsys.readouterr().err


def _hand_rolled_hadamard():
    s = 0.5 ** 0.5
    return [
        {"n": 0, "l": 1, "i": "R", "j": "R", "re": s, "im": 0.0},
        {"n": 0, "l": 1, "i": "R", "j": "L", "re": s, "im": 0.0},
        {"n": 0, "l": -1, "i": "L", "j": "R", "re": s, "im": 0.0},
        {"n": 0, "l": -1, "i": "L", "j": "L", "re": -s, "im": 0.0},
    ]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda terms: [dict(t, l=1.5) if t["l"] == 1 else t for t in terms],
        lambda terms: [dict(t, l=True) if t["l"] == 1 else t for t in terms],
        lambda terms: [dict(t, n=True) for t in terms],
        lambda terms: 5,
        lambda terms: None,
        lambda terms: [dict(terms[0], i=["R"]), *terms[1:]],
        lambda terms: [dict(t, re=repr(t["re"])) for t in terms],
    ],
    ids=["fractional-hop", "bool-hop", "bool-index", "terms-number", "terms-null",
         "list-label", "string-amplitude"],
)
def test_ill_typed_channel_file_exits_2(mutate, tmp_path, capsys):
    # every +1 hop written as 1.5 used to load as a different channel (exit 0);
    # a non-list term list or a list coin label used to crash with a traceback
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"label": "ill-typed", "terms": mutate(_hand_rolled_hadamard())}))
    assert main(["moments", "--channel-file", str(chan), "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("doc, kind", [([1, 2], "list"), ("broken-line", "str"),
                                       (None, "NoneType"), (0.5, "float")])
def test_channel_file_that_is_not_an_object_exits_2(doc, kind, tmp_path, capsys):
    # the message names the type, not a missing field
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(doc))
    assert main(["moments", "--channel-file", str(chan), "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: channel must be a JSON object, got {kind}\n"


def test_channel_file_amplitude_too_large_for_a_float_exits_2(tmp_path, capsys):
    # JSON integers are unbounded; 10**400 has no float
    chan = tmp_path / "chan.json"
    terms = [dict(_hand_rolled_hadamard()[0], im=10**400)]
    chan.write_text(json.dumps({"label": "huge", "terms": terms}))
    assert main(["moments", "--channel-file", str(chan), "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int too large to convert to float" in captured.err


@pytest.mark.parametrize("amp, dup", [(float("-inf"), False), (1e308, False), (1e308, True)],
                         ids=["-inf", "1e308", "overflowing-duplicate"])
def test_channel_file_overflowing_amplitude_exits_2(amp, dup, tmp_path, capsys):
    # the certificate's sums and squares overflow; that is a failed
    # certificate (exit 2), not a numpy warning
    terms = _hand_rolled_hadamard()
    terms[0]["re"] = amp
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"label": "huge", "terms": terms + terms[:1] * dup}))
    assert main(["walk", "--channel-file", str(chan), "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "violates Kraus completeness: residual" in captured.err


@pytest.mark.parametrize("terms, size", [
    # four terms, but a hop of 1e8: about 93 GB of phases
    ([dict(t, l=t["l"] * 10**8) for t in _hand_rolled_hadamard()], 4 * (4 * 10**8 + 1)),
    # one term at each hop from -500 to 500: about 64 GB
    ([{"n": 0, "l": l, "i": "R", "j": "R", "re": 1.0, "im": 0.0} for l in range(-500, 501)],
     1001**2 * 2001),
], ids=["hop-1e8", "1001-hops"])
def test_channel_file_too_large_to_certify_exits_2(terms, size, tmp_path, capsys):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"label": "huge", "terms": terms}))
    tracemalloc.start()
    try:
        code = main(["moments", "--channel-file", str(chan), "--t", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: completeness certificate size {size} "
                            "exceeds the limit of 1000000\n")
    assert peak < 2 * 10**6


def test_walk_accepts_good_channel_file(tmp_path):
    chan = tmp_path / "chan.json"
    # the coherent Hadamard walk, written out by hand
    s = 0.5 ** 0.5
    chan.write_text(json.dumps({
        "label": "hand-rolled",
        "terms": [
            {"n": 0, "l": 1, "i": "R", "j": "R", "re": s, "im": 0.0},
            {"n": 0, "l": 1, "i": "R", "j": "L", "re": s, "im": 0.0},
            {"n": 0, "l": -1, "i": "L", "j": "R", "re": s, "im": 0.0},
            {"n": 0, "l": -1, "i": "L", "j": "L", "re": -s, "im": 0.0},
        ],
    }))
    out = tmp_path / "dist.csv"
    assert main(["walk", "--channel-file", str(chan), "--t", "2", "--coin", "R",
                 "--out", str(out)]) == 0
    got = {int(x): float(p) for x, p in read_csv(out)[1]}
    assert got == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25})


# ---------------------------------------------------------------------------
# moments, and walk/moments agreement
# ---------------------------------------------------------------------------


def test_moments_csv_matches_walk_table(tmp_path):
    walk_out = tmp_path / "walk.csv"
    walk_mom = tmp_path / "walk_moments.csv"
    eng_out = tmp_path / "engine.csv"
    args = ["--channel", "broken-line", "--p", "0.5", "--coin", "mixed", "--t", "20"]
    assert main(["walk", *args, "--out", str(walk_out),
                 "--moments-out", str(walk_mom)]) == 0
    assert main(["moments", *args, "--out", str(eng_out)]) == 0
    assert read_csv(eng_out)[0] == ["t", "first", "second", "variance"]
    for col in ("first", "second", "variance"):
        assert np.max(np.abs(csv_column(walk_mom, col) - csv_column(eng_out, col))) <= 1e-9


def test_moments_naive_agrees(tmp_path):
    fast = tmp_path / "fast.csv"
    slow = tmp_path / "slow.csv"
    args = ["moments", "--channel", "broken-line", "--p", "0.3", "--t", "12",
            "--coin", "R"]
    assert main([*args, "--out", str(fast)]) == 0
    assert main([*args, "--naive", "--out", str(slow)]) == 0
    assert np.max(np.abs(csv_column(fast, "second") - csv_column(slow, "second"))) <= 1e-11


def test_moments_json_format(tmp_path):
    out = tmp_path / "series.json"
    assert main(["moments", "--channel", "coin-dephasing", "--q", "0.4",
                 "--t", "6", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["t"] == list(range(7))
    assert "n_k" in data and "variance" in data
    assert data["channel"].startswith("coin-dephasing")


@pytest.mark.parametrize("flags, label", [
    (["--p", "0.3000001", "--theta1", "0.4"], "broken-line(p=0.3000001, theta1=0.4)"),
    (["--p", "0.3", "--theta2", "-3.141592653589793", "--theta3", "0", "--theta4", "1"],
     "broken-line(p=0.3, theta2=-3.141592653589793, theta4=1.0)"),
    (["--p", "0.3", "--theta2", "3.141592653589793"], "broken-line(p=0.3)"),
    (["--channel", "coin-dephasing", "--q", "0.30000000000000004"],
     "coin-dephasing(q=0.30000000000000004)"),
], ids=["p-and-theta1", "theta2-and-theta4", "default-phases", "dephasing"])
def test_moments_json_label_names_every_parameter(flags, label, capsys):
    # p and q in full, and every phase that differs from its default
    assert main(["moments", *flags, "--t", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["channel"] == label


def test_moments_asymptotic_value(capsys):
    assert main(["moments", "--channel", "broken-line", "--p", "0.5",
                 "--coin", "R", "--asymptotic"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 0.3033400534048355) < 1e-9


@pytest.mark.parametrize("t", [0, 1, 60])
def test_moments_json_bytes_match_json_dump(t, tmp_path):
    # the direct writer against the json module, on a label that needs escaping
    chan = tmp_path / "label.json"
    label = 'tab\t "quoted" back\\slash \u00e9\n'
    save_channel(dataclasses.replace(build_broken_line(BrokenLineParams(p=0.3)),
                                     label=label), chan)
    out = tmp_path / "series.json"
    assert main(["moments", "--channel-file", str(chan), "--coin", "symmetric",
                 "--t", str(t), "--format", "json", "--out", str(out)]) == 0
    series = moments.moment_series(load_channel(chan), "symmetric", t)
    assert series.channel_label == label
    doc = {
        "channel": series.channel_label,
        "coin": list(series.coin),
        "n_k": series.n_k,
        "max_imag_residue": series.max_imag_residue,
        "t": list(range(t + 1)),
        "first": series.first.tolist(),
        "second": series.second.tolist(),
        "variance": series.variance.tolist(),
    }
    want = io.StringIO()
    json.dump(doc, want, indent=2)
    want.write("\n")
    assert out.read_bytes() == want.getvalue().encode("utf-8")


def test_moments_asymptotic_coherent_exits_3(capsys):
    code = main(["moments", "--channel", "coherent", "--coin", "R", "--asymptotic"])
    assert code == 3
    assert "spectral radius" in capsys.readouterr().err


def test_moments_asymptotic_drifting_channel_exits_3(tmp_path, capsys):
    # every step moves the walker one site right: ballistic, not a stationary limit
    chan = tmp_path / "right.json"
    chan.write_text(json.dumps({"label": "always-right", "terms": [
        {"n": 0, "l": 1, "i": "R", "j": "R", "re": 1.0, "im": 0.0},
        {"n": 1, "l": 1, "i": "R", "j": "L", "re": 1.0, "im": 0.0},
    ]}))
    code = main(["moments", "--channel-file", str(chan), "--asymptotic"])
    assert code == 3
    err = capsys.readouterr().err
    assert "nonzero stationary drift 1;" in err
    assert "complex" not in err


def test_moments_invalid_coin_exits_2(capsys):
    # parses as four reals but lies outside the Bloch ball
    code = main(["moments", "--channel", "coherent", "--coin", "0.5,0.9,0,0",
                 "--t", "3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coin, message",
    [
        ("-0.5,0,0,0.5", "coin trace is -1.0, expected 1"),
        ("0.6,0,0,0", "coin trace is 1.2, expected 1"),
    ],
)
def test_invalid_coin_message_prints_plain_floats(coin, message, capsys):
    assert main(["moments", f"--coin={coin}", "--t", "2"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "np.float64" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--coin", "nan,0,0,0.5", "--t", "3"],
        ["walk", "--coin", "0.5,nan,0,0", "--t", "3"],
        ["moments", "--theta1", "nan", "--t", "3"],
        ["moments", "--theta2", "nan", "--t", "3"],
        ["moments", "--p", "nan", "--t", "3"],
        ["moments", "--channel", "coin-dephasing", "--q", "nan", "--t", "3"],
    ],
)
def test_nan_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, flag, value, code",
    [
        (["moments", "--t", "6"], "--theta1", "-1e-1", 0),
        (["moments", "--t", "6"], "--theta4", "-2.5E-1", 0),
        (["moments", "--t", "3"], "--p", "-1e-3", 2),
        (["moments", "--channel", "coin-dephasing", "--t", "3"], "--q", "-1e-3", 2),
        (["walk", "--t", "3"], "--p", "-inf", 2),
        (["diffusion"], "--p-min", "-1e-3", 2),
        (["diffusion", "--p-max", "0.5"], "--p-min", "-5e-2", 2),
    ],
    ids=["theta1", "theta4", "p", "q", "walk-p-inf", "p-min", "p-min-in-sweep"],
)
def test_negative_float_literal_is_a_flag_value(argv, flag, value, code, capsys):
    # "--flag -1e-3" must mean the same as "--flag=-1e-3", not an unknown option
    assert main([*argv, flag, value]) == code
    spaced = capsys.readouterr()
    assert main([*argv, f"{flag}={value}"]) == code
    assert capsys.readouterr() == spaced
    if code == 2:
        assert "must be in [0, 1]" in spaced.err and spaced.out == ""


@pytest.mark.parametrize("sub", ["walk", "moments"])
def test_nan_channel_file_exits_2(sub, tmp_path, capsys):
    s = 0.5 ** 0.5
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({
        "label": "nan-amplitude",
        "terms": [
            {"n": 0, "l": 1, "i": "R", "j": "R", "re": float("nan"), "im": 0.0},
            {"n": 0, "l": 1, "i": "R", "j": "L", "re": s, "im": 0.0},
            {"n": 0, "l": -1, "i": "L", "j": "R", "re": s, "im": 0.0},
            {"n": 0, "l": -1, "i": "L", "j": "L", "re": -s, "im": 0.0},
        ],
    }))
    assert main([sub, "--channel-file", str(chan), "--t", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residual nan" in captured.err


def test_walk_negative_horizon_exits_2(capsys):
    assert main(["walk", "--t", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


@pytest.mark.parametrize("argv, message, peak_bytes", [
    (["moments", "--t", "1000000000"],
     "horizon 1000000000 exceeds the limit of 1000000", 10**6),
    (["moments", "--t", "500000"],
     "momentum node count 1000001 exceeds the limit of 1000000", 10**6),
    # complex link phases sweep the full grid: its 160001 nodes are built
    # (1.3 MB), the sweep is not.  The default broken line would sweep half
    # of them, 6.4e9 node-steps, under the limit
    (["moments", "--channel", "broken-line", "--theta1", "0.4", "--t", "80000"],
     "swept node-step count 12800080000 exceeds the limit of 10000000000", 4 * 10**7),
    (["walk", "--t", "100000000"],
     "site-pair-step count 1333333373333333700000000 exceeds the limit of 2000000000",
     10**6),
    (["diffusion", "--with-slope", "--p-min", "0.5", "--p-max", "0.5",
      "--t-hi", "100000000"], "horizon 100000000 exceeds the limit of 1000000", 10**6),
], ids=["horizon", "nodes", "node-steps", "walk", "slope"])
def test_infeasible_sizes_exit_2_before_allocating(argv, message, peak_bytes, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert peak < peak_bytes


def test_unparseable_coin_is_an_argparse_error():
    with pytest.raises(SystemExit) as err:
        main(["moments", "--coin", "north", "--t", "2"])
    assert err.value.code == 2


def test_coin_of_four_non_numbers_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["moments", "--coin", "a,b,c,d", "--t", "2"])
    assert err.value.code == 2
    assert "cannot parse coin 'a,b,c,d'" in capsys.readouterr().err


def test_walk_rejects_node_count_flag(capsys):
    # the oracle has no momentum grid, so --nk would be silently ignored
    with pytest.raises(SystemExit) as err:
        main(["walk", "--t", "3", "--nk", "-7"])
    assert err.value.code == 2
    assert "--nk" in capsys.readouterr().err


def assert_unrecognized_node_count(argv, capsys):
    """``argv`` exits 2 as a usage error that names ``--nk``, printing nothing."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --nk" in captured.err


@pytest.mark.parametrize("nk", ["0", "-4"])
def test_moments_nonpositive_nodes_exit_2_without_warning(nk, capsys, recwarn):
    # a series always runs on its exactness bound, so there is no --nk
    assert_unrecognized_node_count(["moments", "--coin", "R", "--t", "3", "--nk", nk],
                                   capsys)
    assert not [w for w in recwarn if w.category is QuadratureTooCoarseWarning]


def test_moments_asymptotic_zero_nodes_exits_2(capsys):
    # the limit picks its own node count too
    assert_unrecognized_node_count(["moments", "--coin", "R", "--asymptotic", "--nk", "0"],
                                   capsys)


def test_diffusion_slope_rejects_node_count_flag(capsys):
    # the slope runs the series on its exactness bound
    assert_unrecognized_node_count(["diffusion", "--with-slope", "--nk", "9"], capsys)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["moments", "--channel", "coherent", "--q", "0.3", "--t", "3"], "--q"),
        # the default channel is the broken line
        (["walk", "--q", "0.3", "--t", "3"], "--q"),
        (["moments", "--channel", "coin-dephasing", "--p", "0.3", "--t", "3"], "--p"),
        (["walk", "--channel", "coherent", "--theta1", "0.4", "--t", "3"], "--theta1"),
        (["moments", "--channel", "coin-dephasing", "--theta4", "-0.1", "--t", "3"],
         "--theta4"),
        (["walk", "--channel-file", "CHANNEL", "--p", "0.3", "--t", "3"], "--p"),
        (["moments", "--channel-file", "CHANNEL", "--q", "0.3", "--t", "3"], "--q"),
        (["walk", "--channel-file", "CHANNEL", "--channel", "broken-line", "--t", "3"],
         "--channel"),
        # --asymptotic prints one number and --critical runs no sweep
        (["moments", "--asymptotic", "--format", "json", "--t", "7", "--naive"], "--t"),
        (["moments", "--asymptotic", "--naive"], "--naive"),
        (["moments", "--asymptotic", "--format", "csv"], "--format"),
        (["moments", "--asymptotic", "--t", "0"], "--t"),
        (["diffusion", "--critical", "--p-min", "0.2"], "--p-min"),
        (["diffusion", "--critical", "--p-max", "0.8"], "--p-max"),
        (["diffusion", "--critical", "--p-step", "0.1"], "--p-step"),
        (["diffusion", "--critical", "--with-slope"], "--with-slope"),
        (["diffusion", "--critical", "--t-lo", "100"], "--t-lo"),
        (["diffusion", "--critical", "--t-hi", "200"], "--t-hi"),
        # the slope flags act only with --with-slope
        (["diffusion", "--p-min", "0.5", "--p-max", "0.5", "--t-lo", "5", "--t-hi", "3"],
         "--t-lo"),
        (["diffusion", "--t-hi", "200"], "--t-hi"),
    ],
    ids=["q-coherent", "q-default", "p-dephasing", "theta1-coherent",
         "theta4-dephasing", "p-file", "q-file", "channel-and-file",
         "t-asymptotic", "naive-asymptotic", "format-asymptotic",
         "t0-asymptotic", "p-min-critical", "p-max-critical", "p-step-critical",
         "with-slope-critical", "t-lo-critical", "t-hi-critical",
         "t-lo-no-slope", "t-hi-no-slope"],
)
def test_flag_the_channel_would_ignore_exits_2(argv, flag, tmp_path, capsys):
    chan = tmp_path / "chan.json"
    save_channel(build_broken_line(BrokenLineParams(p=0.3)), chan)
    argv = [str(chan) if arg == "CHANNEL" else arg for arg in argv]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "out.csv")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out.csv").exists()
    # the subcommand's own parser reports it, under its own usage line
    sub = argv[0]
    assert captured.err.startswith(f"usage: dqwalk {sub} [-h]")
    assert f"\ndqwalk {sub}: error: {flag} " in captured.err


def test_unknown_channel_is_an_argparse_error():
    with pytest.raises(SystemExit) as err:
        main(["walk", "--channel", "teleporter"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


def test_diffusion_critical(capsys):
    assert main(["diffusion", "--critical"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.412 <= value <= 0.422


def test_diffusion_sweep_includes_exact_endpoint(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["diffusion", "--p-min", "0.25", "--p-max", "1.0",
                 "--p-step", "0.25", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["p", "K", "D", "I", "method"]
    assert [float(r[0]) for r in rows] == pytest.approx([0.25, 0.5, 0.75, 1.0])
    by_p = {float(r[0]): r for r in rows}
    assert float(by_p[1.0][1]) == 0.5  # K(1) = 1/2 exactly
    assert float(by_p[1.0][2]) == 0.0  # frozen walker
    for r in rows:
        p, k_val, d_val = float(r[0]), float(r[1]), float(r[2])
        assert d_val == pytest.approx((1 - p) / p * k_val, abs=1e-12)
        assert r[4] == "closed-form"


def test_diffusion_with_slope_column(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["diffusion", "--p-min", "0.6", "--p-max", "0.8", "--p-step", "0.2",
                 "--t-lo", "100", "--t-hi", "140", "--with-slope",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["p", "K", "D", "I", "method", "D_slope"]
    for r in rows:
        d_closed, d_slope = float(r[2]), float(r[5])
        assert abs(d_slope - d_closed) / d_closed < 0.02


@pytest.mark.parametrize(
    "flags",
    [["--p-min", "0", "--p-max", "0", "--t-lo", "5", "--t-hi", "3"],
     ["--p-min", "0.5", "--p-max", "0.5", "--t-lo", "0", "--t-hi", "3"],
     ["--t-lo", "600"]],
    ids=["ballistic-row-only", "t-lo-zero", "t-lo-past-default-t-hi"],
)
def test_diffusion_slope_range_is_checked_before_any_row(flags, tmp_path, capsys):
    # checked before any row: the p = 0 row computes no slope, so a check
    # inside the slope estimate never runs there
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        main(["diffusion", "--with-slope", *flags, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("usage: dqwalk diffusion [-h]")
    assert "\ndqwalk diffusion: error: need 1 <= --t-lo < --t-hi, got " in captured.err


def test_diffusion_subnormal_row_is_annotated(capsys):
    # D overflows at so small a p: the row is an error, not D = inf
    assert main(["diffusion", "--p-min", "1e-310", "--p-max", "1e-310",
                 "--p-step", "1"]) == 0
    assert capsys.readouterr().out == (
        "p,K,D,I,method\n9.9999999999999694e-311,nan,nan,nan,error: BallisticRegimeError\n")


def test_diffusion_coherent_row_is_annotated(capsys):
    # p = 0 has no diffusion constant: the row names the error, nan values
    # and no slope, and the sweep goes on
    assert main(["diffusion", "--p-min", "0", "--p-max", "0.1", "--p-step", "0.1",
                 "--with-slope", "--t-lo", "5", "--t-hi", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["p,K,D,I,method,D_slope",
                         "0,nan,nan,nan,error: BallisticRegimeError,nan"]
    assert len(lines) == 3 and lines[2].split(",")[4] == "closed-form"


def test_diffusion_last_point_is_clamped_to_p_max(capsys):
    # 0.09 + 13 * 0.07 lands just above 1; the row is p = 1, not outside [0, 1]
    assert main(["diffusion", "--p-min", "0.09", "--p-max", "1",
                 "--p-step", "0.07"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert lines[-1] == "1,0.5,0,0,closed-form"


def test_diffusion_bad_grid_exits_2(capsys):
    assert main(["diffusion", "--p-min", "0.8", "--p-max", "0.2"]) == 2
    assert "error" in capsys.readouterr().err
    for flags in (["--p-min", "nan"], ["--p-max", "nan"], ["--p-step", "nan"],
                  ["--p-max", "inf"], ["--p-step", "inf"], ["--p-min=-inf"]):
        assert main(["diffusion", *flags]) == 2
        captured = capsys.readouterr()
        assert "need p_step > 0" in captured.err and captured.out == "", flags


@pytest.mark.parametrize(
    "flags",
    [["--p-step", "1e-300"], ["--p-min", "0", "--p-max", "1", "--p-step", "1e-6"],
     ["--p-min=-1e308", "--p-max", "1e308"]],
    ids=["tiny-step", "one-row-too-many", "span-overflows"],
)
def test_diffusion_rejects_oversized_sweep_before_building_it(flags, capsys):
    tracemalloc.start()
    try:
        code = main(["diffusion", *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "more than 1000000 rows" in capsys.readouterr().err
    assert peak < 1_000_000  # bytes: the rejected grid was never allocated


# ---------------------------------------------------------------------------
# xcheck
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def xcheck_run(tmp_path_factory):
    """One clean ``xcheck`` run, shared: its exit code and its report."""
    out = tmp_path_factory.mktemp("xcheck") / "xcheck.txt"
    code = main(["xcheck", "--out", str(out)])
    return code, out.read_text()


def test_xcheck_clean_build_passes(xcheck_run):
    code, report = xcheck_run
    assert code == 0
    assert "FAIL" not in report
    assert report.strip().endswith("27/27 checks passed")
    # both the half-grid sweep and the full-grid one are played against the
    # oracle, with a real and a complex start on the complex-row channel
    assert "theta1=0.4, coin R: second moment vs oracle" in report
    assert "theta1=0.4, symmetric coin: second moment vs oracle" in report


def test_xcheck_coin_reduction_suite(xcheck_run):
    # the coin-noise reduction to the Brun formalism runs in every xcheck,
    # at every dephasing strength
    code, report = xcheck_run
    assert code == 0
    assert "27/27 checks passed" in report
    for q in ("0", "0.2", "0.5", "1"):
        assert f"coin-dephasing q={q}: generic vs coin-specialized, t<=20" in report
        assert f"coin-dephasing q={q}: dispersion term vs t" in report


def test_xcheck_has_no_coin_reduction_flag():
    with pytest.raises(SystemExit) as err:
        main(["xcheck", "--coin-reduction"])
    assert err.value.code == 2


def test_xcheck_detects_drift_corruption(tmp_path, monkeypatch):
    # doubling the sweep's drift map keeps its structure, so only the
    # comparisons can catch it
    build = moments._node_maps

    def doubled(*args):
        block, readout = build(*args)
        block[:, :4, 4:] *= 2.0  # the drift part of B
        readout[:, ::2] *= 2.0  # and the first-moment and cross rows of R
        return block, readout

    monkeypatch.setattr(moments, "_node_maps", doubled)
    out = tmp_path / "xcheck.txt"
    assert main(["xcheck", "--out", str(out)]) == 1
    report = out.read_text()
    # the mutation must be caught by the second-moment rows
    assert any("second moment vs oracle" in line and line.endswith("FAIL")
               for line in report.splitlines())
    # including the row whose sweep crosses four full blocks and a partial one
    blocked = [line for line in report.splitlines()
               if line.startswith("broken-line p=0.3, coin R, t=65:")]
    assert len(blocked) == 2
    assert all(line.endswith("FAIL") for line in blocked)


# One-line faults in the decoding that walk's band run and the moment engine
# share, each applied to the function's own source: the hops of the
# coin-pair maps swapped, each coin block transposed, and the conjugate
# dropped.  ``evolve`` reads the Kraus terms alone, so xcheck must see each.
DECODING_FAULTS = {
    "hop-swap": ("coin_pair_maps", '"nlij,nmab->lmiajb"', '"nlij,nmab->mliajb"'),
    "transposed-blocks": ("_coin_blocks", "COIN_INDEX[t.i], COIN_INDEX[t.j]]",
                          "COIN_INDEX[t.j], COIN_INDEX[t.i]]"),
    "dropped-conj": ("coin_pair_maps", "blocks, blocks.conj())", "blocks, blocks)"),
}


@pytest.mark.parametrize("name, old, new", DECODING_FAULTS.values(),
                         ids=DECODING_FAULTS.keys())
def test_xcheck_fails_under_a_decoding_fault(name, old, new, tmp_path, monkeypatch):
    source = textwrap.dedent(inspect.getsource(getattr(channels, name)))
    assert source.count(old) == 1
    namespace = dict(vars(channels))
    exec(source.replace(old, new), namespace)
    for module in (channels, moments, simulator):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, namespace[name])
    assert main(["xcheck", "--out", str(tmp_path / "xcheck.txt")]) != 0


# ---------------------------------------------------------------------------
# config round-trip / determinism
# ---------------------------------------------------------------------------


def config_from_json_dict(data):
    """Test-only reference: a ``RunConfig`` from its fields read back from JSON."""
    data = dict(data)
    if isinstance(data["coin"], list):
        data["coin"] = tuple(float(v) for v in data["coin"])
    return RunConfig(**data)


def test_runconfig_round_trips_through_json():
    for coin in ("symmetric", (0.5, 0.1, 0.2, 0.3)):
        config = RunConfig(subcommand="moments", channel="coin-dephasing",
                           q=0.25, coin=coin, t=17, naive=True)
        back = config_from_json_dict(json.loads(json.dumps(dataclasses.asdict(config))))
        assert back == config


SUBCOMMANDS = ["walk", "moments", "diffusion", "xcheck"]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_parser_defaults_are_runconfig_defaults(sub):
    assert config_from_args(build_parser(sub).parse_args([])) == RunConfig(subcommand=sub)


# ``--help`` of each subcommand as printed at 80 columns by Python 3.11 when
# every subcommand was a subparser of one root parser; the flat per-subcommand
# parsers must print the same bytes.  The ``moments`` and ``diffusion`` texts
# have since lost their ``--nk`` lines with the flag.
PINNED_HELP = {
    "walk": """\
usage: dqwalk walk [-h] [--channel {coherent,broken-line,coin-dephasing}]
                   [--channel-file PATH] [--p P] [--q Q] [--coin COIN]
                   [--out OUT] [--t T] [--x0 X0] [--moments-out PATH]

options:
  -h, --help            show this help message and exit
  --coin COIN           initial coin: preset name or four comma-separated
                        Pauli coordinates
  --out OUT             output path ('-' or omitted = stdout)
  --t T                 number of steps
  --x0 X0               starting site
  --moments-out PATH    also write the per-step moment table here

channel:
  --channel {coherent,broken-line,coin-dephasing}
  --channel-file PATH   load a channel from JSON instead of --channel
  --p P                 broken-line link-failure probability
  --q Q                 coin-dephasing measurement probability
""",
    "moments": """\
usage: dqwalk moments [-h] [--channel {coherent,broken-line,coin-dephasing}]
                      [--channel-file PATH] [--p P] [--q Q] [--coin COIN]
                      [--out OUT] [--t T] [--naive] [--asymptotic]
                      [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --coin COIN           initial coin: preset name or four comma-separated
                        Pauli coordinates
  --out OUT             output path ('-' or omitted = stdout)
  --t T                 horizon
  --naive               use the literal double sum for the second moment
  --asymptotic          print the long-time first moment instead of a series
  --format {csv,json}

channel:
  --channel {coherent,broken-line,coin-dephasing}
  --channel-file PATH   load a channel from JSON instead of --channel
  --p P                 broken-line link-failure probability
  --q Q                 coin-dephasing measurement probability
""",
    "diffusion": """\
usage: dqwalk diffusion [-h] [--p-min P_MIN] [--p-max P_MAX] [--p-step P_STEP]
                        [--critical] [--with-slope] [--t-lo T_LO]
                        [--t-hi T_HI] [--out OUT]

options:
  -h, --help       show this help message and exit
  --p-min P_MIN
  --p-max P_MAX
  --p-step P_STEP
  --critical       print the p where D = 1/2 and exit
  --with-slope     add a D_slope column from the finite-horizon engine
  --t-lo T_LO
  --t-hi T_HI
  --out OUT
""",
    "xcheck": """\
usage: dqwalk xcheck [-h] [--out OUT]

options:
  -h, --help  show this help message and exit
  --out OUT
""",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout differs between Python versions")
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_is_pinned(sub, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main([sub, "--help"])
    assert err.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == PINNED_HELP[sub] and captured.err == ""


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--channel", "coherent", "walk"]],
                         ids=["none", "unknown", "flag-first"])
def test_no_subcommand_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage line lists every subcommand
    assert captured.err.startswith("usage: dqwalk [-h] {walk,moments,diffusion,xcheck} ...\n")
    assert "\ndqwalk: error: " in captured.err


def test_root_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: dqwalk [-h] {walk,moments,diffusion,xcheck} ...\n")
    for sub, line in [
        ("walk", "run the brute-force density-matrix simulator"),
        ("moments", "run the momentum-space moment engine"),
        ("diffusion", "broken-line diffusion-constant sweep"),
        ("xcheck", "cross-check the independent computation routes"),
    ]:
        assert f"    {sub:<20}{line}\n" in out


def test_parse_coin_forms():
    assert _parse_coin("mixed") == "mixed"
    assert _parse_coin("0.5,0,0,0.5") == (0.5, 0.0, 0.0, 0.5)
    with pytest.raises(Exception):
        _parse_coin("1,2")



# ---------------------------------------------------------------------------
# fuzzed argv
# ---------------------------------------------------------------------------

# Float flag values at and past the edges of every domain.
FUZZ_FLOATS = ["nan", "inf", "-inf", "0", "1", "5e-324", "1e-9", "1.0000001", "0.5",
               "-0.1"]
# The one row a command may write with nan in it: the coherent walk's, which
# has no diffusion constant (with ``--with-slope`` its slope is nan too).
BALLISTIC_ROW = re.compile(r"^[^,\n]*,nan,nan,nan,error: BallisticRegimeError(,nan)?$",
                           re.MULTILINE)


@st.composite
def fuzzed_argv(draw):
    """argv for ``moments`` (series or ``--asymptotic``), ``walk`` or ``diffusion``."""
    value = st.sampled_from(FUZZ_FLOATS)
    coin = st.one_of(st.sampled_from(sorted(COIN_PRESETS)),
                     st.lists(value, min_size=4, max_size=4).map(",".join))
    horizon = st.integers(-2, 10).map(str)

    def maybe(flag, strategy):
        return [flag, draw(strategy)] if draw(st.booleans()) else []

    kind = draw(st.sampled_from(["moments", "asymptotic", "walk", "diffusion"]))
    if kind == "diffusion":
        mode = draw(st.sampled_from([[], ["--critical"], ["--with-slope"]]))
        if mode == ["--critical"]:
            return ["diffusion", *mode]
        argv = ["diffusion", *mode]
        for flag in ("--p-min", "--p-max", "--p-step"):
            argv += maybe(flag, value)
        if mode:
            argv += maybe("--t-lo", horizon) + maybe("--t-hi", horizon)
        return argv
    channel = draw(st.sampled_from(["broken-line", "coin-dephasing", "coherent"]))
    argv = ["moments" if kind == "asymptotic" else kind, "--channel", channel]
    if channel == "broken-line":
        for flag in ("--p", "--theta1", "--theta4"):
            argv += maybe(flag, value)
    elif channel == "coin-dephasing":
        argv += maybe("--q", value)
    argv += maybe("--coin", coin)
    if kind == "asymptotic":
        return argv + ["--asymptotic"]
    return argv + maybe("--t", horizon)


@settings(max_examples=60, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_cleanly_and_prints_no_nan(argv):
    # every input is either answered with finite numbers or refused with a
    # usage (2) or regime (3) exit; a numpy warning fails the suite
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    text = BALLISTIC_ROW.sub("", out.getvalue()).lower()
    assert "nan" not in text and "inf" not in text, (argv, out.getvalue())
    assert code == 0 or out.getvalue() == "", argv


# ---------------------------------------------------------------------------
# fuzzed channel files
# ---------------------------------------------------------------------------

# Amplitudes past what a complete channel can hold: non-finite, overflowing
# on squaring, and an integer with no float.
FUZZ_AMPLITUDES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400,
                   5e-324]
# Values of the wrong JSON type for some field.
FUZZ_WRONG_TYPES = ["1", None, True, [1], {"re": 1}, 1.5, -2.0]
FUZZ_BASES = [channel_to_dict(channel) for channel in (
    build_coherent(HADAMARD),
    build_broken_line(BrokenLineParams(p=0.3, theta1=0.4)),
    random_layered_channel(11, 2, 2),
    random_layered_channel(12, 1, 3),
)]


@st.composite
def fuzzed_channel_doc(draw):
    """A channel file's document: a valid channel, mutated up to three times."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    terms = doc["terms"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["amplitude", "type", "empty", "duplicate", "split",
                                     "translate", "hop", "drop", "label"]))
        index = draw(st.integers(0, max(0, len(terms) - 1)))
        if kind == "empty" or not terms:
            terms.clear()
        elif kind == "amplitude":
            terms[index][draw(st.sampled_from(["re", "im"]))] = draw(
                st.sampled_from(FUZZ_AMPLITUDES))
        elif kind == "type":
            terms[index][draw(st.sampled_from(["n", "l", "i", "j", "re", "im"]))] = draw(
                st.sampled_from(FUZZ_WRONG_TYPES))
        elif kind == "duplicate":
            terms.append(dict(terms[index]))
        elif kind == "split":  # two terms summing to one: the same channel
            half = dict(terms[index])
            for key in ("re", "im"):
                if type(half.get(key)) is float:
                    half[key] /= 2
            terms[index:index + 1] = [half, dict(half)]
        elif kind == "translate":  # every hop moved alike: still complete
            shift = draw(st.integers(-2, 2))
            hops = [term.get("l") for term in terms]
            if all(type(l) is int and abs(l + shift) <= 3 for l in hops):
                for term in terms:
                    term["l"] += shift
        elif kind == "hop":
            terms[index]["l"] = draw(st.integers(-3, 3))
        elif kind == "drop":
            terms[index].pop(draw(st.sampled_from(["n", "l", "i", "j", "re", "im"])), None)
        else:
            doc["label"] = draw(st.sampled_from(FUZZ_WRONG_TYPES))
    return doc


@pytest.fixture(scope="module")
def fuzz_channel_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "channel.json"


@settings(max_examples=60, deadline=None)
@given(doc=fuzzed_channel_doc())
def test_fuzzed_channel_file_exits_cleanly_and_prints_no_nan(doc, fuzz_channel_path):
    # a channel file is either run with finite numbers or refused with a
    # usage (2) or regime (3) exit; a numpy warning fails the suite
    fuzz_channel_path.write_text(json.dumps(doc))
    flags = ["--channel-file", str(fuzz_channel_path)]
    for argv in (["walk", *flags, "--t", "3"], ["moments", *flags, "--t", "3"],
                 ["moments", *flags, "--asymptotic"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, doc, err.getvalue())
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text, (argv, doc, out.getvalue())
        assert code == 0 or out.getvalue() == "", (argv, doc)
