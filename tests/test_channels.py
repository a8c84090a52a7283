"""Channel construction, validation and (de)serialization tests."""

import json

import numpy as np
import pytest

from dqwalk import brokenline, channels
from dqwalk.channels import (
    HADAMARD,
    BrokenLineParams,
    KrausTerm,
    WalkChannel,
    build_broken_line,
    build_coherent,
    build_coin_channel,
    channel_from_dict,
    channel_to_dict,
    completeness_residual,
    dephasing_channel,
    is_coin_channel,
    load_channel,
    save_channel,
    validate_completeness,
)
from dqwalk.errors import (
    CompletenessError,
    DomainError,
    InvalidCoinKrausError,
    NonUnitaryCoinError,
    PhaseConstraintError,
    ResourceLimitError,
)
from test_moments import random_layered_channel, reference_coin_matrices

SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# coherent walk
# ---------------------------------------------------------------------------


def test_coherent_hadamard_structure():
    ch = build_coherent(HADAMARD)
    assert ch.num_kraus == 1
    assert ch.max_hop == 1
    # E = S (I (x) H): the R row of H moves right, the L row moves left.
    amps = {(t.l, t.i, t.j): t.amp for t in ch.terms}
    assert np.isclose(amps[(1, "R", "R")], 1 / SQ2)
    assert np.isclose(amps[(1, "R", "L")], 1 / SQ2)
    assert np.isclose(amps[(-1, "L", "R")], 1 / SQ2)
    assert np.isclose(amps[(-1, "L", "L")], -1 / SQ2)
    validate_completeness(ch)


def test_coherent_rejects_nonunitary():
    with pytest.raises(NonUnitaryCoinError):
        build_coherent(np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(NonUnitaryCoinError):
        build_coherent(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonUnitaryCoinError, match="coin must be 2x2"):
        build_coherent(np.eye(3))


def test_coherent_coin_matrix_and_derivative():
    ch = build_coherent(HADAMARD)
    k = 0.7
    c = reference_coin_matrices(ch, k)[0]
    phase = np.diag([np.exp(-1j * k), np.exp(1j * k)])
    assert np.allclose(c, phase @ HADAMARD)
    # derivative picks up -i l per term
    d = reference_coin_matrices(ch, k, derivative=True)[0]
    h = 1e-6
    fd = (reference_coin_matrices(ch, k + h) - reference_coin_matrices(ch, k - h)) / (2 * h)
    assert np.allclose(d, fd[0], atol=1e-8)


def test_coin_matrix_vectorized_over_k():
    ch = brokenline.default_channel(0.35)
    ks = np.linspace(-np.pi, np.pi, 9)
    stacked = reference_coin_matrices(ch, ks)[2]
    assert stacked.shape == (9, 2, 2)
    assert np.allclose(stacked[4], reference_coin_matrices(ch, ks[4])[2])


# ---------------------------------------------------------------------------
# broken-line channel
# ---------------------------------------------------------------------------


def test_broken_line_kraus_count_and_hops():
    ch = brokenline.default_channel(0.3)
    assert ch.num_kraus == 4
    assert ch.max_hop == 1
    assert sorted(ch.kraus_indices) == [0, 1, 2, 3]


def test_broken_line_term_list():
    # p = 0.3, theta1 = 0.4: h = 1/sqrt(2), w = sqrt(p (1 - p)), and the
    # default theta2 = pi negates the reflected row h[1] of operator 1
    h, w, e1 = 1 / SQ2, np.sqrt(0.21), np.exp(0.4j)
    want = [
        (0, +1, "R", "R", 0.7 * h), (0, +1, "R", "L", 0.7 * h),
        (0, -1, "L", "R", 0.7 * e1 * h), (0, -1, "L", "L", -0.7 * e1 * h),
        (1, +1, "R", "R", w * h), (1, +1, "R", "L", w * h),
        (1, 0, "R", "R", -w * h), (1, 0, "R", "L", w * h),
        (2, 0, "L", "R", w * h), (2, 0, "L", "L", w * h),
        (2, -1, "L", "R", w * h), (2, -1, "L", "L", -w * h),
        (3, 0, "R", "R", 0.3 * h), (3, 0, "R", "L", -0.3 * h),
        (3, 0, "L", "R", 0.3 * h), (3, 0, "L", "L", 0.3 * h),
    ]
    ch = build_broken_line(BrokenLineParams(p=0.3, theta1=0.4))
    assert [(t.n, t.l, t.i, t.j) for t in ch.terms] == [row[:4] for row in want]
    assert np.allclose([t.amp for t in ch.terms], [row[4] for row in want],
                       rtol=0, atol=1e-15)


def test_broken_line_p_zero_is_coherent():
    ch = brokenline.default_channel(0.0)
    coh = build_coherent(HADAMARD)
    assert ch.num_kraus == 1
    got = {(t.l, t.i, t.j): t.amp for t in ch.terms}
    want = {(t.l, t.i, t.j): t.amp for t in coh.terms}
    assert got.keys() == want.keys()
    for key in want:
        assert np.isclose(got[key], want[key])


def test_broken_line_p_one_keeps_walker_in_place():
    ch = brokenline.default_channel(1.0)
    assert all(t.l == 0 for t in ch.terms)
    assert ch.max_hop == 0
    validate_completeness(ch)


def test_broken_line_both_links_broken_operator():
    # With both neighbouring links broken the walker stays put and the
    # coin matrix is p * [[1, -1], [1, 1]] / sqrt(2) at every k
    # (theta4 = 0 puts the phase on the lower row; H rows swap).
    p = 0.45
    ch = brokenline.default_channel(p)
    for k in (0.0, 1.3, -2.0):
        c = reference_coin_matrices(ch, k)[3]
        assert np.allclose(c, p / SQ2 * np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_broken_line_surviving_link_operator_at_k0():
    # The (1-p)-weighted operator is the coherent Hadamard step.
    c = reference_coin_matrices(brokenline.default_channel(0.3), 0.0)[0]
    assert np.allclose(c, 0.7 / SQ2 * np.array([[1.0, 1.0], [1.0, -1.0]]))


def test_stationary_operator_has_zero_derivative():
    # every term of the both-broken operator has hop l = 0
    d = reference_coin_matrices(brokenline.default_channel(0.45), 0.9, derivative=True)[3]
    assert np.allclose(d, 0.0)


def test_broken_line_completeness_over_grid():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        _, residual = completeness_residual(brokenline.default_channel(p))
        assert residual <= 1e-12


def test_broken_line_phase_constraint():
    # theta2 - theta3 = pi is required; anything else must fail loudly.
    ok = BrokenLineParams(p=0.4, theta2=1.0, theta3=1.0 - np.pi)
    validate_completeness(build_broken_line(ok))
    with pytest.raises(PhaseConstraintError) as err:
        build_broken_line(BrokenLineParams(p=0.4, theta2=0.0, theta3=0.0))
    assert err.value.residual > 1e-3
    with pytest.raises(PhaseConstraintError):
        build_broken_line(BrokenLineParams(p=0.4, theta2=np.pi + 1e-4))


def test_broken_line_free_phases_preserve_completeness():
    params = BrokenLineParams(p=0.6, theta1=0.8, theta2=2.0, theta3=2.0 - np.pi, theta4=-1.1)
    validate_completeness(build_broken_line(params=params))


def test_broken_line_domain():
    with pytest.raises(DomainError):
        brokenline.default_channel(-0.1)
    with pytest.raises(DomainError):
        brokenline.default_channel(1.1)


# ---------------------------------------------------------------------------
# coin-only channels
# ---------------------------------------------------------------------------


def test_dephasing_channel_shape():
    ch = dephasing_channel(0.5)
    assert is_coin_channel(ch)
    assert ch.num_kraus == 3
    validate_completeness(ch)


def test_dephasing_extremes():
    assert dephasing_channel(0.0).num_kraus == 1
    full = dephasing_channel(1.0)
    assert full.num_kraus == 2
    validate_completeness(full)


def test_dephasing_domain():
    with pytest.raises(DomainError):
        dephasing_channel(-0.2)
    with pytest.raises(DomainError):
        dephasing_channel(1.2)


def test_coin_channel_weight_validation():
    ident = np.eye(2)
    with pytest.raises(InvalidCoinKrausError) as err:
        build_coin_channel(HADAMARD, [(0.6, ident), (0.6, ident)])
    assert str(err.value) == "coin Kraus weights sum to 1.2, expected 1"
    with pytest.raises(InvalidCoinKrausError):
        build_coin_channel(HADAMARD, [(-0.5, ident), (1.5, ident)])
    # weights fine but sum_n p_n D_n^dag D_n != I
    with pytest.raises(InvalidCoinKrausError):
        build_coin_channel(HADAMARD, [(0.5, ident), (0.5, np.diag([2.0, 0.0]))])
    with pytest.raises(InvalidCoinKrausError):
        build_coin_channel(HADAMARD, [(np.nan, ident), (1.0, ident)])
    with pytest.raises(InvalidCoinKrausError):
        build_coin_channel(HADAMARD, [(0.5, ident), (0.5, np.diag([np.nan, 1.0]))])
    with pytest.raises(InvalidCoinKrausError):
        build_coin_channel(HADAMARD, [(1.0, np.eye(3))])


def test_certificate_size_counts_the_coin_blocks(monkeypatch):
    # 30 Kraus operators on 2 hops: 60 coin blocks against 20 phase entries
    scale = 30 ** -0.5
    channel = WalkChannel("thirty-copies", tuple(
        KrausTerm(n, t.l, t.i, t.j, t.amp * scale)
        for n in range(30) for t in build_coherent(HADAMARD).terms
    ))
    validate_completeness(channel)
    monkeypatch.setattr(channels, "_MAX_CERTIFICATE_ENTRIES", 59)
    with pytest.raises(ResourceLimitError, match="certificate size 60 exceeds the limit of 59"):
        validate_completeness(channel)


def test_random_coin_channels_are_complete():
    rng = np.random.default_rng(7)
    for _ in range(20):
        # random unitary D_n via QR keeps sum p_n D^dag D = I automatically
        weights = rng.dirichlet(np.ones(3))
        mats = []
        for _ in range(3):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            mats.append(q * (np.diagonal(r) / abs(np.diagonal(r))))
        ch = build_coin_channel(HADAMARD, list(zip(weights, mats)))
        _, residual = completeness_residual(ch)
        assert residual <= 1e-10
        assert is_coin_channel(ch)


def test_is_coin_channel_false_for_broken_line():
    assert not is_coin_channel(brokenline.default_channel(0.3))
    assert is_coin_channel(build_coherent(HADAMARD))


# ---------------------------------------------------------------------------
# completeness residual as a certificate
# ---------------------------------------------------------------------------


LOSSY = WalkChannel(
    label="lossy",
    terms=(KrausTerm(0, 1, "R", "R", 0.9), KrausTerm(0, -1, "L", "L", 0.9)),
)


def sampled_completeness_residual(channel):
    """Test-only reference: the certificate sampled one Kraus operator at a time.

    Sums C_n(k)^dag C_n(k) from ``reference_coin_matrices`` on the
    4*max_hop + 1 equispaced momenta; ``completeness_residual`` must agree.
    """
    n_k = 4 * channel.max_hop + 1
    ks = -np.pi + 2.0 * np.pi * np.arange(n_k) / n_k
    total = sum(
        np.einsum("...ba,...bc->...ac", c.conj(), c)
        for c in reference_coin_matrices(channel, ks)
    )
    dev = np.max(np.abs(total - np.eye(2)), axis=(-2, -1))
    worst = int(np.argmax(dev))
    return float(ks[worst]), float(dev[worst])


def unchecked_broken_line(p, **phases):
    """The broken-line channel without the phase and completeness checks."""
    params = BrokenLineParams(p=p, **phases)
    return channels._from_rows("unchecked", channels._broken_line_rows(params))


@pytest.mark.parametrize(
    "channel",
    [
        brokenline.default_channel(0.0),
        brokenline.default_channel(0.3),
        brokenline.default_channel(1.0),
        unchecked_broken_line(0.4, theta2=1.0),
        build_coherent(HADAMARD),
        dephasing_channel(0.4),
        random_layered_channel(2003, 3, layers=2),
        random_layered_channel(11, 2, layers=3),
        LOSSY,
        WalkChannel(
            "nan", (KrausTerm(0, 0, "R", "R", 1.0), KrausTerm(0, 0, "L", "L", np.nan))
        ),
    ],
    ids=["broken-line-p0", "broken-line-p0.3", "broken-line-p1", "phase-violating",
         "coherent", "dephasing", "layers2", "layers3", "lossy", "nan-amplitude"],
)
def test_certificate_matches_sampled_reference(channel):
    worst_k, residual = completeness_residual(channel)
    ref_k, ref_residual = sampled_completeness_residual(channel)
    if np.isnan(ref_residual):
        assert np.isnan(residual)
        return
    assert abs(residual - ref_residual) <= 1e-14
    if ref_residual > 1e-12:
        # below that the worst node is a rounding-level tie
        assert worst_k == ref_k


def test_completeness_flags_lossy_channel():
    worst_k, residual = completeness_residual(LOSSY)
    assert residual > 0.1
    assert -np.pi <= worst_k < np.pi
    with pytest.raises(CompletenessError) as err:
        validate_completeness(LOSSY)
    assert err.value.residual == pytest.approx(residual)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_bit_exact(tmp_path):
    ch = brokenline.default_channel(0.37)
    path = tmp_path / "bl.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert back.label == ch.label
    assert len(back.terms) == len(ch.terms)
    for a, b in zip(back.terms, ch.terms):
        assert a.n == b.n and a.l == b.l and a.i == b.i and a.j == b.j
        assert a.amp == b.amp  # floats stored exactly as re/im pairs


def test_dict_schema_rejections():
    good = channel_to_dict(build_coherent(HADAMARD))
    for mutate in (
        lambda d: d.pop("terms"),
        lambda d: d["terms"][0].pop("l"),
        lambda d: d["terms"][0].__setitem__("i", "X"),
        lambda d: d["terms"][0].__setitem__("l", "one"),
        lambda d: d.__setitem__("terms", []),
        lambda d: d.__setitem__("label", 3),
        # ill-typed fields: a fractional or boolean index or hop, a
        # non-list term list, a non-object term, non-number amplitudes and
        # non-string coin labels
        lambda d: d["terms"][0].__setitem__("l", 1.5),
        lambda d: d["terms"][0].__setitem__("l", True),
        lambda d: d["terms"][0].__setitem__("n", True),
        lambda d: d["terms"][0].__setitem__("n", 0.5),
        lambda d: d.__setitem__("terms", 5),
        lambda d: d.__setitem__("terms", None),
        lambda d: d.__setitem__("terms", {"0": d["terms"][0]}),
        lambda d: d["terms"].__setitem__(0, 3),
        lambda d: d["terms"][0].__setitem__("re", True),
        lambda d: d["terms"][0].__setitem__("re", "0.5"),
        lambda d: d["terms"][0].__setitem__("im", None),
        lambda d: d["terms"][0].__setitem__("i", ["R"]),
        lambda d: d["terms"][0].__setitem__("j", {"R": 1}),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(ValueError):
            channel_from_dict(bad)


def test_dict_schema_accepts_integral_floats():
    # JSON has one number type: 1.0 is the integer 1, as json.dumps(1.0) reads
    data = channel_to_dict(build_coherent(HADAMARD))
    for raw in data["terms"]:
        raw["n"], raw["l"] = float(raw["n"]), float(raw["l"])
    back = channel_from_dict(data)
    assert back.terms == build_coherent(HADAMARD).terms
    assert all(type(t.n) is int and type(t.l) is int for t in back.terms)


def test_load_rejects_incomplete_channel(tmp_path):
    lossy = WalkChannel(
        label="lossy", terms=(KrausTerm(0, 0, "R", "R", 1.0), KrausTerm(0, 0, "L", "L", 0.5))
    )
    path = tmp_path / "lossy.json"
    save_channel(lossy, path)
    with pytest.raises(CompletenessError):
        load_channel(path)
    # a NaN amplitude is stored as the bare JSON literal NaN and must not load
    nan_amp = WalkChannel(
        label="nan", terms=(KrausTerm(0, 0, "R", "R", 1.0), KrausTerm(0, 0, "L", "L", np.nan))
    )
    save_channel(nan_amp, path)
    assert "NaN" in path.read_text()
    with pytest.raises(CompletenessError):
        load_channel(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_channel(path)


def test_zero_weight_kraus_operators_are_pruned():
    # builders drop all-zero operators and renumber the rest from 0
    ch = build_coin_channel(HADAMARD, [(0.0, np.eye(2)), (1.0, np.eye(2))])
    assert ch.kraus_indices == (0,)
    assert ch.max_hop == 1
