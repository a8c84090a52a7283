import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqwalk.errors import UnnormalizedCoinError
from dqwalk.pauli import (
    COIN_PRESETS,
    PAULI,
    coin_state,
    from_pauli,
    to_pauli,
    validate_coin_state,
)

RNG = np.random.default_rng(20240817)


def sandwich_superop(lefts, rights):
    """Test-only reference: the Pauli matrix of O -> sum_n L_n @ O @ R_n^dag.

    ``lefts`` and ``rights`` have shape (n, ..., 2, 2) with a shared leading
    Kraus axis; any extra batch axes (e.g. a momentum grid) are carried
    through to the output, which has shape (..., 4, 4).  Column j holds the
    Pauli coordinates of sum_n L_n sigma_j R_n^dag.  The moment engine
    builds its maps from ``channels.coin_pair_maps`` instead; this is the
    independent, node-by-node route the tests play it against.
    """
    lefts = np.asarray(lefts, dtype=complex)
    rights = np.asarray(rights, dtype=complex)
    return 0.5 * np.einsum(
        "iab,m...bc,jcd,m...ad->...ij", PAULI, lefts, PAULI, rights.conj(),
        optimize=True,
    )


def random_op():
    return RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))


def test_basis_is_orthogonal():
    for i in range(4):
        for j in range(4):
            assert np.isclose(np.trace(PAULI[i] @ PAULI[j]), 2.0 * (i == j))


def test_to_pauli_known_values():
    assert np.allclose(to_pauli(np.eye(2)), [1, 0, 0, 0])
    assert np.allclose(to_pauli(np.diag([1.0, 0.0])), [0.5, 0, 0, 0.5])
    assert np.allclose(to_pauli(np.array([[0, -1j], [1j, 0]])), [0, 0, 1, 0])


def test_round_trip_batch():
    ops = RNG.normal(size=(7, 2, 2)) + 1j * RNG.normal(size=(7, 2, 2))
    vecs = to_pauli(ops)
    assert vecs.shape == (7, 4)
    assert np.allclose(from_pauli(vecs), ops, atol=1e-14)


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
def test_round_trip_any_vector(coeffs):
    vec = np.array(coeffs)
    assert np.allclose(to_pauli(from_pauli(vec)), vec, atol=1e-9 * (1 + abs(vec).max()))


def test_trace():
    # Tr(O) = 2 r_0, because sigma_1..3 are traceless
    op = random_op()
    assert np.isclose(2 * to_pauli(op)[0], np.trace(op))


def test_left_right_multiplication():
    a = random_op()
    op = random_op()
    vec = to_pauli(op)
    ident = PAULI[0]
    left = sandwich_superop(a[None], ident[None])
    # the right factor enters as R^dag, so O -> O @ A needs R = A^dag
    right = sandwich_superop(ident[None], a.conj().T[None])
    assert np.allclose(from_pauli(left @ vec), a @ op)
    assert np.allclose(from_pauli(right @ vec), op @ a)


def test_sandwich_matches_direct_conjugation():
    kraus = [random_op() for _ in range(3)]
    mat = sandwich_superop(np.stack(kraus), np.stack(kraus))
    op = random_op()
    expected = sum(e @ op @ e.conj().T for e in kraus)
    assert np.allclose(from_pauli(mat @ to_pauli(op)), expected, atol=1e-12)


def test_sandwich_batch_axis():
    lefts = RNG.normal(size=(2, 5, 2, 2)) + 1j * RNG.normal(size=(2, 5, 2, 2))
    batched = sandwich_superop(lefts, lefts)
    assert batched.shape == (5, 4, 4)
    single = sandwich_superop(lefts[:, 3], lefts[:, 3])
    assert np.allclose(batched[3], single)


@pytest.mark.parametrize("name", sorted(COIN_PRESETS))
def test_presets_are_valid_densities(name):
    vec = coin_state(name)
    assert vec[0] == 0.5
    rho = from_pauli(vec)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_symmetric_preset_value():
    # (|R> + i|L>)/sqrt(2) has Bloch vector along +y.
    assert np.allclose(coin_state("symmetric"), [0.5, 0.0, 0.5, 0.0])
    amp = np.array([1.0, 1j]) / np.sqrt(2)
    assert np.allclose(coin_state(amp), [0.5, 0.0, 0.5, 0.0])


def test_coin_state_accepts_matrix():
    assert np.allclose(coin_state(np.eye(2) / 2), [0.5, 0, 0, 0])


@pytest.mark.parametrize(
    "bad",
    [
        "north",
        np.array([0.6, 0.7]),  # not normalized
        np.array([0.4, 0.0, 0.0, 0.0]),  # trace != 1
        np.array([0.5, 0.1j, 0.0, 0.0]),  # complex coordinate
        np.array([0.5, 0.6, 0.0, 0.0]),  # outside the Bloch ball
        np.array([[0.5, 1.0], [0.0, 0.5]]),  # not Hermitian
        np.zeros(3),
        np.array([np.nan, 0.0, 0.0, 0.5]),  # NaN trace
        np.array([0.5, np.nan, 0.0, 0.0]),  # NaN Bloch coordinate
        np.array([0.5, 0.0, 0.0, complex(0.0, np.nan)]),  # NaN imaginary part
        np.array([np.nan, 1.0]),  # NaN amplitude
        np.array([[0.5, np.nan], [np.nan, 0.5]]),  # NaN density matrix
    ],
)
def test_invalid_coins_rejected(bad):
    with pytest.raises(UnnormalizedCoinError):
        coin_state(bad)


def test_amplitude_norm_message_prints_a_plain_float():
    with pytest.raises(UnnormalizedCoinError) as err:
        coin_state(np.array([0.6, 0.6]))
    assert str(err.value) == "amplitude norm is 0.848528137423857, expected 1"


def test_validate_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(UnnormalizedCoinError, match="must be a 4-vector"):
        validate_coin_state(np.zeros(3))


def test_validate_returns_real_array():
    out = validate_coin_state(np.array([0.5 + 0j, 0.1, 0.2, 0.3]))
    assert out.dtype.kind == "f"
