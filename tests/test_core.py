import numpy as np
import pytest

from cyclewalk import (
    WalkConfig,
    build_kraus_family,
    coin_state,
    hadamard_coin_momentum,
    pauli_compose,
    pauli_decompose,
)
from cyclewalk.core import SIGMA_0, SIGMA_X, SIGMA_Y


def _unitality_defect(ops):
    """Max entrywise deviation of sum_n A_n^dag A_n from the identity."""
    return float(np.abs(np.einsum("nji,njk->ik", ops.conj(), ops) - SIGMA_0).max())


def _unitarity_defect(coin):
    return float(np.abs(coin.conj().T @ coin - SIGMA_0).max())


def test_kraus_family_identity_at_zero_rate():
    ops = build_kraus_family(0.0)
    assert ops.shape == (3, 2, 2)
    assert np.allclose(ops[0], SIGMA_0, atol=1e-15)
    assert np.abs(ops[1]).max() == 0.0
    assert np.abs(ops[2]).max() == 0.0


def test_kraus_family_full_dephasing_at_rate_one():
    ops = build_kraus_family(1.0)
    assert np.abs(ops[0]).max() == 0.0
    assert np.allclose(ops[1], np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(ops[2], np.diag([0.0, 1.0]), atol=1e-15)


def test_kraus_family_unital_at_midpoint():
    assert _unitality_defect(build_kraus_family(0.5)) <= 1e-14


def test_kraus_family_unital_across_rates():
    rng = np.random.default_rng(0)
    for p in rng.uniform(0, 1, size=50):
        assert _unitality_defect(build_kraus_family(float(p))) <= 1e-14


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_kraus_family_rejects_rate_outside_unit_interval(p):
    with pytest.raises(ValueError):
        build_kraus_family(p)


def test_momentum_coin_k0_is_plain_hadamard():
    coin = hadamard_coin_momentum(0, 5)
    expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(coin, expect, atol=1e-15)


def test_momentum_coin_half_turn_flips_phases():
    coin = hadamard_coin_momentum(3, 6)
    expect = np.array([[-1, -1], [-1, 1]]) / np.sqrt(2)
    assert np.allclose(coin, expect, atol=1e-13)


def test_momentum_coin_quarter_turn():
    coin = hadamard_coin_momentum(1, 4)
    assert np.allclose(coin[0], np.array([-1j, -1j]) / np.sqrt(2), atol=1e-13)
    assert _unitarity_defect(coin) <= 1e-13


def test_momentum_coin_unitary_for_all_momenta():
    for n in range(2, 65):
        stack = hadamard_coin_momentum(np.arange(n), n)
        assert stack.shape == (n, 2, 2)
        for k in range(n):
            assert np.array_equal(stack[k], hadamard_coin_momentum(k, n))
            assert _unitarity_defect(stack[k]) <= 1e-13


@pytest.mark.parametrize("k,n", [(-1, 4), (4, 4), (7, 5), (np.array([0, 5]), 5)])
def test_momentum_coin_rejects_out_of_range_momentum(k, n):
    with pytest.raises(ValueError):
        hadamard_coin_momentum(k, n)


def test_pauli_roundtrip_on_random_matrices():
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
    coeffs = pauli_decompose(stack)
    assert coeffs.shape == (100, 4)
    assert np.abs(pauli_compose(coeffs) - stack).max() <= 1e-13
    for m, row in zip(stack, coeffs):
        assert np.array_equal(pauli_decompose(m), row)
        assert np.abs(pauli_compose(pauli_decompose(m)) - m).max() <= 1e-13
    grid = stack.reshape(5, 20, 2, 2)
    assert np.array_equal(pauli_decompose(grid), coeffs.reshape(5, 20, 4))


def test_pauli_roundtrip_on_random_coefficients():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    matrices = pauli_compose(stack)
    assert matrices.shape == (50, 2, 2)
    assert np.abs(pauli_decompose(matrices) - stack).max() <= 1e-14
    for coeffs, m in zip(stack, matrices):
        assert np.array_equal(pauli_compose(coeffs), m)
        assert np.abs(pauli_decompose(pauli_compose(coeffs)) - coeffs).max() <= 1e-14
    with pytest.raises(ValueError):
        pauli_decompose(np.zeros((2, 3)))


def test_pauli_launch_projector_coefficients():
    up = coin_state("up")
    assert np.allclose(pauli_decompose(np.outer(up, up.conj())), [0.5, 0.0, 0.0, 0.5],
                       atol=1e-15)


def test_pauli_basis_elements_decompose_to_unit_vectors():
    assert np.allclose(pauli_decompose(SIGMA_0), [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(pauli_decompose(SIGMA_X), [0, 1, 0, 0], atol=1e-15)


def test_pauli_trace_functional_matches_matrix_trace():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(2.0 * pauli_decompose(m)[0] - np.trace(m)) <= 1e-13


def test_pauli_hermitian_operators_have_real_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = m + m.conj().T
        coeffs = pauli_decompose(herm)
        assert np.abs(coeffs.imag).max() <= 1e-12


def test_pauli_y_coefficient_sign():
    # sigma_y itself must decompose to the third unit vector, not its negative
    assert np.allclose(pauli_decompose(SIGMA_Y), [0, 0, 1, 0], atol=1e-15)


def test_walk_config_validates_inputs():
    with pytest.raises(ValueError):
        WalkConfig(n_nodes=1, decoherence_rate=0.5)
    with pytest.raises(ValueError):
        WalkConfig(n_nodes=5, decoherence_rate=-0.01)
    with pytest.raises(ValueError):
        WalkConfig(n_nodes=5, decoherence_rate=1.01)
    with pytest.raises(ValueError):
        WalkConfig(n_nodes=5, decoherence_rate=0.5, initial_coin=np.array([1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            WalkConfig(n_nodes=5, decoherence_rate=0.5, initial_coin=np.array([bad, 0.0]))


def test_coin_state_names_and_vectors():
    assert np.allclose(coin_state("up"), [1.0, 0.0])
    assert np.allclose(coin_state("down"), [0.0, 1.0])
    assert np.allclose(coin_state("balanced"), np.array([1j, 1.0]) / np.sqrt(2))
    with pytest.raises(ValueError):
        coin_state("sideways")
    with pytest.raises(ValueError):
        coin_state([1.0, 0.0, 0.0])
