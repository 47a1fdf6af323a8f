import re

import numpy as np
import pytest

from cyclewalk import (
    WalkConfig,
    _kernels,
    build_kraus_family,
    classical_reference,
    cli,
    coin_state,
    fourier_trajectory,
    hadamard_coin_momentum,
    mixing_time_averaged,
    pauli_compose,
    pauli_decompose,
    superop_closed_form,
    time_averaged,
    uniform_deviation_bound,
    verify_geometric_sum,
)
from cyclewalk.analysis import default_horizon
from cyclewalk.evolution import direct_trajectory
from cyclewalk.fourier import all_pair_matrices
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


_CFG = WalkConfig(n_nodes=5, decoherence_rate=0.3)


def _cli(*argv):
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


#: public entry -> (call with the one input under test, that input's name in
#: the message, its minimum, a non-integer value; None where the CLI parser
#: already refuses one)
_COUNTED_INPUTS = {
    "direct_trajectory": (lambda t: list(direct_trajectory(_CFG, t)), "t", 0, 2.5),
    "fourier_trajectory": (lambda t: fourier_trajectory(_CFG, t), "t_max", 0, 2.5),
    "classical_reference-t": (lambda t: classical_reference(5, t), "t", 0, 2.5),
    "classical_reference-N": (lambda n: classical_reference(n, 3), "n_nodes", 2, 2.5),
    "time_averaged": (lambda tau: time_averaged(_CFG, tau), "tau", 1, 2.5),
    "trace_cells": (lambda stride: mixing_time_averaged(_CFG, 0.05, 10).trace_cells(stride),
                    "stride", 1, 1.5),
    "scan_horizon": (lambda horizon: mixing_time_averaged(_CFG, 0.05, horizon),
                     "horizon", 1, 2.5),
    "uniform_deviation_bound-tau": (lambda tau: uniform_deviation_bound(tau, 5, 0.5),
                                    "tau", 1, 2.5),
    "uniform_deviation_bound-N": (lambda n: uniform_deviation_bound(1, n, 0.5),
                                  "n_nodes", 2, 2.5),
    "verify_geometric_sum": (lambda tau: verify_geometric_sum(
        superop_closed_form(0, 1, 5, 0.3), tau), "tau", 1, 2.5),
    "default_horizon": (lambda n: default_horizon(n, 0.1), "n_nodes", 2, 2.5),
    "averaged_snapshots": (lambda tau: _kernels.averaged_snapshots(
        all_pair_matrices(_CFG)[0], np.array([0.5, 0, 0, 0.5]), [tau]), "taus", 1, 2.5),
    "cli-steps": (lambda steps: _cli("simulate", "--nodes", "5", "--decoherence", "0.3",
                                     "--steps", str(steps)), "steps", 0, None),
    "cli-trace-stride": (lambda stride: _cli(
        "mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05",
        "--trace-stride", str(stride)), "trace-stride", 1, None),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (*_, non_integer) in _COUNTED_INPUTS.items()
    for case in ("below-minimum", "non-integer") if case == "below-minimum" or non_integer])
def test_every_entry_rejects_a_bad_count_or_cycle_length(entry, case):
    call, name, minimum, non_integer = _COUNTED_INPUTS[entry]
    if case == "non-integer":
        value, message = non_integer, f"{name} must be an integer, got"
    else:
        value, message = minimum - 1, f"{name} must be >= {minimum}, got"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(value)
