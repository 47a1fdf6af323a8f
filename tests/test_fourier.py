import numpy as np
import pytest

from cyclewalk import (
    WalkConfig,
    build_kraus_family,
    char_poly,
    coin_state,
    hadamard_coin_momentum,
    pauli_compose,
    pauli_decompose,
    superop_closed_form,
    superop_definitional,
)
from cyclewalk.core import PAULIS
from cyclewalk.fourier import all_pair_matrices


def _cfg(n, p):
    return WalkConfig(n_nodes=n, decoherence_rate=p)


def trace_term(matrix, initial, t):
    """tr(L_{k,k'}^t |psi><psi|) by t matrix-vector products: the stepwise
    reference for the per-pair traces.

    The operand must be the Pauli coefficients of a rank-1 projector, whose
    first coefficient is exactly 1/2 (half its unit trace).
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if abs(initial[0] - 0.5) > 1e-10:
        raise ValueError(
            "initial operand must be a projector with first Pauli coefficient 1/2, "
            f"got {initial[0]}"
        )
    v = initial.copy()
    for _ in range(int(t)):
        v = matrix @ v
    return complex(2.0 * v[0])


def _definitional_reference(k, k_prime, n, p):
    """One pair matrix built column by column from the Kraus conjugation, one
    Kraus term at a time: the per-pair construction that the batched
    superop_definitional must reproduce bit for bit."""
    kraus = build_kraus_family(p)
    ck = hadamard_coin_momentum(k, n)
    ckp_dag = hadamard_coin_momentum(k_prime, n).conj().T
    matrix = np.empty((4, 4), dtype=np.complex128)
    for j, sigma in enumerate(PAULIS):
        image = np.zeros((2, 2), dtype=np.complex128)
        for a in kraus:
            image += ck @ a @ sigma @ a.conj().T @ ckp_dag
        matrix[:, j] = pauli_decompose(image)
    return matrix


def _conjugate_once(k, k_prime, n, p, operand):
    """Literal Kraus conjugation on a 2x2 matrix, independent of the Pauli
    representation."""
    kraus = build_kraus_family(p)
    ck = hadamard_coin_momentum(k, n)
    ckp = hadamard_coin_momentum(k_prime, n)
    out = np.zeros((2, 2), dtype=complex)
    for a in kraus:
        out += ck @ a @ operand @ a.conj().T @ ckp.conj().T
    return out


def test_closed_form_matches_definitional_construction():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        gap = np.abs(superop_definitional(k, kp, n, p)
                     - superop_closed_form(k, kp, n, p)).max()
        worst = max(worst, float(gap))
    assert worst <= 1e-12


def test_closed_form_zero_momentum_block():
    # c+ = c- = 1 and s+ = s- = 0 leave the permutation-with-damping skeleton
    p = 0.3
    matrix = superop_closed_form(0, 0, 6, p)
    expect = np.array([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, p - 1, 0],
        [0, 1 - p, 0, 0],
    ], dtype=complex)
    assert np.abs(matrix - expect).max() <= 1e-15


def test_closed_form_full_dephasing_kills_damped_entries():
    m = superop_closed_form(2, 5, 7, 1.0)
    assert m[0, 1] == 0 and m[1, 2] == 0 and m[2, 2] == 0 and m[3, 1] == 0
    assert abs(m[0, 0] - np.cos(2 * np.pi * 3 / 7)) <= 1e-15


def test_matrix_action_matches_kraus_conjugation():
    rng = np.random.default_rng(11)
    matrix = superop_definitional(2, 6, 9, 0.35)
    for _ in range(20):
        operand = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        via_matrix = pauli_compose(matrix @ pauli_decompose(operand))
        direct = _conjugate_once(2, 6, 9, 0.35, operand)
        assert np.abs(via_matrix - direct).max() <= 1e-12


def test_coherent_diagonal_pair_preserves_inner_product():
    rng = np.random.default_rng(12)
    matrix = superop_definitional(3, 3, 7, 0.0)
    for _ in range(20):
        operand = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        image = pauli_compose(matrix @ pauli_decompose(operand))
        assert abs(np.vdot(image, image).real - np.vdot(operand, operand).real) <= 1e-12


def test_diagonal_pair_has_unit_eigenvalue():
    for p in (0.1, 0.5, 0.9):
        eig = np.linalg.eigvals(superop_definitional(0, 0, 5, p))
        assert np.abs(eig - 1.0).min() <= 1e-9


def test_antipodal_pair_has_minus_one_eigenvalue():
    eig = np.linalg.eigvals(superop_definitional(0, 2, 4, 0.3))
    assert np.abs(eig + 1.0).min() <= 1e-9


def test_frobenius_contraction_and_norm_identity():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 17))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        matrix = superop_definitional(k, kp, n, p)
        operand = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        image = pauli_compose(matrix @ pauli_decompose(operand))
        before = np.vdot(operand, operand).real
        after = np.vdot(image, image).real
        assert after <= before + 1e-12
        expected = ((1 - p) ** 2 * before
                    + (2 * p - p * p) * (abs(operand[0, 0]) ** 2 + abs(operand[1, 1]) ** 2))
        assert abs(after - expected) <= 1e-12


def test_contraction_is_strict_once_rate_is_positive():
    operand = np.array([[0.2, 0.9], [-0.4j, 0.1]], dtype=complex)
    before = np.vdot(operand, operand).real
    for p, strict in ((0.0, False), (0.4, True)):
        matrix = superop_definitional(1, 4, 6, p)
        image = pauli_compose(matrix @ pauli_decompose(operand))
        after = np.vdot(image, image).real
        if strict:
            assert after < before - 1e-6
        else:
            assert abs(after - before) <= 1e-12


def test_trace_term_is_one_at_t_zero():
    b = pauli_decompose(np.outer(coin_state("up"), coin_state("up").conj()))
    op = superop_definitional(1, 3, 7, 0.5)
    assert abs(trace_term(op, b, 0) - 1.0) <= 1e-15


def test_trace_term_diagonal_pairs_preserve_trace():
    balanced = coin_state("balanced")
    b = pauli_decompose(np.outer(balanced, balanced.conj()))
    for p in (0.0, 0.3, 1.0):
        op = superop_definitional(2, 2, 6, p)
        for t in (1, 10, 100, 500):
            assert abs(trace_term(op, b, t) - 1.0) <= 1e-10


def test_trace_term_matches_literal_channel_iteration():
    # same quantity computed without the Pauli representation
    up = coin_state("up")
    b = pauli_decompose(np.outer(up, up.conj()))
    for k, kp in ((0, 0), (1, 3), (4, 2)):
        op = superop_definitional(k, kp, 5, 0.45)
        operand = np.outer(up, up.conj())
        for t in range(25):
            expected = np.trace(operand)
            assert abs(trace_term(op, b, t) - expected) <= 1e-12
            operand = _conjugate_once(k, kp, 5, 0.45, operand)


def test_trace_term_generic_pairs_decay():
    # spectral radius 0.9687 at N=7, p=0.5: |T(t)| reaches 1e-8 near t=600
    b = pauli_decompose(np.outer(coin_state("up"), coin_state("up").conj()))
    worst = 0.0
    for k in range(7):
        for kp in range(7):
            if k == kp:
                continue
            op = superop_definitional(k, kp, 7, 0.5)
            worst = max(worst, abs(trace_term(op, b, 600)))
    assert worst < 1e-8


def test_trace_term_rejects_non_projector_operand():
    op = superop_definitional(1, 2, 5, 0.5)
    with pytest.raises(ValueError):
        trace_term(op, np.array([1.0, 0, 0, 0], dtype=complex), 3)
    with pytest.raises(ValueError):
        trace_term(op, pauli_decompose(np.outer(coin_state("up"), coin_state("up").conj())), -1)


def test_index_validation():
    with pytest.raises(ValueError):
        superop_definitional(5, 0, 5, 0.5)
    with pytest.raises(ValueError):
        superop_closed_form(0, -1, 5, 0.5)
    with pytest.raises(ValueError):
        superop_definitional(np.arange(5), np.arange(1, 6), 5, 0.5)
    with pytest.raises(ValueError):
        superop_closed_form(np.array([0, -1]), 0, 5, 0.5)


def _mixed_pairs():
    """Arrays k, k', N, p pairing each N in {2, 3, 8, 9, 31} with each of six
    rates from 0 to 1, at random momenta; N is a float array so that one
    entry can be set to a non-integer."""
    n = np.repeat([2.0, 3.0, 8.0, 9.0, 31.0], 6)
    p = np.tile([0.0, 0.1, 0.37, 0.5, 0.9, 1.0], 5)
    rng = np.random.default_rng(14)
    return rng.integers(n), rng.integers(n), n, p


def test_pair_math_broadcasts_over_mixed_cycle_lengths_and_rates():
    k, kp, n, p = _mixed_pairs()
    for build in (superop_definitional, superop_closed_form, char_poly):
        stack = build(k, kp, n, p)
        assert stack.shape[0] == len(n)
        for q in range(len(n)):
            single = build(int(k[q]), int(kp[q]), int(n[q]), float(p[q]))
            assert np.array_equal(stack[q], single), (build.__name__, q)
    kraus = build_kraus_family(p)
    assert kraus.shape == (len(p), 3, 2, 2)
    for q in range(len(p)):
        assert np.array_equal(kraus[q], build_kraus_family(float(p[q])))
    assert np.array_equal(build_kraus_family(p.reshape(5, 6)), kraus.reshape(5, 6, 3, 2, 2))


@pytest.mark.parametrize("field, bad, message", [
    ("n", 1, "n_nodes"), ("n", 2.5, "n_nodes"), ("p", 1.5, "rate"),
    ("p", np.nan, "rate"), ("k", None, "momentum"), ("k'", None, "momentum"),
    ("k", 0.5, "momentum")])
def test_pair_math_rejects_one_bad_element(field, bad, message):
    for build in (superop_definitional, superop_closed_form, char_poly):
        k, kp, n, p = _mixed_pairs()
        # entry 7 has N = 3; k = k' = 0 there leaves only the planted fault
        k[7] = kp[7] = 0
        if field == "n":
            n[7] = bad
        elif field == "p":
            p[7] = bad
        elif bad is None:
            (k if field == "k" else kp)[7] = n[7]
        else:
            # a non-integer momentum, so the k array is cast to float
            k = k.astype(float)
            k[7] = bad
        build(np.delete(k, 7), np.delete(kp, 7), np.delete(n, 7), np.delete(p, 7))
        with pytest.raises(ValueError, match=message):
            build(k, kp, n, p)


def test_all_pair_matrices_layout():
    cfg = _cfg(4, 0.3)
    matrices, d_index = all_pair_matrices(cfg)
    assert matrices.shape == (16, 4, 4)
    for k in range(4):
        for kp in range(4):
            q = k * 4 + kp
            assert np.abs(matrices[q] - superop_definitional(k, kp, 4, 0.3)).max() <= 1e-15
            assert d_index[q] == (k - kp) % 4


def test_all_pair_matrices_equal_closed_form_exactly():
    for n in (2, 5, 8, 13):
        for p in (0.0, 0.2, 0.37, 0.5, 1.0):
            matrices, _ = all_pair_matrices(_cfg(n, p))
            for k in range(n):
                for kp in range(n):
                    assert np.array_equal(matrices[k * n + kp],
                                          superop_closed_form(k, kp, n, p))


def test_all_pair_matrices_diagonal_pairs_keep_trace_row_exactly():
    # row 0 of a diagonal pair is e0^T exactly, so its trace is exactly 1 at every t
    for n in (5, 8, 9):
        for p in (0.2, 0.5):
            matrices, _ = all_pair_matrices(_cfg(n, p))
            for k in range(n):
                assert np.array_equal(matrices[k * n + k, 0], [1.0, 0.0, 0.0, 0.0])


RATES = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)


def test_batched_definitional_build_is_bit_identical_to_the_kraus_loop():
    for n in range(2, 17):
        k, kp = np.divmod(np.arange(n * n), n)
        for p in RATES:
            stack = superop_definitional(k, kp, n, p)
            assert stack.shape == (n * n, 4, 4)
            for q in range(n * n):
                assert np.array_equal(stack[q], _definitional_reference(*divmod(q, n), n, p))


def test_batched_builders_broadcast_index_arrays():
    k = np.arange(7)[:, None]
    kp = np.arange(7)[None, :]
    for build in (superop_definitional, superop_closed_form):
        grid = build(k, kp, 7, 0.3)
        assert grid.shape == (7, 7, 4, 4)
        assert np.array_equal(grid.reshape(49, 4, 4),
                              build(*np.divmod(np.arange(49), 7), 7, 0.3))
        assert np.array_equal(build(k, 3, 7, 0.3)[:, 0], grid[:, 3])
        # scalar k with array k', an array of N and a column of rates
        kps, n, rates = np.array([0, 3, 6, 15]), np.array([7, 8, 9, 16]), np.array([[0.0], [0.45]])
        mixed = build(2, kps, n, rates)
        assert mixed.shape == (2, 4, 4, 4)
        for i, p in enumerate(rates[:, 0]):
            for j, (kp_j, n_j) in enumerate(zip(kps, n)):
                single = build(2, int(kp_j), int(n_j), float(p))
                assert np.array_equal(np.ascontiguousarray(mixed[i, j]).view(np.uint64),
                                      np.ascontiguousarray(single).view(np.uint64))


def test_batched_closed_form_is_bit_identical_to_all_pair_matrices():
    for n in range(2, 17):
        k, kp = np.divmod(np.arange(n * n), n)
        for p in RATES:
            assert np.array_equal(superop_closed_form(k, kp, n, p),
                                  all_pair_matrices(_cfg(n, p))[0])
