import dataclasses

import numpy as np
import pytest

from cyclewalk import (
    WalkConfig,
    build_kraus_family,
    char_poly,
    eigenvalues,
    hadamard_coin_momentum,
    spectral_gap,
    superop_closed_form,
    superop_definitional,
)
from cyclewalk.core import PAULIS
from cyclewalk.spectral import (
    CLASS_ANTIPODAL,
    CLASS_DIAGONAL,
    CLASS_GENERIC,
    Quartic,
    classify_pair,
    pair_spectra,
)


def _cfg(n, p):
    return WalkConfig(n_nodes=n, decoherence_rate=p)


def multiset_match_distance(a, b) -> float:
    """Largest pairwise distance under a greedy minimal-distance matching of
    two equal-size complex multisets.  Used to compare eigenvalue sets with
    quartic root sets without relying on ordering."""
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    worst = 0.0
    while a:
        dist = np.array([[abs(x - y) for y in b] for x in a])
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        a.pop(int(i))
        b.pop(int(j))
    return worst


def _random_ops(count, seed, max_nodes=24):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        yield superop_definitional(k, kp, _cfg(n, p))


def test_char_poly_matches_determinant_samples():
    for op in _random_ops(80, seed=20):
        poly = char_poly(op)
        for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
            det = np.linalg.det(lam * np.eye(4) - op.matrix)
            assert abs(det - poly(lam)) <= 1e-10


def test_char_poly_constant_term_is_squared_survival():
    for op in _random_ops(30, seed=21):
        assert abs(char_poly(op).coefficients[4] - (1.0 - op.rate) ** 2) <= 1e-12


def test_char_poly_full_dephasing_collapses():
    op = superop_definitional(1, 2, _cfg(5, 1.0))
    poly = char_poly(op)
    assert np.allclose(poly.coefficients, [1.0, -op.c_minus, 0.0, 0.0, 0.0], atol=1e-14)
    roots = np.roots(poly.coefficients)
    assert multiset_match_distance(roots, [op.c_minus, 0, 0, 0]) <= 1e-10


def test_char_poly_diagonal_pairs_have_root_at_one():
    for n, k, p in ((5, 2, 0.3), (8, 0, 0.7), (11, 10, 0.05)):
        poly = char_poly(superop_definitional(k, k, _cfg(n, p)))
        assert abs(poly(1.0)) <= 1e-12


def test_char_poly_antipodal_pairs_have_simple_root_at_minus_one():
    for n, k, p in ((6, 1, 0.4), (8, 3, 0.25), (4, 0, 0.8)):
        op = superop_definitional(k, (k + n // 2) % n, _cfg(n, p))
        poly = char_poly(op)
        assert abs(poly(-1.0)) <= 1e-12
        assert abs(poly.derivative(-1.0) - ((1 - p) ** 2 - 1.0)) <= 1e-12


def test_boundary_value_factorizations():
    # f(1) = (1 - c-)(1 + 2 q c+ + q^2), f(-1) = (1 + c-)(1 - 2 q c+ + q^2)
    for op in _random_ops(60, seed=22):
        q = 1.0 - op.rate
        poly = char_poly(op)
        plus = (1.0 - op.c_minus) * (1.0 + 2.0 * q * op.c_plus + q * q)
        minus = (1.0 + op.c_minus) * (1.0 - 2.0 * q * op.c_plus + q * q)
        assert abs(poly(1.0) - plus) <= 1e-12
        assert abs(poly(-1.0) - minus) <= 1e-12


def test_eigenvalue_report_diagonal_pair():
    report = eigenvalues(superop_definitional(3, 3, _cfg(7, 0.5)))
    assert report.classification == CLASS_DIAGONAL
    assert report.has_unit_eigenvalue
    assert not report.has_minus_one
    assert np.abs(report.eigenvalues - 1.0).min() <= 1e-9


def test_eigenvalue_report_antipodal_pair():
    report = eigenvalues(superop_definitional(1, 4, _cfg(6, 0.5)))
    assert report.classification == CLASS_ANTIPODAL
    assert report.has_minus_one
    others = report.eigenvalues[np.abs(report.eigenvalues + 1.0) > 1e-9]
    assert np.all(np.abs(others) < 1.0)


def test_odd_cycle_off_diagonal_pairs_contract_strictly():
    cfg = _cfg(7, 0.3)
    for k in range(7):
        for kp in range(7):
            if k == kp:
                continue
            report = eigenvalues(superop_definitional(k, kp, cfg))
            assert report.classification == CLASS_GENERIC
            assert report.spectral_radius < 1.0


def test_roots_agree_with_eigenvalues_as_multisets():
    for op in _random_ops(60, seed=23):
        roots = np.roots(char_poly(op).coefficients)
        eig = eigenvalues(op).eigenvalues
        assert multiset_match_distance(roots, eig) <= 1e-8


def test_classification_sweep_small_cycles():
    for n in range(3, 9):
        for p in (0.1, 0.5):
            cfg = _cfg(n, p)
            for k in range(n):
                for kp in range(n):
                    report = eigenvalues(superop_definitional(k, kp, cfg))
                    assert report.spectral_radius <= 1.0 + 1e-10
                    expected = classify_pair(k, kp, n)
                    assert report.classification == expected
                    assert report.has_unit_eigenvalue == (expected == CLASS_DIAGONAL)
                    assert report.has_minus_one == (expected == CLASS_ANTIPODAL)


def test_unit_modulus_eigenvalues_are_real_pm_one():
    for op in _random_ops(120, seed=24, max_nodes=32):
        report = eigenvalues(op)
        assert report.spectral_radius <= 1.0 + 1e-10
        if not 0.0 < op.rate < 1.0:
            continue
        eig = report.eigenvalues
        near_unit = eig[np.abs(np.abs(eig) - 1.0) < 1e-9]
        for lam in near_unit:
            assert min(abs(lam - 1.0), abs(lam + 1.0)) <= 1e-8


def test_spectral_gap_full_dephasing_three_cycle():
    # p=1 collapses each quartic to {c-, 0, 0, 0}; max |c-| over k != k' is 1/2
    gap = spectral_gap(_cfg(3, 1.0))
    assert isinstance(gap, float)
    assert abs(gap - 0.5) <= 1e-12


def test_spectral_gap_degenerate_at_zero_rate(monkeypatch):
    # no decay at p = 0: the gap is 0.0 and no eigensolve runs
    monkeypatch.setattr("cyclewalk.spectral.pair_spectra", None)
    assert spectral_gap(_cfg(5, 0.0)) == 0.0


def test_spectral_gap_construction_independent():
    cfg = _cfg(9, 0.2)
    gap = spectral_gap(cfg)
    definitional_radius = max(
        np.abs(np.linalg.eigvals(superop_definitional(k, kp, cfg).matrix)).max()
        for k in range(9) for kp in range(9) if classify_pair(k, kp, 9) == CLASS_GENERIC)
    assert gap > 0.0
    assert abs(gap - (1.0 - definitional_radius)) <= 1e-10


def test_pair_spectra_match_per_pair_reports_exactly():
    for n, p in ((2, 0.5), (6, 0.3), (7, 0.0), (8, 1.0)):
        cfg = _cfg(n, p)
        reports = pair_spectra(cfg)
        assert len(reports) == n * n
        for k in range(n):
            for kp in range(n):
                batched = reports[k * n + kp]
                single = eigenvalues(superop_closed_form(k, kp, cfg))
                assert np.array_equal(batched.eigenvalues, single.eigenvalues)
                assert batched.spectral_radius == single.spectral_radius
                assert batched.has_unit_eigenvalue == single.has_unit_eigenvalue
                assert batched.has_minus_one == single.has_minus_one
                assert batched.classification == single.classification


def _definitional_stack(cfg):
    """All N^2 pair matrices of the definitional Kraus construction in one
    einsum: L[k, k', i, j] = tr(sigma_i^dag C_k (sum_n A_n sigma_j A_n^dag)
    C_k'^dag) / 2, pair (k, k') at row k*N + k'."""
    n = cfg.n_nodes
    coins = np.stack([hadamard_coin_momentum(k, n) for k in range(n)])
    kraus = build_kraus_family(cfg.decoherence_rate)
    paulis = np.stack(PAULIS)
    dephased = np.einsum("nab,jbc,ndc->jad", kraus, paulis, kraus.conj())
    stack = 0.5 * np.einsum("iax,kab,jbc,lxc->klij",
                            paulis.conj(), coins, dephased, coins.conj())
    return stack.reshape(n * n, 4, 4)


def test_eigenvalue_rows_agree_between_constructions():
    # the closed-form and definitional stacks differ by ~1e-17 residues,
    # which can flip the eigensolver's output order; the canonical order (by
    # real part, then imaginary part) makes equal spectra equal rows.
    # Defective pairs at p = 0.5 split their double eigenvalue by ~1e-8.
    cfg = _cfg(5, 0.37)
    for q, matrix in enumerate(_definitional_stack(cfg)):
        assert np.abs(matrix - superop_definitional(*divmod(q, 5), cfg).matrix).max() <= 1e-15
    for n in range(2, 17):
        for p in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            cfg = _cfg(n, p)
            tol = 1e-7 if p == 0.5 else 1e-12
            template = superop_closed_form(0, 0, cfg)
            batched = np.array([r.eigenvalues for r in pair_spectra(cfg)])
            single = np.array([
                eigenvalues(dataclasses.replace(template, k=q // n, k_prime=q % n,
                                                matrix=matrix)).eigenvalues
                for q, matrix in enumerate(_definitional_stack(cfg))])
            assert np.abs(batched - single).max() <= tol
            keys = np.round(batched, 9)
            order = np.lexsort((keys.imag, keys.real), axis=1)
            assert np.array_equal(order, np.broadcast_to(np.arange(4), order.shape))


def test_quartic_requires_monic_coefficients():
    with pytest.raises(ValueError):
        Quartic(coefficients=np.array([2.0, 0, 0, 0, 1.0]))
    with pytest.raises(ValueError):
        Quartic(coefficients=np.array([1.0, 0, 0, 0]))


def test_multiset_match_distance_basics():
    assert multiset_match_distance([1, 2], [2, 1]) == 0.0
    assert multiset_match_distance([0.0], [3.0]) == 3.0
    with pytest.raises(ValueError):
        multiset_match_distance([1.0], [1.0, 2.0])
