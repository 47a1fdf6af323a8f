import dataclasses

import numpy as np
import pytest

from cyclewalk import (
    NumericalCheckError,
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
from cyclewalk.fourier import all_pair_matrices
from cyclewalk import spectral
from cyclewalk.spectral import (
    CLASS_ANTIPODAL,
    CLASS_DIAGONAL,
    CLASS_GENERIC,
    classify_pair,
    spectral_structure,
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


def _random_pairs(count, seed, max_nodes=24):
    """(k, k', N, p) of random pairs at random sizes and rates."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        yield k, kp, n, p


def _cosines(k, kp, n):
    """c+ = cos 2 pi (k' + k)/N and c- = cos 2 pi (k' - k)/N."""
    return np.cos(2 * np.pi * (kp + k) / n), np.cos(2 * np.pi * (kp - k) / n)


def _definitional_spectra(n, p):
    """SpectrumReport of the whole definitional stack at N = n and rate p."""
    return eigenvalues(superop_definitional(*np.divmod(np.arange(n * n), n), n, p))


def _has_plus_minus_one(spectra):
    """Per pair, whether the one +-1 rule of :mod:`cyclewalk.spectral` finds
    +1 and whether it finds -1 among its eigenvalues."""
    plus, minus, _ = spectral._unit_flags(spectra.eigenvalues)
    return plus.any(axis=1), minus.any(axis=1)


def test_char_poly_matches_determinant_samples():
    for pair in _random_pairs(80, seed=20):
        coeffs = char_poly(*pair)
        matrix = superop_definitional(*pair)
        for lam in (-2.0, -1.0, 0.0, 1.0, 2.0):
            det = np.linalg.det(lam * np.eye(4) - matrix)
            assert abs(det - np.polyval(coeffs, lam)) <= 1e-10


def test_char_poly_constant_term_is_squared_survival():
    for k, kp, n, p in _random_pairs(30, seed=21):
        assert abs(char_poly(k, kp, n, p)[4] - (1.0 - p) ** 2) <= 1e-12


def test_char_poly_full_dephasing_collapses():
    coeffs = char_poly(1, 2, 5, 1.0)
    _, c_minus = _cosines(1, 2, 5)
    assert np.allclose(coeffs, [1.0, -c_minus, 0.0, 0.0, 0.0], atol=1e-14)
    roots = np.roots(coeffs)
    assert multiset_match_distance(roots, [c_minus, 0, 0, 0]) <= 1e-10


def test_char_poly_diagonal_pairs_have_root_at_one():
    for n, k, p in ((5, 2, 0.3), (8, 0, 0.7), (11, 10, 0.05)):
        assert abs(np.polyval(char_poly(k, k, n, p), 1.0)) <= 1e-12


def test_char_poly_antipodal_pairs_have_simple_root_at_minus_one():
    for n, k, p in ((6, 1, 0.4), (8, 3, 0.25), (4, 0, 0.8)):
        coeffs = char_poly(k, (k + n // 2) % n, n, p)
        assert abs(np.polyval(coeffs, -1.0)) <= 1e-12
        assert abs(np.polyval(np.polyder(coeffs), -1.0) - ((1 - p) ** 2 - 1.0)) <= 1e-12


def test_char_poly_broadcasts_over_index_arrays():
    k, kp = np.divmod(np.arange(81), 9)
    stack = char_poly(k, kp, 9, 0.35)
    assert stack.shape == (81, 5)
    for q in range(81):
        assert np.array_equal(stack[q], char_poly(*divmod(q, 9), 9, 0.35))
    assert char_poly(np.arange(9)[:, None], np.arange(9), 9, 0.35).shape == (9, 9, 5)
    with pytest.raises(ValueError):
        char_poly(k, kp + 1, 9, 0.35)


def test_boundary_value_factorizations():
    # f(1) = (1 - c-)(1 + 2 q c+ + q^2), f(-1) = (1 + c-)(1 - 2 q c+ + q^2)
    for k, kp, n, p in _random_pairs(60, seed=22):
        q = 1.0 - p
        c_plus, c_minus = _cosines(k, kp, n)
        coeffs = char_poly(k, kp, n, p)
        plus = (1.0 - c_minus) * (1.0 + 2.0 * q * c_plus + q * q)
        minus = (1.0 + c_minus) * (1.0 - 2.0 * q * c_plus + q * q)
        assert abs(np.polyval(coeffs, 1.0) - plus) <= 1e-12
        assert abs(np.polyval(coeffs, -1.0) - minus) <= 1e-12


def test_eigenvalue_report_diagonal_pair():
    spectra, q = _definitional_spectra(7, 0.5), 3 * 7 + 3
    has_plus, has_minus = _has_plus_minus_one(spectra)
    assert spectra.classification[q] == CLASS_DIAGONAL
    assert has_plus[q]
    assert not has_minus[q]
    assert np.abs(spectra.eigenvalues[q] - 1.0).min() <= 1e-9


def test_eigenvalue_report_antipodal_pair():
    spectra, q = _definitional_spectra(6, 0.5), 1 * 6 + 4
    assert spectra.classification[q] == CLASS_ANTIPODAL
    assert _has_plus_minus_one(spectra)[1][q]
    eig = spectra.eigenvalues[q]
    others = eig[np.abs(eig + 1.0) > 1e-9]
    assert np.all(np.abs(others) < 1.0)


def test_eigenvalues_reject_a_stack_outside_the_pair_layout():
    matrices, _ = all_pair_matrices(_cfg(4, 0.5))
    with pytest.raises(ValueError):
        eigenvalues(matrices[:-1])
    with pytest.raises(ValueError):
        eigenvalues(matrices[:, :3])


def test_odd_cycle_off_diagonal_pairs_contract_strictly():
    spectra = _definitional_spectra(7, 0.3)
    off_diagonal = np.arange(49) % 8 != 0  # diagonal pairs k = k' sit at rows k*N + k
    assert np.all(spectra.classification[off_diagonal] == CLASS_GENERIC)
    assert np.all(spectra.spectral_radius[off_diagonal] < 1.0)


def test_roots_agree_with_eigenvalues_as_multisets():
    for k, kp, n, p in _random_pairs(60, seed=23):
        roots = np.roots(char_poly(k, kp, n, p))
        eig = _definitional_spectra(n, p).eigenvalues[k * n + kp]
        assert multiset_match_distance(roots, eig) <= 1e-8


def test_classification_sweep_small_cycles():
    for n in range(3, 9):
        for p in (0.1, 0.5):
            spectra = _definitional_spectra(n, p)
            assert spectra.spectral_radius.shape == (n * n,)
            assert np.all(spectra.spectral_radius <= 1.0 + 1e-10)
            expected = [classify_pair(*divmod(q, n), n) for q in range(n * n)]
            assert spectra.classification.tolist() == expected
            has_plus, has_minus = _has_plus_minus_one(spectra)
            assert np.array_equal(has_plus, np.equal(expected, CLASS_DIAGONAL))
            assert np.array_equal(has_minus, np.equal(expected, CLASS_ANTIPODAL))
            assert spectral_structure(spectra, p)["persistent_eigenvalue_placement_ok"]


def test_spectral_structure_rejects_stray_unit_moduli_and_double_minus_one(monkeypatch):
    n, p = 6, 0.5
    spectra = eigenvalues(all_pair_matrices(_cfg(n, p))[0])
    record = spectral_structure(spectra, p)
    assert record["persistent_eigenvalue_placement_ok"] is True
    assert [record[f"count_{c}"] for c in ("diagonal", "antipodal", "generic")] == [6, 6, 24]
    eig = spectra.eigenvalues.copy()
    # pair (0, 1) is generic; (1 - 5e-10) e^(5e-9 i) has unit modulus but is
    # 5e-9 from +1, so the one +-1 rule counts it as neither +1 nor -1
    for value in (1j, (1 - 5e-10) * np.exp(5e-9j)):
        eig[1, 0] = value
        stray = dataclasses.replace(spectra, eigenvalues=eig)
        assert spectral_structure(stray, p)["persistent_eigenvalue_placement_ok"] is False
    # x^2 (x + 1)^2 has f'(-1) = 0, so each -1 of an antipodal pair is double
    monkeypatch.setattr(spectral, "char_poly",
                        lambda *args: np.tile([1.0, 2.0, 1.0, 0.0, 0.0], (n * n, 1)))
    assert spectral_structure(spectra, p)["persistent_eigenvalue_placement_ok"] is False
    # placement is only ruled on for 0 < p < 1
    for rate in (0.0, 1.0):
        record = spectral_structure(stray, rate)
        assert record["persistent_eigenvalue_placement_checked"] is False
        assert record["persistent_eigenvalue_placement_ok"] is True


def test_unit_modulus_eigenvalues_are_real_pm_one():
    # every pair of each drawn (N, p), not only the drawn pair
    for _, _, n, p in _random_pairs(120, seed=24, max_nodes=32):
        spectra = _definitional_spectra(n, p)
        assert spectra.spectral_radius.max() <= 1.0 + 1e-10
        if not 0.0 < p < 1.0:
            continue
        eig = spectra.eigenvalues
        near_unit = eig[np.abs(np.abs(eig) - 1.0) < 1e-9]
        assert np.all(np.minimum(np.abs(near_unit - 1.0), np.abs(near_unit + 1.0)) <= 1e-8)


def test_spectral_gap_full_dephasing_three_cycle():
    # p=1 collapses each quartic to {c-, 0, 0, 0}; max |c-| over k != k' is 1/2
    gap = spectral_gap(_cfg(3, 1.0))
    assert isinstance(gap, float)
    assert abs(gap - 0.5) <= 1e-12


def test_spectral_gap_degenerate_at_zero_rate(monkeypatch):
    # no decay at p = 0: the gap is 0.0 and no eigensolve runs
    monkeypatch.setattr("cyclewalk.spectral.eigenvalues", None)
    assert spectral_gap(_cfg(5, 0.0)) == 0.0


def test_spectral_gap_without_generic_pairs():
    # N = 2 has only diagonal and antipodal pairs: the masked max is empty
    assert spectral_gap(_cfg(2, 0.5)) == 1.0


def test_classify_pair_broadcasts_over_index_arrays():
    k, kp = np.divmod(np.arange(64), 8)
    classes = classify_pair(k, kp, 8)
    assert classes.shape == (64,)
    for q in range(64):
        single = classify_pair(*divmod(q, 8), 8)
        assert isinstance(single, str)
        assert classes[q] == single
    assert classify_pair(0, 4, 8) == CLASS_ANTIPODAL
    assert classify_pair(0, 4, 9) == CLASS_GENERIC
    assert classify_pair(np.arange(5)[:, None], np.arange(5), 5).shape == (5, 5)


@pytest.mark.parametrize("k, k_prime", [(0.5, 3), (0, 7), (-1, 2)])
def test_classify_pair_rejects_momenta_outside_the_cycle(k, k_prime):
    with pytest.raises(ValueError, match="momentum indices"):
        classify_pair(k, k_prime, 6)


def test_spectral_gap_construction_independent():
    cfg = _cfg(9, 0.2)
    gap = spectral_gap(cfg)
    definitional_radius = max(
        np.abs(np.linalg.eigvals(superop_definitional(k, kp, 9, 0.2))).max()
        for k in range(9) for kp in range(9) if classify_pair(k, kp, 9) == CLASS_GENERIC)
    assert gap > 0.0
    assert abs(gap - (1.0 - definitional_radius)) <= 1e-10


#: U = diag(1, i, -i, -i): U L U^-1 is real for every pair matrix L.
_REALIFY = np.array([1.0, 1j, -1j, -1j])


def test_eigenvalue_reports_match_per_pair_eigensolves_exactly():
    # one batched eigensolve gives each pair the eigenvalues a real solve of
    # that pair's realification U L U^-1 alone gives, put in canonical order
    for n, p in ((2, 0.5), (6, 0.3), (7, 0.0), (8, 1.0)):
        cfg = _cfg(n, p)
        spectra = eigenvalues(all_pair_matrices(cfg)[0])
        has_plus, has_minus = _has_plus_minus_one(spectra)
        assert spectra.eigenvalues.shape == (n * n, 4)
        for k in range(n):
            for kp in range(n):
                q = k * n + kp
                realified = superop_closed_form(k, kp, n, p) * (_REALIFY[:, None] / _REALIFY)
                assert not realified.imag.any()
                single = np.linalg.eigvals(realified.real).astype(complex)
                single = single[np.argsort(single.round(9), kind="stable")]
                assert np.array_equal(spectra.eigenvalues[q], single)
                assert spectra.spectral_radius[q] == np.abs(single).max()
                assert has_plus[q] == (np.abs(single - 1.0).min() < 1e-9)
                assert has_minus[q] == (np.abs(single + 1.0).min() < 1e-9)
                assert spectra.classification[q] == classify_pair(k, kp, n)


_SOLVER_FAILED = r"^eigensolver failed on the pair stack \(N={n}\)"


def test_eigenvalues_reject_a_stack_that_is_not_real_under_u():
    matrices = all_pair_matrices(_cfg(5, 0.3))[0]
    matrices[7, 1, 2] += 1e-9j   # residue 1e-9: within SYMMETRY_DEFECT_LIMIT
    eigenvalues(matrices)
    matrices[7, 1, 2] += 0.999e-6j
    with pytest.raises(NumericalCheckError, match=r"^pair stack \(N=5\) is not real under U: "
                                                  r"imaginary residue 1\.000e-06"):
        eigenvalues(matrices)
    matrices[7, 1, 2] = np.nan
    with pytest.raises(NumericalCheckError, match=_SOLVER_FAILED.format(n=5)):
        eigenvalues(matrices)


def test_eigenvalues_are_solved_in_chunks_alike(monkeypatch):
    # a large stack is realified and solved chunk by chunk; a pair's
    # eigenvalues do not depend on the chunk it falls in
    matrices = all_pair_matrices(_cfg(9, 0.37))[0]
    whole = eigenvalues(matrices).eigenvalues
    monkeypatch.setattr(spectral, "_REALIFY_CHUNK", 10)
    assert np.array_equal(eigenvalues(matrices).eigenvalues, whole)
    matrices[75, 0, 0] = np.nan
    with pytest.raises(NumericalCheckError, match=_SOLVER_FAILED.format(n=9)):
        eigenvalues(matrices)


def _definitional_stack(n, p):
    """All N^2 pair matrices of the definitional Kraus construction in one
    einsum: L[k, k', i, j] = tr(sigma_i^dag C_k (sum_n A_n sigma_j A_n^dag)
    C_k'^dag) / 2, pair (k, k') at row k*N + k'."""
    coins = np.stack([hadamard_coin_momentum(k, n) for k in range(n)])
    kraus = build_kraus_family(p)
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
    assert np.abs(_definitional_stack(5, 0.37)
                  - superop_definitional(*np.divmod(np.arange(25), 5), 5, 0.37)).max() <= 1e-15
    for n in range(2, 17):
        for p in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            tol = 1e-7 if p == 0.5 else 1e-12
            closed = eigenvalues(all_pair_matrices(_cfg(n, p))[0]).eigenvalues
            einsum = eigenvalues(_definitional_stack(n, p)).eigenvalues
            assert np.abs(closed - einsum).max() <= tol
            keys = np.round(closed, 9)
            order = np.lexsort((keys.imag, keys.real), axis=1)
            assert np.array_equal(order, np.broadcast_to(np.arange(4), order.shape))


def test_multiset_match_distance_basics():
    assert multiset_match_distance([1, 2], [2, 1]) == 0.0
    assert multiset_match_distance([0.0], [3.0]) == 3.0
    with pytest.raises(ValueError):
        multiset_match_distance([1.0], [1.0, 2.0])
