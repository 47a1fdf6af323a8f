import numpy as np
import pytest

from cyclewalk import _kernels, evolution
from cyclewalk import (
    NumericalCheckError,
    WalkConfig,
    classical_reference,
    coin_state,
    fourier_trajectory,
    position_marginal,
)
from cyclewalk.core import _HADAMARD, build_kraus_family, pauli_decompose
from cyclewalk.evolution import (
    PositionDistribution,
    _check_density,
    _momentum_path,
    direct_trajectory,
)
from cyclewalk.fourier import all_pair_matrices


def _cfg(n, p, coin="up"):
    return WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))


def _direct(config, t):
    """Density operator after t steps of the oracle path."""
    *_, rho = direct_trajectory(config, t)
    return rho


def test_walk_unitary_is_unitary():
    for n in (2, 3, 8):
        u = _walk_unitary(n)
        assert np.abs(u.conj().T @ u - np.eye(2 * n)).max() <= 1e-13


def test_launch_state():
    rho = _direct(_cfg(6, 0.5), 0)
    probs = position_marginal(rho).probs
    assert probs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(probs[1:]).max() <= 1e-14


def test_single_coherent_step_splits_evenly():
    probs = position_marginal(_direct(_cfg(5, 0.0), 1)).probs
    assert probs[1] == pytest.approx(0.5, abs=1e-13)
    assert probs[4] == pytest.approx(0.5, abs=1e-13)
    assert abs(probs[0]) + abs(probs[2]) + abs(probs[3]) <= 1e-13


def test_three_coherent_steps_frozen_distribution():
    # hand-enumerated amplitudes: 5/8 one step forward, 1/8 on x=3,-1,-3
    expect = np.array([0, 5 / 8, 0, 1 / 8, 0, 1 / 8, 0, 1 / 8])
    cfg = _cfg(8, 0.0)
    assert np.abs(position_marginal(_direct(cfg, 3)).probs - expect).max() <= 1e-12
    assert np.abs(fourier_trajectory(cfg, 3)[3] - expect).max() <= 1e-12


def test_full_dephasing_equals_classical_chain():
    for coin in ("up", "down", "balanced"):
        cfg = _cfg(5, 1.0, coin)
        for t, rho in enumerate(direct_trajectory(cfg, 30)):
            gap = np.abs(position_marginal(rho).probs - classical_reference(5, t).probs)
            assert gap.max() <= 1e-12


def test_density_invariants_hold_along_trajectory():
    cfg = _cfg(6, 0.3, "balanced")
    for (rho,) in evolution._density_stack([cfg], 40):
        assert rho.shape == (12, 12)
        _check_density(rho)  # hermitian, unit trace, PSD


def test_position_marginal_of_maximally_mixed_state():
    n = 7
    rho = np.eye(2 * n, dtype=complex) / (2 * n)
    assert np.abs(position_marginal(rho).probs - 1.0 / n).max() <= 1e-14


def test_marginal_near_uniform_after_decoherent_evolution():
    *_, (rho,) = evolution._density_stack([_cfg(7, 0.5)], 100)
    probs = position_marginal(rho).probs
    assert np.abs(probs - 1.0 / 7).max() <= 5e-3


def test_fourier_initial_distribution_is_delta():
    probs = fourier_trajectory(_cfg(9, 0.7, "balanced"), 0)[0]
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(probs[1:]).max() <= 1e-12


def test_even_cycle_parity_support():
    # mass lives only on nodes whose parity matches t; at t=51 on 6 nodes the
    # supporting values are already close to 2/N
    traj = fourier_trajectory(_cfg(6, 0.4), 51)
    dist = traj[51]
    assert np.abs(dist[0::2]).max() <= 1e-12
    assert np.abs(dist[1::2] - 1.0 / 3.0).max() <= 2e-3
    for t in (10, 25, 40):
        off = traj[t][(t + 1) % 2::2]
        assert np.abs(off).max() <= 1e-12


def test_momentum_path_matches_density_path():
    worst = 0.0
    for n in (3, 5, 6):
        for p in (0.0, 0.5, 1.0):
            for coin in ("up", "balanced"):
                cfg = _cfg(n, p, coin)
                fourier = fourier_trajectory(cfg, 60)
                for t, (rho,) in enumerate(evolution._density_stack([cfg], 60)):
                    direct = position_marginal(rho).probs
                    worst = max(worst, float(np.abs(fourier[t] - direct).max()))
    assert worst <= 1e-10


def test_classical_reference_small_cases():
    assert np.allclose(classical_reference(4, 0).probs, [1, 0, 0, 0])
    assert np.allclose(classical_reference(5, 1).probs, [0, 0.5, 0, 0, 0.5])
    assert np.allclose(classical_reference(4, 2).probs, [0.5, 0, 0.5, 0])


def test_classical_reference_validates_arguments():
    with pytest.raises(ValueError):
        classical_reference(4, -1)
    with pytest.raises(ValueError):
        classical_reference(1, 3)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        _direct(_cfg(4, 0.5), -1)
    with pytest.raises(ValueError):
        fourier_trajectory(_cfg(4, 0.5), -2)


@pytest.mark.parametrize("pair", [(1, 3), (3, 1)], ids=["not-evolved", "evolved"])
@pytest.mark.parametrize("kind", ["real", "imaginary", "nan"])
def test_symmetry_guard_catches_one_perturbed_pair(monkeypatch, pair, kind):
    # (1, 3) has difference 3 > N//2 and is only read by the symmetry check;
    # (3, 1) has difference 2 and is evolved
    n = 5
    cfg = _cfg(n, 0.3, "balanced")
    assert _momentum_path(cfg, _kernels.distribution_trajectory, 3).shape == (4, n)
    shift = {"real": 1e-6, "imaginary": 1e-6j, "nan": np.nan}[kind]

    def perturbed(config):
        matrices, d_index = all_pair_matrices(config)
        k, k_prime = pair
        matrices[k * n + k_prime, 1, 2] += shift
        return matrices, d_index

    monkeypatch.setattr(evolution, "all_pair_matrices", perturbed)
    defect = "nan" if kind == "nan" else r"1\.000e-06"
    with pytest.raises(NumericalCheckError, match=rf"^pair symmetry defect {defect} "):
        _momentum_path(cfg, _kernels.distribution_trajectory, 3)


def test_symmetry_guard_catches_an_imaginary_initial_vector(monkeypatch):
    # every pair starts from this v0, so v0 - conj v0 of the conjugate pair
    # is twice its imaginary part; a NaN there is the second of the
    # defect's three terms
    for imag, defect in ((1e-6, r"2\.000e-06"), (np.nan, "nan")):
        monkeypatch.setattr(evolution, "pauli_decompose",
                            lambda m: pauli_decompose(m) + [0, complex(0.0, imag), 0, 0])
        with pytest.raises(NumericalCheckError, match=rf"^pair symmetry defect {defect} "):
            _momentum_path(_cfg(5, 0.3), _kernels.distribution_trajectory, 3)


def _shift(n):
    """S |x>|j> = |x + j mod N>|j> on the 2N-dimensional state space."""
    shift = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for x in range(n):
        shift[2 * ((x + 1) % n), 2 * x] = 1.0          # coin |1> steps forward
        shift[2 * ((x - 1) % n) + 1, 2 * x + 1] = 1.0  # coin |-1> steps backward
    return shift


def _walk_unitary(n):
    """One coherent step U = S (I tensor H) on the 2N-dimensional state space."""
    return _shift(n) @ np.kron(np.eye(n), _HADAMARD)


def _unitary_kraus_step(rho, config):
    """One step in the dense form rho -> U (sum_n A_n rho A_n^dag) U^dag."""
    n = config.n_nodes
    unitary = _walk_unitary(n)
    mixed = sum(np.kron(np.eye(n), a) @ rho @ np.kron(np.eye(n), a).conj().T
                for a in build_kraus_family(config.decoherence_rate))
    return unitary @ mixed @ unitary.conj().T


@pytest.mark.parametrize("n, p, coin", [(2, 0.0, "up"), (5, 0.37, "balanced"),
                                        (6, 1.0, "down"), (12, 0.37, "balanced")])
def test_direct_step_matches_walk_unitary_and_kraus_form(n, p, coin):
    cfg = _cfg(n, p, coin)
    rhos = [rho for (rho,) in evolution._density_stack([cfg], 12)]
    for before, after in zip(rhos, rhos[1:]):
        assert np.abs(after - _unitary_kraus_step(before, cfg)).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_density_stack_equals_single_configuration_runs(n):
    custom = np.array([0.6 + 0.28j, -0.3 + 0.68j])
    custom /= np.linalg.norm(custom)
    configs = [_cfg(n, p, coin) for p in (0.0, 0.37, 1.0)
               for coin in ("up", "balanced", custom)]
    singles = [list(direct_trajectory(cfg, 25)) for cfg in configs]
    for t, stack in enumerate(evolution._density_stack(configs, 25)):
        for c, single in enumerate(singles):
            assert np.array_equal(stack[c], single[t])
    marginals = evolution._density_marginals(configs, 25)
    assert marginals.shape == (len(configs), 26, n)
    for c, single in enumerate(singles):
        assert np.array_equal(marginals[c], [position_marginal(rho).probs for rho in single])


def test_density_marginals_are_validated(monkeypatch):
    # each step leaks 1% of the trace; the worst sum, 0.99^4 at t = 4, is reported
    leak = lambda fn: lambda rho, *a: 0.99 * fn(rho, *a)  # noqa: E731
    monkeypatch.setattr(evolution, "_density_step", leak(evolution._density_step))
    with pytest.raises(NumericalCheckError, match=r"^probabilities sum to 0\.96059"):
        evolution._density_marginals([_cfg(5, 0.3), _cfg(5, 0.6)], 4)


def test_direct_path_probability_sums_do_not_drift():
    # the 1/sqrt 2 Hadamard lost 6.2e-14 of probability over these 300 steps
    cfg = _cfg(7, 0.37, "balanced")
    worst = max(abs(position_marginal(rho).probs.sum() - 1.0)
                for (rho,) in evolution._density_stack([cfg], 300))
    assert worst <= 1e-14


def test_momentum_path_probability_sums_do_not_drift():
    # diagonal pairs keep trace exactly 1, so long runs stay normalized
    traj = fourier_trajectory(_cfg(9, 0.2), 400000)
    assert np.abs(traj.sum(axis=1) - 1.0).max() <= 1e-12


def test_position_distribution_validation():
    with pytest.raises(NumericalCheckError, match=r"sum to 1\.1, not 1$"):
        PositionDistribution(probs=np.array([0.5, 0.6]))
    with pytest.raises(NumericalCheckError, match=r"^negative probability -1\.000e-01$"):
        PositionDistribution(probs=np.array([1.1, -0.1]))
    with pytest.raises(NumericalCheckError, match=r"^non-finite probability nan$"):
        PositionDistribution(probs=np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(NumericalCheckError, match=r"sum to inf, not 1$"):
        PositionDistribution(probs=np.array([np.inf, 0.0]))


def test_density_operator_validation():
    bad = np.diag([0.7, 0.7, -0.4, 0.0]).astype(complex)
    with pytest.raises(NumericalCheckError, match=r"^density operator not PSD: -4\.000e-01$"):
        _check_density(bad)
    with pytest.raises(NumericalCheckError, match="not Hermitian"):
        _check_density(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    # a NaN state fails the Hermitian test, before eigvalsh could see it
    with pytest.raises(NumericalCheckError, match=r"^density operator not Hermitian: nan$"):
        _check_density(np.diag([np.nan, 1.0]).astype(complex))
    with pytest.raises(NumericalCheckError, match="trace"):
        _check_density(np.eye(2, dtype=complex))
