import numpy as np
import pytest

from cyclewalk import _kernels, evolution, verify
from cyclewalk import (
    NumericalCheckError,
    WalkConfig,
    classical_reference,
    coin_state,
    fourier_trajectory,
    position_marginal,
)
from cyclewalk.core import (_HADAMARD, PROB_FLOOR_SLOPE, _check_probabilities,
                            build_kraus_family, pauli_decompose)
from cyclewalk.evolution import (
    PositionDistribution,
    _check_density,
    _momentum_path,
    direct_trajectory,
)
from cyclewalk.fourier import all_pair_matrices


def _cfg(n, p, coin="up"):
    return WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))


_CUSTOM_COIN = np.array([0.6 + 0.28j, -0.3 + 0.68j])
_CUSTOM_COIN /= np.linalg.norm(_CUSTOM_COIN)


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


def _rolled_chain(n, t):
    """t steps of the +-1/2 chain from node 0, one np.roll pair per step."""
    chain = [np.eye(n)[0]]
    for _ in range(t):
        chain.append(0.5 * np.roll(chain[-1], 1) + 0.5 * np.roll(chain[-1], -1))
    return np.array(chain)


def test_classical_chains_stepped_together_are_each_chain_bit_for_bit():
    nodes = [2, 3, 4, 7, 12, 5]
    chains = evolution._classical_chain(nodes, 90)
    assert [chain.shape for chain in chains] == [(91, n) for n in nodes]
    for n, chain in zip(nodes, chains):
        assert np.array_equal(chain, _rolled_chain(n, 90)), n
        (alone,) = evolution._classical_chain([n], 90)
        assert np.array_equal(chain, alone)
    assert np.array_equal(classical_reference(7, 90).probs, _rolled_chain(7, 90)[-1])


def test_coins_of_one_walk_evolve_together_as_alone():
    for n, p in ((3, 0.0), (8, 0.5), (9, 1.0)):
        configs = [_cfg(n, p, coin) for coin in ("up", "balanced", _CUSTOM_COIN)]
        together = evolution._fourier_trajectories(configs, 70)
        for config, trajectory in zip(configs, together, strict=True):
            assert np.array_equal(trajectory, fourier_trajectory(config, 70))
    with pytest.raises(ValueError, match="share N and p"):
        evolution._fourier_trajectories([_cfg(5, 0.3), _cfg(5, 0.4)], 3)
    with pytest.raises(ValueError, match="share N and p"):
        evolution._fourier_trajectories([_cfg(5, 0.3), _cfg(6, 0.3)], 3)


@pytest.mark.parametrize("n", [5, 8, 9, 16])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_the_position_marginals_ignore_the_coins_sigma_y_part(n, p):
    # the coin, the shift and the Kraus operators are real, so the conjugate
    # coin, whose r_y has the other sign, walks to the same P; P is affine in
    # the Bloch vector, so it cannot depend on r_y at all
    for coin in ("balanced", _CUSTOM_COIN):
        configs = [_cfg(n, p, coin), _cfg(n, p, coin_state(coin).conj())]
        # the direct path steps only Re rho, which conjugation leaves as it is
        same, conjugate = evolution._density_marginals(configs, 1000)
        assert np.array_equal(same, conjugate)
        same, conjugate = evolution._fourier_trajectories(configs, 1000)
        assert np.max(np.abs(same - conjugate)) <= 1e-13
        v0 = evolution._pauli_vector(configs[0]) * [1, 1, 0, 1]
        without_y, _ = _kernels.distribution_trajectory(
            all_pair_matrices(configs[0])[0], v0, 1000)
        assert np.max(np.abs(same - without_y)) <= 1e-13


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
    configs = [_cfg(n, p, coin) for p in (0.0, 0.37, 1.0)
               for coin in ("up", "balanced", _CUSTOM_COIN)]
    singles = [list(direct_trajectory(cfg, 25)) for cfg in configs]
    for t, stack in enumerate(evolution._density_stack(configs, 25)):
        for c, single in enumerate(singles):
            assert np.array_equal(stack[c], single[t])
    marginals = evolution._density_marginals(configs, 25)
    assert marginals.shape == (len(configs), 26, n)
    for c, single in enumerate(singles):
        assert np.array_equal(marginals[c], [position_marginal(rho).probs for rho in single])


def _gather_step(rho, mask, src, sign):
    """The oracle step as one row and one column gather of V on a complex
    (C, 2N, 2N) stack and an exact halving: the reference the BLAS step
    must reproduce bit for bit."""
    rho = rho * mask
    rho = rho[:, src] + sign[:, None] * rho[:, src + 1]
    rho = rho[:, :, src] + sign * rho[:, :, src + 1]
    rho *= 0.5
    return rho


def _gather_stack(configs, t):
    """Yield the complex stacks rho_c(0), ..., rho_c(t) of _gather_step."""
    n = configs[0].n_nodes
    x, coin = np.divmod(np.arange(2 * n), 2)
    # (V r)[2x] = r[2(x-1)] + r[2(x-1)+1] and (V r)[2x+1] = r[2(x+1)] - r[2(x+1)+1]
    src = 2 * ((x - 1 + 2 * coin) % n)
    sign = 1.0 - 2.0 * coin
    rates = np.array([config.decoherence_rate for config in configs])
    mask = np.where(coin[:, None] == coin, 1.0, 1.0 - rates[:, None, None])
    rho = np.stack([evolution._initial_density(config) for config in configs])
    yield rho
    for _ in range(t):
        rho = _gather_step(rho, mask, src, sign)
        yield rho


def _gather_marginals(configs, t):
    """_density_marginals read from _gather_stack."""
    diag = np.stack([np.diagonal(rho, axis1=1, axis2=2).real
                     for rho in _gather_stack(configs, t)], axis=1)
    probs = diag[..., 0::2] + diag[..., 1::2]
    evolution._check_probabilities(probs)
    return probs


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 24, 49])
def test_blas_step_is_bit_identical_to_the_gather_step(n):
    steps = 60
    configs = [_cfg(n, p, coin) for p in (0.0, 0.1, 0.5, 1.0)
               for coin in ("up", "balanced", _CUSTOM_COIN)]
    assert np.array_equal(evolution._density_marginals(configs, steps),
                          _gather_marginals(configs, steps))
    for stack, reference in zip(evolution._density_stack(configs, steps),
                                _gather_stack(configs, steps), strict=True):
        assert np.array_equal(stack, reference)
    for config in configs:
        for rho, (reference,) in zip(direct_trajectory(config, steps),
                                     _gather_stack([config], steps), strict=True):
            assert np.array_equal(rho, reference)


@pytest.mark.parametrize("name", ["oracle", "classical"])
def test_oracle_reports_are_those_of_the_gather_step(monkeypatch, name):
    check = getattr(verify, f"check_{name}")
    report = check(verify.PROFILES["quick"])
    calls = []
    monkeypatch.setattr(verify, "_density_marginals",
                        lambda configs, t: calls.append(t) or _gather_marginals(configs, t))
    assert check(verify.PROFILES["quick"]) == report
    assert calls


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


_EPS = np.finfo(np.float64).eps


def test_probability_floor_falls_linearly_with_t():
    # row t may dip to -max(1e-12, PROB_FLOOR_SLOPE * eps * t); one
    # distribution is row t = 0, and so keeps the floor -1e-12
    steps = 40000
    slope = PROB_FLOOR_SLOPE * _EPS
    assert slope * 300 < 1e-12 < slope * steps
    for scale, admitted in ((0.99, True), (1.01, False)):
        for t in (0, 300, steps):
            rows = np.full((steps + 1, 4), 0.25)
            dip = scale * max(1e-12, slope * t)
            rows[t] = [-dip, 0.5 + dip, 0.25, 0.25]
            if admitted:
                _check_probabilities(rows)
                _check_probabilities(rows[None].repeat(2, axis=0))
            else:
                with pytest.raises(NumericalCheckError, match="^negative probability -"):
                    _check_probabilities(rows)
    with pytest.raises(NumericalCheckError, match=r"^negative probability -1\.010e-12$"):
        PositionDistribution(probs=np.array([1.0 + 1.01e-12, -1.01e-12]))


def test_momentum_drift_at_p0_stays_inside_the_floor_with_a_5x_margin():
    # at p = 0 on even cycles the exact zeros of the nodes of the wrong parity
    # drift negative in proportion to t: the plain floor -1e-12 would refuse
    # these walks, and the measured drift stays under a fifth of the slope
    steps = 100000
    slope = PROB_FLOOR_SLOPE * _EPS
    t = np.arange(steps + 1)
    for n in (8, 16, 32):
        configs = [_cfg(n, 0.0, coin) for coin in ("up", "balanced", _CUSTOM_COIN)]
        low = evolution._fourier_trajectories(configs, steps).min(axis=-1)
        assert (low >= -np.maximum(1e-12, slope * t) / 5).all(), n
        assert (low < -1e-12).any(axis=-1).all(), n


def test_a_million_step_coherent_walk_meets_the_probability_rule():
    # its minimum, -1.354e-11 at t = 996197, is 0.061 eps t
    low = fourier_trajectory(_cfg(16, 0.0, "balanced"), 10 ** 6).min(axis=-1)
    assert low.min() < -1e-11
    assert low.argmin() == 996197


def _breaking(t, change):
    """_kernels._evolve with change applied to the rows of time t."""
    evolve = _kernels._evolve

    def broken(*args, **kwargs):
        for start, dists, defect in evolve(*args, **kwargs):
            if start <= t < start + dists.shape[-2]:
                change(dists[..., t - start, :])
            yield start, dists, defect
    return broken


def _add(index, value):
    def change(row):
        row[..., index] += value
    return change


def _shift_mass(row):
    # node 0 holds no probability at t = 3; the row keeps its sum
    row[..., 0] -= 1e-9
    row[..., 1] += 1e-9


@pytest.mark.parametrize("change, message", [
    (_add(1, np.nan), r"^non-finite probability nan$"),
    (_add(1, 1e-9), r"^probabilities sum to 1\.00000000"),
    (_shift_mass, r"^negative probability -1\.000e-09$"),
], ids=["nan", "sum", "negative"])
@pytest.mark.parametrize("entry", [
    lambda: fourier_trajectory(_cfg(8, 0.3), 10),
    lambda: evolution._fourier_trajectories([_cfg(8, 0.3), _cfg(8, 0.3, "down")], 10),
], ids=["fourier_trajectory", "_fourier_trajectories"])
def test_momentum_trajectories_return_only_rows_that_meet_the_rule(monkeypatch, entry, change,
                                                                    message):
    monkeypatch.setattr(_kernels, "_evolve", _breaking(3, change))
    with pytest.raises(NumericalCheckError, match=message):
        entry()


def test_position_distribution_validation():
    with pytest.raises(NumericalCheckError, match=r"sum to 1\.1, not 1$"):
        PositionDistribution(probs=np.array([0.5, 0.6]))
    with pytest.raises(NumericalCheckError, match=r"^negative probability -1\.000e-01$"):
        PositionDistribution(probs=np.array([1.1, -0.1]))
    with pytest.raises(NumericalCheckError, match=r"^non-finite probability nan$"):
        PositionDistribution(probs=np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(NumericalCheckError, match=r"sum to inf, not 1$"):
        PositionDistribution(probs=np.array([np.inf, 0.0]))


def _state_with_least_eigenvalue(least):
    """A Hermitian 4x4 matrix of unit trace with eigenvalues 0.6,
    0.4 - least, 0 and least, in a basis that mixes every entry."""
    basis, _ = np.linalg.qr(np.array([[1, 2j, 3, 4], [2, 1, -1j, 0],
                                      [0, 1, 1, 1j], [1j, 0, 2, -1]]))
    rho = (basis * [0.6, 0.4 - least, 0.0, least]) @ basis.conj().T
    return (rho + rho.conj().T) / 2


def test_the_psd_test_keeps_its_floor_and_words_only_a_refusal(monkeypatch):
    # a Cholesky factor of rho + 1e-9 I accepts a state; eigvalsh runs only
    # to word a refusal, whose floor stays at -1e-9; the shift is made on
    # the state's own diagonal, which gets its bits back either way
    state = _state_with_least_eigenvalue(-2e-9)
    before = state.copy()
    with pytest.raises(NumericalCheckError, match=r"^density operator not PSD: -2\.000e-09$"):
        _check_density(state)
    assert np.array_equal(state, before)

    def refused(*args):
        raise AssertionError("eigvalsh ran on an accepted state")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for least in (-5e-10, 0.0):
        state = _state_with_least_eigenvalue(least)
        before = state.copy()
        _check_density(state)
        assert np.array_equal(state, before)


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
