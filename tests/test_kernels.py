import numpy as np
import pytest

import cyclewalk._kernels as kernels
from cyclewalk import WalkConfig, coin_state, pauli_decompose, superop_definitional, trace_term
from cyclewalk.fourier import all_pair_matrices, phase_table


def _inputs(n, p, coin="up", ):
    cfg = WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))
    matrices, d_index = all_pair_matrices(cfg)
    projector = np.outer(cfg.initial_coin, cfg.initial_coin.conj())
    v0 = np.tile(pauli_decompose(projector).coeffs, (n * n, 1))
    return cfg, matrices, v0, d_index, phase_table(n)


def test_trajectory_matches_naive_double_sum():
    # rebuild P(x,t) from per-pair traces with explicit python loops
    cfg, matrices, v0, d_index, phase = _inputs(4, 0.3, "balanced")
    traj, max_imag = kernels.distribution_trajectory(matrices, v0, d_index, phase, 10)
    assert max_imag <= 1e-12
    b = pauli_decompose(np.outer(cfg.initial_coin, cfg.initial_coin.conj()))
    for t in range(11):
        for x in range(4):
            acc = 0.0j
            for k in range(4):
                for kp in range(4):
                    op = superop_definitional(k, kp, cfg)
                    acc += (np.exp(2j * np.pi * x * (k - kp) / 4)
                            * trace_term(op, b, t))
            assert abs(traj[t, x] - acc.real / 16) <= 1e-12


def test_tv_scan_averaged_matches_trajectory_average():
    _, matrices, v0, d_index, phase = _inputs(5, 0.4)
    target = np.full(5, 0.2)
    tv, avg, max_imag = kernels.tv_scan(matrices, v0, d_index, phase, 50, target)
    assert max_imag <= 1e-12
    traj, _ = kernels.distribution_trajectory(matrices, v0, d_index, phase, 49)
    for tau in (1, 7, 50):
        expect = np.abs(traj[:tau].mean(axis=0) - target).sum()
        assert abs(tv[tau - 1] - expect) <= 1e-12
    assert np.abs(avg - traj.mean(axis=0)).max() <= 1e-12


def test_tv_scan_instantaneous_parity_targets():
    _, matrices, v0, d_index, phase = _inputs(6, 0.5)
    even = np.array([1 / 3, 0, 1 / 3, 0, 1 / 3, 0])
    odd = np.array([0, 1 / 3, 0, 1 / 3, 0, 1 / 3])
    tv, _, _ = kernels.tv_scan(matrices, v0, d_index, phase, 40, even, odd,
                               mode=kernels.MODE_INSTANTANEOUS)
    traj, _ = kernels.distribution_trajectory(matrices, v0, d_index, phase, 40)
    for t in range(1, 41):
        target = even if t % 2 == 0 else odd
        assert abs(tv[t - 1] - np.abs(traj[t] - target).sum()) <= 1e-12


def test_tv_scan_early_stop_truncates():
    _, matrices, v0, d_index, phase = _inputs(4, 0.6)
    target = np.full(4, 0.25)
    tv, _, _ = kernels.tv_scan(matrices, v0, d_index, phase, 5000, target,
                               stop_below=0.05)
    assert len(tv) < 5000
    assert tv[-1] < 0.05
    assert np.all(tv[:-1] >= 0.05)


def test_averaged_snapshots_match_scan():
    _, matrices, v0, d_index, phase = _inputs(5, 0.3)
    snaps, max_imag = kernels.averaged_snapshots(matrices, v0, d_index, phase,
                                                 [1, 10, 64])
    assert max_imag <= 1e-12
    traj, _ = kernels.distribution_trajectory(matrices, v0, d_index, phase, 63)
    for row, tau in zip(snaps, (1, 10, 64)):
        assert np.abs(row - traj[:tau].mean(axis=0)).max() <= 1e-12


def test_averaged_snapshots_validates_taus():
    _, matrices, v0, d_index, phase = _inputs(4, 0.5)
    with pytest.raises(ValueError):
        kernels.averaged_snapshots(matrices, v0, d_index, phase, [10, 5])
    with pytest.raises(ValueError):
        kernels.averaged_snapshots(matrices, v0, d_index, phase, [0, 5])
