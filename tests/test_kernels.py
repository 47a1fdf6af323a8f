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


# ---------------------------------------------------------------------------
# blocked engine vs a stepwise reference
# ---------------------------------------------------------------------------

TOL = 1e-13


def _stepwise(matrices, v0, d_index, n, steps):
    """P(x, t) for t = 0..steps: one matvec per pair and step, then the
    explicit phase sum over all pairs."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), d_index) / n)
    out = np.empty((steps + 1, n))
    v = v0.copy()
    for t in range(steps + 1):
        out[t] = (phases @ (2.0 * v[:, 0])).real / (n * n)
        v = np.einsum("qij,qj->qi", matrices, v)
    return out


def _cesaro_tv(traj, target):
    averages = np.cumsum(traj, axis=0) / np.arange(1, len(traj) + 1)[:, None]
    return np.abs(averages - target).sum(axis=1)


@pytest.fixture(params=[None, 1, 7], ids=["default-block", "block-1", "block-7"])
def block(request, monkeypatch):
    """Steps per block of the engine: its own choice (MAX_BLOCK at these
    small cycles), or forced to 1 or 7."""
    if request.param is None:
        return kernels.MAX_BLOCK
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: request.param)
    return request.param


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_trajectory_matches_stepwise(n, block):
    _, matrices, v0, d_index, phase = _inputs(n, 0.3, "balanced")
    reference = _stepwise(matrices, v0, d_index, n, 2 * block + 3)
    for steps in sorted({0, 1, block - 1, block, block + 1, 2 * block + 3}):
        traj, max_imag = kernels.distribution_trajectory(matrices, v0, d_index, phase, steps)
        assert traj.shape == (steps + 1, n)
        assert max_imag <= 1e-12
        assert np.abs(traj - reference[:steps + 1]).max() <= TOL


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_averaged_scan_matches_stepwise(n, block):
    _, matrices, v0, d_index, phase = _inputs(n, 0.4)
    target = np.full(n, 1.0 / n)
    reference = _stepwise(matrices, v0, d_index, n, 2 * block + 3)
    for horizon in sorted({1, block - 1, block, block + 1, 2 * block + 4} - {0}):
        tv, avg, _ = kernels.tv_scan(matrices, v0, d_index, phase, horizon, target)
        assert len(tv) == horizon
        assert np.abs(tv - _cesaro_tv(reference[:horizon], target)).max() <= TOL
        assert np.abs(avg - reference[:horizon].mean(axis=0)).max() <= TOL


def test_blocked_instantaneous_parity_across_block_boundary(block):
    # even N: the target alternates with the parity of t, also from one
    # block to the next, whether the block length is odd or even
    n = 6
    _, matrices, v0, d_index, phase = _inputs(n, 0.5)
    even = np.array([1 / 3, 0, 1 / 3, 0, 1 / 3, 0])
    odd = np.roll(even, 1)
    horizon = 2 * block + 3
    reference = _stepwise(matrices, v0, d_index, n, horizon)
    targets = np.where((np.arange(1, horizon + 1) % 2 == 0)[:, None], even, odd)
    expect = np.abs(reference[1:] - targets).sum(axis=1)
    for h in sorted({1, block - 1, block, block + 1, horizon} - {0}):
        tv, _, _ = kernels.tv_scan(matrices, v0, d_index, phase, h, even, odd,
                                   mode=kernels.MODE_INSTANTANEOUS)
        assert np.abs(tv - expect[:h]).max() <= TOL


def _first_record_low(values, where):
    """Least index i >= 1 with values[i] below every earlier value and
    where(i) true."""
    running = np.minimum.accumulate(values)
    for i in range(1, len(values)):
        if values[i] < running[i - 1] and where(i):
            return i
    raise AssertionError("no record low at the requested block offset")


@pytest.mark.parametrize("offset", ["first-step", "mid-block"])
@pytest.mark.parametrize("mode", [kernels.MODE_AVERAGED, kernels.MODE_INSTANTANEOUS])
def test_blocked_scan_stops_inside_a_block(monkeypatch, mode, offset):
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: 7)
    n = 5
    _, matrices, v0, d_index, phase = _inputs(n, 0.3)
    target = np.full(n, 1.0 / n)
    reference = _stepwise(matrices, v0, d_index, n, 400)
    if mode == kernels.MODE_AVERAGED:
        expect = _cesaro_tv(reference[:400], target)   # value i is at t = i
        first_t = 0
    else:
        expect = np.abs(reference[1:] - target).sum(axis=1)   # value i is at t = i + 1
        first_t = 1
    wanted = 0 if offset == "first-step" else 3
    i = _first_record_low(expect, lambda i: (i + first_t) % 7 == wanted)
    threshold = 0.5 * (expect[i] + expect[:i].min())
    tv, avg, _ = kernels.tv_scan(matrices, v0, d_index, phase, 400, target, target,
                                 mode=mode, stop_below=threshold)
    assert len(tv) == i + 1
    assert np.abs(tv - expect[:i + 1]).max() <= TOL
    if mode == kernels.MODE_AVERAGED:
        assert np.abs(avg - reference[:i + 1].mean(axis=0)).max() <= TOL


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_snapshots_straddle_block_boundaries(n, block):
    _, matrices, v0, d_index, phase = _inputs(n, 0.3, "balanced")
    taus = sorted({1, block - 1, block, block + 1, 2 * block, 2 * block + 5} - {0})
    reference = _stepwise(matrices, v0, d_index, n, taus[-1])
    snaps, _ = kernels.averaged_snapshots(matrices, v0, d_index, phase, taus)
    for row, tau in zip(snaps, taus):
        assert np.abs(row - reference[:tau].mean(axis=0)).max() <= TOL


def test_block_size_rule():
    assert kernels._block_size(81) == kernels.MAX_BLOCK
    assert kernels._block_size(101 * 101) == 3
    assert kernels._block_size(10 ** 6) == 1


def test_evolve_rejects_uneven_difference_groups():
    _, matrices, v0, d_index, phase = _inputs(4, 0.5)
    bad = d_index.copy()
    bad[0] = (bad[0] + 1) % 4
    with pytest.raises(ValueError, match="momentum difference"):
        kernels.distribution_trajectory(matrices, v0, bad, phase, 3)
