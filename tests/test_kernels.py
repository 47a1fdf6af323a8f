import math

import numpy as np
import pytest

import cyclewalk._kernels as kernels
from cyclewalk import (NumericalCheckError, WalkConfig, coin_state, eigenvalues,
                       mixing_time_averaged, pauli_decompose, superop_definitional)
from cyclewalk.analysis import _limit
from cyclewalk.fourier import all_pair_matrices


def _inputs(n, p, coin="up", ):
    cfg = WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))
    projector = np.outer(cfg.initial_coin, cfg.initial_coin.conj())
    return cfg, all_pair_matrices(cfg)[0], pauli_decompose(projector)


def test_trajectory_matches_naive_double_sum():
    # rebuild P(x,t) from per-pair traces with explicit python loops
    cfg, matrices, v0 = _inputs(4, 0.3, "balanced")
    traj, max_imag = kernels.distribution_trajectory(matrices, v0, 10)
    assert max_imag <= 1e-12
    b = pauli_decompose(np.outer(cfg.initial_coin, cfg.initial_coin.conj()))
    traces = {}
    for k in range(4):
        for kp in range(4):
            m = superop_definitional(k, kp, 4, 0.3)
            v = b.copy()
            traces[k, kp] = []
            for t in range(11):
                traces[k, kp].append(2.0 * v[0])
                v = m @ v
    for t in range(11):
        for x in range(4):
            acc = 0.0j
            for k in range(4):
                for kp in range(4):
                    acc += (np.exp(2j * np.pi * x * (k - kp) / 4)
                            * traces[k, kp][t])
            assert abs(traj[t, x] - acc.real / 16) <= 1e-12


def test_tv_scan_averaged_matches_trajectory_average():
    _, matrices, v0 = _inputs(5, 0.4)
    target = np.full(5, 0.2)
    tv, max_imag = kernels.tv_scan(matrices, v0, 50, target)
    assert max_imag <= 1e-12
    traj, _ = kernels.distribution_trajectory(matrices, v0, 49)
    for tau in (1, 7, 50):
        expect = np.abs(traj[:tau].mean(axis=0) - target).sum()
        assert abs(tv[tau - 1] - expect) <= 1e-12


def test_tv_scan_instantaneous_parity_targets():
    _, matrices, v0 = _inputs(6, 0.5)
    even = np.array([1 / 3, 0, 1 / 3, 0, 1 / 3, 0])
    odd = np.array([0, 1 / 3, 0, 1 / 3, 0, 1 / 3])
    tv, _ = kernels.tv_scan(matrices, v0, 40, np.stack([even, odd]),
                            mode=kernels.MODE_INSTANTANEOUS)
    traj, _ = kernels.distribution_trajectory(matrices, v0, 40)
    for t in range(1, 41):
        target = even if t % 2 == 0 else odd
        assert abs(tv[t - 1] - np.abs(traj[t] - target).sum()) <= 1e-12


def test_tv_scan_early_stop_truncates():
    _, matrices, v0 = _inputs(4, 0.6)
    target = np.full(4, 0.25)
    tv, _ = kernels.tv_scan(matrices, v0, 5000, target,
                            stop_below=0.05)
    assert len(tv) < 5000
    assert tv[-1] < 0.05
    assert np.all(tv[:-1] >= 0.05)


def test_averaged_snapshots_match_scan():
    _, matrices, v0 = _inputs(5, 0.3)
    snaps, max_imag = kernels.averaged_snapshots(matrices, v0, [1, 10, 64])
    assert max_imag <= 1e-12
    traj, _ = kernels.distribution_trajectory(matrices, v0, 63)
    for row, tau in zip(snaps, (1, 10, 64)):
        assert np.abs(row - traj[:tau].mean(axis=0)).max() <= 1e-12


def test_averaged_snapshots_validates_taus():
    _, matrices, v0 = _inputs(4, 0.5)
    with pytest.raises(ValueError):
        kernels.averaged_snapshots(matrices, v0, [10, 5])
    with pytest.raises(ValueError):
        kernels.averaged_snapshots(matrices, v0, [0, 5])


@pytest.mark.parametrize("call", [
    lambda m, v0, target: kernels.distribution_trajectory(m, v0, -1),
    lambda m, v0, target: kernels.distribution_trajectory(m, v0, 2.5),
    lambda m, v0, target: kernels.tv_scan(m, v0, 0, target),
    lambda m, v0, target: kernels.tv_scan(m, v0, 0, target,
                                          mode=kernels.MODE_INSTANTANEOUS),
    lambda m, v0, target: kernels.tv_scan(m, v0, 2.5, target),
], ids=["steps-negative", "steps-fraction", "horizon-0-averaged",
        "horizon-0-instantaneous", "horizon-fraction"])
def test_kernels_reject_bad_counts(call):
    # steps must be an integer >= 0 and horizon one >= 1; none is truncated
    _, matrices, v0 = _inputs(4, 0.5)
    with pytest.raises(ValueError):
        call(matrices, v0, np.full(4, 0.25))


# ---------------------------------------------------------------------------
# blocked engine vs a stepwise reference
# ---------------------------------------------------------------------------

TOL = 1e-13


def _stepwise(matrices, v0, n, steps):
    """P(x, t) for t = 0..steps: one matvec per pair and step, then the
    explicit phase sum over all pairs."""
    k, k_prime = np.divmod(np.arange(n * n), n)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), (k - k_prime) % n) / n)
    out = np.empty((steps + 1, n))
    v = np.tile(v0, (n * n, 1))
    for t in range(steps + 1):
        out[t] = (phases @ (2.0 * v[:, 0])).real / (n * n)
        v = np.einsum("qij,qj->qi", matrices, v)
    return out


def _cesaro_tv(traj, target):
    averages = np.cumsum(traj, axis=0) / np.arange(1, len(traj) + 1)[:, None]
    return np.abs(averages - target).sum(axis=1)


def _engine_block(n):
    """The engine's own steps per block at N, for a long enough run."""
    return kernels._block_size((n // 2 + 1) * n)


@pytest.fixture(params=[None, 1, 2, 7, 8],
                ids=["default-block", "block-1", "block-2", "block-7", "block-8"])
def block(request, monkeypatch):
    """Steps per block of the engine: its own choice, which is the same at
    these small cycles, or forced to 1, 2, 7 or 8 (the row doubling ends on
    a power of two or between two)."""
    if request.param is None:
        (size,) = {_engine_block(n) for n in (4, 5, 6)}
        return size
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: request.param)
    return request.param


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_trajectory_matches_stepwise(n, block):
    _, matrices, v0 = _inputs(n, 0.3, "balanced")
    reference = _stepwise(matrices, v0, n, 2 * block + 3)
    for steps in sorted({0, 1, block - 1, block, block + 1, 2 * block + 3}):
        traj, max_imag = kernels.distribution_trajectory(matrices, v0, steps)
        assert traj.shape == (steps + 1, n)
        assert max_imag <= 1e-12
        assert np.abs(traj - reference[:steps + 1]).max() <= TOL


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_averaged_scan_matches_stepwise(n, block):
    _, matrices, v0 = _inputs(n, 0.4)
    target = np.full(n, 1.0 / n)
    reference = _stepwise(matrices, v0, n, 2 * block + 3)
    for horizon in sorted({1, block - 1, block, block + 1, 2 * block + 4} - {0}):
        tv, _ = kernels.tv_scan(matrices, v0, horizon, target)
        assert len(tv) == horizon
        assert np.abs(tv - _cesaro_tv(reference[:horizon], target)).max() <= TOL


def test_blocked_instantaneous_parity_across_block_boundary(block):
    # even N: the target alternates with the parity of t, also from one
    # block to the next, whether the block length is odd or even
    n = 6
    _, matrices, v0 = _inputs(n, 0.5)
    even = np.array([1 / 3, 0, 1 / 3, 0, 1 / 3, 0])
    odd = np.roll(even, 1)
    horizon = 2 * block + 3
    reference = _stepwise(matrices, v0, n, horizon)
    targets = np.where((np.arange(1, horizon + 1) % 2 == 0)[:, None], even, odd)
    expect = np.abs(reference[1:] - targets).sum(axis=1)
    for h in sorted({1, block - 1, block, block + 1, horizon} - {0}):
        tv, _ = kernels.tv_scan(matrices, v0, h, np.stack([even, odd]),
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
    _, matrices, v0 = _inputs(n, 0.3)
    target = np.full(n, 1.0 / n)
    reference = _stepwise(matrices, v0, n, 400)
    if mode == kernels.MODE_AVERAGED:
        expect = _cesaro_tv(reference[:400], target)   # value i is at t = i
        first_t = 0
    else:
        expect = np.abs(reference[1:] - target).sum(axis=1)   # value i is at t = i + 1
        first_t = 1
    wanted = 0 if offset == "first-step" else 3
    i = _first_record_low(expect, lambda i: (i + first_t) % 7 == wanted)
    threshold = 0.5 * (expect[i] + expect[:i].min())
    tv, _ = kernels.tv_scan(matrices, v0, 400, target,
                            mode=mode, stop_below=threshold)
    assert len(tv) == i + 1
    assert np.abs(tv - expect[:i + 1]).max() <= TOL


@pytest.mark.parametrize("n", [4, 5, 6])
def test_blocked_snapshots_straddle_block_boundaries(n, block):
    _, matrices, v0 = _inputs(n, 0.3, "balanced")
    taus = sorted({1, block - 1, block, block + 1, 2 * block, 2 * block + 5} - {0})
    reference = _stepwise(matrices, v0, n, taus[-1])
    snaps, _ = kernels.averaged_snapshots(matrices, v0, taus)
    for row, tau in zip(snaps, taus):
        assert np.abs(row - reference[:tau].mean(axis=0)).max() <= TOL


@pytest.fixture(params=[1, 2, 3], ids=["chunk-1", "chunk-2", "chunk-3"])
def chunk(request, monkeypatch):
    """Blocks per chunk of emission, forced to 1, 2 or 3."""
    monkeypatch.setattr(kernels, "_chunk_blocks", lambda n, block: request.param)
    return request.param


def _around_chunk_ends(size):
    """Last steps one before, at and one after the end of the first and
    the second chunk of this many steps, and 0."""
    return sorted({0} | {end + offset for end in (size - 1, 2 * size - 1)
                         for offset in (-1, 0, 1)} - {-1})


def test_evolve_stream_is_cut_at_steps(monkeypatch, block):
    # one yield per chunk of K blocks, the last one cut at steps, for the
    # engine's own K and for K forced to 1, 2 and 3
    _, matrices, v0 = _inputs(5, 0.3, "balanced")
    walk = kernels._prepare(matrices, v0)
    assert walk.defect <= 1e-12
    for forced in (None, 1, 2, 3):
        if forced:
            monkeypatch.setattr(kernels, "_chunk_blocks", lambda n, block: forced)
        chunk = kernels._chunk_blocks(5, block)
        for steps in _around_chunk_ends(block * chunk):
            chunks = list(kernels._evolve(walk, steps))
            # a run shorter than a block is one block of steps + 1
            size = chunk * min(block, steps + 1)
            assert [t for t, _ in chunks] == list(range(0, steps + 1, size))
            assert [len(rows) for _, rows in chunks[:-1]] == [size] * (len(chunks) - 1)
            assert sum(len(rows) for _, rows in chunks) == steps + 1


@pytest.mark.parametrize("forced", [1, 2, 7], ids=["block-1", "block-2", "block-7"])
def test_chunked_stream_matches_stepwise_around_chunk_ends(monkeypatch, chunk, forced):
    # both modes, with runs that end one step before, at and one step after
    # the end of a chunk
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: forced)
    n = 6
    _, matrices, v0 = _inputs(n, 0.4, "balanced")
    target = np.full(n, 1.0 / n)
    ends = _around_chunk_ends(forced * chunk)
    reference = _stepwise(matrices, v0, n, ends[-1] + 1)
    for steps in ends:
        traj, _ = kernels.distribution_trajectory(matrices, v0, steps)
        assert np.abs(traj - reference[:steps + 1]).max() <= TOL
        averaged, _ = kernels.tv_scan(matrices, v0, steps + 1, target)
        assert np.abs(averaged - _cesaro_tv(reference[:steps + 1], target)).max() <= TOL
        instantaneous, _ = kernels.tv_scan(matrices, v0, steps + 1, target,
                                           mode=kernels.MODE_INSTANTANEOUS)
        expect = np.abs(reference[1:steps + 2] - target).sum(axis=1)
        assert np.abs(instantaneous - expect).max() <= TOL
        taus = sorted({1, steps + 1})
        snaps, _ = kernels.averaged_snapshots(matrices, v0, taus)
        for row, tau in zip(snaps, taus):
            assert np.abs(row - reference[:tau].mean(axis=0)).max() <= TOL


@pytest.mark.parametrize("offset", ["first-block", "later-block"])
@pytest.mark.parametrize("mode", [kernels.MODE_AVERAGED, kernels.MODE_INSTANTANEOUS])
def test_chunked_scan_stops_inside_a_chunk(monkeypatch, chunk, mode, offset):
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: 7)
    n = 5
    _, matrices, v0 = _inputs(n, 0.3)
    target = np.full(n, 1.0 / n)
    reference = _stepwise(matrices, v0, n, 400)
    if mode == kernels.MODE_AVERAGED:
        expect, first_t = _cesaro_tv(reference[:400], target), 0
    else:
        expect, first_t = np.abs(reference[1:] - target).sum(axis=1), 1
    # a stop in the chunk's first block, or mid-way through its last
    wanted = 0 if offset == "first-block" else 7 * (chunk - 1) + 3
    i = _first_record_low(expect, lambda i: (i + first_t) % (7 * chunk) == wanted)
    threshold = 0.5 * (expect[i] + expect[:i].min())
    tv, _ = kernels.tv_scan(matrices, v0, 400, target, mode=mode, stop_below=threshold)
    assert len(tv) == i + 1
    assert np.abs(tv - expect[:i + 1]).max() <= TOL


@pytest.mark.parametrize("n", [3, 8])
def test_each_coin_of_a_stack_is_chunked_as_its_own_run_bit_for_bit(monkeypatch, chunk, n):
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: 7)
    runs = [_inputs(n, 0.5, coin) for coin in _COINS]
    matrices = runs[0][1]
    v0 = np.stack([coin_v0 for _, _, coin_v0 in runs])
    for steps in _around_chunk_ends(7 * chunk):
        together, _ = kernels.distribution_trajectory(matrices, v0, steps)
        for column, (_, _, coin_v0) in zip(together, runs):
            alone, _ = kernels.distribution_trajectory(matrices, coin_v0, steps)
            assert np.array_equal(column, alone)


def test_chunk_rule():
    # a chunk's buffers take at most a quarter of the row buffer budget, and
    # what the rows leave of it: one block once the rows fill it, which
    # they do from N = 14 on
    assert kernels._chunk_blocks(9, 256) == 6
    assert kernels._chunk_blocks(13, 256) == 4
    assert kernels._chunk_blocks(101, 6) == 1
    for n in range(2, 160):
        pairs = (n // 2 + 1) * n
        block = kernels._block_size(pairs)
        blocks = kernels._chunk_blocks(n, block)
        assert (blocks == 1) == (n >= 14), n
        if blocks > 1:
            chunk = blocks * (64 * pairs + 8 * block * (2 * (n // 2 + 1) + n))
            assert chunk <= kernels.ROW_BUFFER_BYTES // 4
            assert 32 * pairs * block + chunk <= kernels.ROW_BUFFER_BYTES


@pytest.mark.parametrize("mode", [kernels.MODE_AVERAGED, kernels.MODE_INSTANTANEOUS])
def test_single_target_scans_as_the_pair_that_repeats_it(mode, block):
    # one (N,) target is compared with every row, as the (2, N) pair of two
    # copies of it is; the pair's row t % 2 meets the stream's row t
    n = 6
    _, matrices, v0 = _inputs(n, 0.4)
    horizon = 2 * block + 3
    for target in (np.full(n, 1.0 / n), np.array([1 / 3, 0, 1 / 3, 0, 1 / 3, 0])):
        alone, _ = kernels.tv_scan(matrices, v0, horizon, target, mode=mode)
        paired, _ = kernels.tv_scan(matrices, v0, horizon, np.stack([target, target]),
                                    mode=mode)
        assert np.array_equal(alone, paired)


@pytest.mark.parametrize("mode", [kernels.MODE_AVERAGED, kernels.MODE_INSTANTANEOUS])
def test_scan_stops_at_its_first_scanned_value(mode, block):
    # every TV is at most 2, so a threshold of 3 stops the scan at its first
    # value: tau = 1, or t = 1 in the instantaneous mode, whose t = 0 row is
    # computed but never scanned; the stop takes the full scan's chunks, so
    # its value is the full scan's bit for bit
    n = 5
    _, matrices, v0 = _inputs(n, 0.3)
    target = np.full(n, 1.0 / n)
    full, _ = kernels.tv_scan(matrices, v0, 50, target, mode=mode)
    tv, _ = kernels.tv_scan(matrices, v0, 50, target, mode=mode,
                            stop_below=3.0)
    assert np.array_equal(tv, full[:1])


# ---------------------------------------------------------------------------
# reduced real engine vs the full-pair complex reference
# ---------------------------------------------------------------------------

#: A complex coin with unequal weights, so no trace sum is real by accident.
_CUSTOM_COIN = [0.6, 0.48 + 0.64j]


@pytest.mark.parametrize("coin", ["up", "balanced", "custom"])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_reduced_engine_matches_full_pair_reference(n, p, coin):
    # even N has the self-conjugate difference d = N/2
    _, matrices, v0 = _inputs(n, p, _CUSTOM_COIN if coin == "custom" else coin)
    steps = _engine_block(n) + 6   # crosses a block boundary
    traj, defect = kernels.distribution_trajectory(matrices, v0, steps)
    assert defect <= 1e-15
    assert np.abs(traj - _stepwise(matrices, v0, n, steps)).max() <= TOL


def test_reduced_engine_matches_full_pair_reference_at_a_large_cycle():
    n = 101
    _, matrices, v0 = _inputs(n, 0.5, "balanced")
    traj, _ = kernels.distribution_trajectory(matrices, v0, 40)
    assert np.abs(traj - _stepwise(matrices, v0, n, 40)).max() <= TOL


@pytest.mark.parametrize("n", [2, 3, 8, 9, 101])
def test_engine_evolves_only_the_independent_pairs(monkeypatch, n):
    calls = []
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: calls.append(pairs) or 4)
    _, matrices, v0 = _inputs(n, 0.3)
    kernels.distribution_trajectory(matrices, v0, 5)
    assert calls == [(n // 2 + 1) * n]


def test_block_size_rule():
    assert kernels._block_size(45) == 256   # the pairs evolved at N = 9
    assert kernels._block_size(101 * 101) == 3
    assert kernels._block_size(51 * 101) == 6   # the pairs evolved at N = 101
    assert kernels._block_size(10 ** 6) == 1
    # B is also at most steps + 1: 200 steps at N = 5 are one block
    _, matrices, v0 = _inputs(5, 0.3)
    blocks = list(kernels._evolve(kernels._prepare(matrices, v0), 200))
    assert [(t, rows.shape) for t, rows in blocks] == [(0, (201, 5))]


def test_long_blocks_match_the_old_block_length_over_a_long_scan(monkeypatch):
    # the full averaged trace of the mixing-long walk (N = 9, 162000 steps,
    # B = 256) against the same scan at B = 64
    cfg = WalkConfig(n_nodes=9, decoherence_rate=0.2, initial_coin=coin_state("up"))
    long_blocks = mixing_time_averaged(cfg, 0.01, horizon=162000)
    monkeypatch.setattr(kernels, "_block_size", lambda pairs: 64)
    short_blocks = mixing_time_averaged(cfg, 0.01, horizon=162000)
    assert len(long_blocks.tv_trace) == len(short_blocks.tv_trace) == 162000
    assert np.abs(long_blocks.tv_trace - short_blocks.tv_trace).max() <= TOL
    assert long_blocks.mixing_time == short_blocks.mixing_time == 422


def test_cesaro_trace_is_accurate_over_a_long_horizon():
    # the averaged trace of the mixing-long walk against Cesaro sums of the
    # same distributions taken with math.fsum, which rounds once per sum
    # (np.longdouble is float64 on some platforms)
    _, matrices, v0 = _inputs(9, 0.2)
    horizon = 162000
    target = np.full(9, 1.0 / 9)
    tv, _ = kernels.tv_scan(matrices, v0, horizon, target)
    traj, _ = kernels.distribution_trajectory(matrices, v0, horizon - 1)
    columns = traj.T.tolist()
    taus = np.unique(np.geomspace(1, horizon, 60).round().astype(int))
    errors = [abs(tv[tau - 1] - sum(abs(math.fsum(col[:tau]) / tau - 1.0 / 9)
                                    for col in columns))
              for tau in taus]
    assert max(errors) <= 2e-14


@pytest.mark.parametrize("size, fails", [(1e-12, False), (1e-6, True)])
def test_symmetry_guard_fires_before_the_first_block(size, fails):
    # (1, 3) has difference 3 > N//2: it is never evolved, only compared with
    # its conjugate partner (3, 1) in setup
    n = 5
    _, matrices, v0 = _inputs(n, 0.3, "balanced")
    matrices[1 * n + 3, 1, 2] += size
    if fails:
        with pytest.raises(NumericalCheckError, match=r"^pair symmetry defect 1\.000e-06 "):
            kernels._prepare(matrices, v0)
    else:
        walk = kernels._prepare(matrices, v0)
        t, rows = next(kernels._evolve(walk, 10 ** 6))
        first_chunk = _engine_block(n) * kernels._chunk_blocks(n, _engine_block(n))
        assert t == 0 and rows.shape == (first_chunk, n)
        assert walk.defect == pytest.approx(1e-12, rel=1e-3)


#: stacks whose first axis is no square N^2 >= 4, or whose pairs are not 4x4
_MALFORMED = [(10, 4, 4), (9, 3, 3), (8, 4, 4), (17, 4, 4)]
_CONSUMERS = {
    "distribution_trajectory": lambda m, v0: kernels.distribution_trajectory(m, v0, 3),
    "tv_scan": lambda m, v0: kernels.tv_scan(m, v0, 3, np.full(3, 1.0 / 3)),
    "averaged_snapshots": lambda m, v0: kernels.averaged_snapshots(m, v0, [1, 2]),
    "eigenvalues": lambda m, v0: eigenvalues(m),
}


@pytest.mark.parametrize("consumer", _CONSUMERS)
@pytest.mark.parametrize("shape", _MALFORMED, ids=str)
def test_every_pair_stack_consumer_rejects_a_malformed_stack_alike(consumer, shape):
    message = f"expected an (N^2, 4, 4) pair stack, got shape {shape}"
    with pytest.raises(ValueError) as raised:
        _CONSUMERS[consumer](np.zeros(shape, dtype=complex), np.array([0.5, 0, 0, 0.5]))
    assert str(raised.value) == message


def _full_stack_defect(matrices, d_index, v0):
    """The symmetry defect read from all N^2 pairs: the largest
    |L_{k',k} - conj L_{k,k'}| over every pair, 2 |imag v0| and |imag U L U^-1|
    over the pairs with difference d <= N//2."""
    n = math.isqrt(len(matrices))
    # the transpose of the grid of rows maps each pair to its partner
    partner = np.arange(n * n).reshape(n, n).T.ravel()
    realify = np.array([1.0, 1j, -1j, -1j])
    realified = matrices[d_index <= n // 2] * (realify[:, None] / realify)
    return float(np.max([np.abs(matrices[partner] - matrices.conj()).max(),
                         2.0 * np.abs(v0.imag).max(), np.abs(realified.imag).max()]))


@pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 1.0])
def test_the_evolved_half_gives_the_full_stack_defect_bit_for_bit(p):
    rng = np.random.default_rng(11)
    for n in range(2, 40):
        cfg, matrices, v0 = _inputs(n, p, "balanced")
        d_index = all_pair_matrices(cfg)[1]
        matrices = matrices + 1e-12 * (rng.standard_normal(matrices.shape)
                                       + 1j * rng.standard_normal(matrices.shape))
        _, defect = kernels.distribution_trajectory(matrices, v0, 0)
        assert defect == _full_stack_defect(matrices, d_index, v0), n


def test_a_nan_in_a_never_evolved_pair_fails_setup():
    # (1, 3) at N = 5 has difference 3 > N//2; only its partner (3, 1) is evolved
    n = 5
    cfg, matrices, v0 = _inputs(n, 0.3)
    k, k_prime = np.divmod(np.arange(n * n), n)
    never_evolved = np.flatnonzero((k == 1) & (k_prime == 3))
    assert all_pair_matrices(cfg)[1][never_evolved] == [3]
    matrices[never_evolved, 2, 1] = np.nan
    assert math.isnan(_full_stack_defect(matrices, all_pair_matrices(cfg)[1], v0))
    with pytest.raises(NumericalCheckError, match=r"^pair symmetry defect nan "):
        kernels.distribution_trajectory(matrices, v0, 5)


# ---------------------------------------------------------------------------
# several initial coins in one engine call
# ---------------------------------------------------------------------------

_COINS = ["up", "balanced", _CUSTOM_COIN]


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_each_coin_of_a_stack_evolves_as_its_own_run_bit_for_bit(n, p, block):
    # even N has the self-conjugate difference d = N/2; the fixture forces
    # blocks short enough that the run crosses block boundaries
    runs = [_inputs(n, p, coin) for coin in _COINS]
    matrices = runs[0][1]
    v0 = np.stack([coin_v0 for _, _, coin_v0 in runs])
    for steps in sorted({0, block - 1, block, 2 * block + 3}):
        together, defect = kernels.distribution_trajectory(matrices, v0, steps)
        assert together.shape == (len(_COINS), steps + 1, n)
        alone = [kernels.distribution_trajectory(matrices, coin_v0, steps)
                 for _, _, coin_v0 in runs]
        for column, (traj, _) in zip(together, alone):
            assert np.array_equal(column, traj)
        assert defect == max(coin_defect for _, coin_defect in alone)


def test_a_coin_stack_shares_one_setup(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "_evolved_pairs",
                        lambda n, real=kernels._evolved_pairs: calls.append(n) or real(n))
    _, matrices, v0 = _inputs(5, 0.3)
    kernels.distribution_trajectory(matrices, np.stack([v0, v0, v0]), 20)
    assert calls == [5]


@pytest.mark.parametrize("call", [
    lambda m, v0: kernels.tv_scan(m, v0, 5, np.full(4, 0.25)),
    lambda m, v0: kernels.averaged_snapshots(m, v0, [1, 2]),
], ids=["tv_scan", "averaged_snapshots"])
def test_scans_take_one_coin(call):
    _, matrices, v0 = _inputs(4, 0.5)
    message = r"^expected one \(4,\) Pauli vector v0, got shape \(2, 4\)"
    with pytest.raises(ValueError, match=message):
        call(matrices, np.stack([v0, v0]))


@pytest.mark.parametrize("shape", [(3,), (2, 2, 4), (4, 2)], ids=str)
def test_engine_rejects_a_malformed_coin_stack(shape):
    _, matrices, _ = _inputs(4, 0.5)
    with pytest.raises(ValueError, match=r"^expected a \(4,\) or \(C, 4\) Pauli vector v0"):
        kernels.distribution_trajectory(matrices, np.zeros(shape), 3)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 1.0])
def test_the_realification_residue_is_the_engines_old_term_bit_for_bit(p):
    # the engine's third defect term is |imag(U L U^-1)| over the evolved
    # half; fourier's chunked helper gives bit for bit the number and the
    # real part that one complex product of the whole half gives
    from cyclewalk import fourier

    rng = np.random.default_rng(12)
    realify = np.array([1.0, 1j, -1j, -1j])
    for n in range(2, 40):
        _, matrices, _ = _inputs(n, p, "balanced")
        matrices = matrices + 1e-12 * (rng.standard_normal(matrices.shape)
                                       + 1j * rng.standard_normal(matrices.shape))
        kept = matrices[fourier._evolved_pairs(n)[0]]
        product = kept * (realify[:, None] / realify)
        real, residue = fourier._realified(kept)
        assert residue == np.abs(product.imag).max(), n
        assert np.array_equal(real, product.real), n


def test_the_defect_holds_the_realification_residue():
    # i 1e-6 on pair (3, 1) and -i 1e-6 on its partner (1, 3) keep
    # L_{k',k} = conj L_{k,k'}, but U L U^-1 is no longer real
    n = 5
    _, matrices, v0 = _inputs(n, 0.3, "balanced")
    matrices[3 * n + 1, 1, 2] += 1e-6j
    matrices[1 * n + 3, 1, 2] -= 1e-6j
    with pytest.raises(NumericalCheckError, match=r"^pair symmetry defect 1\.000e-06 "):
        kernels.distribution_trajectory(matrices, v0, 5)


def test_the_realification_is_taken_in_bounded_chunks(monkeypatch):
    from cyclewalk import fourier

    _, matrices, _ = _inputs(9, 0.3)
    whole = fourier._realified(matrices)
    monkeypatch.setattr(fourier, "_REALIFY_CHUNK", 7)
    chunked = fourier._realified(matrices)
    assert np.array_equal(whole[0], chunked[0]) and whole[1] == chunked[1]
    matrices[80, 3, 0] = np.nan
    assert math.isnan(fourier._realified(matrices)[1])


# ---------------------------------------------------------------------------
# jumps to chosen rows vs the stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_jump_matches_the_stream(n, p):
    # all three coins of one prepared walk in both modes, at t = 0, 1, around
    # the end of the first block, and on to 10^4 steps
    runs = [_inputs(n, p, coin) for coin in _COINS]
    matrices = runs[0][1]
    v0 = np.stack([coin_v0 for _, _, coin_v0 in runs])
    block = _engine_block(n)
    times = [0, 1, block - 1, block, block + 1, 1000, 4097, 10 ** 4]
    walk = kernels._prepare(matrices, v0)
    for mode in (kernels.MODE_INSTANTANEOUS, kernels.MODE_AVERAGED):
        stream = np.concatenate([rows for _, rows in kernels._evolve(walk, times[-1], mode)],
                                axis=-2)
        jumped = kernels._jump(walk, times, mode)
        assert jumped.shape == (len(_COINS), len(times), n)
        assert np.abs(jumped - stream[:, times]).max() <= TOL
        alone = kernels._jump(kernels._prepare(matrices, runs[1][2]), times, mode)
        assert alone.shape == (len(times), n)
        assert np.abs(alone - stream[1, times]).max() <= TOL


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 101])
def test_the_instantaneous_first_row_is_the_exact_launch_delta(n, p):
    # the stream and a jump to t = 0 give P(., 0) as the delta at node 0
    # with the coin's trace, 2 Re v0[0], where the phase sum would leave
    # roundoff at nodes the walker cannot be on (at N = 3, p = 0.3:
    # 1.5e-16 and -3.0e-16); each coin of a stack as alone
    runs = [_inputs(n, p, coin) for coin in _COINS]
    matrices = runs[0][1]
    v0 = np.stack([coin_v0 for _, _, coin_v0 in runs])
    delta = np.zeros((len(_COINS), n))
    delta[:, 0] = 2.0 * v0[:, 0].real
    for steps in (0, 5):
        trajectory, _ = kernels.distribution_trajectory(matrices, v0, steps)
        assert np.array_equal(trajectory[:, 0], delta)
    jumped = kernels._jump(kernels._prepare(matrices, v0), [0, 3])
    assert np.array_equal(jumped[:, 0], delta)
    alone, _ = kernels.distribution_rows(matrices, runs[2][2], [0])
    assert np.array_equal(alone, delta[2:])


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 8, 100])
def test_power_sum_is_the_power_and_the_explicit_sum(count):
    _, matrices, _ = _inputs(5, 0.3)
    real = kernels._prepare(matrices, _inputs(5, 0.3)[2]).realified.transpose(0, 3, 1, 2)
    power, total = np.broadcast_to(np.eye(4), real.shape), np.zeros(real.shape)
    for _ in range(count):
        total = total + power
        power = power @ real
    ((jumped_power, jumped_sum),) = kernels._power_sum(real, [count])
    assert np.abs(jumped_power - power).max() <= TOL
    assert np.abs(jumped_sum - total).max() <= TOL * max(count, 1)
    # without sums, and among other counts, the same power bit for bit
    ((bare, none),) = kernels._power_sum(real, [count], sums=False)
    assert none is None and np.array_equal(bare, jumped_power)
    together = kernels._power_sum(real, [1, count, 1000])
    assert np.array_equal(together[1][0], jumped_power)
    assert np.array_equal(together[1][1], jumped_sum)


@pytest.mark.parametrize("flushed", [True, False], ids=["flushed", "unflushed"])
def test_power_sum_flushes_every_power_and_sum_it_forms(monkeypatch, flushed):
    # at N = 3 and p = 1 the powers of the realified half decay past
    # FLUSH_TOL: unflushed, each count's power and sum hold 12 nonzero
    # entries below it, the lone run of 1024 and the join of 1000's digits
    _, matrices, v0 = _inputs(3, 1.0)
    real = kernels._prepare(matrices, v0).realified.transpose(0, 3, 1, 2)
    if not flushed:
        monkeypatch.setattr(kernels, "_flush", lambda a: a)
    for power, total in kernels._power_sum(real, [1000, 1024]):
        tiny = [np.count_nonzero((a != 0) & (np.abs(a) < kernels.FLUSH_TOL))
                for a in (power, total)]
        assert sum(tiny) == (0 if flushed else 12)


def test_rows_meet_the_probability_rule_at_their_own_t(monkeypatch):
    # a dip of -5e-12 is refused at t = 0, where the floor is -1e-12, and
    # allowed at t = 10^5, where it is -PROB_FLOOR_SLOPE eps 10^5 = -1.1e-11
    _, matrices, v0 = _inputs(4, 0.3)
    row = np.array([-5e-12, 0.25 + 5e-12, 0.25, 0.5])
    monkeypatch.setattr(kernels, "_jump",
                        lambda walk, times, mode=None: np.tile(row, (len(times), 1)))
    rows, _ = kernels.distribution_rows(matrices, v0, [10 ** 5])
    assert np.array_equal(rows, [row])
    for times in ([0], [0, 10 ** 5]):
        with pytest.raises(NumericalCheckError, match=r"^negative probability -5\.000e-12$"):
            kernels.distribution_rows(matrices, v0, times)


@pytest.mark.parametrize("times", [[], [3, 3], [5, 2], [-1, 4], [1.5]])
def test_distribution_rows_reject_bad_times(times):
    _, matrices, v0 = _inputs(4, 0.3)
    with pytest.raises(ValueError):
        kernels.distribution_rows(matrices, v0, times)


@pytest.mark.parametrize("mode", [kernels.MODE_AVERAGED, kernels.MODE_INSTANTANEOUS])
@pytest.mark.parametrize("n", [4, 8, 9, 12, 13])
def test_a_scan_that_may_stop_takes_the_full_scans_chunks(monkeypatch, n, mode):
    # and stops taking them at its crossing, so its trace is the full
    # trace's prefix bit for bit, also at N = 8..13, where OpenBLAS rounds a
    # product of 2K rows unlike one of 2 rows.  The stops: at the first
    # scanned value (every TV is at most 2), and at the first record low
    # past the first block and past the second chunk's first block, where
    # the trace has one (at N = 4 the instantaneous TV is 0 at t = 1)
    lengths = []
    evolve = kernels._evolve

    def recorded(*args, **kwargs):
        for t, rows in evolve(*args, **kwargs):
            lengths.append(len(rows))
            yield t, rows

    monkeypatch.setattr(kernels, "_evolve", recorded)
    _, matrices, v0 = _inputs(n, 0.2)
    block = _engine_block(n)
    chunk = block * kernels._chunk_blocks(n, block)
    assert chunk > block
    if mode == kernels.MODE_AVERAGED:
        targets, first = np.full(n, 1.0 / n), 0
    else:
        targets, first = np.stack([_limit(n, 0), _limit(n, 1)]), 1
    # the stream's rows 0..2 chunk - 1, two chunks
    horizon = 2 * chunk - first
    full, _ = kernels.tv_scan(matrices, v0, horizon, targets, mode=mode)
    assert lengths == [chunk, chunk]
    lows = np.flatnonzero(full[1:] < np.minimum.accumulate(full)[:-1]) + 1
    stops = np.concatenate([lows[lows + first >= start][:1] for start in (block, chunk + block)])
    thresholds = [3.0, *(0.5 * (full[i] + full[:i].min()) for i in stops)]
    for threshold in thresholds:
        lengths.clear()
        tv, _ = kernels.tv_scan(matrices, v0, horizon, targets, mode=mode, stop_below=threshold)
        crossing = int(np.flatnonzero(full < threshold)[0])
        assert lengths == [chunk] * ((crossing + first) // chunk + 1)
        assert np.array_equal(tv, full[:crossing + 1])
