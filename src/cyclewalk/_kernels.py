"""The momentum-path evolution engine and its three reductions.

One private generator, :func:`_evolve`, evolves the N^2 Pauli 4-vectors (one
per momentum pair) and folds the per-pair traces back into position
distributions through the cyclic phase sum.  It works in blocks of B steps:
setup precomputes, per pair q, the rows e0^T L_q^j (j < B) and the power
L_q^B, so one block costs one batched row-state contraction (the traces of B
steps), one reshape-sum over the pairs grouped by momentum difference, one
phase product and one L^B step, whatever B is.  The stream ends at the last
step a caller asks for, and it alone cuts the last block there and tracks the
largest imaginary residue.  :func:`_averages` turns it into the stream of
Cesaro averages through one running sum.  The public kernels are folds over
these streams: the full trajectory, the total-variation scan behind the
mixing times (up to 10^6 steps), and Cesaro averages at chosen window
lengths.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "distribution_trajectory",
    "tv_scan",
    "averaged_snapshots",
    "MODE_AVERAGED",
    "MODE_INSTANTANEOUS",
]

MODE_AVERAGED = 0
MODE_INSTANTANEOUS = 1

#: Pair vectors decay geometrically, and components that drift into the
#: subnormal range can stay there for thousands of steps, where CPU
#: arithmetic is an order of magnitude slower.  Components below this are
#: flushed to exact zero in the state after every block and in the
#: precomputed rows and powers; with spectral radii <= 1 the induced error
#: can never grow back above ~1e-280, hundreds of decades under every
#: tolerance in the package.
FLUSH_TOL = 1e-280

#: Largest number of steps per block: past it the per-block numpy overhead
#: is already small next to the per-step work.
MAX_BLOCK = 64
#: Target size of the (pairs, B, 4) complex row buffer, at 64 bytes per pair
#: and step; keeps large cycles cache-friendly (N=101 gets B=3).
ROW_BUFFER_BYTES = 2 ** 21


def _block_size(pairs: int) -> int:
    """Steps per block for a stack of this many pair matrices."""
    return max(1, min(MAX_BLOCK, ROW_BUFFER_BYTES // (64 * pairs)))


def _flush(a):
    """Zero, in place, the entries whose real and imaginary parts are both
    below FLUSH_TOL; returns a."""
    a[(np.abs(a.real) < FLUSH_TOL) & (np.abs(a.imag) < FLUSH_TOL)] = 0.0
    return a


def _evolve(matrices, v0, d_index, phase, steps):
    """Yield (t, P(., t..t+b-1) as a (b, N) array, largest |imaginary part|
    of every row yielded so far) for t = 0, B, 2B, ... <= steps.

    B comes from :func:`_block_size` and the pair count alone; b = B except in
    the last block, which is cut so that the rows end at t = steps.  d_index
    must hold each momentum difference 0..N-1 exactly N times, as
    :func:`cyclewalk.fourier.all_pair_matrices` builds it.
    """
    n = phase.shape[0]
    d_index = np.asarray(d_index)
    if len(d_index) != n * n or np.any(np.bincount(d_index, minlength=n) != n):
        raise ValueError("d_index must hold each momentum difference 0..N-1 exactly N times")
    block = _block_size(len(d_index))
    # d-major pair order, so grouping the traces by d is a reshape-sum
    order = np.argsort(d_index, kind="stable")
    matrices = matrices[order]
    state = v0[order]
    # rows[q, j] = e0^T L_q^j is the first row of L_q^j
    rows = np.empty((len(order), block, 4), dtype=np.complex128)
    power = np.broadcast_to(np.eye(4, dtype=np.complex128), matrices.shape).copy()
    for j in range(block):
        rows[:, j] = power[:, 0]
        power = _flush(np.matmul(power, matrices))
    max_imag = 0.0
    for t in range(0, steps + 1, block):
        if t:
            state = _flush(np.matmul(power, state[:, :, None])[:, :, 0])
        traces = np.matmul(rows, state[:, :, None])[:, :, 0]
        g = 2.0 * traces.reshape(n, n, block).sum(axis=1)
        # phase is symmetric, so g^T @ phase is (phase @ g)^T: rows are times
        pc = ((g.T @ phase) / float(n * n))[:steps + 1 - t]
        max_imag = max(max_imag, float(np.abs(pc.imag).max()))
        yield t, pc.real, max_imag


def _averages(blocks):
    """The Cesaro stream of :func:`_evolve`'s blocks: yields (t, rows,
    max_imag) where row j is the average of P(., 0..t+j).  The running sum
    adds one row at a time in order, so it rounds as a step-by-step sum."""
    total = 0.0
    for t, dists, max_imag in blocks:
        sums = np.empty((len(dists) + 1, dists.shape[1]))
        sums[0] = total
        sums[1:] = dists
        np.cumsum(sums, axis=0, out=sums)
        total = sums[-1]
        yield t, sums[1:] / (np.arange(t, t + len(dists))[:, None] + 1), max_imag


def distribution_trajectory(matrices, v0, d_index, phase, steps):
    """P(x, t) for t = 0..steps, shape (steps+1, N), plus the largest
    imaginary residue seen in the reconstruction."""
    steps = int(steps)
    out = np.empty((steps + 1, phase.shape[0]))
    for t, dists, max_imag in _evolve(matrices, v0, d_index, phase, steps):
        out[t:t + len(dists)] = dists
    return out, max_imag


def tv_scan(matrices, v0, d_index, phase, horizon, target0, target1=None,
            mode=MODE_AVERAGED, stop_below=0.0):
    """Total-variation trace against a target distribution.

    mode=MODE_AVERAGED: tv[i] = TV(mean of P(.,0..i), target0), i.e. the
    running Cesaro average at tau = i+1, for tau = 1..horizon; target1 is not
    read.

    mode=MODE_INSTANTANEOUS: tv[i] = TV(P(., i+1), target) for t = 1..horizon,
    where the target alternates with the parity of t (target0 for even t).

    The scan ends after the first value below stop_below.
    Returns (tv, largest imaginary residue).
    """
    horizon = int(horizon)
    # tv[t] holds the value of the stream's row t; the trace starts at tv[first]
    if int(mode) == MODE_AVERAGED:
        # row t is the average at tau = t + 1
        first, targets = 0, np.stack([target0, target0])
        blocks = _averages(_evolve(matrices, v0, d_index, phase, horizon - 1))
    else:
        # row t is P(., t); t = 0 is computed but not scanned
        first = 1
        targets = np.stack([target0, target0 if target1 is None else target1])
        blocks = _evolve(matrices, v0, d_index, phase, horizon)
    tv = np.empty(first + horizon)
    for t, dists, max_imag in blocks:
        end = t + len(dists)
        tv[t:end] = np.abs(dists - targets[np.arange(t, end) % 2]).sum(axis=1)
        start = max(t, first)
        below = np.flatnonzero(tv[start:end] < stop_below)
        if len(below):
            return tv[first:start + below[0] + 1], max_imag
    return tv[first:], max_imag


def averaged_snapshots(matrices, v0, d_index, phase, taus):
    """Cesaro averages (1/tau) sum_{t<tau} P(.,t) at each requested tau.

    taus must be sorted ascending.  Returns (len(taus), N) plus the largest
    imaginary residue.
    """
    taus = np.asarray(taus, dtype=np.int64)
    if len(taus) == 0 or np.any(np.diff(taus) <= 0) or taus[0] < 1:
        raise ValueError("taus must be a sorted ascending sequence of positive ints")
    out = np.empty((len(taus), phase.shape[0]))
    blocks = _averages(_evolve(matrices, v0, d_index, phase, taus[-1] - 1))
    for t, averages, max_imag in blocks:
        # taus ending in this block: tau - 1 in [t, t + len(averages))
        hit = (taus > t) & (taus <= t + len(averages))
        out[hit] = averages[taus[hit] - t - 1]
    return out, max_imag
