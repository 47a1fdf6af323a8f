"""The momentum-path evolution engine and its three reductions.

One private generator, :func:`_evolve`, evolves the N^2 Pauli 4-vectors (one
per momentum pair) and folds the per-pair traces back into position
distributions through the cyclic phase sum.  It works in blocks of B steps:
setup precomputes, per pair q, the rows e0^T L_q^j (j < B) and the power
L_q^B, so one block costs one batched row-state contraction (the traces of B
steps), one reshape-sum over the pairs grouped by momentum difference, one
phase product and one L^B step, whatever B is.  The public kernels are
reductions over that stream: the full trajectory, the total-variation scan
behind the mixing times (up to 10^6 steps), and Cesaro averages at chosen
window lengths.
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


def _evolve(matrices, v0, d_index, phase):
    """Yield (P(., t..t+B-1) as a (B, N) array, largest |imaginary part| in
    that block) for t = 0, B, 2B, ...

    B comes from :func:`_block_size` and the pair count alone.  The stream
    never ends; consumers stop pulling once they have what they need, so up
    to B-1 steps past the last one consumed are computed (and enter the
    block's residue).  d_index must hold each momentum difference 0..N-1
    exactly N times, as :func:`cyclewalk.fourier.all_pair_matrices` builds it.
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
    while True:
        traces = np.matmul(rows, state[:, :, None])[:, :, 0]
        g = 2.0 * traces.reshape(n, n, block).sum(axis=1)
        # phase is symmetric, so g^T @ phase is (phase @ g)^T: rows are times
        pc = (g.T @ phase) / float(n * n)
        yield pc.real, float(np.abs(pc.imag).max())
        state = _flush(np.matmul(power, state[:, :, None])[:, :, 0])


def distribution_trajectory(matrices, v0, d_index, phase, steps):
    """P(x, t) for t = 0..steps, shape (steps+1, N), plus the largest
    imaginary residue seen in the reconstruction."""
    steps = int(steps)
    out = np.empty((steps + 1, phase.shape[0]))
    max_imag = 0.0
    t = 0
    for dists, im in _evolve(matrices, v0, d_index, phase):
        take = min(len(dists), steps + 1 - t)
        out[t:t + take] = dists[:take]
        max_imag = max(max_imag, im)
        t += take
        if t > steps:
            break
    return out, max_imag


def _running_sums(cum, dists):
    """cum + P(0) + ... + P(j) for each row j of dists, added one row at a
    time in order, so the sums round exactly as a step-by-step running sum."""
    sums = np.empty((len(dists) + 1, len(cum)))
    sums[0] = cum
    sums[1:] = dists
    return np.cumsum(sums, axis=0, out=sums)[1:]


def tv_scan(matrices, v0, d_index, phase, horizon, target0, target1=None,
            mode=MODE_AVERAGED, stop_below=0.0):
    """Total-variation trace against a target distribution.

    mode=MODE_AVERAGED: tv[i] = TV(mean of P(.,0..i), target0), i.e. the
    running Cesaro average at tau = i+1, for tau = 1..horizon.  Also returns
    the final average.

    mode=MODE_INSTANTANEOUS: tv[i] = TV(P(., i+1), target) for t = 1..horizon,
    where the target alternates with the parity of t (target0 for even t).

    stop_below > 0 truncates the scan at the first value below the threshold.
    """
    if target1 is None:
        target1 = target0
    horizon, stop_below = int(horizon), float(stop_below)
    averaged = int(mode) == MODE_AVERAGED
    targets = np.stack([target0, target1])
    tv = np.empty(horizon)
    cum = np.zeros(phase.shape[0])
    max_imag = 0.0
    filled = 0
    t = 0
    for dists, im in _evolve(matrices, v0, d_index, phase):
        max_imag = max(max_imag, im)
        times = np.arange(t, t + len(dists))
        t += len(dists)
        if averaged:
            sums = _running_sums(cum, dists[:horizon - filled])
            values = np.abs(sums / (times[:len(sums), None] + 1) - target0).sum(axis=1)
        else:
            values = np.abs(dists - targets[times % 2]).sum(axis=1)
            values = values[1:] if times[0] == 0 else values
            values = values[:horizon - filled]
        stopped = False
        if stop_below > 0.0:
            below = np.flatnonzero(values < stop_below)
            if len(below):
                values = values[:below[0] + 1]
                stopped = True
        tv[filled:filled + len(values)] = values
        filled += len(values)
        if averaged and len(values):
            cum = sums[len(values) - 1]
        if stopped or filled == horizon:
            break
    if averaged:
        cum = cum / filled
    return tv[:filled], cum, max_imag


def averaged_snapshots(matrices, v0, d_index, phase, taus):
    """Cesaro averages (1/tau) sum_{t<tau} P(.,t) at each requested tau.

    taus must be sorted ascending.  Returns (len(taus), N) plus the largest
    imaginary residue.
    """
    taus = np.asarray(taus, dtype=np.int64)
    if len(taus) == 0 or np.any(np.diff(taus) <= 0) or taus[0] < 1:
        raise ValueError("taus must be a sorted ascending sequence of positive ints")
    out = np.empty((len(taus), phase.shape[0]))
    cum = np.zeros(phase.shape[0])
    max_imag = 0.0
    t = 0
    for dists, im in _evolve(matrices, v0, d_index, phase):
        max_imag = max(max_imag, im)
        sums = _running_sums(cum, dists)
        cum = sums[-1]
        # taus ending in this block: tau - 1 in [t, t + len(dists))
        hit = (taus > t) & (taus <= t + len(dists))
        out[hit] = sums[taus[hit] - t - 1] / taus[hit, None]
        t += len(dists)
        if t >= taus[-1]:
            break
    return out, max_imag
