"""The momentum-path evolution engine and its three reductions.

One private generator, :func:`_evolve`, evolves the N^2 Pauli 4-vectors (one
per momentum pair) through repeated 4x4 matrix-vector products and folds the
per-pair traces back into a position distribution through the cyclic phase
sum, yielding ``(P(., t), imaginary residue)`` for t = 0, 1, 2, ...  The
public kernels are reductions over that stream: the full trajectory, the
total-variation scan behind the mixing times (up to 10^6 steps), and Cesaro
averages at chosen window lengths.
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
#: flushed to exact zero after every step; with spectral radii <= 1 the
#: induced error can never grow back above ~1e-280, hundreds of decades
#: under every tolerance in the package.
FLUSH_TOL = 1e-280


def _evolve(matrices, v0, d_index, phase):
    """Yield (P(., t), largest |imaginary part| of it) for t = 0, 1, 2, ...

    The stream never ends; consumers stop pulling once they have what they
    need, and no step is computed past the last one pulled.
    """
    n = phase.shape[0]
    # group[d, q] = 1 when pair q has k - k' = d (mod N)
    group = np.zeros((n, len(d_index)))
    group[d_index, np.arange(len(d_index))] = 1.0
    vectors = v0
    while True:
        # position distribution from the per-pair traces 2*v0
        g = group @ (2.0 * vectors[:, 0])
        pc = phase @ g / float(n * n)
        yield pc.real, float(np.abs(pc.imag).max())
        vectors = np.matmul(matrices, vectors[:, :, None])[:, :, 0]
        tiny = (np.abs(vectors.real) < FLUSH_TOL) & (np.abs(vectors.imag) < FLUSH_TOL)
        vectors[tiny] = 0.0


def distribution_trajectory(matrices, v0, d_index, phase, steps):
    """P(x, t) for t = 0..steps, shape (steps+1, N), plus the largest
    imaginary residue seen in the reconstruction."""
    steps = int(steps)
    out = np.empty((steps + 1, phase.shape[0]))
    max_imag = 0.0
    for t, (dist, im) in zip(range(steps + 1), _evolve(matrices, v0, d_index, phase)):
        out[t] = dist
        max_imag = max(max_imag, im)
    return out, max_imag


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
    tv = np.empty(horizon)
    cum = np.zeros(phase.shape[0])
    max_imag = 0.0
    filled = 0
    t_last = horizon - 1 if averaged else horizon
    for t, (dist, im) in zip(range(t_last + 1), _evolve(matrices, v0, d_index, phase)):
        max_imag = max(max_imag, im)
        if averaged:
            cum += dist
            value = float(np.abs(cum / (t + 1) - target0).sum())
        elif t == 0:
            continue
        else:
            target = target0 if t % 2 == 0 else target1
            value = float(np.abs(dist - target).sum())
        tv[filled] = value
        filled += 1
        if stop_below > 0.0 and value < stop_below:
            break
    if averaged:
        cum /= filled
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
    idx = 0
    for t, (dist, im) in zip(range(int(taus[-1])), _evolve(matrices, v0, d_index, phase)):
        max_imag = max(max_imag, im)
        cum += dist
        if t + 1 == taus[idx]:
            out[idx] = cum / (t + 1)
            idx += 1
    return out, max_imag
