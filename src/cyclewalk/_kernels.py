"""The momentum-path evolution engine and its three reductions.

Every kernel takes the (N^2, 4, 4) pair stack and v0, the Pauli 4-vector
of the initial coin operator that every pair starts from.  The stack's
contract is owned by :mod:`cyclewalk.fourier`: N, the evolved half and its
conjugate partners come from its helpers, which reject any other shape, and
the phases follow from N.

One private generator, :func:`_evolve`, evolves the Pauli 4-vectors of the
momentum pairs and folds their traces back into position distributions
through the cyclic phase sum.  P is real, so the trace sum g[N - d] of the
pairs with momentum difference N - d is the conjugate of g[d]: only the
(N//2 + 1)*N pairs with d = 0..N//2 are evolved, and the phase sum becomes
one real product with a table of w_d cos and -w_d sin (w_d = 1 for d = 0 and
d = N/2, 2 otherwise).  The realification U = diag(1, i, -i, -i) of
:mod:`cyclewalk.fourier` makes every pair matrix real, R = U L U^-1, so the
engine runs in real arithmetic on the re/im columns of the state U v.
Before the first step it computes the symmetry defect, the largest
|L_{k',k} - conj L_{k,k'}|, 2 |imag v0| and the residue of the
realification, from the evolved half and its partners alone, and raises
NumericalCheckError when it exceeds SYMMETRY_DEFECT_LIMIT or is NaN: an
inconsistent stack fails in setup, not after a scan of up to 10^6 steps.

v0 may also be a (C, 4) stack of C initial coins.  They share the whole
setup, the gather, the defect, the realification, the rows and R^B; only
the state and the trace sums gain a C axis, and each coin's distributions
are bit for bit those of its own run.

The engine works in blocks of B steps.  Setup builds, per pair, the rows
e0^T R^j (j < B) by doubling: rows m..2m-1 are rows 0..m-1 times R^m, and
R^(2m) = (R^m)^2, so B rows cost about 2 log2(B) batched 4x4 products.  The
power R^B is formed only when a second block will run.  A block costs one
R^B step of the state.  The distributions are emitted per chunk of
consecutive blocks: the chunk's block-start states are stacked, and one
batched product per difference d and coin with the rows, one table
product, one Cesaro carry and one division give all of its rows, so the
emission's numpy calls are paid once per chunk, not once per block.  A
chunk's buffers take at most a quarter of the row buffer budget and what
the rows leave of it: 6 blocks at N = 9, and one block from N = 14 on,
where the rows fill the budget alone.  The last chunk is cut at the last
step a caller asks for.  For the Cesaro averages row j becomes
e0^T (R^0 + ... + R^j): a block's product then gives the partial sums of
its distributions, and a carried N-vector, the sum before the block,
completes them; the carries of a chunk are one running sum over its
blocks, the same additions in the same order as block by block.  The
public kernels are folds over these streams: the full trajectory, the
total-variation scan behind the mixing times (up to 10^6 steps), and Cesaro
averages at chosen window lengths.  Each returns its result with the
symmetry defect.

The full trajectory is the one return point of both momentum trajectory
entries of :mod:`cyclewalk.evolution`, and it holds every row to the
probability rule of :mod:`cyclewalk.core`: row t may dip to
-max(1e-12, PROB_FLOOR_SLOPE * eps * t), because at p = 0 on even cycles the
exact zeros of the nodes of the wrong parity drift negative in proportion
to t.
"""

from __future__ import annotations

import numpy as np

from .core import NumericalCheckError, _check_count, _check_probabilities
from .fourier import SYMMETRY_DEFECT_LIMIT, _REALIFY, _evolved_pairs, _realified, _stack_nodes

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

#: Largest number of steps per block.  It binds only below N = 16, where it
#: bounds peak memory: the `verify limits` trajectories (N <= 11, up to 8906
#: steps) would otherwise fill the whole row buffer.  A cap of 512 runs the
#: 162000-step scan at N = 9 no faster.
MAX_BLOCK = 256
#: Target size of the buffer of precomputed rows, whose 4 real components
#: take 32 bytes per evolved pair and step; keeps large cycles cache-friendly
#: (N=101 evolves 5151 pairs and gets B=6).
ROW_BUFFER_BYTES = 2 ** 20


def _block_size(pairs: int) -> int:
    """Steps per block for a stack of this many evolved pair matrices."""
    return max(1, min(MAX_BLOCK, ROW_BUFFER_BYTES // (32 * pairs)))


def _chunk_blocks(n: int, block: int) -> int:
    """Blocks per chunk of emission at N, for blocks of this many steps.

    A chunk's buffers hold, per block, its start state (64 bytes per
    evolved pair) and its trace sums and distributions (8 (2 (N//2 + 1) + N)
    bytes per step).  They take at most a quarter of ROW_BUFFER_BYTES, and
    no more than the rows leave of it, so that the rows and the chunk
    together stay within it; a chunk is at least one block.  That is 6
    blocks at N = 9, and one from N = 14 on, where the rows fill the budget.
    The coin count plays no part, so each coin of a stack is chunked, and
    rounded, as its own run is.
    """
    pairs = (n // 2 + 1) * n
    room = min(ROW_BUFFER_BYTES // 4, ROW_BUFFER_BYTES - 32 * pairs * block)
    return max(1, room // (64 * pairs + 8 * block * (2 * (n // 2 + 1) + n)))


def _flush(a):
    """Zero, in place, the entries of the real array a below FLUSH_TOL in
    magnitude; returns a."""
    a[np.abs(a) < FLUSH_TOL] = 0.0
    return a


def _evolve(matrices, v0, steps, mode=MODE_INSTANTANEOUS):
    """Yield (t, rows, symmetry defect) for t = 0, KB, 2KB, ... <= steps,
    one per chunk of K blocks of B steps, where rows is a (b, N) array, or
    (C, b, N) for a (C, 4) stack v0: P(., t..t+b-1) for MODE_INSTANTANEOUS,
    or for MODE_AVERAGED the Cesaro averages (1/(s+1)) sum_{i<=s} P(., i)
    for s = t..t+b-1.

    Only the evolved half of the stack is read, in d-major order, and its
    partners for the symmetry defect, which is checked against
    SYMMETRY_DEFECT_LIMIT before any step.  B is :func:`_block_size` of the
    evolved pair count, but at most steps + 1, so a short run is one block,
    and K is :func:`_chunk_blocks`; b = KB except in the last chunk, which
    is cut so that the rows end at t = steps.
    """
    n = _stack_nodes(matrices)
    v0 = np.asarray(v0)
    if v0.shape[-1:] != (4,) or v0.ndim > 2:
        raise ValueError(f"expected a (4,) or (C, 4) Pauli vector v0, got shape {v0.shape}")
    coins = v0.reshape(-1, 4)
    half = n // 2 + 1
    evolved, partners = _evolved_pairs(n)
    kept = matrices[evolved]
    # every other pair is the partner of an evolved one, and its
    # |L_{k',k} - conj L_{k,k'}| is the same number read from the other end
    asymmetry = matrices[partners]
    asymmetry -= kept.conj()
    realified, residue = _realified(kept)
    defect = float(np.max([np.abs(asymmetry).max(), 2.0 * np.abs(v0.imag).max(), residue]))
    # written as not (... <= ...) so that a NaN defect fails it
    if not defect <= SYMMETRY_DEFECT_LIMIT:
        raise NumericalCheckError(f"pair symmetry defect {defect:.3e} (superoperator "
                                  "construction is inconsistent)")
    # group-major, then component-major, then k: R[d, i, j, k] and
    # state[d, (coin, re/im), i, k] for pair (k, k - d)
    realified = np.ascontiguousarray(realified.reshape(half, n, 4, 4).transpose(0, 2, 3, 1))
    # every pair starts from U v0; the state is stored with i varying fastest,
    # which the block products run about 10% faster on (N = 9)
    u = coins * _REALIFY
    state = np.empty((half, 2 * len(coins), 4, n))
    state[:] = np.stack([u.real, u.imag], axis=1).reshape(-1, 4, 1)
    block = max(1, min(steps + 1, _block_size(len(evolved))))
    # rows[j, d, i, k] = (e0^T R^j)_i is the first row of R^j, and also of
    # L^j U^-1, since U's first entry is 1; by doubling, rows m..2m-1 are
    # rows 0..m-1 times square = R^m, for m = 1, 2, 4, ...
    more = steps >= block   # a second block will run, which needs R^B
    rows = np.zeros((block, half, 4, n))
    rows[0, :, 0] = 1.0
    square, power = realified, None
    for i in range(block.bit_length()):
        m = 1 << i
        if i:
            if m == block and not more:
                break
            square = _flush(np.einsum("dijk,djlk->dilk", square, square))
        if block & m and more:
            power = square if power is None else _flush(
                np.einsum("dijk,djlk->dilk", power, square))
        if m < block:
            top = rows[m:2 * m]
            _flush(np.einsum("jdik,dilk->jdlk", rows[:len(top)], square, out=top))
    if mode == MODE_AVERAGED:
        # row j becomes e0^T (R^0 + ... + R^j): a block's product then gives
        # the sums of P(., t..t+j), completed by the carried sum before t
        np.cumsum(rows, axis=0, out=rows)
    # rows[d] as a (4N, B) matrix, for one product per group d
    rows = rows.reshape(block, half, 4 * n).transpose(1, 2, 0)
    # P(x) = (1/N^2) sum_d w_d (cos(2 pi x d/N) re g[d] - sin(2 pi x d/N) im g[d]),
    # with w_d = 2 for the d whose conjugate N - d is not evolved, 1 for the
    # self-conjugate d = 0 and d = N/2; the rows of table run over (d, re/im)
    phase = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(half)) / n)
    weight = np.where(2 * np.arange(half) % n == 0, 1.0, 2.0)
    # the trace of a pair is twice its state's first component, and the 2
    # is carried by the table: doubling is exact, so the products round alike
    table = np.stack([2.0 * weight * phase.real,
                      -2.0 * weight * phase.imag], axis=-1).reshape(n, 2 * half).T
    chunk = block * _chunk_blocks(n, block)
    carry = np.zeros((len(coins), 1, n))
    for t in range(0, steps + 1, chunk):
        # the block-start states of the chunk, stack[d, (coin, re/im), block, (i, k)],
        # each block's state evolved into its own slot
        starts = range(t, min(t + chunk, steps + 1), block)
        stack = np.empty((half, 2 * len(coins), len(starts), 4 * n))
        for j, start in enumerate(starts):
            slot = stack[:, :, j].reshape(state.shape)
            if start:
                state = _flush(np.einsum("dijk,drjk->drik", power, state, out=slot))
            else:
                slot[:] = state
        # one product per group d sums the traces of its N pairs over the
        # whole chunk, per coin: one product of all coins would round
        # differently in BLAS; g[(d, re/im), (block, j)] feeds the table
        dists = np.empty((len(coins), len(starts) * block, n))
        for c in range(len(coins)):
            g = np.matmul(stack[:, 2 * c:2 * c + 2].reshape(half, 2 * len(starts), 4 * n), rows)
            np.matmul(g.reshape(2 * half, -1).T, table, out=dists[c])
        dists /= float(n * n)
        if mode == MODE_AVERAGED:
            # block k's rows are partial sums from its start; its carry is the
            # sum before that start, formed by the same sequential additions
            # as a block-by-block pass
            sums = dists.reshape(len(coins), len(starts), block, n)
            sums[:, 0] += carry
            ends = np.cumsum(sums[:, :, -1], axis=1)
            sums[:, 1:] += ends[:, :-1, None]
            carry = ends[:, -1:]
            dists /= np.arange(t + 1, t + 1 + dists.shape[-2])[:, None]
        dists = dists[:, :steps + 1 - t]
        yield t, (dists[0] if v0.ndim == 1 else dists), defect


def distribution_trajectory(matrices, v0, steps):
    """P(x, t) for t = 0..steps, shape (steps+1, N), or (C, steps+1, N) for
    a (C, 4) stack v0 of C initial coins, plus the symmetry defect.  Every
    row meets the probability rule, or NumericalCheckError is raised."""
    n = _stack_nodes(matrices)
    _check_count("steps", steps, 0)
    steps = int(steps)
    out = np.empty(np.shape(v0)[:-1] + (steps + 1, n))
    for t, dists, defect in _evolve(matrices, v0, steps):
        out[..., t:t + dists.shape[-2], :] = dists
    _check_probabilities(out)
    return out, defect


def _one_coin(v0):
    """Reject every v0 but one Pauli 4-vector with ValueError."""
    if np.shape(v0) != (4,):
        raise ValueError(f"expected one (4,) Pauli vector v0, got shape {np.shape(v0)}")


def tv_scan(matrices, v0, horizon, targets, mode=MODE_AVERAGED, stop_below=0.0):
    """Total-variation trace of a stream of distributions against targets.

    targets is one distribution, shape (N,), or a (2, N) pair whose row
    t % 2 is compared with the stream's row t; one distribution is compared
    with every row.

    mode selects the stream of :func:`_evolve`.  With MODE_AVERAGED its row t
    is the Cesaro average of P(., 0..t), so tv[i] is the TV at tau = i+1, for
    tau = 1..horizon.  With MODE_INSTANTANEOUS its row t is P(., t), so tv[i]
    is the TV at t = i+1, for t = 1..horizon.

    The scan ends after the first value below stop_below.
    Returns (tv, symmetry defect).
    """
    n = _stack_nodes(matrices)
    _one_coin(v0)
    _check_count("horizon", horizon, 1)
    horizon = int(horizon)
    # one distribution is the pair that repeats it; every other shape is rejected
    targets = np.broadcast_to(targets, (2, n))
    # tv[t] holds the value of the stream's row t; the trace starts at
    # tv[first], so the instantaneous t = 0 is computed but not scanned
    first = 0 if mode == MODE_AVERAGED else 1
    tv = np.empty(first + horizon)
    for t, dists, defect in _evolve(matrices, v0, horizon - 1 + first, mode):
        end = t + len(dists)
        # each chunk's rows are a fresh array, so the deviations are formed
        # in place: rows t, t + 2, ... meet targets[t % 2], taken as pairs of
        # rows, since a strided row at a time runs several times slower
        order = targets[[t % 2, 1 - t % 2]]
        paired = len(dists) - len(dists) % 2
        row_pairs = dists[:paired].reshape(-1, 2, n)
        row_pairs -= order
        dists[paired:] -= order[0]
        np.add.reduce(np.abs(dists, out=dists), axis=1, out=tv[t:end])
        if stop_below > 0:   # no TV is below 0, so the scan then runs to the horizon
            start = max(t, first)
            below = np.flatnonzero(tv[start:end] < stop_below)
            if len(below):
                return tv[first:start + below[0] + 1], defect
    return tv[first:], defect


def _check_taus(taus) -> np.ndarray:
    """taus as an int64 array; raises ValueError unless they are integers
    >= 1 in strictly ascending order, at least one."""
    _check_count("taus", taus, 1)
    taus = np.asarray(taus, dtype=np.int64)
    if len(taus) == 0 or np.any(np.diff(taus) <= 0):
        raise ValueError(f"taus must be a non-empty ascending sequence, got {taus}")
    return taus


def averaged_snapshots(matrices, v0, taus):
    """Cesaro averages (1/tau) sum_{t<tau} P(.,t) at each requested tau.

    taus must be integers >= 1, sorted ascending.  Returns (len(taus), N)
    plus the symmetry defect.
    """
    n = _stack_nodes(matrices)
    _one_coin(v0)
    taus = _check_taus(taus)
    out = np.empty((len(taus), n))
    for t, averages, defect in _evolve(matrices, v0, int(taus[-1]) - 1, MODE_AVERAGED):
        # taus ending in this block: tau - 1 in [t, t + len(averages))
        hit = (taus > t) & (taus <= t + len(averages))
        out[hit] = averages[taus[hit] - t - 1]
    return out, defect
