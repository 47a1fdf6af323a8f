"""Momentum-space machinery: the per-pair decoherence superoperator and the
pair stack.

For each momentum pair (k, k') the one-step action on coin operators is

    L_{k,k'}(B) = sum_n C_k A_n B A_n^dag C_{k'}^dag,

a linear (not trace-preserving, unless k = k') map represented here as a 4x4
complex matrix in the Pauli basis.  It depends only on (k, k', N, p), so
both constructions take numbers or broadcastable arrays of all four and
return the broadcast shape + (4, 4): one call builds a whole stack, even one
that mixes cycle lengths and rates.  The engine evolves the closed form; the
definitional one, the Kraus conjugation above, is the oracle of the
``closedform``, ``charpoly`` and ``spectrum`` verify checks.  On diagonal
pairs the closed form's first row is exactly (1, 0, 0, 0), so the trace of
every diagonal pair stays exactly 1 for all t.

This module owns the pair stack: the (N^2, 4, 4) array of all pairs of one
walk, pair (k, k') at row k*N + k', that :func:`all_pair_matrices` builds.
Its consumers, the engine in :mod:`cyclewalk._kernels` and
:mod:`cyclewalk.spectral`, take N from :func:`_stack_nodes`, which rejects
every other shape, and the rows of the evolved half, the pairs (k, k - d)
with d = 0..N//2, and of their conjugate partners (k - d, k) from
:func:`_evolved_pairs`; no other module forms a row.

It also owns U = diag(1, i, -i, -i), which makes every pair matrix real:
R = U L U^-1 has real entries, since U only multiplies entries by 1, -1 or
+-i, which is exact.  :func:`_realified` gives R and the largest imaginary
part the product left, its residue; the engine evolves R, the eigenvalues
are those of R, and the geometric sum is taken over R, all in real
arithmetic, and each holds the residue to ``SYMMETRY_DEFECT_LIMIT``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    PAULIS,
    WalkConfig,
    _check_momenta,
    build_kraus_family,
    hadamard_coin_momentum,
    pauli_decompose,
)

__all__ = [
    "superop_definitional",
    "superop_closed_form",
    "all_pair_matrices",
]

#: The diagonal of U, which makes every pair matrix real: R = U L U^-1.
_REALIFY = np.array([1.0, 1j, -1j, -1j])
#: A pair symmetry defect, or a realification residue, above this aborts a
#: run before its first step and refuses an eigensolve or a geometric sum.
SYMMETRY_DEFECT_LIMIT = 1e-8
#: Pair matrices realified per pass: bounds the complex temporary to 1 MB.
_REALIFY_CHUNK = 4096


def _pair_momenta(n_nodes: int):
    """(k, k') of every pair of the N-cycle, pair (k, k') at row k*N + k':
    the layout of :func:`all_pair_matrices` and of every stack built from it."""
    return np.divmod(np.arange(n_nodes * n_nodes, dtype=np.int64), n_nodes)


def _stack_nodes(stack, tail=(4, 4)) -> int:
    """N of a pair stack, an array of shape (N^2,) + tail with N >= 2: by
    default the (N^2, 4, 4) pair matrices.  Any other shape raises
    ValueError."""
    shape = np.shape(stack)
    n = math.isqrt(shape[0]) if shape else 0
    if n < 2 or shape != (n * n, *tail):
        raise ValueError(f"expected an (N^2{''.join(f', {m}' for m in tail)}) pair stack, "
                         f"got shape {shape}")
    return n


def _evolved_pairs(n_nodes: int):
    """Rows of the pairs (k, k - d) mod N for d = 0..N//2, d-major (entry
    d*N + k), and the rows of their conjugate partners (k - d, k).  Every
    pair outside this half is the partner of one inside it."""
    k = np.arange(n_nodes, dtype=np.int64)
    k_minus_d = (k - np.arange(n_nodes // 2 + 1)[:, None]) % n_nodes
    return (k * n_nodes + k_minus_d).ravel(), (k_minus_d * n_nodes + k).ravel()


def _realified(stack):
    """R = U L U^-1 for every L of a (..., 4, 4) stack, as a real array of
    the same shape, and the residue: the largest |imag| the product leaves,
    NaN if an entry is NaN.  The product is taken in bounded chunks, so no
    complex temporary of the whole stack is made."""
    stack = np.asarray(stack)
    flat = stack.reshape(-1, 4, 4)
    real = np.empty(flat.shape)
    ratio = _REALIFY[:, None] / _REALIFY
    residues = []
    for start in range(0, len(flat), _REALIFY_CHUNK):
        chunk = flat[start:start + _REALIFY_CHUNK] * ratio
        real[start:start + len(chunk)] = chunk.real
        residues.append(np.abs(chunk.imag).max())
    return real.reshape(stack.shape), np.max(residues)


def _pair_angles(k, k_prime, n_nodes):
    """c+, s+, c-, s- = cos/sin of 2 pi (k' +- k)/N."""
    plus = 2.0 * np.pi * (k_prime + k) / n_nodes
    minus = 2.0 * np.pi * (k_prime - k) / n_nodes
    return np.cos(plus), np.sin(plus), np.cos(minus), np.sin(minus)


def _product_2x2(a, b):
    """a @ b for broadcastable stacks of 2x2 matrices, one entry at a time:
    out_ij = a_i0 b_0j + a_i1 b_1j, the same two terms in the same order as
    the matrix product."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def superop_definitional(k, k_prime, n_nodes, rate) -> np.ndarray:
    """L_{k,k'} at cycle length N and rate p from the Kraus conjugation,
    shape broadcast(k, k', N, p).shape + (4, 4).

    Column j holds the Pauli coefficients of
    sum_n C_k A_n sigma_j A_n^dag C_{k'}^dag, each product taken left to
    right and the terms summed over n.  Every entry of
    C_k A_n sigma_j A_n^dag is one product of entries plus exact zeros, so
    those three products are taken entrywise, bit for bit as a matrix
    product gives them.  Only the last product, by C_{k'}^dag, rounds a sum
    of two terms; it stays one BLAS product per pair, of the 24 rows of the
    3 Kraus x 4 Pauli matrices at once.

    Raises ValueError unless each N is an integer >= 2, 0 <= p <= 1 and
    k, k' are integers in 0..N-1 (checked by the coin and Kraus builders).
    """
    kraus = build_kraus_family(rate)[..., :, None, :, :]
    ck = hadamard_coin_momentum(k, n_nodes)[..., None, None, :, :]
    ckp_dag = hadamard_coin_momentum(k_prime, n_nodes).conj().swapaxes(-1, -2)
    left = _product_2x2(_product_2x2(_product_2x2(ck, kraus), np.stack(PAULIS)),
                        kraus.conj().swapaxes(-1, -2))
    batch = np.broadcast_shapes(left.shape[:-4], ckp_dag.shape[:-2])
    rows = np.broadcast_to(left, batch + left.shape[-4:]).reshape(batch + (24, 2))
    images = (rows @ ckp_dag).reshape(batch + left.shape[-4:]).sum(axis=-4)
    return pauli_decompose(images).swapaxes(-1, -2)


def superop_closed_form(k, k_prime, n_nodes, rate) -> np.ndarray:
    """Closed-form L_{k,k'} at cycle length N and rate p, shape
    broadcast(k, k', N, p).shape + (4, 4).  With q = 1 - p,
    c+- = cos 2 pi (k' +- k)/N and s+- = sin 2 pi (k' +- k)/N:

        [ c-    i q s-   0       0  ]
        [ 0     0        q s+    c+ ]
        [ 0     0       -q c+    s+ ]
        [ i s-  q c-     0       0  ]

    Raises ValueError as :func:`superop_definitional` does.
    """
    _check_momenta(n_nodes, k, k_prime, rate=rate)
    c_plus, s_plus, c_minus, s_minus = _pair_angles(k, k_prime, n_nodes)
    q = 1.0 - np.asarray(rate)
    matrix = np.zeros(np.broadcast(k, k_prime, n_nodes, rate).shape + (4, 4),
                      dtype=np.complex128)
    matrix[..., 0, 0] = c_minus
    matrix[..., 0, 1] = 1j * q * s_minus
    matrix[..., 1, 2] = q * s_plus
    matrix[..., 1, 3] = c_plus
    matrix[..., 2, 2] = -q * c_plus
    matrix[..., 2, 3] = s_plus
    matrix[..., 3, 0] = 1j * s_minus
    matrix[..., 3, 1] = q * c_minus
    return matrix


def all_pair_matrices(config: WalkConfig):
    """Stack of all N^2 closed-form pair matrices plus the (k - k') mod N
    index per pair, built in one vectorised pass.

    Returns (matrices, d_index): matrices has shape (N^2, 4, 4) with pair
    (k, k') stored at row k*N + k'; d_index[q] = (k - k') mod N is the
    momentum difference of pair q, which the engine never reads: it stays
    for the tests and ``perfbench/``.
    """
    n = config.n_nodes
    k, k_prime = _pair_momenta(n)
    return (superop_closed_form(k, k_prime, n, config.decoherence_rate),
            (k - k_prime) % n)
