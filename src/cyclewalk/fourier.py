"""Momentum-space machinery: the per-pair decoherence superoperator.

For each momentum pair (k, k') the one-step action on coin operators is

    L_{k,k'}(B) = sum_n C_k A_n B A_n^dag C_{k'}^dag,

a linear (not trace-preserving, unless k = k') map represented here as a 4x4
complex matrix in the Pauli basis.  It depends only on (k, k', N, p), so
pair matrices are plain arrays: both constructions take numbers or
broadcastable arrays of all four and return the broadcast shape + (4, 4), so
one call builds a whole stack, even one that mixes cycle lengths and rates.
The closed form is written in cos/sin of 2 pi (k' +- k)/N; the
definitional one applies the Kraus conjugation above to each Pauli basis
element.  Of its four 2x2 products only the last, by C_{k'}^dag, adds two
nonzero terms per entry: A_n, sigma_j and A_n^dag are diagonal or signed
permutations, so each entry of the first three is one product plus exact
zeros, and is formed entrywise with the bits a matrix product gives.  The
last stays on BLAS, whose rounding of the sum the tests pin, as one call
per pair over all 3 x 4 Kraus-Pauli images.  The engine evolves the
closed form, built for all N^2 pairs of one walk at once by
:func:`all_pair_matrices`, the one function here that takes a
:class:`~cyclewalk.core.WalkConfig`; the definitional construction is the
oracle that the ``closedform``, ``charpoly`` and ``spectrum`` verify checks
inspect, each over its whole pair sample in one call.  The closed form also
keeps the persistent structure exact: on diagonal pairs the first row is
exactly (1, 0, 0, 0), so the trace of every diagonal pair stays exactly 1
for all t.
"""

from __future__ import annotations

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


def _pair_momenta(n_nodes: int):
    """(k, k') of every pair of the N-cycle, pair (k, k') at row k*N + k':
    the layout of :func:`all_pair_matrices` and of every stack built from it."""
    return np.divmod(np.arange(n_nodes * n_nodes, dtype=np.int64), n_nodes)


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
    momentum difference of pair q.  The engine works the grouping out from
    this layout and never reads d_index, which stays for the tests and
    ``perfbench/``, which index or unpack the pair.
    """
    n = config.n_nodes
    k, k_prime = _pair_momenta(n)
    return (superop_closed_form(k, k_prime, n, config.decoherence_rate),
            (k - k_prime) % n)
