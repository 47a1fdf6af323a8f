"""Momentum-space machinery: the per-pair decoherence superoperator.

For each momentum pair (k, k') the one-step action on coin operators is

    L_{k,k'}(B) = sum_n C_k A_n B A_n^dag C_{k'}^dag,

a linear (not trace-preserving, unless k = k') map represented here as a 4x4
complex matrix in the Pauli basis.  Two constructions are provided: a closed
form in terms of cos/sin of 2 pi (k' +- k)/N, and the definitional one, built
column by column from the Kraus conjugation above.  The engine evolves the
closed form, built for all N^2 pairs at once by :func:`all_pair_matrices`;
the definitional construction is the oracle that the ``closedform`` verify
check compares it against.  The closed form also keeps the persistent
structure exact: on diagonal pairs the first row is exactly (1, 0, 0, 0),
so the trace of every diagonal pair stays exactly 1 for all t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PAULIS,
    WalkConfig,
    build_kraus_family,
    hadamard_coin_momentum,
    pauli_decompose,
)

__all__ = [
    "SuperOp",
    "superop_definitional",
    "superop_closed_form",
    "all_pair_matrices",
    "phase_table",
]


@dataclass(frozen=True, eq=False)
class SuperOp:
    """4x4 Pauli-basis matrix of the pair superoperator, tagged with its
    momentum indices, cycle length, decoherence rate and the phase cosines
    c+- = cos(2 pi (k' +- k)/N), s+- = sin(2 pi (k' +- k)/N)."""

    matrix: np.ndarray
    k: int
    k_prime: int
    n_nodes: int
    rate: float
    c_plus: float
    s_plus: float
    c_minus: float
    s_minus: float


def _pair_angles(k: int, k_prime: int, n_nodes: int):
    plus = 2.0 * np.pi * (k_prime + k) / n_nodes
    minus = 2.0 * np.pi * (k_prime - k) / n_nodes
    return np.cos(plus), np.sin(plus), np.cos(minus), np.sin(minus)


def _check_indices(k: int, k_prime: int, config: WalkConfig):
    n = config.n_nodes
    if not (0 <= k < n and 0 <= k_prime < n):
        raise ValueError(
            f"momentum indices must satisfy 0 <= k, k' < {n}, got ({k}, {k_prime})"
        )


def superop_definitional(k: int, k_prime: int, config: WalkConfig) -> SuperOp:
    """Build L_{k,k'} column by column from the Kraus conjugation.

    Column j holds the Pauli coefficients of
    sum_n C_k A_n sigma_j A_n^dag C_{k'}^dag.
    """
    _check_indices(k, k_prime, config)
    n, p = config.n_nodes, config.decoherence_rate
    kraus = build_kraus_family(p)
    ck = hadamard_coin_momentum(k, n)
    ckp_dag = hadamard_coin_momentum(k_prime, n).conj().T
    matrix = np.empty((4, 4), dtype=np.complex128)
    for j, sigma in enumerate(PAULIS):
        image = np.zeros((2, 2), dtype=np.complex128)
        for a in kraus:
            image += ck @ a @ sigma @ a.conj().T @ ckp_dag
        matrix[:, j] = pauli_decompose(image).coeffs
    cp, sp, cm, sm = _pair_angles(k, k_prime, n)
    return SuperOp(matrix=matrix, k=int(k), k_prime=int(k_prime), n_nodes=n,
                   rate=p, c_plus=cp, s_plus=sp, c_minus=cm, s_minus=sm)


def _closed_form_matrices(rate: float, c_plus, s_plus, c_minus, s_minus) -> np.ndarray:
    """Closed-form pair matrices for broadcastable arrays of phase cosines
    and sines; shape angles.shape + (4, 4).  With q = 1 - p:

        [ c-    i q s-   0       0  ]
        [ 0     0        q s+    c+ ]
        [ 0     0       -q c+    s+ ]
        [ i s-  q c-     0       0  ]
    """
    q = 1.0 - rate
    matrix = np.zeros(np.shape(c_plus) + (4, 4), dtype=np.complex128)
    matrix[..., 0, 0] = c_minus
    matrix[..., 0, 1] = 1j * q * s_minus
    matrix[..., 1, 2] = q * s_plus
    matrix[..., 1, 3] = c_plus
    matrix[..., 2, 2] = -q * c_plus
    matrix[..., 2, 3] = s_plus
    matrix[..., 3, 0] = 1j * s_minus
    matrix[..., 3, 1] = q * c_minus
    return matrix


def superop_closed_form(k: int, k_prime: int, config: WalkConfig) -> SuperOp:
    """Closed-form matrix of L_{k,k'}, entry for entry the one that
    :func:`all_pair_matrices` stores for the pair."""
    _check_indices(k, k_prime, config)
    n, p = config.n_nodes, config.decoherence_rate
    cp, sp, cm, sm = _pair_angles(k, k_prime, n)
    return SuperOp(matrix=_closed_form_matrices(p, cp, sp, cm, sm), k=int(k),
                   k_prime=int(k_prime), n_nodes=n, rate=p,
                   c_plus=cp, s_plus=sp, c_minus=cm, s_minus=sm)


def all_pair_matrices(config: WalkConfig):
    """Stack of all N^2 closed-form pair matrices plus the (k - k') mod N
    index per pair, built in one vectorised pass.

    Returns (matrices, d_index): matrices has shape (N^2, 4, 4) with pair
    (k, k') stored at row k*N + k'; d_index[q] = (k - k') mod N drives the
    phase grouping in the distribution reconstruction.
    """
    n = config.n_nodes
    k, k_prime = np.divmod(np.arange(n * n, dtype=np.int64), n)
    matrices = _closed_form_matrices(config.decoherence_rate, *_pair_angles(k, k_prime, n))
    return matrices, (k - k_prime) % n


def phase_table(n_nodes: int) -> np.ndarray:
    """phase[x, d] = e^{2 pi i x d / N}; row x reconstructs P(x, .) from the
    trace sums grouped by momentum difference d."""
    x = np.arange(n_nodes)
    return np.exp(2j * np.pi * np.outer(x, x) / n_nodes)
