"""Domain types and coin-space algebra for decohered walks on the N-cycle.

The coin space is spanned by the step directions j = +1 and j = -1, in that
order: the first basis vector ``|1>`` moves the walker one node forward, the
second ``|-1>`` one node backward.  All 2x2 coin operators are expanded in the
Pauli basis (sigma_0, sigma_x, sigma_y, sigma_z), which is orthogonal under
the trace inner product and turns superoperators on the coin into 4x4
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SIGMA_0",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "NumericalCheckError",
    "WalkConfig",
    "coin_state",
    "build_kraus_family",
    "hadamard_coin_momentum",
    "pauli_decompose",
    "pauli_compose",
]

SIGMA_0 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULIS_DAG = np.stack([s.conj().T for s in PAULIS])

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)

#: Named initial coin states, in the (|1>, |-1>) basis.
COIN_STATES = {
    "up": np.array([1.0, 0.0], dtype=np.complex128),
    "down": np.array([0.0, 1.0], dtype=np.complex128),
    "balanced": np.array([1j, 1.0], dtype=np.complex128) / np.sqrt(2.0),
}


class NumericalCheckError(RuntimeError):
    """A runtime numerical assertion failed (e.g. an imaginary residue that
    should vanish did not).  Signals a construction bug, not bad user input."""


def coin_state(spec) -> np.ndarray:
    """Resolve a coin state from a name ('up', 'down', 'balanced') or a
    length-2 complex sequence.  Returns a fresh complex unit 2-vector."""
    if isinstance(spec, str):
        try:
            return COIN_STATES[spec].copy()
        except KeyError:
            raise ValueError(
                f"unknown coin state {spec!r}; expected one of {sorted(COIN_STATES)}"
            ) from None
    vec = np.asarray(spec, dtype=np.complex128)
    if vec.shape != (2,):
        raise ValueError(f"coin state must have shape (2,), got {vec.shape}")
    return vec.copy()


@dataclass(frozen=True, eq=False)
class WalkConfig:
    """Full parameterization of one walk: cycle length, decoherence rate and
    initial coin state.  The walker always starts at node 0; other launch
    nodes are a cyclic relabeling of the outputs.
    """

    n_nodes: int
    decoherence_rate: float
    initial_coin: np.ndarray = field(default_factory=lambda: COIN_STATES["up"].copy())

    def __post_init__(self):
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < 2:
            raise ValueError(f"n_nodes must be an integer >= 2, got {self.n_nodes}")
        if not 0.0 <= self.decoherence_rate <= 1.0:
            raise ValueError(
                f"decoherence_rate must lie in [0, 1], got {self.decoherence_rate}"
            )
        coin = np.asarray(self.initial_coin, dtype=np.complex128)
        if coin.shape != (2,):
            raise ValueError(f"initial_coin must have shape (2,), got {coin.shape}")
        if not abs(np.linalg.norm(coin) - 1.0) <= 1e-12:
            raise ValueError("initial_coin must be normalized to within 1e-12")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "decoherence_rate", float(self.decoherence_rate))
        object.__setattr__(self, "initial_coin", coin)
        self.initial_coin.setflags(write=False)


def build_kraus_family(p: float) -> np.ndarray:
    """The three coin-measurement operators at rate p, stacked as (3, 2, 2):

        A0 = sqrt(1-p) sigma_0,
        A1 = (sqrt(p)/2)(sigma_0 + sigma_z),
        A2 = (sqrt(p)/2)(sigma_0 - sigma_z).

    They satisfy sum_n A_n^dag A_n = I, so the induced map on coin operators
    is a unital channel: with probability p per step the coin is measured in
    its computational basis, with probability 1-p it is left untouched.

    Raises ValueError if p is outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"decoherence rate must lie in [0, 1], got {p}")
    return np.stack([
        np.sqrt(1.0 - p) * SIGMA_0,
        (np.sqrt(p) / 2.0) * (SIGMA_0 + SIGMA_Z),
        (np.sqrt(p) / 2.0) * (SIGMA_0 - SIGMA_Z),
    ])


def _check_momenta(n_nodes: int, *indices):
    if not all(np.all((0 <= k) & (k < n_nodes)) for k in indices):
        raise ValueError(f"momentum indices must satisfy 0 <= k < {n_nodes}, got "
                         + ", ".join(map(str, indices)))


def hadamard_coin_momentum(k, n_nodes: int) -> np.ndarray:
    """Hadamard coin dressed with the momentum-k shift phases, shape
    k.shape + (2, 2) for an int or an int array k.

    For the cycle of length N the conditional shift acts on momentum state k
    as the diagonal phase diag(e^{-2 pi i k/N}, e^{2 pi i k/N}), so the
    one-step coin operator seen in momentum space is

        C_k = (1/sqrt 2) [[w, w], [1/w, -1/w]],  w = e^{-2 pi i k / N}.

    Raises ValueError unless 0 <= k < n_nodes.
    """
    _check_momenta(n_nodes, k)
    w = np.exp(1j * (-2.0 * np.pi * np.asarray(k) / n_nodes))
    phases = np.zeros(w.shape + (2, 2), dtype=np.complex128)
    phases[..., 0, 0] = w
    phases[..., 1, 1] = np.conj(w)
    return phases @ _HADAMARD


def pauli_decompose(m) -> np.ndarray:
    """Expand 2x2 complex matrices in the Pauli basis, v_i = tr(sigma_i m)/2:
    shape (..., 2, 2) to (..., 4).  The trace functional is tr(m) = 2 v_0,
    and the coefficients are all real exactly when m is Hermitian."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    return 0.5 * np.trace(_PAULIS_DAG @ m[..., None, :, :], axis1=-2, axis2=-1)


def pauli_compose(v) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`: shape (..., 4) to (..., 2, 2)."""
    c0, cx, cy, cz = np.moveaxis(np.asarray(v, dtype=np.complex128), -1, 0)[..., None, None]
    return c0 * SIGMA_0 + cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z
