"""Domain types and coin-space algebra for decohered walks on the N-cycle.

The coin space is spanned by the step directions j = +1 and j = -1, in that
order: the first basis vector ``|1>`` moves the walker one node forward, the
second ``|-1>`` one node backward.  All 2x2 coin operators are expanded in the
Pauli basis (sigma_0, sigma_x, sigma_y, sigma_z), which is orthogonal under
the trace inner product and turns superoperators on the coin into 4x4
matrices.  The constructions take numbers or broadcastable arrays of the
cycle length N, the rate p and the momenta k; only a walk run needs a
:class:`WalkConfig`.  Walk inputs are checked here and nowhere else: every
public entry calls ``_check_momenta`` for N, p and k, and ``_check_count``
for its step counts, window lengths and strides.  The probability rule,
``_check_probabilities``, is stated here too, so that the momentum engine
and the density path hold their distributions to one rule.
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

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)

#: Named initial coin states, in the (|1>, |-1>) basis.
COIN_STATES = {
    "up": np.array([1.0, 0.0], dtype=np.complex128),
    "down": np.array([0.0, 1.0], dtype=np.complex128),
    "balanced": np.array([1j, 1.0], dtype=np.complex128) / np.sqrt(2.0),
}


class NumericalCheckError(RuntimeError):
    """A runtime numerical assertion failed (e.g. the pair symmetry defect
    exceeded its limit).  Signals a construction bug, not bad user input."""


#: A distribution whose probabilities sum further than this from 1 is rejected.
PROB_SUM_TOL = 1e-10
#: Row t of a trajectory may dip to -max(1e-12, PROB_FLOOR_SLOPE * eps * t).
#: At p = 0 on even cycles the momentum path's exact zeros drift negative by
#: at most 0.0755 eps per step (N = 8 to 64, up to 10^6 steps, three coins),
#: so this slope keeps a 6.6x margin; a walk of a few hundred steps keeps
#: the floor -1e-12 for any slope below 15.
PROB_FLOOR_SLOPE = 0.5


def _check_probabilities(probs: np.ndarray):
    """The probability rule.  probs is one distribution over the nodes, or a
    (..., T, N) stack of trajectories whose row t is the distribution at
    time t; one distribution counts as t = 0.  Row t must not dip below
    -max(1e-12, PROB_FLOOR_SLOPE * eps * t) and must sum to 1 within
    PROB_SUM_TOL; raises NumericalCheckError on the worst entry or sum
    otherwise.  Each row is reduced to its minimum and its sum before any
    comparison, so no temporary of the trajectory's size is made."""
    low = np.atleast_2d(probs).min(axis=-1)
    floor = np.maximum(1e-12, PROB_FLOOR_SLOPE * np.finfo(float).eps * np.arange(low.shape[-1]))
    # written as not (... <= ...) so that NaN fails it
    bad = low[~(-floor <= low)]
    if len(bad):
        kind = "negative" if bad.min() < 0 else "non-finite"
        raise NumericalCheckError(f"{kind} probability {bad.min():.3e}")
    sums = probs.sum(axis=-1)
    defect = np.abs(sums - 1.0)
    if not (defect <= PROB_SUM_TOL).all():
        worst = sums.flat[np.argmax(defect)]
        raise NumericalCheckError(f"probabilities sum to {float(worst)!r}, not 1")


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
        _check_momenta(self.n_nodes, rate=self.decoherence_rate)
        coin = np.asarray(self.initial_coin, dtype=np.complex128)
        if coin.shape != (2,):
            raise ValueError(f"initial_coin must have shape (2,), got {coin.shape}")
        if not abs(np.linalg.norm(coin) - 1.0) <= 1e-12:
            raise ValueError("initial_coin must be normalized to within 1e-12")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "decoherence_rate", float(self.decoherence_rate))
        object.__setattr__(self, "initial_coin", coin)
        self.initial_coin.setflags(write=False)


def build_kraus_family(rate) -> np.ndarray:
    """The three coin-measurement operators at rate p, stacked as
    p.shape + (3, 2, 2) for a number or an array of rates p:

        A0 = sqrt(1-p) sigma_0,
        A1 = (sqrt(p)/2)(sigma_0 + sigma_z),
        A2 = (sqrt(p)/2)(sigma_0 - sigma_z).

    They satisfy sum_n A_n^dag A_n = I, so the induced map on coin operators
    is a unital channel: with probability p per step the coin is measured in
    its computational basis, with probability 1-p it is left untouched.

    Raises ValueError if any p is outside [0, 1].
    """
    _check_momenta(2, rate=rate)
    p = np.asarray(rate)[..., None, None]
    return np.stack([
        np.sqrt(1.0 - p) * SIGMA_0,
        (np.sqrt(p) / 2.0) * (SIGMA_0 + SIGMA_Z),
        (np.sqrt(p) / 2.0) * (SIGMA_0 - SIGMA_Z),
    ], axis=-3)


def _check_count(name, value, minimum):
    """Every entry of value an integer >= minimum (NaN and inf fail); raises
    ValueError otherwise."""
    if not np.all(np.asarray(value) % 1 == 0):
        raise ValueError(f"{name} must be an integer, got {value}")
    if not np.all(np.asarray(value) >= minimum):
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_momenta(n_nodes, *indices, rate=0.0):
    """Element by element, broadcast together: every N an integer >= 2, every
    rate in [0, 1] and each index array k an integer in 0..N-1; NaN fails
    them all.  Raises ValueError otherwise."""
    _check_count("n_nodes", n_nodes, 2)
    n, rate = np.asarray(n_nodes), np.asarray(rate)
    if not np.all((0.0 <= rate) & (rate <= 1.0)):
        raise ValueError(f"decoherence rate must lie in [0, 1], got {rate}")
    if not all(np.all((k % 1 == 0) & (0 <= k) & (k < n)) for k in indices):
        raise ValueError(f"momentum indices must be integers with 0 <= k < {n_nodes}, "
                         "got " + ", ".join(map(str, indices)))


def hadamard_coin_momentum(k, n_nodes) -> np.ndarray:
    """Hadamard coin dressed with the momentum-k shift phases, shape
    broadcast(k, N).shape + (2, 2) for ints or int arrays k and N.

    For the cycle of length N the conditional shift acts on momentum state k
    as the diagonal phase diag(e^{-2 pi i k/N}, e^{2 pi i k/N}), so the
    one-step coin operator seen in momentum space is

        C_k = (1/sqrt 2) [[w, w], [1/w, -1/w]],  w = e^{-2 pi i k / N}.

    Raises ValueError unless each N is an integer >= 2 and each k in 0..N-1.
    """
    _check_momenta(n_nodes, k)
    w = np.exp(1j * (-2.0 * np.pi * np.asarray(k) / n_nodes))
    coin = np.empty(w.shape + (2, 2), dtype=np.complex128)
    # each entry of diag(w, conj w) @ H is the one nonzero product in its sum
    coin[..., 0, 0] = coin[..., 0, 1] = w * _HADAMARD[0, 0]
    coin[..., 1, 0] = np.conj(w) * _HADAMARD[1, 0]
    coin[..., 1, 1] = np.conj(w) * _HADAMARD[1, 1]
    return coin


def pauli_decompose(m) -> np.ndarray:
    """Expand 2x2 complex matrices in the Pauli basis, v_i = tr(sigma_i m)/2:
    shape (..., 2, 2) to (..., 4).  The trace functional is tr(m) = 2 v_0,
    and the coefficients are all real exactly when m is Hermitian."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return 0.5 * np.stack([m00 + m11, m01 + m10, 1j * (m01 - m10), m00 - m11], axis=-1)


def pauli_compose(v) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`: shape (..., 4) to (..., 2, 2)."""
    c0, cx, cy, cz = np.moveaxis(np.asarray(v, dtype=np.complex128), -1, 0)[..., None, None]
    return c0 * SIGMA_0 + cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z
