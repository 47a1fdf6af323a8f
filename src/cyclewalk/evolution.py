"""Two independent walk evolutions plus the classical reference chain.

The direct path evolves the full 2N x 2N density operator

    rho(t+1) = sum_n U (I tensor A_n) rho(t) (I tensor A_n)^dag U^dag,
    U = S (I tensor H),  S |x>|j> = |x + j mod N>|j>,

and serves as the oracle.  It never forms these dense products: the Kraus
sum is the dephasing that scales the coin off-diagonal entries by 1 - p,
and U = V / sqrt 2 with V = S (I tensor [[1, 1], [1, -1]]), whose entries
are 0 and +-1, so U rho U^dag is one row gather and one column gather of
the form r[src] + sign r[src + 1] and an exact halving.  A step is O(N^2),
and a stack of walks of one N advances together.  The dense form is kept
in the test suite as the reference this step is bound to.

The momentum path evaluates

    P(x, t) = 1/N + (1/N^2) sum_{k != k'} e^{2 pi i x (k - k')/N}
              tr(L_{k,k'}^t |psi_0><psi_0|)

through the batched kernels.  P is real, so the trace sum of difference
d = k - k' and that of -d are conjugates: the kernels evolve only the pairs
with d = 0..N//2 and weight each d by w_d = 2, or 1 for d = 0 and d = N/2.
That rests on L_{k',k} = conj L_{k,k'} and a Hermitian initial coin
operator.  The kernels take the pair stack and the Pauli vector v0 of that
operator, and before the first step they check the largest deviation from
it, the symmetry defect, against SYMMETRY_DEFECT_LIMIT, so an inconsistent
construction fails before a long scan starts.
The two paths must agree to near machine precision; the test suite binds
them together entrywise.  Step counts and the chain's N go through the input
rules of :mod:`cyclewalk.core`: a non-integer count raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import NumericalCheckError, WalkConfig, _check_count, _check_momenta, pauli_decompose
from .fourier import all_pair_matrices

__all__ = [
    "PositionDistribution",
    "direct_trajectory",
    "position_marginal",
    "fourier_trajectory",
    "classical_reference",
]

#: A distribution whose probabilities sum further than this from 1 is rejected.
PROB_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Probabilities over the N nodes at one time (or averaged over a time
    window); entries must be non-negative up to roundoff and sum to 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        _check_probabilities(p)
        object.__setattr__(self, "probs", p)
        self.probs.setflags(write=False)


def _check_probabilities(probs: np.ndarray):
    """Every distribution along the last axis non-negative to -1e-12 and
    summing to 1 within PROB_SUM_TOL; raises NumericalCheckError on the worst
    entry otherwise."""
    low = probs.min()
    # written as not (... <= ...) so that NaN fails them
    if not -1e-12 <= low:
        kind = "negative" if low < 0 else "non-finite"
        raise NumericalCheckError(f"{kind} probability {low:.3e}")
    defect = np.abs(probs.sum(axis=-1) - 1.0)
    if not (defect <= PROB_SUM_TOL).all():
        worst = probs.reshape(-1, probs.shape[-1])[np.argmax(defect)].sum()
        raise NumericalCheckError(f"probabilities sum to {float(worst)!r}, not 1")


def _check_density(rho: np.ndarray):
    """Hermitian and unit trace to 1e-11, PSD to -1e-9."""
    herm = np.abs(rho - rho.conj().T).max()
    # written as not (... <= ...) so that a NaN state fails before eigvalsh
    if not herm <= 1e-11:
        raise NumericalCheckError(f"density operator not Hermitian: {herm:.3e}")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= 1e-11:
        raise NumericalCheckError(f"density operator trace {complex(tr)!r}, not 1")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-9:
        raise NumericalCheckError(f"density operator not PSD: {min_eig:.3e}")


def _initial_density(config: WalkConfig) -> np.ndarray:
    vec = np.zeros(2 * config.n_nodes, dtype=np.complex128)
    vec[0:2] = config.initial_coin
    return np.outer(vec, vec.conj())


def _density_stack(configs, t: int):
    """Yield the (C, 2N, 2N) stacks rho_c(0), rho_c(1), ..., rho_c(t) of C
    walks that share one cycle length N."""
    n = configs[0].n_nodes
    x, coin = np.divmod(np.arange(2 * n), 2)
    # (V r)[2x] = r[2(x-1)] + r[2(x-1)+1] and (V r)[2x+1] = r[2(x+1)] - r[2(x+1)+1]
    src = 2 * ((x - 1 + 2 * coin) % n)
    sign = 1.0 - 2.0 * coin
    rates = np.array([config.decoherence_rate for config in configs])
    mask = np.where(coin[:, None] == coin, 1.0, 1.0 - rates[:, None, None])
    rho = np.stack([_initial_density(config) for config in configs])
    yield rho
    for _ in range(int(t)):
        rho = _density_step(rho, mask, src, sign)
        yield rho


def _density_step(rho, mask, src, sign):
    """rho -> V (D rho) V^dag / 2 on a (C, 2N, 2N) stack: the dephasing D
    multiplies by mask, V is gathered from src and sign on both sides, and
    the halving is exact, so no rounded 1/sqrt 2 loses norm each step."""
    rho = rho * mask
    rho = rho[:, src] + sign[:, None] * rho[:, src + 1]
    rho = rho[:, :, src] + sign * rho[:, :, src + 1]
    rho *= 0.5
    return rho


def direct_trajectory(config: WalkConfig, t: int):
    """Yield the density matrices rho(0), rho(1), ..., rho(t) of the walker
    (x) coin state: dense 2N x 2N arrays, position-major, so node x owns the
    2x2 coin block at rows/columns 2x, 2x+1.  Each is validated as a density
    operator (Hermitian, unit trace, PSD) before it is yielded."""
    _check_count("t", t, 0)
    for rho in _density_stack([config], t):
        _check_density(rho[0])
        yield rho[0]


def position_marginal(rho: np.ndarray) -> PositionDistribution:
    """P(x) = tr of the coin block at node x of a 2N x 2N density matrix."""
    diag = np.real(np.diagonal(rho))
    probs = diag[0::2] + diag[1::2]
    return PositionDistribution(probs=probs)


def _density_marginals(configs, t: int) -> np.ndarray:
    """P_c(x, t) for t = 0..t of C walks of one N from the direct path,
    shape (C, t+1, N), validated as PositionDistribution validates one."""
    diag = np.empty((len(configs), int(t) + 1, 2 * configs[0].n_nodes))
    for step, rho in enumerate(_density_stack(configs, t)):
        diag[:, step] = np.diagonal(rho, axis1=1, axis2=2).real
    probs = diag[..., 0::2] + diag[..., 1::2]
    _check_probabilities(probs)
    return probs


def _momentum_path(config: WalkConfig, kernel, *args, **kwargs):
    """Result of a ``_kernels`` reduction (passed as ``_kernels.<name>``, looked
    up at call time) on this walk's pairs; the kernel raises
    NumericalCheckError before its first step when their symmetry defect
    exceeds ``_kernels.SYMMETRY_DEFECT_LIMIT``."""
    projector = np.outer(config.initial_coin, config.initial_coin.conj())
    return kernel(all_pair_matrices(config)[0], pauli_decompose(projector),
                  *args, **kwargs)[0]


def fourier_trajectory(config: WalkConfig, t_max: int) -> np.ndarray:
    """P(x, t) for t = 0..t_max via the momentum path; shape (t_max+1, N)."""
    _check_count("t_max", t_max, 0)
    return _momentum_path(config, _kernels.distribution_trajectory, int(t_max))


def classical_reference(n_nodes: int, t: int) -> PositionDistribution:
    """t steps of the classical +-1 chain (probability 1/2 each) from node 0;
    the p = 1 walk's position marginal must match this exactly."""
    _check_momenta(n_nodes)
    _check_count("t", t, 0)
    probs = np.zeros(int(n_nodes))
    probs[0] = 1.0
    for _ in range(int(t)):
        probs = _classical_step(probs)
    return PositionDistribution(probs=probs)


def _classical_step(probs: np.ndarray) -> np.ndarray:
    """One step of the classical +-1 chain: half of each node's mass moves
    forward, half backward (np.roll's result, without its per-call cost)."""
    forward = np.concatenate((probs[-1:], probs[:-1]))
    backward = np.concatenate((probs[1:], probs[:1]))
    return 0.5 * forward + 0.5 * backward
