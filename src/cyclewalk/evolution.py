"""Two independent walk evolutions plus the classical reference chain.

The direct path evolves the full 2N x 2N density operator

    rho(t+1) = sum_n U (I tensor A_n) rho(t) (I tensor A_n)^dag U^dag,
    U = S (I tensor H),  S |x>|j> = |x + j mod N>|j>,

and serves as the oracle.  It never forms the Kraus products: their sum
is the dephasing that scales the coin off-diagonal entries by 1 - p, and
U = V / sqrt 2 with V = S (I tensor [[1, 1], [1, -1]]), whose entries are
0 and +-1, so a step is rho -> (V/2) (mask * rho) V^T, two real matrix
products.  Each entry of a product is one rounded sum of two +-1/2 or +-1
weighted terms and exact zeros, so the halving is exact and no rounded
1/sqrt 2 loses norm.  The mask, V and the halving are real, so Re rho and
Im rho evolve apart: the marginals read the diagonal of Re rho alone, and
a stack of walks of one N advances together.  A step costs O(N^3), against
the O(N^2) of gathering the rows and columns of V, but it is two BLAS calls
instead of about ten small numpy ones: the real stacks of the verify
checks step faster at every N measured (up to 101), one complex walk up
to N near 30.
The dense Kraus form and the gather step are kept in the test suite as the
references this step is bound to.

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
construction fails before a long scan starts.  The kernels also take a
(C, 4) stack of C such vectors: walks that differ only in their initial
coin share one engine call, each with the bits of its own run.  Both
trajectory entries return through the engine's full trajectory, which holds
every row to the probability rule of :mod:`cyclewalk.core`, as
:class:`PositionDistribution` and the density path's marginals hold theirs.
The two paths must agree to near machine precision; the test suite binds
them together entrywise.  The classical chain steps several cycle lengths
at once, laid end to end in one row.  Step counts and the chain's N go
through the input rules of :mod:`cyclewalk.core`: a non-integer count
raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (NumericalCheckError, WalkConfig, _check_count, _check_momenta,
                   _check_probabilities, pauli_decompose)
from .fourier import all_pair_matrices

__all__ = [
    "PositionDistribution",
    "direct_trajectory",
    "position_marginal",
    "fourier_trajectory",
    "classical_reference",
]

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


def _density_evolution(configs, t: int, parts):
    """Yield the real (len(parts), C, 2N, 2N) stacks of the parts (np.real,
    np.imag or both) of rho_c(0), rho_c(1), ..., rho_c(t) of C walks that
    share one cycle length N."""
    n = configs[0].n_nodes
    row = np.arange(2 * n)
    x, coin = np.divmod(row, 2)
    # (V r)[2x] = r[2(x-1)] + r[2(x-1)+1] and (V r)[2x+1] = r[2(x+1)] - r[2(x+1)+1]
    src = 2 * ((x - 1 + 2 * coin) % n)
    walk = np.zeros((2 * n, 2 * n))
    walk[row, src] = 1.0
    walk[row, src + 1] = 1.0 - 2.0 * coin
    half_walk, walk_transpose = 0.5 * walk, np.ascontiguousarray(walk.T)
    rates = np.array([config.decoherence_rate for config in configs])
    mask = np.where(coin[:, None] == coin, 1.0, 1.0 - rates[:, None, None])
    initial = np.stack([_initial_density(config) for config in configs])
    rho = np.stack([part(initial) for part in parts])
    yield rho
    for _ in range(int(t)):
        rho = _density_step(rho, mask, half_walk, walk_transpose)
        yield rho


def _density_step(rho, mask, half_walk, walk_transpose):
    """rho -> (V/2) (D rho) V^T on a real (..., C, 2N, 2N) stack: the
    dephasing D multiplies by mask, and the products run left to right, so
    each entry of each is one rounded sum of two terms, as a row gather of
    V and then a column gather would round it."""
    return half_walk @ (rho * mask) @ walk_transpose


def _density_stack(configs, t: int):
    """Yield the complex (C, 2N, 2N) stacks rho_c(0), rho_c(1), ..., rho_c(t)
    of C walks that share one cycle length N, evolved as Re rho and Im rho."""
    for real, imag in _density_evolution(configs, t, (np.real, np.imag)):
        rho = real.astype(np.complex128)
        rho.imag = imag
        yield rho


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
    for step, (real,) in enumerate(_density_evolution(configs, t, (np.real,))):
        diag[:, step] = real.diagonal(axis1=1, axis2=2)
    probs = diag[..., 0::2] + diag[..., 1::2]
    _check_probabilities(probs)
    return probs


def _pauli_vector(config: WalkConfig) -> np.ndarray:
    """v0 of a walk: the Pauli 4-vector of its initial coin projector."""
    return pauli_decompose(np.outer(config.initial_coin, config.initial_coin.conj()))


def _momentum_path(config: WalkConfig, kernel, *args, **kwargs):
    """Result of a ``_kernels`` reduction (passed as ``_kernels.<name>``, looked
    up at call time) on this walk's pairs; the kernel raises
    NumericalCheckError before its first step when their symmetry defect
    exceeds ``fourier.SYMMETRY_DEFECT_LIMIT``."""
    return kernel(all_pair_matrices(config)[0], _pauli_vector(config), *args, **kwargs)[0]


def fourier_trajectory(config: WalkConfig, t_max: int) -> np.ndarray:
    """P(x, t) for t = 0..t_max via the momentum path; shape (t_max+1, N)."""
    return _fourier_trajectories([config], t_max)[0]


def _fourier_trajectories(configs, t_max: int) -> np.ndarray:
    """P_c(x, t) for t = 0..t_max of C walks that share one cycle length N
    and rate p, shape (C, t_max+1, N): their initial coins are evolved in
    one engine call, each bit for bit as :func:`fourier_trajectory` evolves
    it alone."""
    _check_count("t_max", t_max, 0)
    first = configs[0]
    if any((cfg.n_nodes, cfg.decoherence_rate) != (first.n_nodes, first.decoherence_rate)
           for cfg in configs):
        raise ValueError("walks evolved together must share N and p")
    v0 = np.stack([_pauli_vector(cfg) for cfg in configs])
    return _kernels.distribution_trajectory(all_pair_matrices(first)[0], v0, int(t_max))[0]


def classical_reference(n_nodes: int, t: int) -> PositionDistribution:
    """t steps of the classical +-1 chain (probability 1/2 each) from node 0;
    the p = 1 walk's position marginal must match this exactly."""
    (chain,) = _classical_chain([n_nodes], t)
    return PositionDistribution(probs=chain[-1])


def _classical_chain(nodes, t: int) -> list:
    """Steps 0..t of the classical +-1 chain from node 0 on each cycle
    length in nodes, one (t+1, N) array per N.  The chains are laid end to
    end in one row and stepped together: a step sends half of each node's
    mass each way, 0.5 * left + 0.5 * right, with one gather of both
    neighbours per step."""
    _check_momenta(nodes)
    _check_count("t", t, 0)
    nodes = [int(n) for n in nodes]
    starts = np.cumsum([0] + nodes)
    # the left and right neighbour of every node, indexed into the row
    neighbours = np.concatenate([start + (np.arange(n) + np.array([[-1], [1]])) % n
                                 for start, n in zip(starts, nodes)], axis=1)
    chain = np.zeros((int(t) + 1, starts[-1]))
    chain[0, starts[:-1]] = 1.0
    for before, after in zip(chain, chain[1:]):
        left, right = before[neighbours]
        after[:] = 0.5 * left + 0.5 * right
    return np.split(chain, starts[1:-1], axis=1)
