"""Two independent walk evolutions plus the classical reference chain.

The direct path evolves the full 2N x 2N density operator

    rho(t+1) = sum_n U (I tensor A_n) rho(t) (I tensor A_n)^dag U^dag,
    U = S (I tensor H),  S |x>|j> = |x + j mod N>|j>,

and serves as the oracle.  The momentum path evaluates

    P(x, t) = 1/N + (1/N^2) sum_{k != k'} e^{2 pi i x (k - k')/N}
              tr(L_{k,k'}^t |psi_0><psi_0|)

through the batched kernels.  The two must agree to near machine precision;
the test suite binds them together entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import NumericalCheckError, WalkConfig, build_kraus_family, pauli_decompose
from .fourier import all_pair_matrices, phase_table

__all__ = [
    "DensityOperator",
    "PositionDistribution",
    "walk_unitary",
    "evolve_direct",
    "direct_trajectory",
    "position_marginal",
    "distribution_fourier",
    "fourier_trajectory",
    "classical_reference",
]

#: Imaginary residue above this in a reconstructed probability aborts the run.
IMAG_RESIDUE_LIMIT = 1e-8


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Probabilities over the N nodes at one time (or averaged over a time
    window); entries must be non-negative up to roundoff and sum to 1."""

    probs: np.ndarray
    time: int | tuple[int, int] | None = None
    kind: str = "instantaneous"

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if p.min() < -1e-12:
            raise NumericalCheckError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-10:
            raise NumericalCheckError(f"probabilities sum to {p.sum()!r}, not 1")
        if self.kind not in ("instantaneous", "time-averaged"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "probs", p)
        self.probs.setflags(write=False)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Walker (x) tensor coin state as a dense 2N x 2N matrix, position-major:
    node x owns the 2x2 coin block at rows/columns 2x, 2x+1."""

    matrix: np.ndarray
    n_nodes: int

    def validate(self, hermitian_tol=1e-11, trace_tol=1e-11, psd_tol=1e-9):
        m = self.matrix
        herm = np.abs(m - m.conj().T).max()
        if herm > hermitian_tol:
            raise NumericalCheckError(f"density operator not Hermitian: {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise NumericalCheckError(f"density operator trace {tr!r}, not 1")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -psd_tol:
            raise NumericalCheckError(f"density operator not PSD: {min_eig:.3e}")
        return self


def walk_unitary(n_nodes: int) -> np.ndarray:
    """One coherent step U = S (I tensor H) on the 2N-dimensional state space."""
    n = int(n_nodes)
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    shift = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for x in range(n):
        shift[2 * ((x + 1) % n), 2 * x] = 1.0          # coin |1> steps forward
        shift[2 * ((x - 1) % n) + 1, 2 * x + 1] = 1.0  # coin |-1> steps backward
    return shift @ np.kron(np.eye(n), hadamard)


def _initial_density(config: WalkConfig) -> np.ndarray:
    vec = np.zeros(2 * config.n_nodes, dtype=np.complex128)
    vec[0:2] = config.initial_coin
    return np.outer(vec, vec.conj())


def direct_trajectory(config: WalkConfig, t: int, check: bool = True):
    """Yield DensityOperator states rho(0), rho(1), ..., rho(t)."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    n = config.n_nodes
    unitary = walk_unitary(n)
    unitary_dag = unitary.conj().T
    kraus_full = [np.kron(np.eye(n), a)
                  for a in build_kraus_family(config.decoherence_rate).operators]
    rho = _initial_density(config)
    state = DensityOperator(matrix=rho, n_nodes=n)
    if check:
        state.validate()
    yield state
    for _ in range(int(t)):
        mixed = np.zeros_like(rho)
        for op in kraus_full:
            mixed += op @ rho @ op.conj().T
        rho = unitary @ mixed @ unitary_dag
        state = DensityOperator(matrix=rho, n_nodes=n)
        if check:
            state.validate()
        yield state


def evolve_direct(config: WalkConfig, t: int, check: bool = True) -> DensityOperator:
    """Density operator after t steps of the decohered walk (the oracle path)."""
    for state in direct_trajectory(config, t, check=check):
        pass
    return state


def position_marginal(rho: DensityOperator) -> PositionDistribution:
    """P(x) = tr of the coin block at node x."""
    diag = np.real(np.diagonal(rho.matrix))
    probs = diag[0::2] + diag[1::2]
    return PositionDistribution(probs=probs, kind="instantaneous")


def _fourier_state(config: WalkConfig):
    matrices, d_index = all_pair_matrices(config)
    projector = np.outer(config.initial_coin, config.initial_coin.conj())
    v0 = np.tile(pauli_decompose(projector).coeffs, (config.n_nodes ** 2, 1))
    return matrices, v0, d_index, phase_table(config.n_nodes)


def _check_imag(max_imag: float):
    if max_imag > IMAG_RESIDUE_LIMIT:
        raise NumericalCheckError(
            f"imaginary residue {max_imag:.3e} in reconstructed distribution "
            "(superoperator construction is inconsistent)"
        )


def fourier_trajectory(config: WalkConfig, t_max: int) -> np.ndarray:
    """P(x, t) for t = 0..t_max via the momentum path; shape (t_max+1, N)."""
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    matrices, v0, d_index, phase = _fourier_state(config)
    traj, max_imag = _kernels.distribution_trajectory(
        matrices, v0, d_index, phase, int(t_max))
    _check_imag(max_imag)
    return traj


def distribution_fourier(config: WalkConfig, t: int) -> PositionDistribution:
    """P(., t) evaluated through the momentum-pair trace sum."""
    traj = fourier_trajectory(config, t)
    return PositionDistribution(probs=traj[int(t)], time=int(t))


def classical_reference(n_nodes: int, t: int) -> PositionDistribution:
    """t steps of the classical +-1 chain (probability 1/2 each) from node 0;
    the p = 1 walk's position marginal must match this exactly."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    probs = np.zeros(int(n_nodes))
    probs[0] = 1.0
    for _ in range(int(t)):
        probs = _classical_step(probs)
    return PositionDistribution(probs=probs, time=int(t))


def _classical_step(probs: np.ndarray) -> np.ndarray:
    """One step of the classical +-1 chain."""
    return 0.5 * np.roll(probs, 1) + 0.5 * np.roll(probs, -1)
