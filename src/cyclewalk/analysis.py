"""Limiting distributions, total variation, mixing times and the analytic
Cesaro deviation bound.

Total variation follows the convention sum_x |P(x) - Q(x)| with no 1/2
prefactor, so values run from 0 to 2.  The mixing time of a TV trace is
the largest scanned tau with TV(tau) >= epsilon, so TV < epsilon at every
later scanned tau; it is 1 when no scanned tau reaches epsilon, and None (not
converged) when that tau is the horizon.  "From then on" is thus certified
only up to the scanned horizon, which is recorded with the result.  All
three scans (:func:`mixing_time_averaged`, :func:`mixing_time_instantaneous`
and :func:`averaged_time_below`) run through one private driver, which
checks epsilon and the horizon, picks the target and applies this rule.
:func:`verify_geometric_sum` takes its power sum and resolvent on the real
realified pair matrices R = U L U^-1 of :mod:`cyclewalk.fourier`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import NumericalCheckError, WalkConfig, _check_count, _check_momenta
from .evolution import PositionDistribution, _momentum_path
from .fourier import SYMMETRY_DEFECT_LIMIT, _realified
from .spectral import spectral_gap

__all__ = [
    "MixingReport",
    "time_averaged",
    "time_averaged_snapshots",
    "total_variation",
    "limiting_distribution",
    "default_horizon",
    "mixing_time_averaged",
    "mixing_time_instantaneous",
    "averaged_time_below",
    "bound_unavailable_reasons",
    "uniform_deviation_bound",
    "verify_geometric_sum",
    "steps_to_uniform",
]

#: Hard cap on automatically chosen scan horizons.
MAX_HORIZON = 1_000_000


@dataclass(frozen=True, eq=False)
class MixingReport:
    """Result of one TV scan.

    tv_trace[i] is the total variation at tau = i + 1 (averaged target) or at
    t = i + 1 (instantaneous target).  mixing_time is the largest scanned tau
    with TV(tau) >= epsilon, so TV < epsilon at every later scanned tau; it
    is 1 when no scanned tau reaches epsilon, and None when it is the horizon.
    """

    epsilon: float
    mixing_time: int | None
    tv_trace: np.ndarray
    horizon: int

    @property
    def converged(self) -> bool:
        return self.mixing_time is not None

    def trace_cells(self, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Every stride-th (t, tv) pair (stride >= 1) as two columns, the
        int times and their float TV values; the final entry is always
        kept, and a stride beyond the trace gives its first and last."""
        _check_count("stride", stride, 1)
        last = len(self.tv_trace)
        stride = min(int(stride), max(last, 1))
        times = np.arange(1, last + 1, stride)
        if len(times) and times[-1] != last:
            times = np.append(times, last)
        return times, self.tv_trace[times - 1]


def total_variation(p, q) -> float:
    """sum_x |p(x) - q(x)| over the cycle (no 1/2 prefactor)."""
    pa = p.probs if isinstance(p, PositionDistribution) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, PositionDistribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape} vs {qa.shape}")
    return float(np.abs(pa - qa).sum())


def _limit(n_nodes: int, parity: int) -> np.ndarray:
    """1/N on every node (odd N), or 2/N on the nodes of the given parity
    (even N)."""
    if n_nodes % 2 == 1:
        return np.full(n_nodes, 1.0 / n_nodes)
    probs = np.zeros(n_nodes)
    probs[parity::2] = 2.0 / n_nodes
    return probs


def limiting_distribution(config: WalkConfig, t_parity: str) -> np.ndarray | None:
    """Long-time limit of the instantaneous distribution, or None at p = 0
    (no decoherence, no limit).

    Odd cycles flatten to 1/N on every node.  Even cycles alternate: mass
    2/N sits on the nodes whose parity equals the parity of t, so the limit
    is only defined per time parity.
    """
    if t_parity not in ("even", "odd"):
        raise ValueError(f"t_parity must be 'even' or 'odd', got {t_parity!r}")
    if config.decoherence_rate == 0.0:
        return None
    return _limit(config.n_nodes, 0 if t_parity == "even" else 1)


def time_averaged(config: WalkConfig, tau: int) -> PositionDistribution:
    """Cesaro average (1/tau) sum_{t=0}^{tau-1} P(., t)."""
    _check_count("tau", tau, 1)
    avg = time_averaged_snapshots(config, [int(tau)])[0]
    return PositionDistribution(probs=avg)


def time_averaged_snapshots(config: WalkConfig, taus) -> np.ndarray:
    """Cesaro averages at several window lengths in one pass over t; the
    window lengths are checked before the pair build."""
    _kernels._check_taus(taus)
    return _momentum_path(config, _kernels.averaged_snapshots, taus)


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def default_horizon(n_nodes: int, epsilon: float) -> int:
    """Scan horizon ceil(20 N^2 / epsilon), capped at 10^6 steps before the
    rounding, which would fail on the inf a tiny epsilon gives."""
    _check_momenta(n_nodes)
    _check_epsilon(epsilon)
    return math.ceil(min(20 * n_nodes * n_nodes / epsilon, MAX_HORIZON))


def _scan(config: WalkConfig, epsilon: float, horizon: int | None, mode: int,
          stop_below: float = 0.0) -> MixingReport:
    """The one TV scan to epsilon behind every mixing time, as a report under
    the module's mixing-time rule; horizon defaults to :func:`default_horizon`.

    MODE_AVERAGED compares the Cesaro averages with uniform, MODE_INSTANTANEOUS
    each P(., t) with the limit of the parity of t.  A scan given stop_below
    ends at its first value below it, and then only the trace is meaningful.
    A non-finite TV value raises NumericalCheckError.
    """
    _check_epsilon(epsilon)
    n = config.n_nodes
    if horizon is None:
        horizon = default_horizon(n, epsilon)
    # tv_scan checks the horizon too, but only after the N^2 pair build
    _check_count("horizon", horizon, 1)
    if mode == _kernels.MODE_AVERAGED:
        targets = np.full(n, 1.0 / n)
    else:
        targets = np.stack([_limit(n, 0), _limit(n, 1)])
    tv = _momentum_path(config, _kernels.tv_scan, horizon, targets, mode=mode,
                        stop_below=stop_below)
    # tv >= epsilon is false for NaN, so a NaN trace would read as mixed
    bad = np.flatnonzero(~np.isfinite(tv))
    if len(bad):
        raise NumericalCheckError(f"non-finite total variation {float(tv[bad[0]])!r} "
                                  f"at step {bad[0] + 1}")
    above = np.flatnonzero(tv >= epsilon)
    last = int(above[-1]) + 1 if len(above) else 1
    return MixingReport(epsilon=float(epsilon),
                        mixing_time=None if len(above) and last >= horizon else last,
                        tv_trace=tv, horizon=int(horizon))


def mixing_time_averaged(config: WalkConfig, epsilon: float,
                         horizon: int | None = None) -> MixingReport:
    """Mixing time of the Cesaro-averaged distribution toward uniform.

    The averaged distribution tends to uniform for every cycle length once
    p > 0 (and for odd coherent walks as well); at p = 0 on even cycles the
    scan may legitimately fail to converge, which is reported rather than
    raised.
    """
    return _scan(config, epsilon, horizon, _kernels.MODE_AVERAGED)


def mixing_time_instantaneous(config: WalkConfig, epsilon: float,
                              horizon: int | None = None) -> MixingReport:
    """Mixing time of the raw distribution P(., t).

    Odd cycles are compared against uniform.  Even cycles never settle to a
    single distribution, so each step is compared against the limit of its
    own time parity (2/N on the parity-matching nodes).
    """
    return _scan(config, epsilon, horizon, _kernels.MODE_INSTANTANEOUS)


def averaged_time_below(config: WalkConfig, epsilon: float,
                        horizon: int | None = None) -> int | None:
    """First tau at which TV(averaged distribution, uniform) drops below
    epsilon, or None if that never happens within the horizon.  Stops the
    scan at the crossing, unlike the full mixing-time scan."""
    tv = _scan(config, epsilon, horizon, _kernels.MODE_AVERAGED,
               stop_below=epsilon).tv_trace
    return int(len(tv)) if len(tv) and tv[-1] < epsilon else None


def bound_unavailable_reasons(config: WalkConfig) -> list[str]:
    """Why :func:`uniform_deviation_bound` does not apply to this walk, in
    words; empty exactly when it does (odd N, p > 0, launched from ``up``
    up to a global phase, i.e. |c_0| = 1 within 1e-12) and finite at
    tau = 1, where it is largest."""
    n, p = config.n_nodes, config.decoherence_rate
    reasons = []
    if n % 2 == 0:
        reasons.append("even cycle length")
    if p == 0.0:
        reasons.append("zero decoherence rate")
    elif n % 2 == 1 and not math.isfinite(uniform_deviation_bound(1, n, p)):
        reasons.append("decoherence rate too small for a finite bound")
    if not abs(abs(config.initial_coin[0]) - 1.0) <= 1e-12:
        reasons.append("initial coin is not 'up'")
    return reasons


def uniform_deviation_bound(tau: int, n_nodes: int, p: float) -> float:
    """Upper bound on max_x |averaged P(x, tau) - 1/N| for odd cycles
    launched from the coin state |1>:

        B(tau, N) = 8 / (p^2 tau N^2) * sum_{j=1}^{N-1} j / (1 - cos(2 pi j/N))

    Scales as O(N / tau); summing over nodes gives the O(N^2 / epsilon)
    mixing-time order.  It is inf where p^2 underflows to 0 (p < ~1e-162).
    """
    _check_momenta(n_nodes, rate=p)
    _check_count("tau", tau, 1)
    if n_nodes % 2 == 0:
        raise ValueError("bound is only available for odd cycle lengths")
    if p == 0.0:
        raise ValueError(f"bound needs a decoherence rate p > 0, got {p}")
    j = np.arange(1, n_nodes)
    total = float(np.sum(j / (1.0 - np.cos(2.0 * np.pi * j / n_nodes))))
    scale = p * p * tau * n_nodes * n_nodes
    return 8.0 / scale * total if scale > 0.0 else math.inf


def verify_geometric_sum(matrix: np.ndarray, tau: int) -> float:
    """Max entrywise deviation between sum_{t<tau} L^t and the resolvent form
    (I - L)^{-1} (I - L^tau) for a 4x4 pair matrix L, or the largest over a
    (..., 4, 4) stack of them.

    Both sides are taken in real arithmetic, on fourier's realified
    R = U L U^-1: U is diagonal with entries of modulus 1, so the deviation
    of each entry keeps its modulus.  A matrix whose realification leaves an
    imaginary residue above ``SYMMETRY_DEFECT_LIMIT`` is no pair matrix, and
    its deviation is NaN.

    Only meaningful where I - L is invertible: raises ValueError when the
    condition number of any I - L exceeds 1e12, as on the diagonal pairs
    k = k', whose map has a fixed point.  A stack with a NaN or infinite
    entry has no condition number (its SVD does not converge), and its
    deviation is NaN.
    """
    _check_count("tau", tau, 1)
    if not np.isfinite(matrix).all():
        return float("nan")
    matrix, residue = _realified(matrix)
    if not residue <= SYMMETRY_DEFECT_LIMIT:
        return float("nan")
    eye = np.eye(4)
    cond = np.linalg.cond(eye - matrix)
    if not np.all(cond <= 1e12):
        raise ValueError(f"geometric-sum identity needs I - L invertible, "
                         f"cond(I - L) = {np.max(cond):.3e}")
    explicit = np.zeros(np.shape(matrix))
    power = eye
    for _ in range(int(tau)):
        explicit += power
        power = matrix @ power
    resolvent = np.linalg.solve(eye - matrix, eye - np.linalg.matrix_power(matrix, int(tau)))
    return float(np.abs(explicit - resolvent).max())


def steps_to_uniform(config: WalkConfig) -> int:
    """Step count T with r^T <= 1e-6 / N^2, r the measured non-persistent
    spectral radius: an estimate, not a bound, since it ignores the
    non-normality of the pair matrices (the defective pairs at p = 0.5, say),
    so nothing certifies P past T within 1e-6 of its limit.  Requires p > 0."""
    if config.decoherence_rate == 0.0:
        raise ValueError("no decay at p = 0; the distribution keeps oscillating")
    radius = 1.0 - spectral_gap(config)
    if radius <= 0.0:
        return 1
    n = config.n_nodes
    return max(1, math.ceil(math.log(1e-6 / (n * n)) / math.log(radius)))
