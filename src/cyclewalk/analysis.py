"""Limiting distributions, total variation, mixing times and the analytic
Cesaro deviation bound.

Total variation follows the convention sum_x |P(x) - Q(x)| with no 1/2
prefactor, so values run from 0 to 2.  The mixing time of a TV trace is the
least tau after which the trace stays below epsilon through the end of the
scanned horizon; the unbounded quantifier is certified only over that finite
horizon and the horizon is recorded alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import WalkConfig
from .evolution import PositionDistribution, _check_imag, _fourier_state
from .fourier import SuperOp
from .spectral import spectral_gap

__all__ = [
    "LimitSpec",
    "MixingReport",
    "time_averaged",
    "time_averaged_snapshots",
    "total_variation",
    "limiting_distribution",
    "averaged_limit",
    "default_horizon",
    "mixing_time_averaged",
    "mixing_time_instantaneous",
    "averaged_time_below",
    "uniform_deviation_bound",
    "uniform_deviation_bound_integral",
    "verify_geometric_sum",
    "steps_to_uniform",
]

KIND_UNIFORM_ALL = "uniform_all"
KIND_PARITY = "parity_alternating"
KIND_AVERAGED_UNIFORM = "time_averaged_uniform"

#: Hard cap on automatically chosen scan horizons.
MAX_HORIZON = 1_000_000


@dataclass(frozen=True)
class LimitSpec:
    """Shape of a limiting distribution: uniform 1/N everywhere, or (even N,
    instantaneous) 2/N on the nodes whose parity matches the step count."""

    kind: str
    n_nodes: int
    value_on_support: float
    support_parity: int | None = None

    def __post_init__(self):
        if self.kind not in (KIND_UNIFORM_ALL, KIND_PARITY, KIND_AVERAGED_UNIFORM):
            raise ValueError(f"unknown limit kind {self.kind!r}")
        if self.kind == KIND_PARITY and self.support_parity not in (0, 1):
            raise ValueError("parity_alternating limit needs support_parity 0 or 1")

    def as_array(self) -> np.ndarray:
        if self.kind == KIND_PARITY:
            probs = np.zeros(self.n_nodes)
            probs[self.support_parity::2] = self.value_on_support
            return probs
        return np.full(self.n_nodes, self.value_on_support)

    def as_distribution(self) -> PositionDistribution:
        kind = "time-averaged" if self.kind == KIND_AVERAGED_UNIFORM else "instantaneous"
        return PositionDistribution(probs=self.as_array(), kind=kind)


@dataclass(frozen=True, eq=False)
class MixingReport:
    """Result of one TV scan.

    tv_trace[i] is the total variation at tau = i + 1 (averaged target) or at
    t = i + 1 (instantaneous target).  converged means the trace stayed below
    epsilon from some point through the scanned horizon; mixing_time is the
    least such point, by scanning for the last epsilon crossing.
    """

    epsilon: float
    mixing_time: int | None
    tv_trace: np.ndarray
    horizon: int
    converged: bool
    bound_value: float | None = None

    def trace_pairs(self, stride: int = 1):
        """(t, tv) pairs, optionally thinned; the final entry is always kept."""
        stride = max(1, int(stride))
        last = len(self.tv_trace)
        pairs = list(zip(range(1, last + 1, stride), self.tv_trace[::stride].tolist()))
        if pairs and pairs[-1][0] != last:
            pairs.append((last, float(self.tv_trace[-1])))
        return pairs


def total_variation(p, q) -> float:
    """sum_x |p(x) - q(x)| over the cycle (no 1/2 prefactor)."""
    pa = p.probs if isinstance(p, PositionDistribution) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, PositionDistribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape} vs {qa.shape}")
    return float(np.abs(pa - qa).sum())


def limiting_distribution(config: WalkConfig, t_parity: str) -> LimitSpec | None:
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
    n = config.n_nodes
    if n % 2 == 1:
        return LimitSpec(kind=KIND_UNIFORM_ALL, n_nodes=n, value_on_support=1.0 / n)
    return LimitSpec(
        kind=KIND_PARITY,
        n_nodes=n,
        value_on_support=2.0 / n,
        support_parity=0 if t_parity == "even" else 1,
    )


def averaged_limit(n_nodes: int) -> LimitSpec:
    """Limit of the Cesaro-averaged distribution: uniform for every parity."""
    return LimitSpec(kind=KIND_AVERAGED_UNIFORM, n_nodes=int(n_nodes),
                     value_on_support=1.0 / n_nodes)


def time_averaged(config: WalkConfig, tau: int) -> PositionDistribution:
    """Cesaro average (1/tau) sum_{t=0}^{tau-1} P(., t)."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    avg = time_averaged_snapshots(config, [int(tau)])[0]
    return PositionDistribution(probs=avg, time=(0, int(tau)), kind="time-averaged")


def time_averaged_snapshots(config: WalkConfig, taus) -> np.ndarray:
    """Cesaro averages at several window lengths in one pass over t."""
    matrices, v0, d_index, phase = _fourier_state(config)
    avgs, max_imag = _kernels.averaged_snapshots(matrices, v0, d_index, phase, taus)
    _check_imag(max_imag)
    return avgs


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def default_horizon(n_nodes: int, epsilon: float) -> int:
    """Scan horizon ceil(20 N^2 / epsilon), capped at 10^6 steps."""
    _check_epsilon(epsilon)
    return min(math.ceil(20 * n_nodes * n_nodes / epsilon), MAX_HORIZON)


def _scan_horizon(n_nodes: int, epsilon: float, horizon: int | None) -> int:
    """Validate a scan to epsilon; horizon defaults to :func:`default_horizon`."""
    _check_epsilon(epsilon)
    if horizon is None:
        horizon = default_horizon(n_nodes, epsilon)
    if not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return horizon


def _mixing_from_trace(tv: np.ndarray, epsilon: float, horizon: int):
    """Least tau with the whole suffix below epsilon; 1 when no crossing."""
    above = np.nonzero(tv >= epsilon)[0]
    if len(above) == 0:
        return 1, True
    last = int(above[-1]) + 1
    if last >= horizon:
        return None, False
    return last, True


def _scan(config, epsilon, horizon, target0, target1, mode):
    matrices, v0, d_index, phase = _fourier_state(config)
    tv, _avg, max_imag = _kernels.tv_scan(
        matrices, v0, d_index, phase, horizon, target0, target1, mode=mode)
    _check_imag(max_imag)
    return tv


def mixing_time_averaged(config: WalkConfig, epsilon: float,
                         horizon: int | None = None) -> MixingReport:
    """Mixing time of the Cesaro-averaged distribution toward uniform.

    The averaged distribution tends to uniform for every cycle length once
    p > 0 (and for odd coherent walks as well); at p = 0 on even cycles the
    scan may legitimately fail to converge, which is reported rather than
    raised.
    """
    horizon = _scan_horizon(config.n_nodes, epsilon, horizon)
    target = averaged_limit(config.n_nodes).as_array()
    tv = _scan(config, epsilon, horizon, target, target, _kernels.MODE_AVERAGED)
    mixing_time, converged = _mixing_from_trace(tv, epsilon, horizon)
    bound = None
    if (mixing_time is not None and config.n_nodes % 2 == 1
            and config.decoherence_rate > 0.0
            and np.allclose(config.initial_coin, [1.0, 0.0], atol=1e-12)):
        bound = uniform_deviation_bound(mixing_time, config.n_nodes,
                                        config.decoherence_rate)
    return MixingReport(epsilon=float(epsilon), mixing_time=mixing_time,
                        tv_trace=tv, horizon=int(horizon), converged=converged,
                        bound_value=bound)


def mixing_time_instantaneous(config: WalkConfig, epsilon: float,
                              horizon: int | None = None) -> MixingReport:
    """Mixing time of the raw distribution P(., t).

    Odd cycles are compared against uniform.  Even cycles never settle to a
    single distribution, so each step is compared against the limit of its
    own time parity (2/N on the parity-matching nodes).
    """
    horizon = _scan_horizon(config.n_nodes, epsilon, horizon)
    n = config.n_nodes
    if n % 2 == 1:
        target0 = target1 = np.full(n, 1.0 / n)
    else:
        even_limit = LimitSpec(KIND_PARITY, n, 2.0 / n, support_parity=0)
        odd_limit = LimitSpec(KIND_PARITY, n, 2.0 / n, support_parity=1)
        target0, target1 = even_limit.as_array(), odd_limit.as_array()
    tv = _scan(config, epsilon, horizon, target0, target1,
               _kernels.MODE_INSTANTANEOUS)
    mixing_time, converged = _mixing_from_trace(tv, epsilon, horizon)
    return MixingReport(epsilon=float(epsilon), mixing_time=mixing_time,
                        tv_trace=tv, horizon=int(horizon), converged=converged)


def averaged_time_below(config: WalkConfig, epsilon: float,
                        horizon: int | None = None) -> int | None:
    """First tau at which TV(averaged distribution, uniform) drops below
    epsilon, or None if that never happens within the horizon.  Stops the
    scan at the crossing, unlike the full mixing-time scan."""
    horizon = _scan_horizon(config.n_nodes, epsilon, horizon)
    target = averaged_limit(config.n_nodes).as_array()
    matrices, v0, d_index, phase = _fourier_state(config)
    tv, _avg, max_imag = _kernels.tv_scan(
        matrices, v0, d_index, phase, horizon, target, target,
        mode=_kernels.MODE_AVERAGED, stop_below=float(epsilon))
    _check_imag(max_imag)
    if len(tv) and tv[-1] < epsilon:
        return int(len(tv))
    return None


def uniform_deviation_bound(tau: int, n_nodes: int, p: float) -> float:
    """Upper bound on max_x |averaged P(x, tau) - 1/N| for odd cycles
    launched from the coin state |1>:

        B(tau, N) = 8 / (p^2 tau N^2) * sum_{j=1}^{N-1} j / (1 - cos(2 pi j/N))

    Scales as O(N / tau); summing over nodes gives the O(N^2 / epsilon)
    mixing-time order.
    """
    if n_nodes % 2 == 0:
        raise ValueError("bound is only available for odd cycle lengths")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"decoherence rate must lie in (0, 1], got {p}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    j = np.arange(1, n_nodes)
    total = float(np.sum(j / (1.0 - np.cos(2.0 * np.pi * j / n_nodes))))
    return 8.0 / (p * p * tau * n_nodes * n_nodes) * total


def uniform_deviation_bound_integral(tau: int, n_nodes: int, p: float) -> float:
    """Integral estimate of :func:`uniform_deviation_bound`: the sum is read
    as a Riemann sum of u / (1 - cos 2 pi u) and integrated, giving

        (4 / (tau p^2 pi^2)) * [-x cot x + ln sin x]  from pi/N to (N-1)pi/N.

    Useful to see the O(N / tau) scaling; it underestimates the exact sum by
    a bounded factor.
    """
    if n_nodes % 2 == 0:
        raise ValueError("bound is only available for odd cycle lengths")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"decoherence rate must lie in (0, 1], got {p}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")

    def antiderivative(x):
        return -x / np.tan(x) + np.log(np.sin(x))

    lo = np.pi / n_nodes
    hi = (n_nodes - 1) * np.pi / n_nodes
    return 4.0 / (tau * p * p * np.pi ** 2) * (antiderivative(hi) - antiderivative(lo))


def verify_geometric_sum(superop: SuperOp, tau: int) -> float:
    """Max entrywise deviation between sum_{t<tau} L^t and the resolvent form
    (I - L)^{-1} (I - L^tau).

    Only meaningful off the diagonal pairs: at k = k' the map has a fixed
    point and I - L is singular.
    """
    if superop.k == superop.k_prime:
        raise ValueError("geometric-sum identity needs k != k' (I - L is singular)")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    m = superop.matrix
    explicit = np.zeros((4, 4), dtype=np.complex128)
    power = np.eye(4, dtype=np.complex128)
    for _ in range(int(tau)):
        explicit += power
        power = m @ power
    eye = np.eye(4, dtype=np.complex128)
    resolvent = np.linalg.solve(eye - m, eye - np.linalg.matrix_power(m, int(tau)))
    return float(np.abs(explicit - resolvent).max())


def steps_to_uniform(config: WalkConfig, tol: float = 1e-6) -> int:
    """Step count T with r^T <= tol / N^2, r the measured non-persistent
    spectral radius; past T the instantaneous distribution sits within tol of
    its limit.  Requires p > 0."""
    if config.decoherence_rate == 0.0:
        raise ValueError("no decay at p = 0; the distribution keeps oscillating")
    gap = spectral_gap(config)
    radius = 1.0 - gap.value
    if radius <= 0.0:
        return 1
    n = config.n_nodes
    return max(1, math.ceil(math.log(tol / (n * n)) / math.log(radius)))
