"""Named one-shot checks behind ``cyclewalk verify``.

Each check exercises one verifiable property of the walk at configurable
sizes and reports the measured worst deviation.  Checks are deterministic
(fixed RNG seeds, no wall-clock content), so two runs of the same profile
produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    averaged_time_below,
    default_horizon,
    limiting_distribution,
    steps_to_uniform,
    time_averaged_snapshots,
    total_variation,
    uniform_deviation_bound,
    verify_geometric_sum,
)
from .core import WalkConfig, build_kraus_family, coin_state, pauli_compose, pauli_decompose
from .evolution import _classical_step, _density_marginals, fourier_trajectory
from .fourier import _pair_momenta, superop_closed_form, superop_definitional
from .spectral import VERDICTS, char_poly, eigenvalues, spectral_structure

__all__ = ["VerifyProfile", "PROFILES", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class VerifyProfile:
    random_tuples: int
    spectrum_max_nodes: int
    oracle_max_nodes: int
    oracle_max_steps: int
    limit_nodes: tuple
    limit_rates: tuple
    geosum_pairs: int
    geosum_taus: tuple
    bound_odd: tuple
    bound_rates: tuple
    bound_taus: tuple
    ratio_taus: tuple
    averaged_nodes: tuple
    averaged_rates: tuple


PROFILES = {
    "default": VerifyProfile(
        random_tuples=200,
        spectrum_max_nodes=16,
        oracle_max_nodes=12,
        oracle_max_steps=200,
        limit_nodes=(3, 5, 7, 9, 11, 4, 6, 8),
        limit_rates=(0.1, 0.5, 0.9),
        geosum_pairs=50,
        geosum_taus=(1, 10, 1000),
        bound_odd=(3, 5, 7, 9, 11),
        bound_rates=(0.2, 0.5),
        bound_taus=(100, 1000),
        ratio_taus=(1000, 2000),
        averaged_nodes=(4, 5, 8, 9),
        averaged_rates=(0.2, 0.6),
    ),
    "quick": VerifyProfile(
        random_tuples=60,
        spectrum_max_nodes=8,
        oracle_max_nodes=7,
        oracle_max_steps=50,
        limit_nodes=(3, 5, 4, 6),
        limit_rates=(0.5,),
        geosum_pairs=10,
        geosum_taus=(1, 10, 200),
        bound_odd=(3, 5),
        bound_rates=(0.5,),
        bound_taus=(100,),
        ratio_taus=(200, 400),
        averaged_nodes=(4, 5),
        averaged_rates=(0.2,),
    ),
}


def _random_tuples(count: int, max_nodes: int):
    """Arrays k, k', N, p of count random pairs with 2 <= N <= max_nodes."""
    rng = np.random.default_rng(2024)
    draws = []
    for _ in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        draws.append((int(rng.integers(n)), int(rng.integers(n)), n, float(rng.uniform(0, 1))))
    return tuple(map(np.array, zip(*draws)))


def _config(n, p, coin="up"):
    return WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))


def _result(name, cases, measure, tol, detail, ok=True):
    """The report entry of one check, and the one place a check is decided:
    it passes when ok holds and its measure is at most tol, so a NaN measure
    fails."""
    measure = float(measure)
    return {
        "name": name,
        "passed": bool(ok) and measure <= tol,
        "cases": int(cases),
        "measure": measure,
        "detail": detail,
    }


def check_unitality(profile: VerifyProfile):
    rates = np.linspace(0.0, 1.0, 101)
    kraus = build_kraus_family(rates)
    acc = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    return _result("unitality", len(rates), np.max(np.abs(acc - np.eye(2))), 1e-14,
                   "sum A_n^dag A_n = I over 101 rates, tol 1e-14")


def check_closedform(profile: VerifyProfile):
    pairs = _random_tuples(profile.random_tuples, 32)
    deviation = np.abs(superop_definitional(*pairs) - superop_closed_form(*pairs))
    return _result("closedform", len(pairs[0]), np.max(deviation), 1e-12,
                   "definitional vs closed-form matrices, tol 1e-12")


def check_charpoly(profile: VerifyProfile):
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vander = np.vander(nodes, 5)
    pairs = _random_tuples(profile.random_tuples, 32)
    matrices = superop_definitional(*pairs)[:, None]
    dets = np.linalg.det(nodes[:, None, None] * np.eye(4) - matrices)
    fitted = np.linalg.solve(vander, dets[..., None])[..., 0]
    return _result("charpoly", len(pairs[0]), np.max(np.abs(fitted - char_poly(*pairs))),
                   1e-10, "closed-form coefficients vs det interpolation, tol 1e-10")


def check_spectrum(profile: VerifyProfile):
    nodes = range(3, profile.spectrum_max_nodes + 1)
    structures = [spectral_structure(eigenvalues(
        superop_definitional(*_pair_momenta(n), n, p), n), n, p)
        for n in nodes for p in (0.1, 0.3, 0.5, 0.9)]
    radius = np.max([structure["max_radius"] for structure in structures])
    # spectral_structure's verdicts bound the radius; the measure only has to be a number
    return _result("spectrum", 4 * sum(n * n for n in nodes), radius - 1.0, np.inf,
                   "unit disk, +-1 placement and multiplicity over all pairs; "
                   "measure = max(radius - 1)",
                   ok=all(s[verdict] for s in structures for verdict in VERDICTS))


def check_contraction(profile: VerifyProfile):
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(40):
        n = int(rng.integers(2, 17))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        draws.append((k, kp, n, p, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
    *pairs, operands = zip(*draws)
    matrices = superop_definitional(*map(np.array, pairs))
    norms = []
    for matrix, p, operand in zip(matrices, pairs[3], operands):
        image = pauli_compose(matrix @ pauli_decompose(operand))
        before = np.vdot(operand, operand).real
        q = 1.0 - p
        identity = (q * q * before
                    + (2 * p - p * p) * (abs(operand[0, 0]) ** 2 + abs(operand[1, 1]) ** 2))
        norms.append((before, np.vdot(image, image).real, identity))
    before, after, identity = np.array(norms).T
    return _result("contraction", len(draws), np.max(after - before), 1e-12,
                   "Frobenius contraction and exact norm identity on random "
                   "operands; measure = max(|LB|^2 - |B|^2)",
                   ok=np.all(after <= before + 1e-12)
                   and np.all(np.abs(after - identity) <= 1e-12))


def check_oracle(profile: VerifyProfile):
    steps = profile.oracle_max_steps
    deviations = []
    for n in range(3, profile.oracle_max_nodes + 1):
        configs = [_config(n, p, coin) for p in (0.0, 0.1, 0.5, 1.0)
                   for coin in ("up", "balanced")]
        deviations += [np.max(np.abs(fourier_trajectory(cfg, steps) - direct))
                       for cfg, direct in zip(configs, _density_marginals(configs, steps))]
    return _result("oracle", len(deviations), np.max(deviations), 1e-10,
                   "momentum path vs density-matrix path, entrywise tol 1e-10")


def check_classical(profile: VerifyProfile):
    steps = profile.oracle_max_steps
    deviations = []
    for n in range(2, profile.oracle_max_nodes + 1):
        (marginals,) = _density_marginals([_config(n, 1.0)], steps)
        # the chain is stepped alongside the walk, as classical_reference steps it
        chain = [np.eye(n)[0]]
        for _ in range(steps):
            chain.append(_classical_step(chain[-1]))
        deviations.append(np.max(np.abs(marginals - np.stack(chain))))
    return _result("classical", len(deviations), np.max(deviations), 1e-12,
                   "p=1 marginals vs the +-1/2 chain, tol 1e-12")


def check_limits(profile: VerifyProfile):
    deviations = []
    for n in profile.limit_nodes:
        for p in profile.limit_rates:
            cfg = _config(n, p)
            t_star = steps_to_uniform(cfg, tol=1e-6)
            # even cycles alternate between two limits: check one of each
            times = (t_star,) if n % 2 else (t_star, t_star + 1)
            traj = fourier_trajectory(cfg, times[-1])
            deviations.append(np.max([
                np.abs(traj[t] - limiting_distribution(cfg, "odd" if t % 2 else "even"))
                for t in times]))
    return _result("limits", len(deviations), np.max(deviations), 1e-6,
                   "instantaneous limits 1/N (odd) and parity 2/N (even) at "
                   "the measured decay horizon, tol 1e-6")


def check_geosum(profile: VerifyProfile):
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(profile.geosum_pairs):
        n = int(rng.integers(3, 17))
        k = int(rng.integers(n))
        kp = int(rng.integers(n))
        if kp == k:
            kp = (k + 1) % n
        draws.append((k, kp, n, float(rng.uniform(0.05, 1.0))))
    matrices = superop_definitional(*map(np.array, zip(*draws)))
    deviations = [verify_geometric_sum(matrices, tau) for tau in profile.geosum_taus]
    return _result("geosum", len(matrices) * len(deviations), np.max(deviations), 1e-10,
                   "explicit power sum vs resolvent form, tol 1e-10")


def check_mixbound(profile: VerifyProfile):
    margins = []
    ratios = []
    taus = sorted(set(profile.bound_taus) | set(profile.ratio_taus))
    for n in profile.bound_odd:
        for p in profile.bound_rates:
            snaps = dict(zip(taus, time_averaged_snapshots(_config(n, p, "up"), taus)))
            margins += [np.max(np.abs(snaps[tau] - 1.0 / n)) - uniform_deviation_bound(tau, n, p)
                        for tau in profile.bound_taus]
            uniform = np.full(n, 1.0 / n)
            lo, hi = profile.ratio_taus
            ratios.append((total_variation(snaps[lo], uniform) * lo,
                           total_variation(snaps[hi], uniform) * hi))
    return _result("mixbound", len(margins), np.max(margins), 1e-9,
                   "averaged deviation under the analytic bound and bounded "
                   "TV*tau; measure = max(deviation - bound)",
                   ok=all(tv_hi <= 0 or 0.5 <= tv_lo / tv_hi <= 2.0 for tv_lo, tv_hi in ratios))


def check_averaged(profile: VerifyProfile):
    epsilon = 1e-2
    runs = []
    for n in profile.averaged_nodes:
        for p in profile.averaged_rates:
            horizon = default_horizon(n, epsilon)
            runs.append((averaged_time_below(_config(n, p), epsilon, horizon), horizon))
    return _result("averaged", len(runs),
                   np.max([1.0 if crossing is None else crossing / horizon
                           for crossing, horizon in runs]), 1.0,
                   "averaged TV drops below 1e-2 within the default horizon; "
                   "measure = max(crossing/horizon)",
                   ok=all(crossing is not None for crossing, _ in runs))


_CHECKS = [
    ("unitality", check_unitality),
    ("closedform", check_closedform),
    ("charpoly", check_charpoly),
    ("spectrum", check_spectrum),
    ("contraction", check_contraction),
    ("oracle", check_oracle),
    ("classical", check_classical),
    ("limits", check_limits),
    ("geosum", check_geosum),
    ("mixbound", check_mixbound),
    ("averaged", check_averaged),
]

CHECK_NAMES = [name for name, _ in _CHECKS]


def run_checks(names=None, profile: str = "default") -> dict:
    """Run the selected checks, in the fixed order of CHECK_NAMES, and
    assemble the deterministic report."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile!r}; available: {list(PROFILES)}")
    prof = PROFILES[profile]
    selected = [(n, fn) for n, fn in _CHECKS if names is None or n in names]
    if names is not None:
        unknown = set(names) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; "
                             f"available: {CHECK_NAMES}")
    if not selected:
        raise ValueError("no checks selected")
    results = [fn(prof) for _, fn in selected]
    return {
        "tool": "cyclewalk",
        "version": __version__,
        "profile": profile,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
