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


def _result(name, passed, cases, measure, detail):
    return {
        "name": name,
        "passed": bool(passed),
        "cases": int(cases),
        "measure": float(measure),
        "detail": detail,
    }


def check_unitality(profile: VerifyProfile):
    rates = np.linspace(0.0, 1.0, 101)
    kraus = build_kraus_family(rates)
    acc = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    worst = float(np.abs(acc - np.eye(2)).max())
    return _result("unitality", worst <= 1e-14, len(rates), worst,
                   "sum A_n^dag A_n = I over 101 rates, tol 1e-14")


def check_closedform(profile: VerifyProfile):
    pairs = _random_tuples(profile.random_tuples, 32)
    worst = float(np.abs(superop_definitional(*pairs) - superop_closed_form(*pairs)).max())
    return _result("closedform", worst <= 1e-12, len(pairs[0]), worst,
                   "definitional vs closed-form matrices, tol 1e-12")


def check_charpoly(profile: VerifyProfile):
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vander = np.vander(nodes, 5)
    pairs = _random_tuples(profile.random_tuples, 32)
    matrices = superop_definitional(*pairs)[:, None]
    dets = np.linalg.det(nodes[:, None, None] * np.eye(4) - matrices)
    fitted = np.linalg.solve(vander, dets[..., None])[..., 0]
    worst = float(np.abs(fitted - char_poly(*pairs)).max())
    return _result("charpoly", worst <= 1e-10, len(pairs[0]), worst,
                   "closed-form coefficients vs det interpolation, tol 1e-10")


def check_spectrum(profile: VerifyProfile):
    worst = 0.0
    count = 0
    ok = True
    for n in range(3, profile.spectrum_max_nodes + 1):
        k, kp = _pair_momenta(n)
        for p in (0.1, 0.3, 0.5, 0.9):
            spectra = eigenvalues(superop_definitional(k, kp, n, p), n)
            structure = spectral_structure(spectra, n, p)
            count += n * n
            worst = max(worst, structure["max_radius"] - 1.0)
            ok = ok and all(structure[verdict] for verdict in VERDICTS)
    return _result("spectrum", ok, count, worst,
                   "unit disk, +-1 placement and multiplicity over all pairs; "
                   "measure = max(radius - 1)")


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
    worst = -np.inf
    ok = True
    for matrix, p, operand in zip(matrices, pairs[3], operands):
        image = matrix @ pauli_decompose(operand)
        image_m = pauli_compose(image)
        before = np.vdot(operand, operand).real
        after = np.vdot(image_m, image_m).real
        if after > before + 1e-12:
            ok = False
        worst = max(worst, after - before)
        q = 1.0 - p
        identity = (q * q * before
                    + (2 * p - p * p) * (abs(operand[0, 0]) ** 2 + abs(operand[1, 1]) ** 2))
        if abs(after - identity) > 1e-12:
            ok = False
    return _result("contraction", ok, len(draws), worst,
                   "Frobenius contraction and exact norm identity on random "
                   "operands; measure = max(|LB|^2 - |B|^2)")


def check_oracle(profile: VerifyProfile):
    worst = 0.0
    count = 0
    steps = profile.oracle_max_steps
    for n in range(3, profile.oracle_max_nodes + 1):
        configs = [_config(n, p, coin) for p in (0.0, 0.1, 0.5, 1.0)
                   for coin in ("up", "balanced")]
        for cfg, direct in zip(configs, _density_marginals(configs, steps)):
            worst = max(worst, float(np.abs(fourier_trajectory(cfg, steps) - direct).max()))
            count += 1
    return _result("oracle", worst <= 1e-10, count, worst,
                   "momentum path vs density-matrix path, entrywise tol 1e-10")


def check_classical(profile: VerifyProfile):
    worst = 0.0
    count = 0
    steps = profile.oracle_max_steps
    for n in range(2, profile.oracle_max_nodes + 1):
        (marginals,) = _density_marginals([_config(n, 1.0)], steps)
        # the chain is stepped alongside the walk, as classical_reference steps it
        reference = np.zeros(n)
        reference[0] = 1.0
        for t, probs in enumerate(marginals):
            if t:
                reference = _classical_step(reference)
            worst = max(worst, float(np.abs(probs - reference).max()))
        count += 1
    return _result("classical", worst <= 1e-12, count, worst,
                   "p=1 marginals vs the +-1/2 chain, tol 1e-12")


def check_limits(profile: VerifyProfile):
    worst = 0.0
    count = 0
    for n in profile.limit_nodes:
        for p in profile.limit_rates:
            cfg = _config(n, p)
            t_star = steps_to_uniform(cfg, tol=1e-6)
            # even cycles alternate between two limits: check one of each
            times = (t_star,) if n % 2 else (t_star, t_star + 1)
            traj = fourier_trajectory(cfg, times[-1])
            for t in times:
                limit = limiting_distribution(cfg, "odd" if t % 2 else "even")
                worst = max(worst, float(np.abs(traj[t] - limit).max()))
            count += 1
    return _result("limits", worst <= 1e-6, count, worst,
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
    worst = max(verify_geometric_sum(matrices, tau) for tau in profile.geosum_taus)
    return _result("geosum", worst <= 1e-10, len(matrices) * len(profile.geosum_taus),
                   worst, "explicit power sum vs resolvent form, tol 1e-10")


def check_mixbound(profile: VerifyProfile):
    margins = []
    ok = True
    taus = sorted(set(profile.bound_taus) | set(profile.ratio_taus))
    for n in profile.bound_odd:
        for p in profile.bound_rates:
            cfg = _config(n, p, "up")
            snaps = time_averaged_snapshots(cfg, taus)
            uniform = np.full(n, 1.0 / n)
            for tau in profile.bound_taus:
                avg = snaps[taus.index(tau)]
                deviation = float(np.abs(avg - 1.0 / n).max())
                bound = uniform_deviation_bound(tau, n, p)
                margins.append(deviation - bound)
                if margins[-1] > 1e-9:
                    ok = False
            lo, hi = profile.ratio_taus
            tv_lo = total_variation(snaps[taus.index(lo)], uniform) * lo
            tv_hi = total_variation(snaps[taus.index(hi)], uniform) * hi
            if tv_hi > 0 and not 0.5 <= tv_lo / tv_hi <= 2.0:
                ok = False
    return _result("mixbound", ok, len(margins), max(margins),
                   "averaged deviation under the analytic bound and bounded "
                   "TV*tau; measure = max(deviation - bound)")


def check_averaged(profile: VerifyProfile):
    epsilon = 1e-2
    worst = 0.0
    count = 0
    ok = True
    for n in profile.averaged_nodes:
        for p in profile.averaged_rates:
            cfg = _config(n, p)
            horizon = default_horizon(n, epsilon)
            crossing = averaged_time_below(cfg, epsilon, horizon)
            count += 1
            if crossing is None:
                ok = False
                worst = 1.0
            else:
                worst = max(worst, crossing / horizon)
    return _result("averaged", ok, count, worst,
                   "averaged TV drops below 1e-2 within the default horizon; "
                   "measure = max(crossing/horizon)")


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
