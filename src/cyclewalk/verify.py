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
    steps_to_uniform,
    time_averaged_snapshots,
    total_variation,
    uniform_deviation_bound,
    verify_geometric_sum,
)
from .core import WalkConfig, build_kraus_family, coin_state, pauli_compose, pauli_decompose
from .evolution import _classical_step, direct_trajectory, fourier_trajectory, position_marginal
from .fourier import superop_closed_form, superop_definitional
from .spectral import CLASS_ANTIPODAL, CLASS_DIAGONAL, char_poly, eigenvalues

__all__ = ["VerifyProfile", "PROFILES", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class VerifyProfile:
    name: str
    random_tuples: int
    spectrum_max_nodes: int
    oracle_max_nodes: int
    oracle_max_steps: int
    limit_odd: tuple
    limit_even: tuple
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
        name="default",
        random_tuples=200,
        spectrum_max_nodes=16,
        oracle_max_nodes=12,
        oracle_max_steps=200,
        limit_odd=(3, 5, 7, 9, 11),
        limit_even=(4, 6, 8),
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
        name="quick",
        random_tuples=60,
        spectrum_max_nodes=8,
        oracle_max_nodes=7,
        oracle_max_steps=50,
        limit_odd=(3, 5),
        limit_even=(4, 6),
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


def _random_tuples(count: int, max_nodes: int, seed: int = 2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_nodes + 1))
        yield (n, int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0, 1)))


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
    worst = 0.0
    rates = np.linspace(0.0, 1.0, 101)
    for p in rates:
        worst = max(worst, build_kraus_family(float(p)).unitality_defect())
    return _result("unitality", worst <= 1e-14, len(rates), worst,
                   "sum A_n^dag A_n = I over 101 rates, tol 1e-14")


def check_closedform(profile: VerifyProfile):
    worst = 0.0
    count = 0
    for n, k, kp, p in _random_tuples(profile.random_tuples, 32):
        cfg = _config(n, p)
        defect = np.abs(superop_definitional(k, kp, cfg).matrix
                        - superop_closed_form(k, kp, cfg).matrix).max()
        worst = max(worst, float(defect))
        count += 1
    return _result("closedform", worst <= 1e-12, count, worst,
                   "definitional vs closed-form matrices, tol 1e-12")


def check_charpoly(profile: VerifyProfile):
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vander = np.vander(nodes, 5)
    worst = 0.0
    count = 0
    for n, k, kp, p in _random_tuples(profile.random_tuples, 32):
        cfg = _config(n, p)
        op = superop_definitional(k, kp, cfg)
        dets = np.array([np.linalg.det(lam * np.eye(4) - op.matrix) for lam in nodes])
        fitted = np.linalg.solve(vander, dets)
        defect = np.abs(fitted - char_poly(op).coefficients).max()
        worst = max(worst, float(defect))
        count += 1
    return _result("charpoly", worst <= 1e-10, count, worst,
                   "closed-form coefficients vs det interpolation, tol 1e-10")


def check_spectrum(profile: VerifyProfile):
    worst = 0.0
    count = 0
    ok = True
    for n in range(3, profile.spectrum_max_nodes + 1):
        for p in (0.1, 0.3, 0.5, 0.9):
            cfg = _config(n, p)
            for k in range(n):
                for kp in range(n):
                    op = superop_definitional(k, kp, cfg)
                    rep = eigenvalues(op)
                    count += 1
                    worst = max(worst, rep.spectral_radius - 1.0)
                    if rep.spectral_radius > 1.0 + 1e-10:
                        ok = False
                    near_unit = np.abs(np.abs(rep.eigenvalues) - 1.0) < 1e-9
                    for lam in rep.eigenvalues[near_unit]:
                        if min(abs(lam - 1.0), abs(lam + 1.0)) > 1e-8:
                            ok = False
                    if rep.has_unit_eigenvalue != (rep.classification == CLASS_DIAGONAL):
                        ok = False
                    if rep.has_minus_one != (rep.classification == CLASS_ANTIPODAL):
                        ok = False
                    if rep.has_minus_one:
                        if abs(char_poly(op).derivative(-1.0)) <= 1e-10:
                            ok = False
    return _result("spectrum", ok, count, worst,
                   "unit disk, +-1 placement and multiplicity over all pairs; "
                   "measure = max(radius - 1)")


def check_contraction(profile: VerifyProfile):
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    ok = True
    for _ in range(40):
        n = int(rng.integers(2, 17))
        k, kp = int(rng.integers(n)), int(rng.integers(n))
        p = float(rng.uniform(0, 1))
        cfg = _config(n, p)
        op = superop_definitional(k, kp, cfg)
        operand = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        image = op.matrix @ pauli_decompose(operand).coeffs
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
        count += 1
    return _result("contraction", ok, count, worst,
                   "Frobenius contraction and exact norm identity on random "
                   "operands; measure = max(|LB|^2 - |B|^2)")


def check_oracle(profile: VerifyProfile):
    worst = 0.0
    count = 0
    steps = profile.oracle_max_steps
    for n in range(3, profile.oracle_max_nodes + 1):
        for p in (0.0, 0.1, 0.5, 1.0):
            for coin in ("up", "balanced"):
                cfg = _config(n, p, coin)
                fourier = fourier_trajectory(cfg, steps)
                for t, rho in enumerate(direct_trajectory(cfg, steps, check=False)):
                    direct = position_marginal(rho).probs
                    worst = max(worst, float(np.abs(fourier[t] - direct).max()))
                count += 1
    return _result("oracle", worst <= 1e-10, count, worst,
                   "momentum path vs density-matrix path, entrywise tol 1e-10")


def check_classical(profile: VerifyProfile):
    worst = 0.0
    count = 0
    steps = profile.oracle_max_steps
    for n in range(2, profile.oracle_max_nodes + 1):
        cfg = _config(n, 1.0)
        # the chain is stepped alongside the walk, as classical_reference steps it
        reference = np.zeros(n)
        reference[0] = 1.0
        for t, rho in enumerate(direct_trajectory(cfg, steps, check=False)):
            if t:
                reference = _classical_step(reference)
            worst = max(worst, float(np.abs(position_marginal(rho).probs - reference).max()))
        count += 1
    return _result("classical", worst <= 1e-12, count, worst,
                   "p=1 marginals vs the +-1/2 chain, tol 1e-12")


def check_limits(profile: VerifyProfile):
    worst = 0.0
    count = 0
    for n in profile.limit_odd:
        for p in profile.limit_rates:
            cfg = _config(n, p)
            t_star = steps_to_uniform(cfg, tol=1e-6)
            dist = fourier_trajectory(cfg, t_star)[t_star]
            worst = max(worst, float(np.abs(dist - 1.0 / n).max()))
            count += 1
    for n in profile.limit_even:
        for p in profile.limit_rates:
            cfg = _config(n, p)
            t_star = steps_to_uniform(cfg, tol=1e-6)
            traj = fourier_trajectory(cfg, t_star + 1)
            for t in (t_star, t_star + 1):
                dist = traj[t]
                support = dist[t % 2::2]
                rest = dist[(t + 1) % 2::2]
                worst = max(worst, float(np.abs(support - 2.0 / n).max()))
                worst = max(worst, float(np.abs(rest).max()))
            count += 1
    return _result("limits", worst <= 1e-6, count, worst,
                   "instantaneous limits 1/N (odd) and parity 2/N (even) at "
                   "the measured decay horizon, tol 1e-6")


def check_geosum(profile: VerifyProfile):
    rng = np.random.default_rng(5)
    worst = 0.0
    count = 0
    for _ in range(profile.geosum_pairs):
        n = int(rng.integers(3, 17))
        k = int(rng.integers(n))
        kp = int(rng.integers(n))
        if kp == k:
            kp = (k + 1) % n
        p = float(rng.uniform(0.05, 1.0))
        op = superop_definitional(k, kp, _config(n, p))
        for tau in profile.geosum_taus:
            worst = max(worst, verify_geometric_sum(op, tau))
            count += 1
    return _result("geosum", worst <= 1e-10, count, worst,
                   "explicit power sum vs resolvent form, tol 1e-10")


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
    prof = PROFILES[profile]
    selected = [(n, fn) for n, fn in _CHECKS if names is None or n in names]
    if names is not None:
        unknown = set(names) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; "
                             f"available: {CHECK_NAMES}")
    results = [fn(prof) for _, fn in selected]
    return {
        "tool": "cyclewalk",
        "version": __version__,
        "profile": prof.name,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
