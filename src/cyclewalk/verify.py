"""Named one-shot checks behind ``cyclewalk verify``.

Each check exercises one verifiable property of the walk at configurable
sizes and reports the measured worst deviation.  Checks are deterministic
(sampled cases come from fixed seeds of the stdlib ``random.random`` stream,
no wall-clock content), so two runs of the same profile produce
byte-identical reports.

A run splits its checks into two lanes: a child forked once per run runs
the worker lane (:data:`_WORKER_LANE`) while the calling process runs the
rest, and the report puts the entries of both back in the order of
CHECK_NAMES.  The lanes run one after the other in the calling process when
it cannot fork, has fewer than two usable CPUs, or when every selected check
falls in one lane.  Each lane keeps its own store, so a check that keeps a
value for a later one shares its lane.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    _steps_to_uniform,
    averaged_time_below,
    default_horizon,
    limiting_distribution,
    time_averaged_snapshots,
    total_variation,
    uniform_deviation_bound,
    verify_geometric_sum,
)
from .core import (NumericalCheckError, WalkConfig, build_kraus_family, coin_state,
                   pauli_compose, pauli_decompose)
from .evolution import _classical_chain, _density_marginals, _fourier_rows, _fourier_trajectories
from .fourier import superop_closed_form, superop_definitional
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


def _sample_pairs(seed: int, count: int, nodes: tuple, rates=(0.0, 1.0), extra: int = 0):
    """count random pairs: arrays k, k', N, p with low <= N <= high for
    nodes = (low, high), 0 <= k, k' < N and a <= p < b for rates = (a, b),
    and a (count, extra) array of further uniforms in [0, 1).

    Every value comes from random.Random(seed).random(), the one stdlib
    stream kept the same across Python versions, drawn pair by pair in the
    order N, k, k', p, extras: integers as floor(u * n), rates as
    a + (b - a) * u.  floor(u * n) < n for every u < 1 and n < 2**53.
    """
    width = 4 + extra
    stream = random.Random(seed)
    u = np.array([stream.random() for _ in range(count * width)]).reshape(count, width)
    low, high = nodes
    n = low + np.floor(u[:, 0] * (high - low + 1)).astype(np.int64)
    k, k_prime = np.floor(u[:, 1:3] * n[:, None]).astype(np.int64).T
    low_rate, high_rate = rates
    return (k, k_prime, n, low_rate + (high_rate - low_rate) * u[:, 3]), u[:, 4:]


def _keep(store, key, value):
    """Keep value in the store of a run_checks call, for the later check
    that takes it."""
    if store is not None:
        store[key] = value


def _take(store, key, build):
    """The value an earlier check kept in the store for key, dropped from
    it once taken, or else build()."""
    if store is not None and key in store:
        return store.pop(key)
    return build()


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


def check_unitality(profile: VerifyProfile, store=None):
    rates = np.linspace(0.0, 1.0, 101)
    kraus = build_kraus_family(rates)
    acc = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    return _result("unitality", len(rates), np.max(np.abs(acc - np.eye(2))), 1e-14,
                   "sum A_n^dag A_n = I over 101 rates, tol 1e-14")


def _pair_sample(profile: VerifyProfile):
    """The seed-2024 pairs of closedform and charpoly and their definitional
    matrices."""
    pairs, _ = _sample_pairs(2024, profile.random_tuples, (2, 32))
    return pairs, superop_definitional(*pairs)


def check_closedform(profile: VerifyProfile, store=None):
    pairs, matrices = _pair_sample(profile)
    _keep(store, "pair-sample", (pairs, matrices))
    deviation = np.abs(matrices - superop_closed_form(*pairs))
    return _result("closedform", len(pairs[0]), np.max(deviation), 1e-12,
                   "definitional vs closed-form matrices, tol 1e-12")


def check_charpoly(profile: VerifyProfile, store=None):
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    vander = np.vander(nodes, 5)
    pairs, matrices = _take(store, "pair-sample", lambda: _pair_sample(profile))
    matrices = matrices[:, None]
    dets = np.linalg.det(nodes[:, None, None] * np.eye(4) - matrices)
    fitted = np.linalg.solve(vander, dets[..., None])[..., 0]
    return _result("charpoly", len(pairs[0]), np.max(np.abs(fitted - char_poly(*pairs))),
                   1e-10, "closed-form coefficients vs det interpolation, tol 1e-10")


def check_spectrum(profile: VerifyProfile, store=None):
    nodes = range(3, profile.spectrum_max_nodes + 1)
    # pair (k, k') at row k N + k', with the Kraus chain of each k formed
    # once for its N pairs
    structures = [spectral_structure(eigenvalues(superop_definitional(
        np.arange(n)[:, None], np.arange(n), n, p).reshape(-1, 4, 4)), p)
        for n in nodes for p in (0.1, 0.3, 0.5, 0.9)]
    radius = np.max([structure["max_radius"] for structure in structures])
    # spectral_structure's verdicts bound the radius; the measure only has to be a number
    return _result("spectrum", 4 * sum(n * n for n in nodes), radius - 1.0, np.inf,
                   "unit disk, +-1 placement and multiplicity over all pairs; "
                   "measure = max(radius - 1)",
                   ok=all(s[verdict] for s in structures for verdict in VERDICTS))


def check_contraction(profile: VerifyProfile, store=None):
    pairs, u = _sample_pairs(11, 40, (2, 16), extra=8)
    # real and imaginary parts of each 2x2 operand uniform in [-1, 1)
    operands = (2 * u[:, :4] - 1 + 1j * (2 * u[:, 4:] - 1)).reshape(-1, 2, 2)
    coefficients = pauli_decompose(operands)[..., None]
    images = pauli_compose((superop_definitional(*pairs) @ coefficients)[..., 0])
    p = pairs[3]
    before = np.sum(np.abs(operands) ** 2, axis=(-2, -1))
    after = np.sum(np.abs(images) ** 2, axis=(-2, -1))
    diagonal = np.abs(operands[:, 0, 0]) ** 2 + np.abs(operands[:, 1, 1]) ** 2
    identity = (1.0 - p) ** 2 * before + (2 * p - p * p) * diagonal
    return _result("contraction", len(operands), np.max(after - before), 1e-12,
                   "Frobenius contraction and exact norm identity on random "
                   "operands; measure = max(|LB|^2 - |B|^2)",
                   ok=np.all(np.abs(after - identity) <= 1e-12))


def check_oracle(profile: VerifyProfile, store=None):
    steps = profile.oracle_max_steps
    deviations = []
    for n in range(3, profile.oracle_max_nodes + 1):
        walks = [[_config(n, p, coin) for coin in ("up", "balanced")]
                 for p in (0.0, 0.1, 0.5, 1.0)]
        # the two coins of each (N, p) share one engine call
        momentum = np.concatenate([_fourier_trajectories(coins, steps) for coins in walks])
        direct = _density_marginals([cfg for coins in walks for cfg in coins], steps)
        deviations += [np.max(np.abs(a - b)) for a, b in zip(momentum, direct)]
        # the p = 1, up walk, stepped bit for bit as alone, is classical's
        _keep(store, ("classical", n), direct[-2].copy())
    return _result("oracle", len(deviations), np.max(deviations), 1e-10,
                   "momentum path vs density-matrix path, entrywise tol 1e-10")


def check_classical(profile: VerifyProfile, store=None):
    steps = profile.oracle_max_steps
    nodes = range(2, profile.oracle_max_nodes + 1)
    deviations = []
    for n, chain in zip(nodes, _classical_chain(nodes, steps)):
        # oracle steps this walk for N >= 3; a run without it steps it here
        walk = _take(store, ("classical", n),
                     lambda: _density_marginals([_config(n, 1.0)], steps)[0])
        deviations.append(np.max(np.abs(walk - chain)))
    return _result("classical", len(deviations), np.max(deviations), 1e-12,
                   "p=1 marginals vs the +-1/2 chain, tol 1e-12")


def check_limits(profile: VerifyProfile, store=None):
    deviations = []
    for n in profile.limit_nodes:
        # the rates of one N share one pair build and one eigensolve for t*
        for p, t_star in zip(profile.limit_rates, _steps_to_uniform(n, profile.limit_rates)):
            cfg = _config(n, p)
            # even cycles alternate between two limits: check one of each
            times = (t_star,) if n % 2 else (t_star, t_star + 1)
            deviations.append(np.max([
                np.abs(row - limiting_distribution(cfg, "odd" if t % 2 else "even"))
                for row, t in zip(_fourier_rows(cfg, times), times)]))
    return _result("limits", len(deviations), np.max(deviations), 1e-6,
                   "instantaneous limits 1/N (odd) and parity 2/N (even) at "
                   "the measured decay horizon, tol 1e-6")


def check_geosum(profile: VerifyProfile, store=None):
    (k, k_prime, n, p), _ = _sample_pairs(5, profile.geosum_pairs, (3, 16), (0.05, 1.0))
    # a diagonal pair has the eigenvalue 1, where the resolvent form is singular
    k_prime = np.where(k_prime == k, (k + 1) % n, k_prime)
    matrices = superop_definitional(k, k_prime, n, p)
    deviations = [verify_geometric_sum(matrices, tau) for tau in profile.geosum_taus]
    return _result("geosum", len(matrices) * len(deviations), np.max(deviations), 1e-10,
                   "explicit power sum vs resolvent form, tol 1e-10")


def check_mixbound(profile: VerifyProfile, store=None):
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


def check_averaged(profile: VerifyProfile, store=None):
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


#: every check in report order; a check's name is that of its function.  A
#: check takes the profile and the store of its run_checks call, a dict in
#: which it keeps what a later check takes; called alone, it has none.
_CHECKS = [check_unitality, check_closedform, check_charpoly, check_spectrum, check_contraction,
           check_oracle, check_classical, check_limits, check_geosum, check_mixbound,
           check_averaged]

CHECK_NAMES = [fn.__name__.removeprefix("check_") for fn in _CHECKS]


#: the checks of the forked worker lane, each check that keeps a value in the
#: store with the check that takes it: closedform's pair sample is charpoly's,
#: oracle's p = 1 walks are classical's.  With geosum and mixbound, its share
#: of a default run is about that of the other lane.
_WORKER_LANE = ("closedform", "charpoly", "oracle", "classical", "geosum", "mixbound")


def _run_check(name, fn, profile, store):
    """The report entry of check fn; a NumericalCheckError raised inside it
    is its failed entry, with the measure NaN and the message as detail."""
    try:
        return fn(profile, store)
    except NumericalCheckError as exc:
        return _result(name, 0, np.nan, 0.0, f"numerical assertion failed: {exc}")


def _run_lane(lane, profile):
    """The report entries of the (name, check) pairs of lane, run in order
    with one store."""
    store = {}
    return [_run_check(name, fn, profile, store) for name, fn in lane]


def _usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lanes(worker, own, profile):
    """The entries of the worker lane, then those of own: the worker lane
    in a forked child while this process runs own, when both have checks
    and there are a fork and two usable CPUs, else both lanes here.

    The child sends its entries, or the exception its lane raised, pickled
    through a pipe, and that exception is raised here.  A child that ends
    without sending raises RuntimeError with its exit status, and a failing
    own lane kills the child; either way the child is reaped.
    """
    if not (worker and own and hasattr(os, "fork") and _usable_cpus() >= 2):
        return _run_lane(worker, profile) + _run_lane(own, profile)
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns of a fork of a process with more than one thread,
        # which the pool of OpenBLAS adds at two threads or more; OpenBLAS
        # quiesces that pool around a fork through pthread_atfork, so this
        # fork is safe
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        # the child writes only to its pipe and always leaves through
        # os._exit: it never returns into the caller nor flushes the buffers
        # it inherited
        code = 1
        try:
            os.close(read)
            try:
                message = (_run_lane(worker, profile), None)
            except Exception as exc:
                message = (None, exc)
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(message))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            entries = _run_lane(own, profile)
            # only the child forked here writes to this pipe, so its bytes
            # are safe to unpickle
            message = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not message:
        raise RuntimeError("the worker lane of verify sent no report "
                           f"(exit status {os.waitstatus_to_exitcode(status)})")
    worker_entries, error = pickle.loads(message)
    if error is not None:
        raise error
    return worker_entries + entries


def run_checks(names=None, profile: str = "default") -> dict:
    """Run the selected checks and assemble the deterministic report, in the
    fixed order of CHECK_NAMES: every selected check has its entry, also
    when it raised a NumericalCheckError.  A check reuses what an earlier
    one of the run built: charpoly the seed-2024 pair sample of closedform,
    and classical the p = 1 density walks that oracle steps.  The checks of
    _WORKER_LANE run in a forked child, beside the others (see the module
    docstring)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile!r}; available: {list(PROFILES)}")
    prof = PROFILES[profile]
    # _CHECKS is read at the call and the lanes are chosen by name, so a
    # check rebound in _CHECKS, as the benchmark's tracer rebinds them, runs
    # in its lane
    selected = [(n, fn) for n, fn in zip(CHECK_NAMES, _CHECKS) if names is None or n in names]
    unknown = set(names or ()) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; available: {CHECK_NAMES}")
    if not selected:
        raise ValueError("no checks selected")
    worker = [(n, fn) for n, fn in selected if n in _WORKER_LANE]
    own = [(n, fn) for n, fn in selected if n not in _WORKER_LANE]
    entries = dict(zip([n for n, _ in worker + own], _run_lanes(worker, own, prof)))
    results = [entries[name] for name, _ in selected]
    return {
        "tool": "cyclewalk",
        "version": __version__,
        "profile": profile,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
