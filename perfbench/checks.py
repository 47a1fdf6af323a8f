"""Output checks for the benchmark workloads.

Each checker reads one CLI output file and returns a list of problems (empty
when the output is correct).  The density-matrix path
``evolution.direct_trajectory`` is the oracle for the two momentum-path
workloads; its results are cached per input, so a run that checks several
samples computes the oracle once.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache

import numpy as np

VERIFY_CHECKS = ("unitality", "closedform", "charpoly", "spectrum",
                 "contraction", "oracle", "classical", "limits", "geosum",
                 "mixbound", "averaged")

#: Entrywise agreement required between an output and the oracle.
ORACLE_TOL = 1e-10
#: Leading TV entries of a mixing scan compared with the oracle.
MIXING_ORACLE_STEPS = 300
#: Leading time steps of a simulation compared with the oracle.
SIMULATE_ORACLE_STEPS = 20


@lru_cache(maxsize=8)
def oracle_marginals(nodes: int, rate: float, coin: tuple, steps: int) -> np.ndarray:
    """Position marginals P(x, t), t = 0..steps, from the density-matrix path."""
    from cyclewalk.core import WalkConfig
    from cyclewalk.evolution import direct_trajectory, position_marginal

    vec = np.array([complex(coin[0], coin[1]), complex(coin[2], coin[3])])
    config = WalkConfig(n_nodes=nodes, decoherence_rate=rate,
                        initial_coin=vec / np.linalg.norm(vec))
    return np.stack([position_marginal(rho).probs
                     for rho in direct_trajectory(config, steps)])


def check_mixing(path, spec) -> list:
    """Averaged-target mixing JSON: full-length trace, leading entries equal
    to the oracle's Cesaro TV, and a mixing time consistent with the trace."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        horizon = int(payload["horizon"])
        epsilon = float(payload["epsilon"])
        trace = payload["tv_trace"]
        mixing_time = payload["mixing_time"]
        converged = payload["converged"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable mixing output: {exc!r}"]
    problems = []
    if epsilon != spec["epsilon"]:
        problems.append(f"epsilon {epsilon} != {spec['epsilon']}")
    if horizon != spec["horizon"]:
        problems.append(f"horizon {horizon} != {spec['horizon']}")
    if len(trace) != horizon:
        return problems + [f"tv_trace has {len(trace)} entries, not {horizon}"]
    try:
        times = np.array([t for t, _ in trace], dtype=np.int64)
        tv = np.array([v for _, v in trace], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        return problems + [f"malformed tv_trace: {exc!r}"]
    if not np.array_equal(times, np.arange(1, horizon + 1)):
        problems.append("tv_trace times are not 1..horizon")
    if not (np.all(np.isfinite(tv)) and tv.min() >= 0.0 and tv.max() <= 2.0):
        problems.append("tv_trace values outside [0, 2]")

    steps = min(MIXING_ORACLE_STEPS, horizon)
    marginals = oracle_marginals(spec["nodes"], spec["decoherence"],
                                 spec["coin"], steps - 1)
    averages = np.cumsum(marginals, axis=0) / np.arange(1, steps + 1)[:, None]
    expected = np.abs(averages - 1.0 / spec["nodes"]).sum(axis=1)
    worst = float(np.abs(tv[:steps] - expected).max())
    if not worst <= ORACLE_TOL:
        problems.append(f"tv_trace[:{steps}] differs from the oracle by {worst:.3e}")

    above = np.nonzero(tv >= epsilon)[0]
    last = int(above[-1]) + 1 if len(above) else 1
    if last >= horizon:
        consistent = mixing_time is None and converged is False
    else:
        consistent = mixing_time == last and converged is True
    if not consistent:
        problems.append(f"mixing_time {mixing_time!r} / converged {converged!r} "
                        f"inconsistent with the trace (last tau >= eps: {last})")
    pinned = spec.get("pinned_mixing_time")
    if pinned is not None and mixing_time != pinned:
        problems.append(f"mixing_time {mixing_time!r} != pinned {pinned}")
    return problems


def check_simulate(path, spec) -> list:
    """Simulation CSV: every (t, x) row in order, each time step summing to
    1, and the leading steps equal to the oracle."""
    nodes, steps = spec["nodes"], spec["steps"]
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"unreadable simulate output: {exc!r}"]
    if not rows or rows[0] != ["t", "x", "p", "method"]:
        return ["missing or wrong CSV header"]
    body = rows[1:]
    if len(body) != (steps + 1) * nodes:
        return [f"{len(body)} data rows, not {(steps + 1) * nodes}"]
    try:
        t = np.array([int(r[0]) for r in body])
        x = np.array([int(r[1]) for r in body])
        p = np.array([float(r[2]) for r in body]).reshape(steps + 1, nodes)
    except (ValueError, IndexError) as exc:
        return [f"malformed CSV row: {exc!r}"]
    problems = []
    if not (np.array_equal(t, np.repeat(np.arange(steps + 1), nodes))
            and np.array_equal(x, np.tile(np.arange(nodes), steps + 1))):
        problems.append("rows are not ordered by t then x")
    if any(r[3] != spec["method"] for r in body):
        problems.append(f"method column is not {spec['method']!r}")
    defect = float(np.abs(p.sum(axis=1) - 1.0).max())
    if not defect <= ORACLE_TOL:
        problems.append(f"a time step sums to 1 only within {defect:.3e}")
    lead = min(SIMULATE_ORACLE_STEPS, steps + 1)
    marginals = oracle_marginals(nodes, spec["decoherence"], spec["coin"], lead - 1)
    worst = float(np.abs(p[:lead] - marginals).max())
    if not worst <= ORACLE_TOL:
        problems.append(f"first {lead} steps differ from the oracle by {worst:.3e}")
    return problems


def check_verify(path, spec) -> list:
    """Verify report: all checks passed and exactly the expected names
    present.  The backend field is not compared."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        names = [c["name"] for c in report["checks"]]
        passed = [c["passed"] for c in report["checks"]]
        all_passed = report["all_passed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify report: {exc!r}"]
    problems = []
    if report.get("profile") != spec["profile"]:
        problems.append(f"profile {report.get('profile')!r} != {spec['profile']!r}")
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append(f"check names {names} != {list(VERIFY_CHECKS)}")
    if all_passed is not True or not all(p is True for p in passed):
        failed = [n for n, p in zip(names, passed) if p is not True]
        problems.append(f"all_passed is {all_passed!r}; failed checks {failed}")
    return problems


CHECKERS = {"mixing": check_mixing, "simulate": check_simulate,
            "verify": check_verify}


def check_output(path, spec) -> list:
    return CHECKERS[spec["command"]](path, spec)
