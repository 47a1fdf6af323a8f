"""Acceptance suite: every release criterion is one ``cyclewalk verify``
check, run here at the default profile (``mixbound`` at N <= 17 and
tau <= 10^4), each printing a pass/fail line with its measured figure (run
with -s or -rA to see them).
"""

import dataclasses
import json

import numpy as np
import pytest

from cyclewalk import _kernels, cli, evolution, verify
from cyclewalk.analysis import limiting_distribution, steps_to_uniform
from cyclewalk.core import WalkConfig
from cyclewalk.evolution import position_marginal
from cyclewalk.spectral import CLASS_DIAGONAL, CLASS_GENERIC

PROFILE = verify.PROFILES["default"]
MIXBOUND_PROFILE = dataclasses.replace(
    PROFILE, bound_odd=(3, 5, 7, 9, 11, 13, 15, 17),
    bound_taus=(100, 1000, 10000), ratio_taus=(1000, 10000))


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_acceptance_check(name):
    result = getattr(verify, f"check_{name}")(
        MIXBOUND_PROFILE if name == "mixbound" else PROFILE)
    _report(name, result["passed"], f"measure {result['measure']:.3e} over "
            f"{result['cases']} cases ({result['detail']})")


def test_acceptance_instantaneous_limits():
    """The density-matrix path also reaches the limits at t*."""
    worst = 0.0
    for n, p in ((3, 0.5), (4, 0.5)):
        cfg = WalkConfig(n_nodes=n, decoherence_rate=p)
        t_star = steps_to_uniform(cfg)
        *_, (rho,) = evolution._density_stack([cfg], t_star)
        direct = position_marginal(rho)
        limit = limiting_distribution(cfg, "odd" if t_star % 2 else "even")
        worst = max(worst, float(np.abs(direct.probs - limit).max()))
    _report("instantaneous-limits", worst <= 1e-6,
            f"max deviation of the density-matrix path from its limit {worst:.3e} "
            f"at t* for (N, p) = (3, 0.5), (4, 0.5) (tol 1e-6)")


def test_acceptance_verify_determinism(tmp_path, capsys):
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (first, second):
        assert cli.main(["verify", "--quick", "--output", str(path)]) == 0
    capsys.readouterr()
    _report("verify-determinism", first.read_bytes() == second.read_bytes(),
            "two verify runs produced byte-identical reports")


@pytest.mark.parametrize("name", ["closedform", "charpoly"])
def test_pair_sample_checks_build_their_stack_in_one_call(monkeypatch, name):
    calls = []
    build = verify.superop_definitional
    monkeypatch.setattr(verify, "superop_definitional",
                        lambda *args: calls.append(args) or build(*args))
    assert getattr(verify, f"check_{name}")(PROFILE)["cases"] == PROFILE.random_tuples
    assert len(calls) == 1 and len(calls[0][0]) == PROFILE.random_tuples


def _sampled(monkeypatch, name, profile):
    """The (k, k', N, p) arrays check_<name> builds its pair stack from, and
    the 2x2 operands it expands in the Pauli basis (None if it expands none)."""
    pairs, operands = [], []
    build, decompose = verify.superop_definitional, verify.pauli_decompose
    monkeypatch.setattr(verify, "superop_definitional",
                        lambda *args: pairs.append(args) or build(*args))
    monkeypatch.setattr(verify, "pauli_decompose",
                        lambda m: operands.append(m) or decompose(m))
    assert getattr(verify, f"check_{name}")(profile)["passed"]
    (sample,) = pairs
    return sample, (operands[0] if operands else None)


def test_sampled_cases_are_one_seeded_stdlib_stream(monkeypatch):
    first, extra = verify._sample_pairs(11, 40, (2, 16), extra=8)
    second, extra_again = verify._sample_pairs(11, 40, (2, 16), extra=8)
    for a, b in zip((*first, extra), (*second, extra_again)):
        assert np.array_equal(a, b)
    assert extra.shape == (40, 8)
    # the first pair of the seed-2024 sample is built from
    # random.Random(2024).random() alone; randrange, randint or gauss draw
    # other values
    (k, k_prime, n, p), _ = _sampled(monkeypatch, "closedform", PROFILE)
    assert (int(k[0]), int(k_prime[0]), int(n[0]), float(p[0])) == (11, 4, 16, 0.8872982690000151)


@pytest.mark.parametrize("profile", ["default", "quick"])
@pytest.mark.parametrize("name, nodes, rates", [
    ("closedform", (2, 32), (0.0, 1.0)),
    ("contraction", (2, 16), (0.0, 1.0)),
    ("geosum", (3, 16), (0.05, 1.0)),
])
def test_sampled_cases_stay_in_their_ranges(monkeypatch, profile, name, nodes, rates):
    (k, k_prime, n, p), operands = _sampled(monkeypatch, name, verify.PROFILES[profile])
    assert np.all((nodes[0] <= n) & (n <= nodes[1]))
    assert np.all((0 <= k) & (k < n) & (0 <= k_prime) & (k_prime < n))
    assert np.all((rates[0] <= p) & (p < rates[1]))
    if name == "geosum":
        assert np.all(k != k_prime)
    if name == "contraction":
        assert operands.shape == (40, 2, 2)
        for part in (operands.real, operands.imag):
            assert np.all((-1 <= part) & (part < 1))


def _shift_first_entry(build):
    def shifted(k, k_prime, n_nodes, rate):
        matrix = build(k, k_prime, n_nodes, rate).copy()
        matrix[..., 0, 0] += 1e-9
        return matrix
    return shifted


def _misplace_unit_eigenvalues(eigenvalues):
    """The +1 eigenvalue of every diagonal pair moved to 1 - 1e-6, so that no
    pair has +1 and none has another unit modulus."""
    def misplaced(matrices):
        r = eigenvalues(matrices)
        eig = r.eigenvalues.copy()
        eig[(r.classification == CLASS_DIAGONAL)[:, None] & (np.abs(eig - 1.0) < 1e-6)] -= 1e-6
        return dataclasses.replace(r, eigenvalues=eig)
    return misplaced


def _generic_eigenvalue(value):
    """One generic pair's eigenvalue set to value; its radius stays as it was."""
    def mutate(eigenvalues):
        def strayed(matrices):
            r = eigenvalues(matrices)
            eig = r.eigenvalues.copy()
            eig[np.flatnonzero(r.classification == CLASS_GENERIC)[0], 0] = value
            return dataclasses.replace(r, eigenvalues=eig)
        return strayed
    return mutate


#: A unit modulus 5e-9 from +1: neither +1 nor -1 under the one +-1 rule.
_SEAM = (1 - 5e-10) * np.exp(5e-9j)


def _spectrum_summary_placement_ok(tmp_path):
    summary = tmp_path / "summary.json"
    code = cli.main(["spectrum", "--nodes", "6", "--decoherence", "0.5",
                     "--output", str(tmp_path / "spectrum.csv"), "--summary", str(summary)])
    assert code == cli.NUMERICAL_ERROR
    return json.loads(summary.read_text())["persistent_eigenvalue_placement_ok"]


def _depolarise(step):
    """The density step mixed with 1e-9 of the maximally mixed state: still
    a valid state, but every marginal moves by up to about 1e-9."""
    def depolarised(rho, *args):
        size = rho.shape[-1]
        return (1 - 1e-9) * step(rho, *args) + 1e-9 / size * np.eye(size)
    return depolarised


def _keep_coherence(step):
    """The dephasing leaves at least 1e-4 of every coin coherence, so the
    p = 1 marginals leave the classical chain, at second order (by 5e-9)."""
    return lambda rho, mask, *args: step(rho, np.maximum(mask, 1e-4), *args)


def _nan(fn):
    """Every entry of the input NaN: a measure that drops NaN would pass."""
    return lambda *args: fn(*args) * np.nan


def _off_real(build):
    """i 1e-6 added to one entry: U = diag(1, i, -i, -i) no longer makes the
    stack real, so a real-arithmetic check would drop that part unseen."""
    def shifted(*args):
        matrices = build(*args)
        matrices.reshape(-1, 4, 4)[-1, 1, 2] += 1e-6j
        return matrices
    return shifted


#: criterion -> (check it breaks, or None for the spectrum CLI summary;
#: module and name of the input replaced; how the input is broken)
_MUTANTS = {
    "unitality": ("unitality", verify, "build_kraus_family",
                  lambda fn: lambda rates: (1 + 1e-13) * fn(rates)),
    "closedform": ("closedform", verify, "superop_closed_form", _shift_first_entry),
    "charpoly": ("charpoly", verify, "char_poly", lambda fn: lambda *a: fn(*a) + 1e-9),
    # |LB|^2 grows by about 2e-6 |LB|^2: off the exact norm identity
    "contraction": ("contraction", verify, "superop_definitional",
                    lambda fn: lambda *a: (1 + 1e-6) * fn(*a)),
    "contraction-nan": ("contraction", verify, "superop_definitional", _nan),
    "oracle": ("oracle", verify, "_fourier_trajectories",
               lambda fn: lambda configs, t: fn(configs, t) + 1e-9),
    "oracle-density": ("oracle", evolution, "_density_step", _depolarise),
    "oracle-nan": ("oracle", verify, "_fourier_trajectories", _nan),
    "classical": ("classical", evolution, "_density_step", _keep_coherence),
    "limits-nan": ("limits", verify, "fourier_trajectory", _nan),
    # only the resolvent side of the identity takes L^tau from matrix_power
    "geosum": ("geosum", np.linalg, "matrix_power",
               lambda fn: lambda m, k: (1 + 1e-8) * fn(m, k)),
    "geosum-nan": ("geosum", verify, "superop_definitional", _nan),
    "geosum-realify": ("geosum", verify, "superop_definitional", _off_real),
    "mixbound": ("mixbound", verify, "uniform_deviation_bound",
                 lambda fn: lambda *a: 0.0 * fn(*a)),
    "mixbound-nan": ("mixbound", verify, "time_averaged_snapshots", _nan),
    # a horizon 1000 times too short, so no crossing is found
    "averaged": ("averaged", verify, "default_horizon", lambda fn: lambda *a: fn(*a) // 1000),
    "spectrum": ("spectrum", verify, "eigenvalues", _misplace_unit_eigenvalues),
    "spectrum-oracle": ("spectrum", verify, "superop_definitional",
                        lambda fn: lambda *a: 1.01 * fn(*a)),
    "spectrum-nan": ("spectrum", verify, "superop_definitional", _nan),
    "spectrum-realify": ("spectrum", verify, "superop_definitional", _off_real),
    "spectrum-summary": (None, cli, "eigenvalues", _misplace_unit_eigenvalues),
    "spectrum-stray": ("spectrum", verify, "eigenvalues", _generic_eigenvalue(1j)),
    "spectrum-summary-stray": (None, cli, "eigenvalues", _generic_eigenvalue(1j)),
    "spectrum-seam": ("spectrum", verify, "eigenvalues", _generic_eigenvalue(_SEAM)),
    "spectrum-summary-seam": (None, cli, "eigenvalues", _generic_eigenvalue(_SEAM)),
}


@pytest.mark.parametrize("criterion", _MUTANTS)
def test_acceptance_criterion_fails_on_a_broken_input(monkeypatch, tmp_path, criterion):
    check, module, attr, mutate = _MUTANTS[criterion]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    if check is None:
        passed = _spectrum_summary_placement_ok(tmp_path)
    else:
        passed = getattr(verify, f"check_{check}")(verify.PROFILES["quick"])["passed"]
    assert passed is False


def _nan_rows(evolve):
    """The engine's rows made NaN: the momentum path's probability rule
    raises NumericalCheckError inside the check."""
    def broken(*args, **kwargs):
        for t, rows, defect in evolve(*args, **kwargs):
            yield t, rows * np.nan, defect
    return broken


@pytest.mark.parametrize("criterion", [
    *(name for name in _MUTANTS if name.endswith("-nan")), "engine-nan"])
def test_verify_reports_a_check_that_meets_nan(monkeypatch, tmp_path, capsys, criterion):
    # whether the check measures the NaN or an assertion inside it raises,
    # the run writes its report, with that check failed, and exits 1
    check, module, attr, mutate = (("oracle", _kernels, "_evolve", _nan_rows)
                                   if criterion == "engine-nan" else _MUTANTS[criterion])
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    report = tmp_path / "verify.json"
    code = cli.main(["verify", "--quick", "--check", check, "--check", "unitality",
                     "--output", str(report)])
    capsys.readouterr()
    assert code == 1
    entries = {entry["name"]: entry for entry in json.loads(report.read_text())["checks"]}
    assert entries["unitality"]["passed"] and not entries[check]["passed"]
    if criterion == "engine-nan":
        assert np.isnan(entries[check]["measure"]) and entries[check]["cases"] == 0
        assert entries[check]["detail"] == ("numerical assertion failed: "
                                            "non-finite probability nan")


def test_classical_reuses_the_walks_that_oracle_steps(monkeypatch):
    # oracle steps the p = 1, up walk of every N >= 3 in its density stack;
    # classical then steps only N = 2, and alone every N
    profile = verify.PROFILES["quick"]
    steps = profile.oracle_max_steps
    stepped = []
    marginals = evolution._density_marginals
    monkeypatch.setattr(verify, "_density_marginals", lambda configs, t: stepped.append(
        [cfg.n_nodes for cfg in configs]) or marginals(configs, t))
    together = verify.run_checks(names=["oracle", "classical"], profile="quick")["checks"]
    oracle_walks = len(range(3, profile.oracle_max_nodes + 1))
    assert stepped[oracle_walks:] == [[2]]
    stepped.clear()
    alone = verify.run_checks(names=["classical"], profile="quick")["checks"]
    assert stepped == [[n] for n in range(2, profile.oracle_max_nodes + 1)]
    assert together[1] == alone[0]
    # the shared walk is stepped bit for bit as alone
    for n in (3, profile.oracle_max_nodes):
        walks = [verify._config(n, p, coin) for p in (0.0, 0.1, 0.5, 1.0)
                 for coin in ("up", "balanced")]
        assert np.array_equal(marginals(walks, steps)[-2],
                              marginals([verify._config(n, 1.0)], steps)[0])


def test_closedform_and_charpoly_share_one_pair_sample(monkeypatch):
    calls = []
    build = verify.superop_definitional
    monkeypatch.setattr(verify, "superop_definitional",
                        lambda *args: calls.append(args) or build(*args))
    together = verify.run_checks(names=["closedform", "charpoly"])["checks"]
    assert len(calls) == 1 and len(calls[0][0]) == PROFILE.random_tuples
    assert together == [verify.check_closedform(PROFILE), verify.check_charpoly(PROFILE)]
    assert len(calls) == 3   # called alone, each check builds its own
