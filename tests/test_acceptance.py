"""Acceptance suite: every release criterion is one ``cyclewalk verify``
check, run here at the default profile (``mixbound`` at N <= 17 and
tau <= 10^4), each printing a pass/fail line with its measured figure (run
with -s or -rA to see them).
"""

import dataclasses
import json

import numpy as np
import pytest

from cyclewalk import cli, evolution, verify
from cyclewalk.analysis import limiting_distribution, steps_to_uniform
from cyclewalk.core import WalkConfig
from cyclewalk.evolution import position_marginal
from cyclewalk.spectral import CLASS_GENERIC

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
        t_star = steps_to_uniform(cfg, tol=1e-6)
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


def _shift_first_entry(build):
    def shifted(k, k_prime, n_nodes, rate):
        matrix = build(k, k_prime, n_nodes, rate).copy()
        matrix[..., 0, 0] += 1e-9
        return matrix
    return shifted


def _misplace_unit_eigenvalues(eigenvalues):
    def misplaced(matrices, n_nodes):
        r = eigenvalues(matrices, n_nodes)
        return dataclasses.replace(r, has_unit_eigenvalue=~r.has_unit_eigenvalue)
    return misplaced


def _stray_unit_eigenvalue(eigenvalues):
    """One generic pair's eigenvalue set to 1j, a unit modulus away from +-1;
    its radius and +-1 flags stay as they were."""
    def strayed(matrices, n_nodes):
        r = eigenvalues(matrices, n_nodes)
        eig = r.eigenvalues.copy()
        eig[np.flatnonzero(r.classification == CLASS_GENERIC)[0], 0] = 1j
        return dataclasses.replace(r, eigenvalues=eig)
    return strayed


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


#: criterion -> (check it breaks, or None for the spectrum CLI summary;
#: module and name of the input replaced; how the input is broken)
_MUTANTS = {
    "unitality": ("unitality", verify, "build_kraus_family",
                  lambda fn: lambda rates: (1 + 1e-13) * fn(rates)),
    "closedform": ("closedform", verify, "superop_closed_form", _shift_first_entry),
    "charpoly": ("charpoly", verify, "char_poly", lambda fn: lambda *a: fn(*a) + 1e-9),
    "contraction-nan": ("contraction", verify, "superop_definitional", _nan),
    "oracle": ("oracle", verify, "fourier_trajectory",
               lambda fn: lambda cfg, t: fn(cfg, t) + 1e-9),
    "oracle-density": ("oracle", evolution, "_density_step", _depolarise),
    "oracle-nan": ("oracle", verify, "fourier_trajectory", _nan),
    "classical": ("classical", evolution, "_density_step", _keep_coherence),
    "limits-nan": ("limits", verify, "fourier_trajectory", _nan),
    # only the resolvent side of the identity takes L^tau from matrix_power
    "geosum": ("geosum", np.linalg, "matrix_power",
               lambda fn: lambda m, k: (1 + 1e-8) * fn(m, k)),
    "mixbound": ("mixbound", verify, "uniform_deviation_bound",
                 lambda fn: lambda *a: 0.0 * fn(*a)),
    "mixbound-nan": ("mixbound", verify, "time_averaged_snapshots", _nan),
    # a horizon 1000 times too short, so no crossing is found
    "averaged": ("averaged", verify, "default_horizon", lambda fn: lambda *a: fn(*a) // 1000),
    "spectrum": ("spectrum", verify, "eigenvalues", _misplace_unit_eigenvalues),
    "spectrum-oracle": ("spectrum", verify, "superop_definitional",
                        lambda fn: lambda *a: 1.01 * fn(*a)),
    "spectrum-summary": (None, cli, "eigenvalues", _misplace_unit_eigenvalues),
    "spectrum-stray": ("spectrum", verify, "eigenvalues", _stray_unit_eigenvalue),
    "spectrum-summary-stray": (None, cli, "eigenvalues", _stray_unit_eigenvalue),
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
