import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cyclewalk import WalkConfig, classical_reference, coin_state, eigenvalues
from cyclewalk import _kernels, cli, verify
from cyclewalk.cli import _emit_json, main
from cyclewalk.core import NumericalCheckError
from cyclewalk.evolution import direct_trajectory, fourier_trajectory, position_marginal
from cyclewalk.fourier import all_pair_matrices
from cyclewalk.spectral import VERDICTS, spectral_structure
from cyclewalk.verify import run_checks


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(text.splitlines()))


# _emit_json output for _EMIT_PAYLOAD, recorded from the recursive emitter
# that predates the one-template trace path
_EMIT_EXPECTED = (
    '{\n  "name": "walk",\n  "nested": {\n    "flag": true,\n    "off": false,\n'
    '    "missing": null,\n    "empty_list": [],\n    "empty_dict": {}\n  },\n'
    '  "count": 7,\n  "rate": 1.0000000000000001e-01,\n'
    '  "small": 2.5000000000000000e-300,\n  "tv_trace": [\n    [\n      1,\n'
    '      1.0000000000000000e+00\n    ],\n    [\n      2,\n'
    '      3.3333333333333331e-01\n    ],\n    [\n      10,\n'
    '      1.0000000000000001e-17\n    ]\n  ]\n}'
)


def _emit_payload(trace):
    return {
        "name": "walk",
        "nested": {"flag": True, "off": False, "missing": None,
                   "empty_list": [], "empty_dict": {}},
        "count": np.int64(7),
        "rate": np.float64(0.1),
        "small": 2.5e-300,
        "tv_trace": trace,
    }


def _json(value):
    return b"".join(_emit_json(value)).decode()


def test_emit_json_golden_bytes():
    pairs = [(1, 1.0), (2, 0.3333333333333333), (10, np.float64(1e-17))]
    columns = (np.array([1, 2, 10]), np.array([1.0, 0.3333333333333333, 1e-17]))
    assert _json(_emit_payload([list(p) for p in pairs])) == _EMIT_EXPECTED
    assert _json(_emit_payload(columns)) == _EMIT_EXPECTED
    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    assert _json({"tv_trace": empty}) == '{\n  "tv_trace": []\n}'


def test_emit_json_writes_non_finite_floats_as_json_dumps_does():
    text = _json({"nan": np.nan, "inf": float("inf"), "minus_inf": np.float64(-np.inf)})
    assert text == '{\n  "nan": NaN,\n  "inf": Infinity,\n  "minus_inf": -Infinity\n}'
    assert json.loads(text)["minus_inf"] == -np.inf


def test_simulate_shape_and_normalization(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = _run(capsys, "simulate", "--nodes", "7", "--decoherence", "0.5",
                      "--steps", "100", "--method", "fourier",
                      "--initial-coin", "up", "--output", str(out))
    assert code == 0
    rows = _rows(out.read_text())
    assert len(rows) == 7 * 101
    sums = {}
    for row in rows:
        assert row["method"] == "fourier"
        sums.setdefault(int(row["t"]), 0.0)
        sums[int(row["t"])] += float(row["p"])
    assert all(abs(s - 1.0) <= 1e-10 for s in sums.values())


def test_simulate_direct_full_dephasing_matches_chain(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = _run(capsys, "simulate", "--nodes", "5", "--decoherence", "1.0",
                      "--steps", "3", "--method", "direct", "--output", str(out))
    assert code == 0
    rows = _rows(out.read_text())
    for row in rows:
        expect = classical_reference(5, int(row["t"])).probs[int(row["x"])]
        assert abs(float(row["p"]) - expect) <= 1e-12


def test_simulate_row_sum_guard_prints_a_plain_float(monkeypatch, capsys):
    # the rows are broken under evolution, in the engine, so the probability
    # rule that fourier_trajectory returns through is what refuses them
    def broken(t, value):
        def evolve(walk, steps, mode=_kernels.MODE_INSTANTANEOUS):
            rows = np.full((steps + 1, 4), 0.25)
            rows[t, 0] += value
            yield 0, rows
        return evolve

    for t, value, message in ((-1, 1e-9, "probabilities sum to 1.000000001, not 1"),
                              (1, np.nan, "non-finite probability nan")):
        monkeypatch.setattr(_kernels, "_evolve", broken(t, value))
        code, _, err = _run(capsys, "simulate", "--nodes", "4", "--decoherence", "0.5",
                            "--steps", "3")
        assert code == 3
        assert err == f"numerical assertion failed: {message}\n"
        assert "np." not in err


def test_refused_allocation_is_a_usage_error(monkeypatch, capsys):
    # an input too large to allocate exits 2 with numpy's message, not 1
    # (a verification failure) with a traceback
    def refused(config, steps):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    monkeypatch.setattr(cli, "fourier_trajectory", refused)
    code, out, err = _run(capsys, "simulate", "--nodes", "100000", "--decoherence", "0.3",
                          "--steps", "1")
    assert code == cli.USAGE_ERROR == 2
    assert out == ""
    assert err == ("error: Unable to allocate 74.5 GiB for an array with shape "
                   "(100000, 100000) and data type float64\n")


@pytest.mark.parametrize("method", ["fourier", "direct"])
def test_simulate_rows_match_per_cell_formatting(tmp_path, capsys, method):
    # the one-template rows carry the bytes a per-cell _fmt gives
    n, p, steps = 6, 0.37, 25
    out = tmp_path / "sim.csv"
    code, _, _ = _run(capsys, "simulate", "--nodes", str(n), "--decoherence", str(p),
                      "--steps", str(steps), "--method", method,
                      "--initial-coin", "balanced", "--output", str(out))
    assert code == 0
    config = WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state("balanced"))
    if method == "fourier":
        traj = fourier_trajectory(config, steps)
    else:
        traj = [position_marginal(rho).probs for rho in direct_trajectory(config, steps)]
    lines = out.read_text().split("\n")
    assert lines[0] == "t,x,p,method"
    assert lines[-1] == "" and len(lines) == (steps + 1) * n + 2
    for q, line in enumerate(lines[1:-1]):
        t, x = divmod(q, n)
        assert line == f"{t},{x},{cli._fmt(traj[t][x])},{method}"


def test_simulate_zero_steps_single_mass_row(capsys):
    code, out, _ = _run(capsys, "simulate", "--nodes", "4", "--decoherence", "0",
                        "--steps", "0")
    assert code == 0
    rows = _rows(out)
    nonzero = [r for r in rows if abs(float(r["p"])) > 1e-12]
    assert len(nonzero) == 1
    assert (nonzero[0]["t"], nonzero[0]["x"]) == ("0", "0")
    assert float(nonzero[0]["p"]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = _run(capsys, "simulate", "--nodes", "6", "--decoherence", "0.3",
                          "--steps", "40", "--initial-coin", "balanced",
                          "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_unknown_method(capsys):
    code, _, err = _run(capsys, "simulate", "--nodes", "5", "--decoherence", "0.5",
                        "--steps", "5", "--method", "magic")
    assert code == 2
    assert "method" in err


def test_simulate_missing_required_flag(capsys):
    code, _, err = _run(capsys, "simulate", "--nodes", "5", "--steps", "5")
    assert code == 2
    assert "decoherence" in err


def test_spectrum_counts_and_summary(tmp_path, capsys):
    out, summary = tmp_path / "spec.csv", tmp_path / "spec.json"
    code, _, _ = _run(capsys, "spectrum", "--nodes", "6", "--decoherence", "0.5",
                      "--output", str(out), "--summary", str(summary))
    assert code == 0
    rows = _rows(out.read_text())
    assert len(rows) == 36
    counts = {}
    for row in rows:
        counts[row["classification"]] = counts.get(row["classification"], 0) + 1
    assert counts == {"diagonal-pair": 6, "antipodal-pair": 6, "generic": 24}
    report = json.loads(summary.read_text())
    assert report["radius_within_unit_disk"] is True
    assert report["generic_radius_below_one"] is True
    assert report["persistent_eigenvalue_placement_ok"] is True
    assert report["max_radius_generic"] < 1.0


def test_spectrum_odd_cycle_has_no_antipodal_pairs(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, _, err = _run(capsys, "spectrum", "--nodes", "7", "--decoherence", "0.3",
                        "--output", str(out))
    assert code == 0
    rows = _rows(out.read_text())
    assert sum(r["classification"] == "antipodal-pair" for r in rows) == 0
    summary = json.loads(err)
    assert summary["count_antipodal"] == 0


def test_spectrum_two_cycle_has_no_generic_pairs(tmp_path, capsys):
    # every pair of N = 2 is diagonal or antipodal: the generic maximum is
    # taken over an empty set and reads 0.0
    out, summary = tmp_path / "spec.csv", tmp_path / "spec.json"
    code, _, _ = _run(capsys, "spectrum", "--nodes", "2", "--decoherence", "0.5",
                      "--output", str(out), "--summary", str(summary))
    assert code == 0
    assert len(_rows(out.read_text())) == 4
    report = json.loads(summary.read_text())
    assert (report["count_diagonal"], report["count_antipodal"],
            report["count_generic"]) == (2, 2, 0)
    assert report["max_radius_generic"] == 0.0
    assert report["generic_radius_below_one"] is True
    assert report["persistent_eigenvalue_placement_ok"] is True


def test_spectrum_rows_match_per_cell_formatting(tmp_path, capsys):
    # the one-template rows carry the bytes a per-cell _fmt gives
    n, p = 6, 0.37
    out = tmp_path / "spec.csv"
    code, _, _ = _run(capsys, "spectrum", "--nodes", str(n), "--decoherence", str(p),
                      "--output", str(out))
    assert code == 0
    spectra = eigenvalues(all_pair_matrices(WalkConfig(n_nodes=n, decoherence_rate=p))[0])
    lines = out.read_text().split("\n")
    assert lines[0].startswith("k,k_prime,classification,spectral_radius,eig1_re")
    assert lines[-1] == "" and len(lines) == n * n + 2
    for q, line in enumerate(lines[1:-1]):
        k, kp = divmod(q, n)
        cells = [str(k), str(kp), spectra.classification[q],
                 cli._fmt(spectra.spectral_radius[q])]
        for v in spectra.eigenvalues[q]:
            cells += [cli._fmt(v.real), cli._fmt(v.imag)]
        assert line == ",".join(cells)


def test_mixing_json_schema_and_bound(tmp_path, capsys):
    out = tmp_path / "mix.json"
    code, _, _ = _run(capsys, "mixing", "--nodes", "9", "--decoherence", "0.2",
                      "--epsilon", "0.05", "--horizon", "4000",
                      "--trace-stride", "500", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"epsilon", "horizon", "converged", "mixing_time",
                           "bound", "tv_trace"}
    assert report["converged"] is True
    assert isinstance(report["mixing_time"], int)
    assert report["bound"]["tau"] == report["mixing_time"]
    assert report["bound"]["value"] > 0
    # stride thins the trace but keeps the final point
    assert len(report["tv_trace"]) == math.ceil(4000 / 500) + 1
    assert report["tv_trace"][-1][0] == 4000


def test_mixing_bound_not_available_for_down_coin(tmp_path, capsys):
    out = tmp_path / "mix.json"
    code, _, _ = _run(capsys, "mixing", "--nodes", "9", "--decoherence", "0.2",
                      "--epsilon", "0.05", "--horizon", "2000",
                      "--initial-coin", "down", "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text())["bound"] is None


def test_mixing_up_coin_under_a_global_phase_keeps_the_bound(tmp_path, capsys):
    # 0,1,0,0 is i|1>, the 'up' state up to a global phase
    outputs = {}
    for coin in ("up", "0,1,0,0"):
        outputs[coin] = tmp_path / f"mix-{coin}.json"
        code, _, _ = _run(capsys, "mixing", "--nodes", "9", "--decoherence", "0.2",
                          "--epsilon", "0.05", "--horizon", "2000", "--initial-coin", coin,
                          "--bound", "require", "--output", str(outputs[coin]))
        assert code == 0
    assert outputs["0,1,0,0"].read_bytes() == outputs["up"].read_bytes()
    assert json.loads(outputs["up"].read_text())["bound"] is not None


def test_mixing_bound_required_on_even_cycle_is_usage_error(capsys):
    code, _, err = _run(capsys, "mixing", "--nodes", "8", "--decoherence", "0.5",
                        "--epsilon", "0.05", "--bound", "require")
    assert code == 2
    assert "even" in err


def test_mixing_tiny_decoherence_rate_reports_no_bound(tmp_path, capsys):
    # p^2 underflows (to 0 at 1e-200, to a subnormal at 1e-160), so the bound
    # is not finite: the report has no bound and requiring one is refused
    out = tmp_path / "mix.json"
    for rate in ("1e-200", "1e-160"):
        base = ("mixing", "--nodes", "9", "--decoherence", rate, "--epsilon", "0.5",
                "--horizon", "200")
        code, _, _ = _run(capsys, *base, "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["bound"] is None
        code, stdout, err = _run(capsys, *base, "--bound", "require")
        assert code == 2
        assert "decoherence rate too small for a finite bound" in err
        assert stdout == ""


def test_mixing_rejects_nonfinite_epsilon_and_nonpositive_stride(capsys):
    base = ("mixing", "--nodes", "5", "--decoherence", "0.3")
    for extra in (("--epsilon", "nan", "--horizon", "50"),
                  ("--epsilon", "inf", "--horizon", "50"),
                  ("--epsilon", "nan"),
                  ("--epsilon", "inf"),
                  ("--epsilon", "-0.1")):
        code, out, err = _run(capsys, *base, *extra)
        assert code == 2
        assert "epsilon must be positive and finite" in err
        assert out == ""
    for stride in ("0", "-3"):
        code, out, err = _run(capsys, *base, "--epsilon", "0.05", "--horizon", "50",
                              "--trace-stride", stride)
        assert code == 2
        assert "trace-stride" in err
        assert out == ""


def test_mixing_stride_past_the_horizon_gives_the_rows_of_the_horizon(capsys):
    scan = ("mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05",
            "--horizon", "50", "--trace-stride")
    code, expected, _ = _run(capsys, *scan, "50")
    assert code == 0
    for stride in (str(2**63), str(10**30)):
        assert _run(capsys, *scan, stride) == (0, expected, "")


def test_mixing_coherent_even_cycle_instantaneous_does_not_converge(tmp_path, capsys):
    out = tmp_path / "mix.json"
    code, _, _ = _run(capsys, "mixing", "--nodes", "8", "--decoherence", "0",
                      "--epsilon", "0.001", "--target", "instantaneous",
                      "--horizon", "2000", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] is False
    assert report["mixing_time"] is None


def test_mixing_coherent_odd_cycle_averaged_converges(tmp_path, capsys):
    out = tmp_path / "mix.json"
    code, _, _ = _run(capsys, "mixing", "--nodes", "9", "--decoherence", "0",
                      "--epsilon", "0.05", "--target", "averaged",
                      "--horizon", "4000", "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text())["converged"] is True


def test_verify_subset_and_exit_code(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _, _ = _run(capsys, "verify", "--quick", "--check", "unitality",
                      "--check", "closedform", "--output", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["unitality", "closedform"]
    assert report["all_passed"] is True


def test_a_failing_verify_report_with_a_nan_measure_is_valid_json(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(verify, "_fourier_trajectories", lambda configs, steps: np.full(
        (len(configs), steps + 1, configs[0].n_nodes), np.nan))
    out = tmp_path / "verify.json"
    code, _, _ = _run(capsys, "verify", "--quick", "--check", "oracle", "--output", str(out))
    assert code == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["passed"] is False and math.isnan(check["measure"])


def test_nan_pair_matrices_fail_geosum_and_spectrum_with_a_nan_measure(tmp_path, capsys,
                                                                     monkeypatch):
    # the SVD behind geosum's condition number and the eigensolver behind
    # spectrum both reject NaN; the checks report it, the spectrum command exits 3
    build = verify.superop_definitional
    monkeypatch.setattr(verify, "superop_definitional", lambda *a: build(*a) * np.nan)
    monkeypatch.setattr(cli, "all_pair_matrices",
                        lambda config: (all_pair_matrices(config)[0] * np.nan, None))
    out = tmp_path / "verify.json"
    code, _, _ = _run(capsys, "verify", "--quick", "--check", "geosum", "--check", "spectrum",
                      "--output", str(out))
    assert code == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["spectrum", "geosum"]
    assert all(c["passed"] is False and math.isnan(c["measure"]) for c in checks)
    code, _, err = _run(capsys, "spectrum", "--nodes", "5", "--decoherence", "0.3",
                        "--output", str(tmp_path / "spectrum.csv"))
    assert code == cli.NUMERICAL_ERROR
    assert "eigensolver failed on the pair stack (N=5)" in err


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--check", "nonsense")
    assert code == 2
    assert "unknown checks" in err


def test_verify_contraction_reports_its_worst_margin():
    # every case contracts strictly, so the worst |LB|^2 - |B|^2 is negative
    (check,) = run_checks(names=["contraction"], profile="quick")["checks"]
    assert check["passed"] and check["measure"] < 0.0


def test_verify_empty_selection_is_rejected():
    with pytest.raises(ValueError, match="no checks selected"):
        run_checks(names=[])


def test_verify_unknown_profile_is_rejected():
    with pytest.raises(ValueError, match=r"unknown profile: 'bogus'; "
                                         r"available: \['default', 'quick'\]"):
        run_checks(profile="bogus")


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# walk setup\nnodes=5\ndecoherence=1.0\nsteps=2\nmethod=direct\n")
    out = tmp_path / "sim.csv"
    code, _, _ = _run(capsys, "simulate", "--config", str(config),
                      "--steps", "3", "--output", str(out))
    assert code == 0
    rows = _rows(out.read_text())
    assert max(int(r["t"]) for r in rows) == 3  # flag wins over file
    bad = tmp_path / "bad.cfg"
    bad.write_text("nodes=5\nwheels=4\n")
    code, _, err = _run(capsys, "simulate", "--config", str(bad), "--steps", "1",
                        "--decoherence", "0")
    assert code == 2
    assert "wheels" in err


def test_initial_coin_quadruple_renormalizes_with_warning(tmp_path, capsys):
    reference = tmp_path / "ref.csv"
    code, _, err = _run(capsys, "simulate", "--nodes", "5", "--decoherence", "0.5",
                        "--steps", "2", "--initial-coin", "up",
                        "--output", str(reference))
    assert code == 0
    assert "renormalizing" not in err
    # parts whose squares underflow or overflow in the norm still give 'up'
    for spec in ("2,0,0,0", "1e-200,0,0,0", "1e200,0,0,0", "5e-324,0,0,0"):
        out = tmp_path / "sim.csv"
        code, _, err = _run(capsys, "simulate", "--nodes", "5", "--decoherence", "0.5",
                            "--steps", "2", "--initial-coin", spec,
                            "--output", str(out))
        assert code == 0, (spec, err)
        assert "renormalizing" in err
        assert out.read_bytes() == reference.read_bytes(), spec
    for bad in ("nan,0,0,0", "inf,0,0,0", "1,0,0,-inf"):
        for command in (("simulate", "--steps", "3"),
                        ("mixing", "--epsilon", "0.05", "--horizon", "50")):
            code, stdout, err = _run(capsys, *command, "--nodes", "5",
                                     "--decoherence", "0.3", "--initial-coin", bad)
            assert code == 2
            assert "finite" in err
            assert stdout == ""


_SCAN = ("mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05",
         "--horizon", "40")
_SIMULATE = ("simulate", "--nodes", "5", "--decoherence", "0.3", "--steps", "2")


@pytest.mark.parametrize("argv, expected", [
    ((*_SIMULATE, "--config", "{tmp}/run.cfg"),
     "{tmp}/run.cfg:2: expected key=value, got 'steps 3'"),
    ((*_SIMULATE, "--initial-coin", "1,0,0"),
     "initial coin must be one of ['balanced', 'down', 'up'] or re,im,re,im; got '1,0,0'"),
    ((*_SIMULATE, "--initial-coin", "0,0,0,0"), "initial coin must be nonzero"),
    ((*_SCAN, "--target", "final"),
     "target must be 'averaged' or 'instantaneous', got 'final'"),
    ((*_SCAN, "--bound", "always"), "bound must be 'auto', 'require' or 'off', got 'always'"),
    ((*_SCAN, "--bound", "require", "--target", "instantaneous"),
     "analytic bound unavailable: instantaneous target"),
    ((*_SIMULATE, "--output", "{tmp}/manifest.json"),
     "two destinations name the same file: {tmp}/manifest.json, {tmp}/manifest.json"),
    (("spectrum", "--nodes", "5", "--decoherence", "0.3", "--output", "{tmp}/dup.txt",
      "--summary", "{tmp}/./dup.txt"),
     "two destinations name the same file: {tmp}/dup.txt, {tmp}/./dup.txt, {tmp}/manifest.json"),
    # next to the default --output -, stdout may not be named again
    ((*_SIMULATE, "--manifest", "-"), "two destinations name stdout ('-')"),
    (("spectrum", "--nodes", "5", "--decoherence", "0.3", "--summary", "-"),
     "two destinations name stdout ('-')"),
    ((*_SCAN, "--output", "{tmp}/mixing.json"),
     {"nodes": 5, "decoherence": 0.3, "epsilon": 0.05, "target": "averaged", "horizon": 40,
      "initial-coin": "up", "bound": "auto", "trace-stride": 1,
      "output": "{tmp}/mixing.json"}),
    (("verify", "--check", "unitality", "--check", "charpoly", "--output", "{tmp}/v.json"),
     {"output": "{tmp}/v.json", "profile": "default", "checks": ["unitality", "charpoly"]}),
    (("verify", "--quick", "--output", "{tmp}/v.json"),
     {"output": "{tmp}/v.json", "profile": "quick", "checks": verify.CHECK_NAMES}),
    # the manifest lists the checks that ran, once each, in the order they ran
    (("verify", "--quick", "--check", "closedform", "--check", "unitality", "--check",
      "unitality", "--output", "{tmp}/v.json"),
     {"output": "{tmp}/v.json", "profile": "quick", "checks": ["unitality", "closedform"]}),
], ids=["config-line", "coin-parts", "zero-coin", "target", "bound", "bound-instantaneous",
        "simulate-output-is-manifest", "spectrum-output-is-summary", "simulate-manifest-is-stdout",
        "spectrum-summary-is-stdout", "mixing-manifest", "verify-manifest",
        "verify-quick-manifest", "verify-repeated-checks-manifest"])
def test_usage_errors_and_manifest_settings(tmp_path, capsys, argv, expected):
    """A bad option exits 2 with its message alone; a good run writes a
    manifest that records its resolved settings."""
    (tmp_path / "run.cfg").write_text("nodes=5\nsteps 3\n")
    manifest = tmp_path / "manifest.json"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    # the manifest flag goes first, so that a case's own --manifest wins
    code, out, err = _run(capsys, argv[0], "--manifest", str(manifest), *argv[1:])
    if isinstance(expected, str):
        assert (code, out, err) == (2, "", f"error: {expected.format(tmp=tmp_path)}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]
    else:
        assert code == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == argv[0]
        assert data["settings"] == {key: value.format(tmp=tmp_path) if isinstance(value, str)
                                    else value for key, value in expected.items()}


@pytest.mark.parametrize("argv, line, message", [
    (_SIMULATE, "method=warp", "method must be 'fourier' or 'direct', got 'warp'"),
    (_SIMULATE[:5], "steps=-1", "steps must be >= 0, got -1"),
    (_SCAN, "target=final", "target must be 'averaged' or 'instantaneous', got 'final'"),
    (_SCAN, "bound=always", "bound must be 'auto', 'require' or 'off', got 'always'"),
    (_SCAN, "trace-stride=0", "trace-stride must be >= 1, got 0"),
], ids=["method", "steps", "target", "bound", "trace-stride"])
def test_a_config_file_value_obeys_the_rule_of_its_flag(tmp_path, capsys, argv, line,
                                                        message):
    key, _, value = line.partition("=")
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    output = ("--output", str(tmp_path / "output"), "--manifest", str(tmp_path / "manifest"))
    for source in (("--config", str(config)), (f"--{key}", value)):
        assert _run(capsys, *argv, *source, *output) == (2, "", f"error: {message}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


def test_bound_off_writes_a_null_bound_and_changes_nothing_else(capsys):
    code, auto, _ = _run(capsys, *_SCAN, "--bound", "auto")
    assert code == 0
    bound = '"bound": {\n    "tau": 29,\n    "value": 1.2260536398467430e+00\n  },'
    assert auto.count(bound) == 1
    assert _run(capsys, *_SCAN, "--bound", "off") == (
        0, auto.replace(bound, '"bound": null,'), "")


def test_mixing_with_a_nan_trace_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_kernels, "tv_scan",
                        lambda matrices, v0, horizon, *a, **k: (np.full(horizon, np.nan), 0.0))
    code, out, err = _run(capsys, *_SCAN, "--output", str(tmp_path / "mixing.json"),
                          "--manifest", str(tmp_path / "manifest.json"))
    assert (code, out) == (cli.NUMERICAL_ERROR, "")
    assert err == "numerical assertion failed: non-finite total variation nan at step 1\n"
    assert list(tmp_path.iterdir()) == []


def test_manifest_contents(tmp_path, capsys):
    out, manifest = tmp_path / "sim.csv", tmp_path / "manifest.json"
    code, _, _ = _run(capsys, "simulate", "--nodes", "4", "--decoherence", "0.1",
                      "--steps", "1", "--output", str(out),
                      "--manifest", str(manifest))
    assert code == 0
    data = json.loads(manifest.read_text())
    assert data["command"] == "simulate"
    assert data["deterministic"] is True
    assert data["rng"] == "none"
    assert data["outputs"] == [str(out)]
    assert "timestamp" in data and "version" in data


#: data-table commands, each run small enough to repeat
_STREAMED = {
    "mixing": ("mixing", "--nodes", "9", "--decoherence", "0.2", "--epsilon", "0.05",
               "--horizon", "3000"),
    "simulate-fourier": ("simulate", "--nodes", "7", "--decoherence", "0.3", "--steps", "60",
                         "--initial-coin", "balanced"),
    "simulate-direct": ("simulate", "--nodes", "5", "--decoherence", "0.3", "--steps", "40",
                        "--method", "direct"),
    "spectrum": ("spectrum", "--nodes", "9", "--decoherence", "0.3"),
}


@pytest.mark.parametrize("command", _STREAMED)
def test_tables_stream_the_same_bytes_to_stdout_a_file_and_in_small_chunks(
        tmp_path, capsys, monkeypatch, command):
    argv = _STREAMED[command]
    path = tmp_path / "table"
    code, stdout, _ = _run(capsys, *argv, "--output", str(path))
    assert code == 0 and stdout == ""
    expected = path.read_bytes()
    assert len(expected.splitlines()) > 10 * 7
    code, stdout, _ = _run(capsys, *argv, "--output", "-")
    assert code == 0 and stdout.encode() == expected
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    code, stdout, _ = _run(capsys, *argv, "--output", "-")
    assert code == 0 and stdout.encode() == expected


#: command -> (argv, the call that does its work, its destination options)
_DESTINATIONS = {
    "simulate": (("simulate", "--nodes", "9", "--decoherence", "0.2", "--steps", "1000000"),
                 "fourier_trajectory", ("output", "manifest")),
    "spectrum": (("spectrum", "--nodes", "9", "--decoherence", "0.2"),
                 "eigenvalues", ("output", "summary", "manifest")),
    "mixing": (("mixing", "--nodes", "9", "--decoherence", "0.2", "--epsilon", "0.01",
                "--horizon", "1000000"), "mixing_time_averaged", ("output", "manifest")),
    "verify": (("verify",), "run_checks", ("output", "manifest")),
}


@pytest.mark.parametrize("command, bad", [
    (command, bad) for command, (*_, options) in _DESTINATIONS.items() for bad in options])
def test_an_unwritable_destination_fails_before_the_work(tmp_path, capsys, monkeypatch,
                                                         command, bad):
    argv, work, options = _DESTINATIONS[command]

    def not_reached(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, not_reached)
    # an existing destination is opened but not changed; a new one is not left behind
    existing = tmp_path / "existing"
    existing.write_bytes(b"old")
    missing = tmp_path / "missing" / "file"
    paths = {option: tmp_path / option for option in options}
    paths["output"] = existing
    paths[bad] = missing
    flags = [arg for option in options for arg in (f"--{option}", str(paths[option]))]
    code, stdout, err = _run(capsys, *argv, *flags)
    assert code == cli.USAGE_ERROR
    assert stdout == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(tmp_path.iterdir()) == [existing]
    assert existing.read_bytes() == b"old"
    paths[bad] = tmp_path
    flags = [arg for option in options for arg in (f"--{option}", str(paths[option]))]
    code, _, err = _run(capsys, *argv, *flags)
    assert code == cli.USAGE_ERROR
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    # an empty output path names no file: it is refused before the work too
    if bad == "output":
        paths[bad] = ""
        flags = [arg for option in options for arg in (f"--{option}", str(paths[option]))]
        code, stdout, err = _run(capsys, *argv, *flags)
        assert (code, stdout) == (cli.USAGE_ERROR, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert sorted(tmp_path.iterdir()) == [existing]


def test_an_empty_summary_is_stderr_and_an_empty_manifest_is_none(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, "spectrum", "--nodes", "5", "--decoherence", "0.3",
                          "--output", "spectrum.csv", "--summary", "", "--manifest", "")
    assert (code, out) == (0, "")
    assert json.loads(err)["pairs"] == 25
    assert [path.name for path in tmp_path.iterdir()] == ["spectrum.csv"]
    # an empty manifest path is not a second stdout next to --output -
    code, out, err = _run(capsys, *_SCAN, "--manifest", "")
    assert (code, err) == (0, "")
    assert json.loads(out)["horizon"] == 40
    assert [path.name for path in tmp_path.iterdir()] == ["spectrum.csv"]


def test_a_named_pipe_destination_is_first_opened_to_be_written(tmp_path, capsys):
    # opening a pipe to check it would wait for a reader (and closing it
    # would end that reader), so only the manifest's missing directory fails
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    result = []
    run = threading.Thread(target=lambda: result.append(main([
        "mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05",
        "--output", str(pipe), "--manifest", str(tmp_path / "missing" / "manifest")])),
        daemon=True)
    run.start()
    run.join(timeout=10)
    assert not run.is_alive() and result == [cli.USAGE_ERROR]
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("merged", [True, False], ids=["stderr-into-stdout", "stderr-apart"])
@pytest.mark.parametrize("horizon, lines_read", [(100000, 1), (40, 0)],
                         ids=["closed-while-writing", "closed-before-the-final-flush"])
def test_a_closed_stdout_pipe_exits_2(merged, horizon, lines_read):
    # the reader of stdout goes away after lines_read lines, so a write of
    # the 5 MB trace fails, or only the flush of the buffered 2 kB one; the
    # error line reaches stderr only if stderr is not that pipe, and no
    # traceback or "Exception ignored" text follows it
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclewalk.cli", "mixing", "--nodes", "9", "--decoherence",
         "0.2", "--epsilon", "0.01", "--horizon", str(horizon)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT if merged else subprocess.PIPE,
        env={**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = b"" if merged else proc.stderr.read()
    assert proc.wait(timeout=60) == cli.USAGE_ERROR
    assert err == (b"" if merged else b"error: [Errno 32] Broken pipe\n")


def _simulate_process(*argv, stdout):
    return subprocess.run(
        [sys.executable, "-m", "cyclewalk.cli", "simulate", "--nodes", "3", "--decoherence",
         "0.3", "--steps", "0", *argv],
        stdout=stdout, stderr=subprocess.PIPE, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


def test_a_path_that_is_stdout_counts_as_stdout(tmp_path):
    # /dev/stdout on a pipe, and the file stdout is redirected to, are stdout
    # under another name: next to the default --output -, each is refused
    # before the work, as --manifest - is
    refused = b"error: two destinations name stdout ('-')\n"
    piped = _simulate_process("--manifest", "/dev/stdout", stdout=subprocess.PIPE)
    assert (piped.returncode, piped.stdout, piped.stderr) == (2, b"", refused)
    out = tmp_path / "out.txt"
    with open(out, "wb") as redirected:
        run = _simulate_process("--manifest", str(out), stdout=redirected)
    assert (run.returncode, out.read_bytes(), run.stderr) == (2, b"", refused)
    # named alone, /dev/stdout is the one stdout destination, and /dev/null
    # stays shareable
    plain = _simulate_process(stdout=subprocess.PIPE)
    assert plain.returncode == 0 and plain.stdout.startswith(b"t,x,p,method\n")
    for argv in (("--output", "/dev/stdout"), ("--manifest", "/dev/null")):
        alone = _simulate_process(*argv, stdout=subprocess.PIPE)
        assert (alone.returncode, alone.stdout, alone.stderr) == (0, plain.stdout, b"")


def test_destinations_may_share_a_character_device(capsys):
    # /dev/null is a device, not a file that two writers would clobber
    code, out, err = _run(capsys, "spectrum", "--nodes", "5", "--decoherence", "0.3",
                          "--output", "/dev/null", "--summary", "/dev/null",
                          "--manifest", "/dev/null")
    assert (code, out, err) == (0, "", "")


def test_two_names_of_one_regular_file_are_refused(tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, out, err = _run(capsys, "spectrum", "--nodes", "5", "--decoherence", "0.3",
                          "--output", str(target), "--summary", str(link))
    assert (code, out) == (2, "")
    assert err == f"error: two destinations name the same file: {target}, {link}\n"
    assert target.read_text() == "kept\n"


def test_a_numerical_failure_leaves_the_files_it_always_left(tmp_path, capsys, monkeypatch):
    # simulate and mixing fail before they write; spectrum writes its CSV,
    # summary and manifest, then fails on its verdicts
    def failing(*args, **kwargs):
        raise NumericalCheckError("pair symmetry defect")

    def no_placement(spectra, p):
        return {**spectral_structure(spectra, p), VERDICTS[-1]: False}

    monkeypatch.setattr(cli, "fourier_trajectory", failing)
    monkeypatch.setattr(cli, "mixing_time_averaged", failing)
    monkeypatch.setattr(cli, "spectral_structure", no_placement)
    for command, written in (
            (("simulate", "--nodes", "5", "--decoherence", "0.3", "--steps", "5"), []),
            (("mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05"), []),
            (("spectrum", "--nodes", "5", "--decoherence", "0.3",
              "--summary", str(tmp_path / "summary")), ["manifest", "output", "summary"])):
        code, _, _ = _run(capsys, *command, "--output", str(tmp_path / "output"),
                          "--manifest", str(tmp_path / "manifest"))
        assert code == cli.NUMERICAL_ERROR
        assert sorted(path.name for path in tmp_path.iterdir()) == written


def test_version_and_help_paths(capsys):
    assert _run(capsys, "--version")[0] == 0
    assert _run(capsys, "--help")[0] == 0
    assert main([]) == 2  # missing subcommand
    capsys.readouterr()


# ---------------------------------------------------------------------------
# process start and exit
# ---------------------------------------------------------------------------

def _fresh_python(script, env=None):
    """Run script in a fresh interpreter that imports this checkout's package."""
    env = {**(os.environ if env is None else env),
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: records OPENBLAS_THREAD_TIMEOUT when numpy is first imported, then
#: imports the package
_AT_NUMPY_IMPORT = """\
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
probe = Probe()
sys.meta_path.insert(0, probe)
import cyclewalk
sys.meta_path.remove(probe)
print(seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


@pytest.mark.parametrize("preset, expected", [(None, "20"), ("28", "28")],
                         ids=["unset", "user-set"])
def test_the_blas_thread_timeout_is_set_before_numpy_loads(preset, expected):
    # OpenBLAS reads the variable when numpy loads it: the package's default
    # is in place by then, and a value the user set is left as it is
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = _fresh_python(_AT_NUMPY_IMPORT, env=env)
    assert out == f"['{expected}'] {expected}\n"


def test_repeated_main_calls_register_the_exit_freeze_once():
    # gc.freeze, counted, runs once at exit after two main calls
    script = ("import gc, sys\n"
              "calls, freeze = [], gc.freeze\n"
              "def counted():\n"
              "    calls.append(None)\n"
              "    freeze()\n"
              "    print('freeze', len(calls))\n"
              "gc.freeze = counted\n"
              "from cyclewalk import cli\n"
              "for _ in range(2):\n"
              "    cli.main(['--version'])\n")
    out = _fresh_python(script).splitlines()
    assert [line for line in out if line.startswith("freeze")] == ["freeze 1"]


def test_a_cli_process_writes_what_an_in_process_run_writes(tmp_path, capsys):
    # the exit path loses no buffered output: the file, the manifest and
    # stdout of a process hold the bytes of a main run in this process (the
    # manifest's timestamp aside)
    out, manifest = tmp_path / "sim.csv", tmp_path / "manifest.json"
    argv = ["simulate", "--nodes", "7", "--decoherence", "0.3", "--steps", "300",
            "--initial-coin", "balanced"]
    to_files = [*argv, "--output", str(out), "--manifest", str(manifest)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    processes = [subprocess.run([sys.executable, "-m", "cyclewalk.cli", *run],
                                capture_output=True, timeout=120, env=env)
                 for run in (to_files, [*argv, "--output", "-"])]
    assert [(proc.returncode, proc.stderr) for proc in processes] == [(0, b"")] * 2
    table, written = out.read_bytes(), manifest.read_text()
    assert processes[0].stdout == b"" and processes[1].stdout == table
    assert _run(capsys, *to_files) == (0, "", "")
    assert out.read_bytes() == table and len(table) > 8192
    timestamp = re.compile(r'"timestamp": "[^"]*"')
    assert timestamp.sub("", manifest.read_text()) == timestamp.sub("", written)
    code, stdout, _ = _run(capsys, *argv, "--output", "-")
    assert code == 0 and stdout.encode() == table
