"""The public surface of the package, and the names the benchmark in
``perfbench/`` looks up in it."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclewalk
from cyclewalk import core, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "__version__",
    "NumericalCheckError",
    "WalkConfig",
    "build_kraus_family",
    "coin_state",
    "hadamard_coin_momentum",
    "pauli_compose",
    "pauli_decompose",
    "superop_closed_form",
    "superop_definitional",
    "SpectrumReport",
    "char_poly",
    "eigenvalues",
    "spectral_gap",
    "PositionDistribution",
    "classical_reference",
    "fourier_trajectory",
    "position_marginal",
    "MixingReport",
    "limiting_distribution",
    "mixing_time_averaged",
    "mixing_time_instantaneous",
    "time_averaged",
    "total_variation",
    "uniform_deviation_bound",
    "verify_geometric_sum",
]


def test_package_exports_exactly_the_public_names():
    assert cyclewalk.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(cyclewalk, name), name


def test_every_module_export_resolves():
    modules = [importlib.import_module(f"cyclewalk.{info.name}")
               for info in pkgutil.iter_modules(cyclewalk.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert core in exporting and verify in exporting
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert "KrausFamily" not in core.__all__
    assert "CoinMatrix" not in core.__all__


def test_pair_wrapper_types_are_gone():
    # pair matrices, Pauli coefficients, quartic coefficients and density
    # matrices are plain arrays, and spectral.eigenvalues is the one
    # spectrum entry point
    from cyclewalk import evolution, fourier, spectral

    for module, name in ((cyclewalk, "SuperOp"), (fourier, "SuperOp"),
                         (cyclewalk, "Quartic"), (spectral, "Quartic"),
                         (cyclewalk, "PauliVector"), (core, "PauliVector"),
                         (spectral, "pair_spectra"),
                         (cyclewalk, "DensityOperator"), (evolution, "DensityOperator")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_spectral_structure_is_decided_only_in_spectral():
    # the CLI summary and the verify check read spectral.spectral_structure;
    # neither binds the tolerances or pair classes it rules with
    from cyclewalk import cli

    for module in (cli, verify):
        bound = {name for name in vars(module)
                 if name in ("UNIT_DISK_TOL", "UNIT_MODULUS_TOL") or name.startswith("CLASS_")}
        assert not bound, f"{module.__name__}: {sorted(bound)}"


def test_each_fact_is_stated_once():
    # N comes from the pair stack, the scan tolerance is a constant, a
    # report stores only what was measured, the classical chain is stepped
    # only in evolution, and the +-1 tolerance appears once in the +-1 rule
    import dataclasses

    from cyclewalk import analysis, evolution, spectral

    assert list(inspect.signature(spectral.eigenvalues).parameters) == ["matrices"]
    assert list(inspect.signature(spectral.spectral_structure).parameters) == ["spectra", "rate"]
    assert list(inspect.signature(analysis.steps_to_uniform).parameters) == ["config"]
    assert [f.name for f in dataclasses.fields(spectral.SpectrumReport)] == [
        "eigenvalues", "spectral_radius", "classification"]
    assert [f.name for f in dataclasses.fields(analysis.MixingReport)] == [
        "epsilon", "mixing_time", "tv_trace", "horizon"]
    assert not hasattr(evolution, "_classical_step")
    from_evolution = {name for name, value in vars(verify).items()
                      if getattr(value, "__module__", None) == evolution.__name__}
    assert from_evolution == {"_classical_chain", "_density_marginals",
                              "_fourier_rows", "_fourier_trajectories"}
    tree = ast.parse(inspect.getsource(spectral))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "UNIT_MODULUS_TOL" and isinstance(node.ctx, ast.Load)]
    rule = ast.parse(inspect.getsource(spectral._unit_flags))
    assert len(reads) == 1 and any(node.id == "UNIT_MODULUS_TOL" for node in ast.walk(rule)
                                   if isinstance(node, ast.Name))
    assert 1e-8 not in {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}


def _loads(names):
    """(module, top-level definition) of every read of one of the names in
    the package's source, once per read."""
    found = []
    for path in sorted(Path(cyclewalk.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id in names
                      and isinstance(node.ctx, ast.Load)]
    return found


def test_the_probability_rule_is_stated_once():
    # only core._check_probabilities compares a probability minimum or a row
    # sum with a tolerance; both momentum trajectory entries return through
    # one call of it in the engine, as do the rows the engine jumps to, the
    # density path calls it per state and per stack, and simulate restates
    # none of it
    from cyclewalk import cli

    tolerances = _loads({"PROB_SUM_TOL", "PROB_FLOOR_SLOPE"})
    assert set(tolerances) == {("core", "_check_probabilities")}
    assert sorted(_loads({"_check_probabilities"})) == [
        ("_kernels", "distribution_rows"), ("_kernels", "distribution_trajectory"),
        ("evolution", "PositionDistribution"), ("evolution", "_density_marginals")]
    for name in ("PROB_SUM_TOL", "PROB_FLOOR_SLOPE", "_check_probabilities"):
        assert not hasattr(cli, name), name
    simulate = ast.parse(inspect.getsource(cli.cmd_simulate))
    assert not [node.attr for node in ast.walk(simulate) if isinstance(node, ast.Attribute)
                and node.attr in ("sum", "min")]


def test_no_module_names_numpy_random():
    # the sampled verify cases come from the stdlib stream, so importing the
    # package never loads numpy's random subpackage
    for path in sorted(Path(cyclewalk.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "np.random" not in source and "numpy.random" not in source, path.name


_SMALL_RUNS = {
    "verify-quick": ("verify", "--quick", "--output", "{tmp}/verify.json"),
    "verify-sampled": ("verify", "--check", "closedform", "--check", "contraction",
                       "--check", "geosum", "--output", "{tmp}/verify.json"),
    "mixing": ("mixing", "--nodes", "5", "--decoherence", "0.3", "--epsilon", "0.05",
               "--horizon", "40", "--output", "{tmp}/mixing.json"),
    "simulate": ("simulate", "--nodes", "5", "--decoherence", "0.3", "--steps", "2",
                 "--output", "{tmp}/simulate.csv"),
    "spectrum": ("spectrum", "--nodes", "5", "--decoherence", "0.3",
                 "--output", "{tmp}/spectrum.csv"),
}


@pytest.mark.parametrize("run", _SMALL_RUNS)
def test_commands_leave_numpy_random_unloaded(tmp_path, run):
    argv = [arg.format(tmp=tmp_path) for arg in _SMALL_RUNS[run]]
    script = ("import sys\n"
              "from cyclewalk import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cyclewalk.__file__).parents[1])})
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stdout + proc.stderr


def _layout_reads(source):
    """Lines of source that read N off a stack with isqrt, or form a pair
    row k*N + k' (a sum with a product by n or n_nodes)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if "isqrt" in (getattr(node, "attr", None), getattr(node, "id", None)):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            lines += [node.lineno for side in (node.left, node.right)
                      if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                      and {"n", "n_nodes"} & {getattr(x, "id", None)
                                              for x in (side.left, side.right)}]
    return lines


def test_the_pair_stack_layout_is_stated_only_in_fourier():
    # fourier owns the (N^2, 4, 4) stack: its N, its rows and the conjugate
    # partners of the evolved half; every other module asks it
    from cyclewalk import fourier

    assert sorted(_layout_reads("m = math.isqrt(len(s))\nrow = k * n + k_prime\n")) == [1, 2]
    for info in pkgutil.iter_modules(cyclewalk.__path__):
        module = importlib.import_module(f"cyclewalk.{info.name}")
        reads = _layout_reads(inspect.getsource(module))
        assert bool(reads) == (module is fourier), f"{module.__name__}: lines {reads}"


def _realifications(source):
    """Lines of source that write out the diagonal of U = diag(1, i, -i, -i)
    as a list or tuple literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.List, ast.Tuple)):
            try:
                values = ast.literal_eval(node)
            except ValueError:
                continue
            if list(values) == [1, 1j, -1j, -1j]:
                lines.append(node.lineno)
    return lines


def test_the_realification_is_stated_only_in_fourier():
    # fourier owns U, which makes every pair matrix real; the engine, the
    # eigensolve and the geometric sum take it, or the realified stack, from there
    from cyclewalk import fourier

    assert _realifications("u = np.array([1.0, 1j, -1j, -1j])\nv = (1, 2j)\n") == [1]
    for info in pkgutil.iter_modules(cyclewalk.__path__):
        module = importlib.import_module(f"cyclewalk.{info.name}")
        lines = _realifications(inspect.getsource(module))
        assert len(lines) == (module is fourier), f"{module.__name__}: lines {lines}"
    # the residue limit sits next to U, so the eigensolve needs nothing of the engine
    from cyclewalk import _kernels, spectral

    assert _kernels.SYMMETRY_DEFECT_LIMIT is fourier.SYMMETRY_DEFECT_LIMIT
    imported = [(getattr(node, "module", None), alias.name)
                for node in ast.walk(ast.parse(inspect.getsource(spectral)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert not [pair for pair in imported if "_kernels" in str(pair)], imported


def _load(name, monkeypatch):
    """Import perfbench/<name>.py as module ``name`` without writing bytecode
    next to it; sys.modules is restored after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    checks = _load("checks", monkeypatch)
    tracer = _load("tracer", monkeypatch)
    return checks, tracer


def test_benchmark_boundaries_are_plain_functions(perfbench):
    _, tracer = perfbench
    for layer, (module_name, names) in tracer.BOUNDARIES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), \
                f"{layer}: {module_name}.{name}"


def test_benchmark_kernel_arguments_are_named_as_the_tracer_reads_them():
    from cyclewalk import _kernels

    for name, wanted in (("distribution_trajectory", {"matrices", "steps"}),
                         ("tv_scan", {"matrices", "mode"}),
                         ("averaged_snapshots", {"matrices", "taus"})):
        assert wanted <= set(inspect.signature(getattr(_kernels, name)).parameters)


def test_benchmark_kernel_contract():
    # the tracer reads tv_scan(...)[0] and all_pair_matrices(cfg)[0].shape[0];
    # the kernels take the pair stack and one v0, and work out the phases
    from cyclewalk import _kernels, fourier

    n = 5
    config = cyclewalk.WalkConfig(n_nodes=n, decoherence_rate=0.3)
    matrices = fourier.all_pair_matrices(config)[0]
    assert matrices.shape == (n * n, 4, 4)
    result = _kernels.tv_scan(matrices, np.array([0.5, 0, 0, 0.5]), 7, np.full(n, 1 / n))
    assert isinstance(result, tuple) and result[0].shape == (7,)
    for name, fn in inspect.getmembers(_kernels, inspect.isfunction):
        assert not set(inspect.signature(fn).parameters) & {"d_index", "phase"}, name
    assert not hasattr(fourier, "phase_table")


def test_mixing_scans_share_one_driver():
    # one (N,) or (2, N) target array, and one place that checks the horizon
    from cyclewalk import _kernels, analysis

    assert "target1" not in inspect.signature(_kernels.tv_scan).parameters
    assert not hasattr(analysis, "_scan_horizon")
    assert not hasattr(_kernels, "_averages")


def test_density_step_takes_rho_and_mask_first():
    # the oracle-density and classical acceptance mutants wrap the step as
    # step(rho, mask, *args) and change only those two
    from cyclewalk import evolution

    assert list(inspect.signature(evolution._density_step).parameters)[:2] == ["rho", "mask"]


def test_benchmark_verify_checks_match_the_package(perfbench):
    checks, _ = perfbench
    assert list(checks.VERIFY_CHECKS) == verify.CHECK_NAMES
