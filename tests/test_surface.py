"""The public surface of the package, and the names the benchmark in
``perfbench/`` looks up in it."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
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
    assert from_evolution == {"_classical_chain", "_density_marginals", "fourier_trajectory"}
    tree = ast.parse(inspect.getsource(spectral))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "UNIT_MODULUS_TOL" and isinstance(node.ctx, ast.Load)]
    rule = ast.parse(inspect.getsource(spectral._unit_flags))
    assert len(reads) == 1 and any(node.id == "UNIT_MODULUS_TOL" for node in ast.walk(rule)
                                   if isinstance(node, ast.Name))
    assert 1e-8 not in {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}


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
