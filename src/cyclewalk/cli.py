"""Command-line front end: simulate, spectrum, mixing, verify.

Outputs are deterministic: CSV for time series, JSON for reports, floats
rendered with 17 significant digits in lowercase scientific notation, no
wall-clock content.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error (including an input too large to allocate), 3
internal numerical assertion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bound_unavailable_reasons,
    mixing_time_averaged,
    mixing_time_instantaneous,
)
from .core import COIN_STATES, NumericalCheckError, WalkConfig, _check_count, coin_state
from .evolution import PROB_SUM_TOL, direct_trajectory, fourier_trajectory, position_marginal
from .fourier import _pair_momenta, all_pair_matrices
from .spectral import VERDICTS, eigenvalues, spectral_structure
from .verify import CHECK_NAMES, run_checks

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x: float) -> str:
    """17 significant digits, lowercase scientific."""
    return format(float(x), ".16e")


def _rows(template: str, cells) -> str:
    """Fill a row template, one field per cell, over an (M, k) cell array in
    one ``%`` call; ``%.16e`` gives the bytes of :func:`_fmt`."""
    cells = np.asarray(cells, dtype=object)
    return template * len(cells) % tuple(cells.ravel().tolist())


def _emit_pairs(cells, indent: int) -> str:
    pad = "  " * (indent + 1)
    entry = f"{pad}[\n{pad}  %d,\n{pad}  %.16e\n{pad}],\n"
    return "[\n" + _rows(entry, cells)[:-2] + "\n" + "  " * indent + "]"


def _emit_json(value, indent: int = 0) -> str:
    """JSON text of value; an (M, 2) object array of [int, float] cells, such
    as the mixing ``tv_trace``, is rendered through :func:`_rows`, in the
    bytes a plain list of the same pairs would give."""
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        return _emit_pairs(value, indent) if len(value) else "[]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {_emit_json(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_emit_json(val, indent + 1)}" for val in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return json.dumps(value)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _resolve(args, fields: dict):
    """Merge CLI flags (highest precedence), config file, and defaults."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (convert, default, required, _help) in fields.items():
        attr = key.replace("-", "_")
        value = getattr(args, attr)
        if value is None and key in file_values:
            value = convert(file_values[key])
        if value is None:
            value = default
        if value is None and required:
            raise ValueError(f"missing required option --{key}")
        resolved[key] = value
    return resolved


def _parse_coin(spec: str) -> np.ndarray:
    if spec in COIN_STATES:
        return coin_state(spec)
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"initial coin must be one of {sorted(COIN_STATES)} or re,im,re,im; "
            f"got {spec!r}"
        )
    values = [float(s) for s in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"initial coin parts must be finite, got {spec!r}")
    # scale by an exact power of two so that the largest part lies in
    # [0.5, 1) and the sum of squares in the norm neither underflows nor
    # overflows; for ordinary coins this leaves every bit of the result as is
    exponent = math.frexp(max(map(abs, values)))[1]
    a_re, a_im, b_re, b_im = (math.ldexp(v, -exponent) for v in values)
    vec = np.array([a_re + 1j * a_im, b_re + 1j * b_im])
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("initial coin must be nonzero")
    with np.errstate(over="ignore"):
        unscaled = np.ldexp(norm, exponent)
    if abs(unscaled - 1.0) > 1e-6:
        print(f"warning: renormalizing initial coin (norm was {unscaled:.6g})",
              file=sys.stderr)
    return vec / norm


def _write_manifest(path, command: str, settings: dict, outputs: list):
    manifest = {
        "command": command,
        "settings": settings,
        "deterministic": True,
        "rng": "none",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    _write_text(path, _emit_json(manifest) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# each option: (convert, default, required, help text)
SIMULATE_FIELDS = {
    "nodes": (int, None, True, "cycle length N"),
    "decoherence": (float, None, True, "coin measurement rate p in [0,1]"),
    "steps": (int, None, True, "number of steps to evolve"),
    "method": (str, "fourier", False,
               "'fourier' (momentum path) or 'direct' (density matrix)"),
    "initial-coin": (str, "up", False, "up | down | balanced | re,im,re,im"),
    "output": (str, "-", False, "CSV destination ('-' for stdout)"),
}


def cmd_simulate(args) -> int:
    resolved = _resolve(args, SIMULATE_FIELDS)
    if resolved["method"] not in ("fourier", "direct"):
        raise ValueError(f"method must be 'fourier' or 'direct', got {resolved['method']!r}")
    coin = _parse_coin(resolved["initial-coin"])
    config = WalkConfig(n_nodes=resolved["nodes"],
                        decoherence_rate=resolved["decoherence"],
                        initial_coin=coin)
    steps = resolved["steps"]
    _check_count("steps", steps, 0)
    if resolved["method"] == "fourier":
        trajectory = fourier_trajectory(config, steps)
    else:
        trajectory = np.stack([position_marginal(rho).probs
                               for rho in direct_trajectory(config, steps)])
    bad = np.flatnonzero(~(np.abs(trajectory.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    if len(bad):
        raise NumericalCheckError(f"probabilities at t={bad[0]} sum to "
                                  f"{float(trajectory[bad[0]].sum())!r}, not 1")
    cells = np.empty((trajectory.size, 3), dtype=object)
    cells[:, 0], cells[:, 1] = np.divmod(np.arange(trajectory.size), config.n_nodes)
    cells[:, 2] = trajectory.ravel()
    rows = _rows(f"%d,%d,%.16e,{resolved['method']}\n", cells)
    _write_text(resolved["output"], "t,x,p,method\n" + rows)
    if args.manifest:
        _write_manifest(args.manifest, "simulate", resolved, [resolved["output"]])
    return 0


SPECTRUM_FIELDS = {
    "nodes": (int, None, True, "cycle length N"),
    "decoherence": (float, None, True, "coin measurement rate p in [0,1]"),
    "output": (str, "-", False, "CSV destination ('-' for stdout)"),
    "summary": (str, "", False, "summary JSON destination (default: stderr)"),
}


def cmd_spectrum(args) -> int:
    resolved = _resolve(args, SPECTRUM_FIELDS)
    config = WalkConfig(n_nodes=resolved["nodes"],
                        decoherence_rate=resolved["decoherence"])
    n, p = config.n_nodes, config.decoherence_rate
    spectra = eigenvalues(all_pair_matrices(config)[0], n)
    # one row per pair: k, k', class, radius, then re, im of each eigenvalue
    cells = np.empty((n * n, 12), dtype=object)
    cells[:, 0], cells[:, 1] = _pair_momenta(n)
    cells[:, 2], cells[:, 3] = spectra.classification, spectra.spectral_radius
    cells[:, 4:] = spectra.eigenvalues.view(np.float64)
    rows = _rows("%d,%d,%s" + ",%.16e" * 9 + "\n", cells)
    summary = {"nodes": n, "decoherence": p, "pairs": n * n,
               **spectral_structure(spectra, n, p)}
    _write_text(resolved["output"], "k,k_prime,classification,spectral_radius,"
                "eig1_re,eig1_im,eig2_re,eig2_im,eig3_re,eig3_im,eig4_re,eig4_im\n" + rows)
    summary_text = _emit_json(summary) + "\n"
    if resolved["summary"]:
        _write_text(resolved["summary"], summary_text)
    else:
        sys.stderr.write(summary_text)
    if args.manifest:
        outputs = [resolved["output"]] + ([resolved["summary"]] if resolved["summary"] else [])
        _write_manifest(args.manifest, "spectrum", resolved, outputs)
    if not all(summary[verdict] for verdict in VERDICTS):
        raise NumericalCheckError("spectrum summary assertions failed; see summary")
    return 0


MIXING_FIELDS = {
    "nodes": (int, None, True, "cycle length N"),
    "decoherence": (float, None, True, "coin measurement rate p in [0,1]"),
    "epsilon": (float, None, True, "mixing threshold"),
    "target": (str, "averaged", False, "'averaged' (Cesaro) or 'instantaneous'"),
    "horizon": (int, None, False, "scan horizon (default: 20 N^2 / epsilon, capped at 1e6)"),
    "initial-coin": (str, "up", False, "up | down | balanced | re,im,re,im"),
    "bound": (str, "auto", False, "'auto' | 'require' | 'off' analytic deviation bound"),
    "trace-stride": (int, 1, False, "thin the emitted tv trace to every K-th entry"),
    "output": (str, "-", False, "JSON destination ('-' for stdout)"),
}


def cmd_mixing(args) -> int:
    resolved = _resolve(args, MIXING_FIELDS)
    if resolved["target"] not in ("averaged", "instantaneous"):
        raise ValueError(f"target must be 'averaged' or 'instantaneous', "
                         f"got {resolved['target']!r}")
    if resolved["bound"] not in ("auto", "require", "off"):
        raise ValueError(f"bound must be 'auto', 'require' or 'off', "
                         f"got {resolved['bound']!r}")
    _check_count("trace-stride", resolved["trace-stride"], 1)
    coin = _parse_coin(resolved["initial-coin"])
    config = WalkConfig(n_nodes=resolved["nodes"],
                        decoherence_rate=resolved["decoherence"],
                        initial_coin=coin)
    if resolved["bound"] == "require":
        problems = bound_unavailable_reasons(config)
        if resolved["target"] != "averaged":
            problems.append("instantaneous target")
        if problems:
            raise ValueError("analytic bound unavailable: " + ", ".join(problems))
    if resolved["target"] == "averaged":
        report = mixing_time_averaged(config, resolved["epsilon"], resolved["horizon"])
    else:
        report = mixing_time_instantaneous(config, resolved["epsilon"], resolved["horizon"])
    bound = None
    if resolved["bound"] != "off" and report.bound_value is not None:
        bound = {"tau": report.mixing_time, "value": report.bound_value}
    payload = {
        "epsilon": report.epsilon,
        "horizon": report.horizon,
        "converged": report.converged,
        "mixing_time": report.mixing_time,
        "bound": bound,
        "tv_trace": report.trace_cells(resolved["trace-stride"]),
    }
    _write_text(resolved["output"], _emit_json(payload) + "\n")
    if args.manifest:
        _write_manifest(args.manifest, "mixing", resolved, [resolved["output"]])
    return 0


VERIFY_FIELDS = {
    "output": (str, "-", False, "report JSON destination"),
}


def cmd_verify(args) -> int:
    resolved = _resolve(args, VERIFY_FIELDS)
    profile = "quick" if args.quick else "default"
    names = args.check if args.check else None
    report = run_checks(names=names, profile=profile)
    _write_text(resolved["output"], _emit_json(report) + "\n")
    if args.manifest:
        settings = dict(resolved)
        settings["profile"] = profile
        settings["checks"] = names or CHECK_NAMES
        _write_manifest(args.manifest, "verify", settings, [resolved["output"]])
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="key=value file; flags take precedence")
    sub.add_argument("--manifest", help="write a run manifest (JSON) to this path")


def _add_fields(sub, fields: dict):
    for key, (convert, _default, _required, text) in fields.items():
        sub.add_argument(f"--{key}", type=convert, default=None,
                         help=text, metavar=key.upper().replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Decohered quantum walks on the N-cycle: simulation, "
                    "spectra and mixing analysis.",
    )
    parser.add_argument("--version", action="version", version=f"cyclewalk {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="evolve and write P(x,t) as CSV")
    _add_fields(sim, SIMULATE_FIELDS)
    _add_common(sim)
    sim.set_defaults(handler=cmd_simulate)

    spec = commands.add_parser("spectrum", help="per-pair eigenvalues as CSV "
                                                "plus a summary JSON")
    _add_fields(spec, SPECTRUM_FIELDS)
    _add_common(spec)
    spec.set_defaults(handler=cmd_spectrum)

    mix = commands.add_parser("mixing", help="TV scan and mixing time as JSON")
    _add_fields(mix, MIXING_FIELDS)
    _add_common(mix)
    mix.set_defaults(handler=cmd_mixing)

    ver = commands.add_parser("verify", help="run the named property checks")
    ver.add_argument("--quick", action="store_true",
                     help="reduced sizes: about 0.45 s instead of about 1.1 s "
                          "on a 2-core VM")
    ver.add_argument("--check", action="append", metavar="NAME",
                     help=f"run only the named check (repeatable); "
                          f"one of: {', '.join(CHECK_NAMES)}")
    _add_fields(ver, VERIFY_FIELDS)
    _add_common(ver)
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalCheckError as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
