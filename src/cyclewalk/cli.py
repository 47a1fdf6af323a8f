"""Command-line front end: simulate, spectrum, mixing, verify.

Outputs are deterministic: CSV for time series, JSON for reports, floats
rendered with 17 significant digits in lowercase scientific notation, no
wall-clock content.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error, 3 internal numerical assertion.
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
from .analysis import mixing_time_averaged, mixing_time_instantaneous
from .core import COIN_STATES, NumericalCheckError, WalkConfig, coin_state
from .evolution import direct_trajectory, fourier_trajectory, position_marginal
from .fourier import superop_definitional
from .spectral import CLASS_ANTIPODAL, CLASS_DIAGONAL, CLASS_GENERIC, eigenvalues
from .verify import CHECK_NAMES, run_checks

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x: float) -> str:
    """17 significant digits, lowercase scientific."""
    return format(float(x), ".16e")


class _Pairs(list):
    """A list of [int, float] pairs, such as the mixing ``tv_trace``;
    :func:`_emit_json` renders it with one template per entry, in the bytes
    it would give a plain list of the same values."""


def _emit_pairs(pairs: _Pairs, indent: int) -> str:
    pad = "  " * (indent + 1)
    entry = f"{pad}[\n{pad}  %d,\n{pad}  %.16e\n{pad}]"
    return "[\n" + ",\n".join([entry % (t, v) for t, v in pairs]) + "\n" + "  " * indent + "]"


def _emit_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, _Pairs) and value:
        return _emit_pairs(value, indent)
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
    for key, (convert, default, required) in fields.items():
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
    a_re, a_im, b_re, b_im = values
    vec = np.array([a_re + 1j * a_im, b_re + 1j * b_im])
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("initial coin must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        print(f"warning: renormalizing initial coin (norm was {norm:.6g})",
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


def _settings_echo(resolved: dict) -> dict:
    return dict(resolved)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

SIMULATE_FIELDS = {
    "nodes": (int, None, True),
    "decoherence": (float, None, True),
    "steps": (int, None, True),
    "method": (str, "fourier", False),
    "initial-coin": (str, "up", False),
    "output": (str, "-", False),
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
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if resolved["method"] == "fourier":
        trajectory = fourier_trajectory(config, steps)
    else:
        trajectory = np.stack([position_marginal(rho).probs
                               for rho in direct_trajectory(config, steps)])
    lines = ["t,x,p,method"]
    for t in range(steps + 1):
        row_sum = trajectory[t].sum()
        if not abs(row_sum - 1.0) <= 1e-10:
            raise NumericalCheckError(
                f"probabilities at t={t} sum to {row_sum!r}, not 1")
        for x in range(config.n_nodes):
            lines.append(f"{t},{x},{_fmt(trajectory[t, x])},{resolved['method']}")
    _write_text(resolved["output"], "\n".join(lines) + "\n")
    if args.manifest:
        _write_manifest(args.manifest, "simulate", _settings_echo(resolved),
                        [resolved["output"]])
    return 0


SPECTRUM_FIELDS = {
    "nodes": (int, None, True),
    "decoherence": (float, None, True),
    "output": (str, "-", False),
    "summary": (str, "", False),
}


def cmd_spectrum(args) -> int:
    resolved = _resolve(args, SPECTRUM_FIELDS)
    config = WalkConfig(n_nodes=resolved["nodes"],
                        decoherence_rate=resolved["decoherence"])
    n, p = config.n_nodes, config.decoherence_rate
    lines = ["k,k_prime,classification,spectral_radius,"
             "eig1_re,eig1_im,eig2_re,eig2_im,eig3_re,eig3_im,eig4_re,eig4_im"]
    counts = {CLASS_DIAGONAL: 0, CLASS_ANTIPODAL: 0, CLASS_GENERIC: 0}
    max_radius_all = 0.0
    max_radius_generic = 0.0
    placement_ok = True
    for k in range(n):
        for kp in range(n):
            report = eigenvalues(superop_definitional(k, kp, config))
            counts[report.classification] += 1
            max_radius_all = max(max_radius_all, report.spectral_radius)
            if report.classification == CLASS_GENERIC:
                max_radius_generic = max(max_radius_generic, report.spectral_radius)
            if 0.0 < p < 1.0:
                if report.has_unit_eigenvalue != (report.classification == CLASS_DIAGONAL):
                    placement_ok = False
                if report.has_minus_one != (report.classification == CLASS_ANTIPODAL):
                    placement_ok = False
            eig = report.eigenvalues
            parts = ",".join(f"{_fmt(v.real)},{_fmt(v.imag)}" for v in eig)
            lines.append(f"{k},{kp},{report.classification},"
                         f"{_fmt(report.spectral_radius)},{parts}")
    radius_ok = max_radius_all <= 1.0 + 1e-10
    gap_ok = p == 0.0 or max_radius_generic < 1.0
    summary = {
        "nodes": n,
        "decoherence": p,
        "pairs": n * n,
        "count_diagonal": counts[CLASS_DIAGONAL],
        "count_antipodal": counts[CLASS_ANTIPODAL],
        "count_generic": counts[CLASS_GENERIC],
        "max_radius": max_radius_all,
        "max_radius_generic": max_radius_generic,
        "radius_within_unit_disk": radius_ok,
        "generic_radius_below_one": gap_ok,
        "persistent_eigenvalue_placement_checked": bool(0.0 < p < 1.0),
        "persistent_eigenvalue_placement_ok": placement_ok,
    }
    _write_text(resolved["output"], "\n".join(lines) + "\n")
    summary_text = _emit_json(summary) + "\n"
    if resolved["summary"]:
        _write_text(resolved["summary"], summary_text)
    else:
        sys.stderr.write(summary_text)
    if args.manifest:
        outputs = [resolved["output"]] + ([resolved["summary"]] if resolved["summary"] else [])
        _write_manifest(args.manifest, "spectrum", _settings_echo(resolved), outputs)
    if not (radius_ok and gap_ok and ((not 0.0 < p < 1.0) or placement_ok)):
        raise NumericalCheckError("spectrum summary assertions failed; see summary")
    return 0


MIXING_FIELDS = {
    "nodes": (int, None, True),
    "decoherence": (float, None, True),
    "epsilon": (float, None, True),
    "target": (str, "averaged", False),
    "horizon": (int, None, False),
    "initial-coin": (str, "up", False),
    "bound": (str, "auto", False),
    "trace-stride": (int, 1, False),
    "output": (str, "-", False),
}


def cmd_mixing(args) -> int:
    resolved = _resolve(args, MIXING_FIELDS)
    if resolved["target"] not in ("averaged", "instantaneous"):
        raise ValueError(f"target must be 'averaged' or 'instantaneous', "
                         f"got {resolved['target']!r}")
    if resolved["bound"] not in ("auto", "require", "off"):
        raise ValueError(f"bound must be 'auto', 'require' or 'off', "
                         f"got {resolved['bound']!r}")
    if resolved["trace-stride"] < 1:
        raise ValueError(f"trace-stride must be >= 1, got {resolved['trace-stride']}")
    coin = _parse_coin(resolved["initial-coin"])
    config = WalkConfig(n_nodes=resolved["nodes"],
                        decoherence_rate=resolved["decoherence"],
                        initial_coin=coin)
    if resolved["bound"] == "require":
        problems = []
        if config.n_nodes % 2 == 0:
            problems.append("even cycle length")
        if config.decoherence_rate == 0.0:
            problems.append("zero decoherence rate")
        if not np.allclose(coin, COIN_STATES["up"], atol=1e-12):
            problems.append("initial coin is not 'up'")
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
        "tv_trace": _Pairs(report.trace_pairs(resolved["trace-stride"])),
    }
    _write_text(resolved["output"], _emit_json(payload) + "\n")
    if args.manifest:
        _write_manifest(args.manifest, "mixing", _settings_echo(resolved),
                        [resolved["output"]])
    return 0


VERIFY_FIELDS = {
    "output": (str, "-", False),
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


def _add_fields(sub, fields: dict, helps: dict):
    for key, (convert, default, _required) in fields.items():
        sub.add_argument(f"--{key}", type=convert, default=None,
                         help=helps.get(key, ""), metavar=key.upper().replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Decohered quantum walks on the N-cycle: simulation, "
                    "spectra and mixing analysis.",
    )
    parser.add_argument("--version", action="version", version=f"cyclewalk {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="evolve and write P(x,t) as CSV")
    _add_fields(sim, SIMULATE_FIELDS, {
        "nodes": "cycle length N",
        "decoherence": "coin measurement rate p in [0,1]",
        "steps": "number of steps to evolve",
        "method": "'fourier' (momentum path) or 'direct' (density matrix)",
        "initial-coin": "up | down | balanced | re,im,re,im",
        "output": "CSV destination ('-' for stdout)",
    })
    _add_common(sim)
    sim.set_defaults(handler=cmd_simulate)

    spec = commands.add_parser("spectrum", help="per-pair eigenvalues as CSV "
                                                "plus a summary JSON")
    _add_fields(spec, SPECTRUM_FIELDS, {
        "nodes": "cycle length N",
        "decoherence": "coin measurement rate p in [0,1]",
        "output": "CSV destination ('-' for stdout)",
        "summary": "summary JSON destination (default: stderr)",
    })
    _add_common(spec)
    spec.set_defaults(handler=cmd_spectrum)

    mix = commands.add_parser("mixing", help="TV scan and mixing time as JSON")
    _add_fields(mix, MIXING_FIELDS, {
        "nodes": "cycle length N",
        "decoherence": "coin measurement rate p in [0,1]",
        "epsilon": "mixing threshold",
        "target": "'averaged' (Cesaro) or 'instantaneous'",
        "horizon": "scan horizon (default: 20 N^2 / epsilon, capped at 1e6)",
        "initial-coin": "up | down | balanced | re,im,re,im",
        "bound": "'auto' | 'require' | 'off' analytic deviation bound",
        "trace-stride": "thin the emitted tv trace to every K-th entry",
        "output": "JSON destination ('-' for stdout)",
    })
    _add_common(mix)
    mix.set_defaults(handler=cmd_mixing)

    ver = commands.add_parser("verify", help="run the named property checks")
    ver.add_argument("--quick", action="store_true",
                     help="reduced sizes (seconds instead of minutes)")
    ver.add_argument("--check", action="append", metavar="NAME",
                     help=f"run only the named check (repeatable); "
                          f"one of: {', '.join(CHECK_NAMES)}")
    _add_fields(ver, VERIFY_FIELDS, {"output": "report JSON destination"})
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalCheckError as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
