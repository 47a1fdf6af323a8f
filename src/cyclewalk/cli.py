"""Command-line front end: simulate, spectrum, mixing, verify.

Outputs are deterministic: CSV for time series, JSON for reports, floats
rendered with 17 significant digits in lowercase scientific notation, no
wall-clock content.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error (including an input too large to allocate, an
output path that cannot be written, checked before any work, and a closed
stdout), 3 internal numerical assertion.

The three data tables, the `simulate` and `spectrum` CSVs and the mixing
``tv_trace``, stream through one renderer, :func:`_table`: a row template
over int, float and label columns, written in chunks of _CHUNK_ROWS rows
as ASCII bytes, the same bytes as the template's ``%`` rendering.  Floats
take their 17 digits from a double-double product with a power of ten and
the exact ``format`` wherever that product could not decide a digit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bound_unavailable_reasons,
    mixing_time_averaged,
    mixing_time_instantaneous,
    uniform_deviation_bound,
)
from .core import COIN_STATES, NumericalCheckError, WalkConfig, _check_count, coin_state
from .evolution import PROB_SUM_TOL, direct_trajectory, fourier_trajectory, position_marginal
from .fourier import _pair_momenta, all_pair_matrices
from .spectral import VERDICTS, eigenvalues, spectral_structure
from .verify import CHECK_NAMES, PROFILES, run_checks

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x: float) -> str:
    """17 significant digits, lowercase scientific."""
    return format(float(x), ".16e")


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

#: Rows rendered per chunk of a table: about 1 MB of text for the mixing
#: trace, so a 10^6-step trace streams through a buffer of fixed size.
_CHUNK_ROWS = 1 << 14

_FIELD = re.compile(r"%d|%\.16e|%s")

#: Exponents k of the (hi, lo) table of 10^k: those of 10^(16 - E) for the
#: fast-path exponents |E| < 100, with a margin for log10's rounding.
_KMIN, _KMAX = -90, 120
#: Dekker's splitting constant 2^27 + 1.
_SPLIT = 134217729.0
#: A scaled value within this of a rounding tie or of 10^16 takes the
#: exact fallback; the product is good to 2^-47, far inside it.
_MARGIN = 1e-6


@functools.lru_cache(maxsize=None)
def _digit_tables():
    """10^k as hi + lo for k in [_KMIN, _KMAX], hi split into two 26-bit
    halves, and the 4-byte ASCII words "0000".."9999" as uint32; built on
    first use, not at import."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        # 10^k = num / den exactly; int division rounds correctly, so hi is
        # 10^k rounded and lo the rounded rest, from hi = m / j exactly
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi.append(num / den)
        m, j = hi[-1].as_integer_ratio()
        lo.append((num * j - m * den) / (den * j))
    hi, lo = np.array(hi), np.array(lo)
    split = _SPLIT * hi
    hi_hi = split - (split - hi)
    words = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48)
    return hi, lo, hi_hi, hi - hi_hi, words.astype(np.uint8).view(np.uint32).ravel()


def _floats(x) -> np.ndarray:
    """``%.16e`` of each float of x, as a NUL-padded (len(x), w) byte array.

    The 17 digits are D = round(|x| 10^(16 - E)) with E = floor(log10 |x|):
    Dekker's exact product of |x| and the hi part of 10^(16 - E), plus |x|
    times its lo part, gives the scaled value to within 2^-47.  A value
    takes the exact fallback ``format(x, '.16e')`` where that could decide
    a digit wrongly: zero, inf and nan, |x| outside [1e-100, 1e100), a
    scaled value within _MARGIN of a tie or below 10^16 + _MARGIN, or not
    below 10^17 (log10 rounded across an integer, E is off by one), and a
    three-digit exponent.  Otherwise the floor and the rounding direction
    of the scaled value are those of the exact one, so every byte is that
    of ``format``.
    """
    pow_hi, pow_lo, pow_hi_hi, pow_hi_lo, words = _digit_tables()
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-100) & (a < 1e100)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e - _KMIN
    p = a * pow_hi[k]
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    q = (((a_hi * pow_hi_hi[k] - p) + a_hi * pow_hi_lo[k] + a_lo * pow_hi_hi[k])
         + a_lo * pow_hi_lo[k]) + a * pow_lo[k]
    # the scaled value p + q = d + frac, with d an integer and 0 <= frac < 1
    whole = np.floor(p)
    r = (p - whole) + q
    carry = np.floor(r)
    d = whole.astype(np.int64) + carry.astype(np.int64)
    frac = r - carry
    fast &= (d < 10 ** 17) & ((d > 10 ** 16) | (d == 10 ** 16) & (frac >= _MARGIN))
    fast &= np.abs(frac - 0.5) >= _MARGIN
    d += frac > 0.5
    top = d == 10 ** 17
    d[top] = 10 ** 16
    e += top
    fast &= np.abs(e) < 100
    lead, rest = np.divmod(d, 10 ** 16)
    out = np.empty((len(x), 23), np.uint8)
    out[:, 0] = np.where(x < 0, 45, 0)
    out[:, 1] = lead + 48
    out[:, 2] = 46
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.stack([*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4)], axis=1)
    out[:, 3:19] = words[groups].view(np.uint8)
    out[:, 19] = 101
    out[:, 20] = np.where(e < 0, 45, 43)
    out[:, 21:] = words[np.abs(e), None].view(np.uint8)[:, 2:]
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array([format(v, ".16e") for v in x[slow].tolist()], dtype=bytes)
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[slow] = 0
        out[slow, :text.itemsize] = text.view(np.uint8).reshape(len(slow), -1)
    return out


def _ints(v) -> np.ndarray:
    """``%d`` of each integer of v, right-aligned in a NUL-padded
    (len(v), w) byte array."""
    v = np.asarray(v, dtype=np.int64)
    a = np.abs(v)
    powers = 10 ** np.arange(len(str(int(a.max()))) - 1, -1, -1, dtype=np.int64)
    shown = (a[:, None] >= powers) | (powers == 1)
    sign = int(v.min() < 0)
    out = np.zeros((len(v), sign + len(powers)), np.uint8)
    out[:, sign:] = np.where(shown, a[:, None] // powers % 10 + 48, 0)
    negative = np.flatnonzero(v < 0)
    out[negative, len(powers) - shown[negative].sum(axis=1)] = 45
    return out


def _labels(v) -> np.ndarray:
    """``%s`` of each ASCII label of v, as a NUL-padded (len(v), w) byte
    array."""
    text = np.asarray(v).astype(bytes)
    return text.view(np.uint8).reshape(len(text), -1)


_RENDER = {"%d": _ints, "%.16e": _floats, "%s": _labels}


def _table(template: str, columns):
    """Yield ``template % row`` for every row of the columns, as ASCII bytes
    in chunks of _CHUNK_ROWS rows.

    template holds one ``%d``, ``%.16e`` or ``%s`` field per column and no
    other ``%``; columns are arrays of ints, floats and labels that broadcast
    together, and the table's rows are their broadcast entries in C order,
    taken in chunks along the leading axis, so a broadcast column is never
    built in full.  Each chunk is laid out as a byte matrix, one row per
    table row, whose fields are NUL-padded to the chunk's widest; deleting
    the NULs leaves the bytes of the ``%`` rendering.
    """
    literals = [np.frombuffer(s.encode("ascii"), np.uint8) for s in _FIELD.split(template)]
    render = [_RENDER[field] for field in _FIELD.findall(template)]
    columns = np.broadcast_arrays(*columns)
    shape = columns[0].shape
    step = max(1, _CHUNK_ROWS // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        fields = [fn(column[start:start + step].ravel()) for fn, column in zip(render, columns)]
        width = sum(map(len, literals)) + sum(f.shape[1] for f in fields)
        buf = np.empty((len(fields[0]), width), np.uint8)
        at = 0
        for literal, field in zip(literals, fields + [None]):
            buf[:, at:at + len(literal)] = literal
            at += len(literal)
            if field is not None:
                buf[:, at:at + field.shape[1]] = field
                at += field.shape[1]
        yield buf.tobytes().replace(b"\0", b"")


def _emit_rows(columns, indent: int):
    """JSON list of the rows of the columns, one JSON list per row, in the
    bytes the recursive emitter gives a list of the same rows."""
    if not len(columns[0]):
        yield b"[]"
        return
    pad = "  " * (indent + 1)
    fields = ",\n".join(
        f"{pad}  %d" if np.issubdtype(c.dtype, np.integer) else f"{pad}  %.16e"
        for c in columns)
    chunks = _table(f",\n{pad}[\n{fields}\n{pad}]", columns)
    yield b"[\n" + next(chunks)[2:]
    yield from chunks
    yield f"\n{'  ' * indent}]".encode()


def _emit_json(value, indent: int = 0):
    """Yield the JSON text of value as ASCII byte chunks.  A tuple of numpy
    columns, such as the mixing ``tv_trace``, is a table: a list of rows,
    rendered by :func:`_table`.  A non-finite float is written as
    ``json.dumps`` writes it (NaN, Infinity, -Infinity), which ``json.loads``
    reads back."""
    pad = "  " * indent
    if isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
        yield from _emit_rows(value, indent)
    elif isinstance(value, (dict, list, tuple)) and value:
        is_dict = isinstance(value, dict)
        sep = "{\n" if is_dict else "[\n"
        for key, val in (value.items() if is_dict else enumerate(value)):
            head = f"{json.dumps(str(key))}: " if is_dict else ""
            yield f"{sep}{pad}  {head}".encode()
            yield from _emit_json(val, indent + 1)
            sep = ",\n"
        yield f"\n{pad}{'}' if is_dict else ']'}".encode()
    elif isinstance(value, bool) or value is None:
        yield json.dumps(value).encode()
    elif isinstance(value, (int, np.integer)):
        yield str(int(value)).encode()
    elif isinstance(value, (float, np.floating)):
        yield (_fmt(value) if math.isfinite(value) else json.dumps(float(value))).encode()
    else:
        yield json.dumps(value).encode()


def _check_writable(*paths):
    """Raise now the OSError that writing any of paths ('-' and empty paths
    aside) would raise once the work is done, or a ValueError if two name one
    file; no file is changed or left behind.  A named pipe or device is not
    opened early: opening a pipe waits for a reader, and closing it ends one."""
    paths = [path for path in paths if path and path != "-"]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError(f"two destinations name the same file: {', '.join(paths)}")
    for path in paths:
        try:
            with open(path, "xb"):
                pass
        except FileExistsError:
            if os.path.isfile(path) or os.path.isdir(path):
                with open(path, "ab"):
                    pass
        else:
            os.remove(path)


def _write(path: str, *parts):
    """Write parts, each bytes or an iterable of byte chunks, to path, or
    to standard output for '-'."""
    chunks = itertools.chain.from_iterable(
        [part] if isinstance(part, bytes) else part for part in parts)
    if path == "-":
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(path, "wb") as out:
            out.writelines(chunks)


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
    _write(path, _emit_json(manifest), b"\n")


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
    _check_writable(resolved["output"], args.manifest)
    if resolved["method"] == "fourier":
        trajectory = fourier_trajectory(config, steps)
    else:
        trajectory = np.stack([position_marginal(rho).probs
                               for rho in direct_trajectory(config, steps)])
    bad = np.flatnonzero(~(np.abs(trajectory.sum(axis=1) - 1.0) <= PROB_SUM_TOL))
    if len(bad):
        raise NumericalCheckError(f"probabilities at t={bad[0]} sum to "
                                  f"{float(trajectory[bad[0]].sum())!r}, not 1")
    _write(resolved["output"], b"t,x,p,method\n",
           _table(f"%d,%d,%.16e,{resolved['method']}\n",
                  (np.arange(steps + 1)[:, None], np.arange(config.n_nodes), trajectory)))
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
    _check_writable(resolved["output"], resolved["summary"], args.manifest)
    n, p = config.n_nodes, config.decoherence_rate
    spectra = eigenvalues(all_pair_matrices(config)[0])
    # one row per pair: k, k', class, radius, then re, im of each eigenvalue
    columns = (*_pair_momenta(n), spectra.classification, spectra.spectral_radius,
               *spectra.eigenvalues.view(np.float64).T)
    summary = {"nodes": n, "decoherence": p, "pairs": n * n,
               **spectral_structure(spectra, p)}
    _write(resolved["output"], b"k,k_prime,classification,spectral_radius,"
           b"eig1_re,eig1_im,eig2_re,eig2_im,eig3_re,eig3_im,eig4_re,eig4_im\n",
           _table("%d,%d,%s" + ",%.16e" * 9 + "\n", columns))
    if resolved["summary"]:
        _write(resolved["summary"], _emit_json(summary), b"\n")
    else:
        sys.stderr.write(b"".join(_emit_json(summary)).decode() + "\n")
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
    problems = bound_unavailable_reasons(config)
    if resolved["target"] != "averaged":
        problems.append("instantaneous target")
    if resolved["bound"] == "require" and problems:
        raise ValueError("analytic bound unavailable: " + ", ".join(problems))
    _check_writable(resolved["output"], args.manifest)
    if resolved["target"] == "averaged":
        report = mixing_time_averaged(config, resolved["epsilon"], resolved["horizon"])
    else:
        report = mixing_time_instantaneous(config, resolved["epsilon"], resolved["horizon"])
    bound = None
    if resolved["bound"] != "off" and not problems and report.converged:
        bound = {"tau": report.mixing_time, "value": uniform_deviation_bound(
            report.mixing_time, config.n_nodes, config.decoherence_rate)}
    payload = {
        "epsilon": report.epsilon,
        "horizon": report.horizon,
        "converged": report.converged,
        "mixing_time": report.mixing_time,
        "bound": bound,
        "tv_trace": report.trace_cells(resolved["trace-stride"]),
    }
    _write(resolved["output"], _emit_json(payload), b"\n")
    if args.manifest:
        _write_manifest(args.manifest, "mixing", resolved, [resolved["output"]])
    return 0


VERIFY_FIELDS = {
    "output": (str, "-", False, "report JSON destination"),
}


def cmd_verify(args) -> int:
    resolved = _resolve(args, VERIFY_FIELDS)
    _check_writable(resolved["output"], args.manifest)
    profile = "quick" if args.quick else "default"
    report = run_checks(names=args.check, profile=profile)
    _write(resolved["output"], _emit_json(report), b"\n")
    if args.manifest:
        settings = {**resolved, "profile": profile,
                    "checks": [check["name"] for check in report["checks"]]}
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
    quick, full = PROFILES["quick"], PROFILES["default"]
    ver.add_argument("--quick", action="store_true",
                     help=f"reduced sizes: oracle walks up to N = {quick.oracle_max_nodes} "
                          f"over {quick.oracle_max_steps} steps and {quick.random_tuples} "
                          f"random pairs, instead of N = {full.oracle_max_nodes}, "
                          f"{full.oracle_max_steps} steps and {full.random_tuples} pairs")
    ver.add_argument("--check", action="append", metavar="NAME",
                     help=f"run only the named check (repeatable); "
                          f"one of: {', '.join(CHECK_NAMES)}")
    _add_fields(ver, VERIFY_FIELDS)
    _add_common(ver)
    ver.set_defaults(handler=cmd_verify)
    return parser


def _fail(code: int, message: str) -> int:
    """Flush stdout, write message to stderr, and return code.  A stream
    that cannot take its part, such as a pipe whose reader has gone, is
    pointed at os.devnull instead, so that the flush at exit cannot fail."""
    for stream, text in ((sys.stdout, ""), (sys.stderr, message + "\n")):
        try:
            print(text, end="", file=stream, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


def main(argv=None) -> int:
    """Run the command line argv and return its exit code.  A closed stdout
    is an output that cannot be written, exit code 2, also when only the
    final flush finds it closed."""
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        else:
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(USAGE_ERROR, f"error: {exc}")
    except NumericalCheckError as exc:
        return _fail(NUMERICAL_ERROR, f"numerical assertion failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
