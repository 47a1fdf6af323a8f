"""Per-layer tracing of a cyclewalk process, installed from outside the package.

Each layer is a module of ``src/cyclewalk``.  The tracer wraps the public
functions at which those modules call one another and rebinds every
reference to them in the loaded ``cyclewalk`` modules, so a name bound by
``from .x import f`` is patched where it is looked up.  Module-level lists of
``(name, function)`` tuples, such as the check table of ``verify``, are
rebound too.  Nothing recursive or per-element (JSON emission, float
formatting, position marginals) is wrapped: each wrapped call does tens of
microseconds of work or more, against a few microseconds of tracing, and
the benchmark reports the total as ``bench.trace_overhead_s``.

A boundary that a refactor removed is reported in ``absent`` instead of
failing the run.  Generator functions are timed while they are consumed, one
span per ``next``, not when they are created.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from checks import VERIFY_CHECKS

#: layer -> (module, public functions at which other modules call it).
BOUNDARIES = {
    "analysis": ("cyclewalk.analysis", (
        "mixing_time_averaged", "mixing_time_instantaneous",
        "averaged_time_below", "time_averaged_snapshots",
        "steps_to_uniform", "verify_geometric_sum")),
    "kernels": ("cyclewalk._kernels", (
        "distribution_trajectory", "tv_scan", "averaged_snapshots")),
    "fourier": ("cyclewalk.fourier", (
        "all_pair_matrices", "superop_definitional", "superop_closed_form")),
    "evolution": ("cyclewalk.evolution", (
        "fourier_trajectory", "direct_trajectory", "classical_reference")),
    "spectral": ("cyclewalk.spectral", (
        "eigenvalues", "spectral_gap", "char_poly")),
    "verify": ("cyclewalk.verify", (
        "run_checks", *(f"check_{name}" for name in VERIFY_CHECKS))),
    "core": ("cyclewalk.core", ("build_kraus_family",)),
}

def _bound_arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kernel_pair_steps(name, fn, args, kwargs, result):
    """Pair x step count of one kernel call: pairs from the matrix stack,
    steps from the step argument or, for scans that may stop early, from
    the length of the returned trace."""
    arguments = _bound_arguments(fn, args, kwargs)
    pairs = int(arguments["matrices"].shape[0])
    if name == "distribution_trajectory":
        steps = int(arguments["steps"])
    elif name == "tv_scan":
        filled = len(result[0])
        averaged = int(arguments["mode"]) == int(getattr(
            sys.modules[fn.__module__], "MODE_AVERAGED", 0))
        steps = filled - 1 if averaged else filled
    else:
        steps = int(arguments["taus"][-1]) - 1
    return pairs * max(steps, 0)


class Tracer:
    """Aggregates spans per ``layer.function``: calls, inclusive time, and
    self time (inclusive time minus that of the spans it encloses)."""

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self.counter_errors = []
        self.absent = []
        self.top_level_s = 0.0
        self._stack = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, key, started):
        elapsed = time.perf_counter() - started
        child_s = self._stack.pop()
        entry = self.stats.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["incl_s"] += elapsed
        entry["self_s"] += elapsed - child_s
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_level_s += elapsed

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------------

    def _wrap_function(self, layer, name, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(key, started)
            self.stats[key]["calls"] += 1
            self._after(layer, name, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, layer, name, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    started = self._enter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._exit(key, started)
                    yielded += 1
                    yield item
            finally:
                iterator.close()
                self.stats[key]["calls"] += 1
                self._count(f"{key}.steps", max(yielded - 1, 0))

        return wrapper

    def _after(self, layer, name, fn, args, kwargs, result):
        if layer == "kernels":
            try:
                self._count("kernels.pair_steps",
                            _kernel_pair_steps(name, fn, args, kwargs, result))
            except (TypeError, KeyError, IndexError, AttributeError, ValueError) as exc:
                self.counter_errors.append(f"{layer}.{name}: {exc!r}")
        elif name == "all_pair_matrices":
            try:
                self._count("fourier.pairs_built", int(result[0].shape[0]))
            except (TypeError, IndexError, AttributeError) as exc:
                self.counter_errors.append(f"{layer}.{name}: {exc!r}")

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every boundary and rebind it in all loaded cyclewalk modules."""
        replacements = {}
        for layer, (module_name, names) in BOUNDARIES.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                        else self._wrap_function)
                replacements[id(fn)] = (fn, wrap(layer, name, fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cyclewalk" or n.startswith("cyclewalk."))]
        for module in modules:
            _rebind(vars(module), replacements)
        return self

    def report(self, main_s):
        return {
            "main_s": main_s,
            "top_level_s": self.top_level_s,
            "stats": self.stats,
            "counters": self.counters,
            "counter_errors": self.counter_errors,
            "absent": self.absent,
        }


def _swap(value, replacements):
    hit = replacements.get(id(value))
    return hit[1] if hit is not None and hit[0] is value else value


def _rebind(namespace, replacements):
    for attr, value in list(namespace.items()):
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, tuple):
                    value[i] = tuple(_swap(x, replacements) for x in item)
                else:
                    value[i] = _swap(item, replacements)
        else:
            namespace[attr] = _swap(value, replacements)
