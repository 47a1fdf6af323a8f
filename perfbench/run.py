"""End-to-end and per-layer benchmark of the ``cyclewalk`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mixing-long --seed 0 --seconds 40 --trace 0

Each sample is a fresh CLI process, started only after the previous one has
exited: a closed loop with one client, because on a two-core machine a
second client would measure contention instead of the program.
A run repeats the workload until ``--seconds`` is spent, spawns
``cyclewalk --version`` a few times before each workload sample (more
set-up samples), and checks every output outside the timed region.

``--trace 0`` prints the end-to-end metrics (medians over the samples):

* ``wall_s``      spawn to exit, what a CLI user waits for;
* ``setup_s``     spawn until ``cli.main`` is entered (interpreter start and
                  package import), paid on every invocation;
* ``cpu_s``       user + system CPU time of the child (BLAS threads included);
* ``peak_rss_mb`` the child's maximum resident set size.

``fail_ratio`` (failed runs / runs attempted) is printed with them and is the
``failed`` / ``attempted`` pair of the result line.  ``--trace 1`` adds one
traced sample at the end and prints the per-layer metrics; see ``tracer.py``
for how layers are traced and ``layer_metrics`` for their definitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with every sample and the machine facts, is written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.  CLI outputs go to
a temporary directory under ``perfbench/.work`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import VERIFY_CHECKS, check_output

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK_ROOT = HERE / ".work"
RESULTS_DIR = HERE / "results"
LAUNCH = HERE / "launch.py"

#: BLAS/OpenMP threads of every child.  Pinned so that both sides of a
#: comparison run alike; recorded with every result.
BLAS_THREADS = "2"
#: ``cyclewalk --version`` spawns before each workload sample; they add to
#: the set-up samples, whose spread is otherwise the widest of all metrics.
SETUP_SPAWNS_PER_SAMPLE = 3
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: Computed cost of one pair step, a 4x4 complex matrix times a 4-vector:
#: 16 complex multiply-adds, and the matrix plus input and output vectors.
FLOPS_PER_PAIR_STEP = 128
BYTES_PER_PAIR_STEP = 384

WORKLOADS = {
    # Long scan over few pairs: 81 pairs x 162000 steps and ~9 MB of JSON.
    # Per-step Python overhead in the TV scan and the JSON emitter dominate;
    # the pair build is negligible.
    # The canonical input (seed 0) has a pinned mixing time.
    "mixing-long": {"command": "mixing", "nodes": 9, "decoherence": 0.2,
                    "epsilon": 0.01, "horizon": 162000, "pinned_mixing_time": 422},
    # Many pairs, few steps: 10201 pairs x 500 steps and 50.5k CSV rows.
    # The per-pair build loop and the dense reconstruction dominate.
    "simulate-wide": {"command": "simulate", "nodes": 101, "decoherence": 0.5,
                      "steps": 500},
    # Many small calls: the density-matrix oracle, the classical chain,
    # per-pair eigenvalues and early-stopping scans; also the correctness
    # gate of the package.
    "verify-default": {"command": "verify", "profile": "default"},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

LAYER_SELF = ("cli", "analysis", "kernels", "fourier", "evolution",
              "spectral", "verify", "core")
PER_LAYER = {
    "cli.main_s": "s", "cli.output_bytes": "B",
    "analysis.mixing_s": "s",
    "kernels.tv_scan_s": "s", "kernels.trajectory_s": "s",
    "kernels.snapshots_s": "s", "kernels.pair_steps": "count",
    "kernels.pair_steps_per_s": "1/s", "kernels.flops_computed": "flop",
    "kernels.bytes_computed": "B",
    "fourier.pair_build_s": "s", "fourier.pairs_built": "count",
    "fourier.superop_calls": "count",
    "evolution.fourier_trajectory_s": "s", "evolution.direct_s": "s",
    "evolution.direct_steps": "count", "evolution.classical_reference_s": "s",
    "evolution.classical_reference_calls": "count",
    "spectral.eigenvalues_s": "s", "spectral.eigenvalues_calls": "count",
    "spectral.gap_s": "s",
    **{f"verify.{name}_s": "s" for name in VERIFY_CHECKS},
    "core.kraus_builds": "count",
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "bench.traced_wall_s": "s", "bench.trace_overhead_s": "s",
    "bench.unaccounted_s": "s", "bench.absent_boundaries": "count",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def seeded_coin(seed: int):
    """Initial coin of a seeded input: seed 0 keeps the CLI default ``up``;
    any other seed draws a unit vector (as ``re,im,re,im``).  The coin does
    not change the amount of work, only the numbers the checks compare."""
    if seed == 0:
        return None, (1.0, 0.0, 0.0, 0.0)
    rng = random.Random(seed)
    theta = rng.uniform(0.1, 1.4)
    phi_a, phi_b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    coin = (math.cos(theta) * math.cos(phi_a), math.cos(theta) * math.sin(phi_a),
            math.sin(theta) * math.cos(phi_b), math.sin(theta) * math.sin(phi_b))
    return ",".join(repr(c) for c in coin), coin


def build_spec(params: dict, seed: int) -> dict:
    """Workload parameters plus the seed-derived input and the CLI argv
    (without ``--output``, which each sample appends).  ``verify`` takes no
    input, so its seed changes nothing."""
    spec = dict(params)
    command = spec["command"]
    if command == "verify":
        spec["argv"] = ["verify"] + (["--quick"] if spec["profile"] == "quick" else [])
        spec["suffix"] = ".json"
        return spec
    coin_arg, spec["coin"] = seeded_coin(seed)
    argv = [command, "--nodes", str(spec["nodes"]),
            "--decoherence", repr(spec["decoherence"])]
    if command == "mixing":
        argv += ["--epsilon", repr(spec["epsilon"])]
        spec["suffix"] = ".json"
        if coin_arg is not None:
            spec.pop("pinned_mixing_time", None)
    else:
        argv += ["--steps", str(spec["steps"])]
        spec["method"] = "fourier"
        spec["suffix"] = ".csv"
    if coin_arg is not None:
        argv.append(f"--initial-coin={coin_arg}")
    spec["argv"] = argv
    return spec


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Environment of every child: the caller's, minus the variables that
    select a cyclewalk backend or thread count, with the checkout's sources
    first on the path and BLAS threads pinned."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CYCLEWALK_BACKEND", "CYCLEWALK_THREADS",
                        "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(cli_argv, workdir: Path, env: dict, trace_path: Path | None = None) -> dict:
    """Run one child to completion and measure it from outside."""
    mark = workdir / "mark.json"
    mark.unlink(missing_ok=True)
    argv = [sys.executable, str(LAUNCH), str(mark),
            str(trace_path) if trace_path else "-", *cli_argv]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        started = _now()
        proc = subprocess.Popen(argv, env=env, cwd=workdir, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "wall_s": ended - started,
        "setup_s": None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "problems": [],
    }
    try:
        sample["setup_s"] = json.loads(mark.read_text())["entered"] - started
    except (OSError, ValueError, KeyError) as exc:
        sample["problems"].append(f"no main-entry mark: {exc!r}")
    if proc.returncode != 0:
        tail = (workdir / "stderr").read_text(errors="replace")[-500:]
        sample["problems"].append(f"exit code {proc.returncode}: {tail}")
    return sample


def run_workload_sample(spec: dict, workdir: Path, env: dict, traced: bool) -> dict:
    output = workdir / f"output{spec['suffix']}"
    output.unlink(missing_ok=True)
    trace_path = workdir / "trace.json" if traced else None
    sample = spawn(spec["argv"] + ["--output", str(output)], workdir, env, trace_path)
    sample["kind"] = "traced" if traced else "workload"
    sample["output_bytes"] = output.stat().st_size if output.exists() else 0
    if sample["exit_code"] == 0:
        sample["problems"] += check_output(output, spec)
    if traced:
        try:
            sample["trace"] = json.loads(trace_path.read_text())
        except (OSError, ValueError) as exc:
            sample["problems"].append(f"no trace report: {exc!r}")
    output.unlink(missing_ok=True)
    sample["ok"] = not sample["problems"]
    return sample


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def summary(values):
    values = sorted(values)
    return {"median": statistics.median(values), "min": values[0],
            "max": values[-1], "n": len(values)}


def end_to_end_metrics(setups, samples) -> dict:
    setup_values = [s["setup_s"] for s in setups + samples if s["setup_s"] is not None]
    metrics = {"setup_s": summary(setup_values)} if setup_values else {}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = summary([s[name] for s in samples])
    return {name: dict(metrics[name], unit=END_TO_END[name])
            for name in END_TO_END if name in metrics}


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer values of one traced sample.  ``*_s`` are inclusive times
    of the named boundary, ``<layer>.self_s`` the layer's time minus the
    boundaries it calls; all self times together make up ``cli.main_s``."""
    report = traced["trace"]
    stats, counters = report["stats"], report["counters"]

    def total(key, field="incl_s"):
        return stats.get(key, {}).get(field, 0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + "."))

    kernel_s = sum(total(f"kernels.{n}") for n in
                   ("tv_scan", "distribution_trajectory", "averaged_snapshots"))
    pair_steps = counters.get("kernels.pair_steps", 0)
    main_s = report["main_s"]
    values = {
        "cli.main_s": main_s,
        "cli.output_bytes": traced["output_bytes"],
        "analysis.mixing_s": sum(total(f"analysis.{n}") for n in (
            "mixing_time_averaged", "mixing_time_instantaneous",
            "averaged_time_below")),
        "kernels.tv_scan_s": total("kernels.tv_scan"),
        "kernels.trajectory_s": total("kernels.distribution_trajectory"),
        "kernels.snapshots_s": total("kernels.averaged_snapshots"),
        "kernels.pair_steps": pair_steps,
        "kernels.pair_steps_per_s": pair_steps / kernel_s if kernel_s > 0 else 0.0,
        "kernels.flops_computed": FLOPS_PER_PAIR_STEP * pair_steps,
        "kernels.bytes_computed": BYTES_PER_PAIR_STEP * pair_steps,
        "fourier.pair_build_s": total("fourier.all_pair_matrices"),
        "fourier.pairs_built": counters.get("fourier.pairs_built", 0),
        "fourier.superop_calls": total("fourier.superop_definitional", "calls")
        + total("fourier.superop_closed_form", "calls"),
        "evolution.fourier_trajectory_s": total("evolution.fourier_trajectory"),
        "evolution.direct_s": total("evolution.direct_trajectory"),
        "evolution.direct_steps": counters.get("evolution.direct_trajectory.steps", 0),
        "evolution.classical_reference_s": total("evolution.classical_reference"),
        "evolution.classical_reference_calls":
            total("evolution.classical_reference", "calls"),
        "spectral.eigenvalues_s": total("spectral.eigenvalues"),
        "spectral.eigenvalues_calls": total("spectral.eigenvalues", "calls"),
        "spectral.gap_s": total("spectral.spectral_gap"),
        **{f"verify.{n}_s": total(f"verify.check_{n}") for n in VERIFY_CHECKS},
        "core.kraus_builds": total("core.build_kraus_family", "calls"),
        "cli.self_s": main_s - report["top_level_s"],
        **{f"{layer}.self_s": layer_self(layer) for layer in LAYER_SELF[1:]},
        "bench.traced_wall_s": traced["wall_s"],
        "bench.trace_overhead_s": traced["wall_s"] - untraced_wall_s,
        "bench.unaccounted_s": traced["wall_s"] - (traced["setup_s"] or 0.0) - main_s,
        "bench.absent_boundaries": len(report["absent"]) + len(report["counter_errors"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit():
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_pressure():
    """Share of the last minute in which some runnable task waited for a
    CPU, machine-wide; other tenants' load shows here and in the timings."""
    try:
        some = Path("/proc/pressure/cpu").read_text().splitlines()[0]
        return float(some.split("avg60=")[1].split()[0])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts(env: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {k: env.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
        "cpu_pressure_avg60": _cpu_pressure(),
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def measure(spec: dict, seconds: float, trace: bool, workdir: Path, env: dict) -> dict:
    """Workload samples until ``seconds`` are spent (at least one), each
    preceded by a few set-up spawns so that set-up samples span the whole
    run, then one traced sample if asked."""
    spawn(["--version"], workdir, env)  # warm-up: byte-code cache, file cache
    began = _now()
    setups, samples = [], []
    while True:
        for _ in range(SETUP_SPAWNS_PER_SAMPLE):
            sample = spawn(["--version"], workdir, env)
            sample["kind"] = "setup"
            sample["ok"] = not sample["problems"]
            setups.append(sample)
        samples.append(run_workload_sample(spec, workdir, env, traced=False))
        typical = statistics.median(s["wall_s"] for s in samples)
        if _now() - began + typical * (2 if trace else 1) > seconds:
            break
    traced = run_workload_sample(spec, workdir, env, traced=True) if trace else None
    return {"setups": setups, "samples": samples, "traced": traced}


def result_record(args, spec, env, runs) -> dict:
    setups, samples, traced = runs["setups"], runs["samples"], runs["traced"]
    workload_runs = samples + ([traced] if traced else [])
    failed = sum(not s["ok"] for s in workload_runs)
    correct = failed == 0 and all(s["ok"] for s in setups)
    e2e = end_to_end_metrics(setups, samples)
    record = {
        "schema": "perfbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["cyclewalk"] + spec["argv"] + ["--output", "OUTPUT"],
        "machine": machine_facts(env),
        "correct": correct,
        "attempted": len(workload_runs),
        "failed": failed,
        "fail_ratio": failed / len(workload_runs),
        "end_to_end": e2e,
        "per_layer": None,
        "absent": [],
        "samples": setups + workload_runs,
    }
    if traced is not None and "trace" in traced:
        record["per_layer"] = layer_metrics(traced, e2e["wall_s"]["median"])
        record["absent"] = traced["trace"]["absent"] + traced["trace"]["counter_errors"]
    return record


def result_line(record) -> dict:
    if record["trace"]:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in (record["per_layer"] or {}).items()}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_report(record):
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {' '.join(record['command'])}")
    m = record["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']['name']} {m['blas']['version']} "
          f"threads={m['thread_env']['OPENBLAS_NUM_THREADS']} "
          f"numba={m['numba_importable']} commit={m['git_commit']}")
    for name, v in record["end_to_end"].items():
        print(f"  {name:<12} {v['median']:.6g} {v['unit']}  "
              f"(median of {v['n']}, min {v['min']:.6g}, max {v['max']:.6g})")
    print(f"  {'fail_ratio':<12} {record['fail_ratio']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} runs)")
    for name, v in (record["per_layer"] or {}).items():
        print(f"  {name:<36} {v['value']:.6g} {v['unit']}")
    for boundary in record["absent"]:
        print(f"  absent: {boundary}")
    for sample in record["samples"]:
        for problem in sample["problems"]:
            print(f"  FAILED ({sample['kind']}): {problem}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclewalk" / "cli.py").is_file():
        print(f"error: no cyclewalk sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = build_spec(WORKLOADS[args.workload], args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        env = child_env()
        runs = measure(spec, args.seconds, bool(args.trace), workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = result_record(args, spec, env, runs)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_report(record)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
