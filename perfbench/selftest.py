"""Fast self-test of the benchmark harness; runs in a few seconds and does not
run the workload matrix.  From the root of a checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json declares exactly the metrics ``run.py``
produces; runs small versions of the three workloads through the real
pipeline (spawn, trace, output check) and validates the results record and
the result line; shows that every checker rejects a corrupted output; and
shows that ``run.py`` fails without printing a result where there are no
sources.  Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from checks import check_output

SMALL = {
    "mixing": ({"command": "mixing", "nodes": 5, "decoherence": 0.3,
                "epsilon": 0.05, "horizon": 10000}, 0),
    "simulate": ({"command": "simulate", "nodes": 7, "decoherence": 0.5,
                  "steps": 40}, 7),
    "verify": ({"command": "verify", "profile": "quick"}, 0),
}

SAMPLE_KEYS = {"kind", "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "exit_code",
               "problems", "ok"}
RECORD_KEYS = {"schema", "workload", "seed", "seconds", "trace", "command",
               "machine", "correct", "attempted", "failed", "fail_ratio",
               "end_to_end", "per_layer", "absent", "samples"}
MACHINE_KEYS = {"nproc", "affinity", "cpu_model", "python", "numpy", "blas",
                "thread_env", "numba_importable", "git_commit", "loadavg",
                "cpu_pressure_avg60"}


def _number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def validate_record(record) -> list:
    """Problems with the schema of a results record (empty when valid)."""
    problems = []
    if set(record) != RECORD_KEYS:
        return [f"record keys {sorted(record)}"]
    if record["schema"] != "perfbench/1":
        problems.append(f"schema {record['schema']!r}")
    if set(record["machine"]) != MACHINE_KEYS:
        problems.append(f"machine keys {sorted(record['machine'])}")
    if not (isinstance(record["attempted"], int) and record["attempted"] >= 1
            and isinstance(record["failed"], int)
            and 0 <= record["failed"] <= record["attempted"]):
        problems.append("attempted/failed are not counts")
    for sample in record["samples"]:
        if not SAMPLE_KEYS <= set(sample):
            problems.append(f"sample keys {sorted(sample)}")
        elif not all(_number(sample[k]) for k in ("wall_s", "cpu_s", "peak_rss_mb")):
            problems.append(f"non-numeric sample {sample}")
    if set(record["end_to_end"]) != set(run.END_TO_END):
        problems.append(f"end-to-end metrics {sorted(record['end_to_end'])}")
    for name, value in record["end_to_end"].items():
        if not (all(_number(value[k]) for k in ("median", "min", "max", "n"))
                and value["unit"] == run.END_TO_END[name] and value["median"] > 0):
            problems.append(f"end-to-end metric {name}: {value}")
    if record["trace"]:
        layers = record["per_layer"] or {}
        if set(layers) != set(run.PER_LAYER):
            problems.append(f"per-layer metrics {sorted(layers)}")
        for name, value in layers.items():
            if not (_number(value["value"]) and value["unit"] == run.PER_LAYER[name]):
                problems.append(f"per-layer metric {name}: {value}")
            elif name.endswith(".self_s") and value["value"] < 0:
                problems.append(f"negative self time {name}")
    return problems


def validate_line(line, trace: bool) -> list:
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result line keys {sorted(line)}"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    if {k: v["unit"] for k, v in line["metrics"].items()} != expected:
        return [f"result line metrics {sorted(line['metrics'])}"]
    return []


def check_declared_metrics() -> list:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if e2e != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END}")
    if layers != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER: "
                        f"{sorted(set(layers) ^ set(run.PER_LAYER))}")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


def _corrupt_mixing(path):
    payload = json.loads(path.read_text())
    yield "tv entry off by 1e-6", dict(payload, tv_trace=[
        [t, v + 1e-6 if t == 11 else v] for t, v in payload["tv_trace"]])
    yield "mixing time off by one", dict(payload, mixing_time=payload["mixing_time"] + 1)
    yield "truncated trace", dict(payload, tv_trace=payload["tv_trace"][:-1])


def _corrupt_simulate(path):
    lines = path.read_text().splitlines()
    t, x, p, method = lines[5 * 7 + 3 + 1].split(",")
    bumped = list(lines)
    bumped[5 * 7 + 3 + 1] = f"{t},{x},{float(p) + 1e-6!r},{method}"
    yield "probability off by 1e-6", "\n".join(bumped) + "\n"
    yield "missing row", "\n".join(lines[:-1]) + "\n"


def _corrupt_verify(path):
    report = json.loads(path.read_text())
    failed = [dict(c, passed=False) if c["name"] == "oracle" else c
              for c in report["checks"]]
    yield "failed check", dict(report, checks=failed, all_passed=False)
    yield "missing check", dict(report, checks=report["checks"][1:])


CORRUPTIONS = {"mixing": _corrupt_mixing, "simulate": _corrupt_simulate,
               "verify": _corrupt_verify}


def check_small_workloads(workdir: Path) -> list:
    problems = []
    env = run.child_env()
    for command, (params, seed) in SMALL.items():
        spec = run.build_spec(params, seed)
        run.spawn(["--version"], workdir, env)
        runs = {"setups": [], "traced": None,
                "samples": [run.run_workload_sample(spec, workdir, env, traced=False)]}
        runs["traced"] = run.run_workload_sample(spec, workdir, env, traced=True)
        args = argparse.Namespace(workload=command, seed=seed, seconds=0, trace=1)
        record = run.result_record(args, spec, env, runs)
        for sample in record["samples"]:
            problems += [f"{command}: {p}" for p in sample["problems"]]
        problems += [f"{command}: {p}" for p in validate_record(record)]
        for trace in (0, 1):
            line = run.result_line(dict(record, trace=trace))
            problems += [f"{command}: {p}" for p in validate_line(line, trace)]
        layers = record["per_layer"]
        if layers is not None:
            self_sum = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
            main_s = layers["cli.main_s"]["value"]
            if abs(self_sum - main_s) > 1e-6 + 0.01 * main_s:
                problems.append(f"{command}: self times sum to {self_sum}, "
                                f"main took {main_s}")
            if layers["bench.absent_boundaries"]["value"] != 0:
                problems.append(f"{command}: absent boundaries {record['absent']}")

        output = workdir / f"output{spec['suffix']}"
        sample = run.spawn(spec["argv"] + ["--output", str(output)], workdir, env)
        if check_output(output, spec) or sample["problems"]:
            problems.append(f"{command}: clean output rejected")
        corrupted = workdir / f"corrupted{spec['suffix']}"
        for label, content in CORRUPTIONS[command](output):
            corrupted.write_text(content if isinstance(content, str)
                                 else json.dumps(content))
            if not check_output(corrupted, spec):
                problems.append(f"{command}: checker accepted a corrupted output "
                                f"({label})")
    return problems


def check_refuses_without_sources(workdir: Path) -> list:
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mixing-long", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    if done.returncode == 0 or done.stdout.strip():
        return [f"run.py without sources: exit {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        problems = (check_declared_metrics() + check_small_workloads(workdir)
                    + check_refuses_without_sources(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
