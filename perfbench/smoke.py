"""Smoke test of the benchmark itself.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/smoke.py [workload ...]

For each workload, at minimal length (``--seconds 1``), it runs the
benchmark untraced on seeds 0 and 1 and traced on seed 0, and checks
that every run passes its output checks, exits 0 and reports exactly
the metrics ``BENCHMARK.json`` names, with their units; that seed 0
gives the same trained model in two separate processes while seed 1
gives another one; and that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd: str, command: list[str], workload: str, seed: int, trace: int):
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc, proc.stdout.strip().splitlines()


def checks_line(lines: list[str]) -> dict:
    for line in lines:
        if line.startswith("checks "):
            return json.loads(line[len("checks "):])
    raise AssertionError("no checks line in the output")


def fingerprint(checks: dict):
    """What identifies the trained result: model digest or table cells."""
    return checks.get("item_sha256", [None])[0] or checks.get("er")


def smoke_workload(spec: dict, workload: str) -> list[str]:
    errors = []
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    results = {}
    for seed, trace in ((0, 0), (1, 0), (0, 1)):
        label = f"{workload} seed={seed} trace={trace}"
        proc, lines = run_bench(ROOT, spec["command"], workload, seed, trace)
        if proc.returncode != 0 or not lines:
            errors.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if not result["correct"] or result["failed"]:
            errors.append(f"{label}: output check failed\n{proc.stdout}")
        if units != expected[trace]:
            errors.append(f"{label}: metrics {units} != {expected[trace]}")
        bad = [
            k for k, v in result["metrics"].items()
            if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])
        ]
        if bad:
            errors.append(f"{label}: non-finite metrics {bad}")
        results[seed, trace] = fingerprint(checks_line(lines))
        print(f"ok  {label}", flush=True)
    if len(results) == 3:
        if results[0, 0] != results[0, 1]:
            errors.append(f"{workload}: seed 0 differs between processes")
        if results[0, 0] == results[1, 0]:
            errors.append(f"{workload}: seeds 0 and 1 gave the same result")
    return errors


def smoke_without_sources(spec: dict) -> list[str]:
    """The benchmark must refuse to run without the repository."""
    bare = tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc, lines = run_bench(bare, spec["command"], spec["workloads"][0]["name"], 0, 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or any(line.startswith("{") for line in lines):
        return [f"ran without the repository sources: exit {proc.returncode}"]
    print("ok  refuses to run without the repository sources")
    return []


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = argv or [w["name"] for w in spec["workloads"]]
    errors = smoke_without_sources(spec)
    for name in names:
        errors += smoke_workload(spec, name)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
