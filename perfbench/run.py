"""Repository benchmark: one workload, one run, every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean_sparse --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing installed.  ``--trace 1`` alternates the same work
untraced and traced, and reports the per-layer metrics of the traced
part (see ``layers.py``) plus ``trace.overhead_pct``, the traced
``run_s`` against the untraced one.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
An operation is a round (or a sweep cell); if any output check fails,
every operation of the run counts as failed and the exit code is 1.
The run exits with code 2, printing no result, when the repository's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_ms_mean": "ms",
    "round_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


def environment() -> dict:
    """What a result is comparable across: the machine class and code."""
    import numpy

    from repro import kernels

    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels.resolve(None).name,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over every file under ``src/repro``, by relative path."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repository sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = layers.Tracer() if args.trace else None
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    # Outputs that depend on nothing but the code and the environment
    # are cached across runs, keyed by both.
    claims_cache = os.path.join(
        ROOT,
        ".perfbench-claims",
        hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16],
    )
    run = workloads.Run(args.workload, args.seed)
    try:
        workloads.run_workload(run, args.seconds, tracer, scratch, claims_cache)
    except Exception:
        traceback.print_exc()
        run.problems.append("the run raised (traceback on stderr)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None and not run.problems:
        run.problems.extend(layers.check_layers(tracer, args.workload))

    metrics: dict[str, tuple[float, str]] = {}
    try:
        if tracer is None:
            for name, value in run.metrics().items():
                metrics[name] = (value, END_TO_END_UNITS[name])
        else:
            counters = dict(run.counters)
            # The first untraced rep also pays the process's warm-up.
            untraced = run.run_s[1:] or run.run_s
            counters["trace.overhead_pct"] = 100.0 * (
                statistics.median(run.traced_run_s) / statistics.median(untraced)
                - 1.0
            )
            values = layers.layer_metrics(tracer, counters)
            for name, unit in layers.PER_LAYER_UNITS.items():
                metrics[name] = (float(values.get(name, 0.0)), unit)
    except (ValueError, ZeroDivisionError, statistics.StatisticsError) as exc:
        run.problems.append(f"no samples to report: {exc}")

    correct = not run.problems
    failed = 0 if correct else run.attempted
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    print(
        f"  {'failed_share':32s} "
        f"{(failed / run.attempted if run.attempted else 1.0):16.6g} share"
        f"  ({failed} of {run.attempted} operations)"
    )
    samples = {
        "reps_or_passes": len(run.run_s),
        "rounds": len(run.round_s),
        "setups": len(run.setup_s),
    }
    print("samples " + json.dumps(samples, sort_keys=True))
    print("checks " + json.dumps(run.notes, sort_keys=True, default=str))
    if tracer is not None:
        for layer in layers.LAYERS:
            calls = tracer.stats(layer.span).calls
            print(
                f"layer {layer.span:18s} {calls:9d} calls  "
                f"{layer.wraps}; moves {layer.moves}"
            )
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
