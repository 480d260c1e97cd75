"""The four benchmark workloads: configs, timed loops and output checks.

Load model: one closed loop in this process.  A round (or sweep cell)
starts only after the previous one completed; the sweep runs inline
(``workers=0``); no round workers are forked.  Every input is a pure
function of the workload seed.

Round workloads repeat *reps* until the run's time budget is spent
(at least two, so the same-seed determinism check has a pair).  One
rep is: set-up (dataset generation + ``FederatedSimulation``
construction), a fixed number of ``run_round`` calls, one evaluation.
``paper_table4`` repeats cold passes of a Table IV sub-grid through
``SweepRunner`` into an empty cache directory, each followed by warm
passes served from that cache.

Metrics (medians over the run's samples, except ``run_s`` and
``round_ms_mean``):

* ``setup_s`` — one rep's set-up; for ``paper_table4`` one generation
  of the shared preset dataset.
* ``run_s`` — one rep's rounds plus its evaluation; for
  ``paper_table4`` one cold pass.  The mean over the run's reps: the
  host's speed drifts in phases of seconds, and the median of a few
  reps jumps between phases where their mean does not.
* ``round_ms_mean`` / ``round_ms_p90`` — ``FederatedSimulation.run_round``
  wall time over every round of the run (for ``paper_table4`` every
  round of every cold-pass cell).  The mean stands in for the median:
  on a shared host round times split into a fast and a ~1.6x slower
  mode for seconds at a time, and the median jumps between the modes
  with the share of the run spent in each, where the mean moves in
  proportion to it.
* ``peak_rss_mib`` — this process's peak resident set (``VmHWM``),
  read right after the timed loop, before the loop-engine check.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.config import replace
from repro.datasets import loaders
from repro.experiments import presets
from repro.experiments.sweep import CellSpec, SweepRunner
from repro.federated.simulation import FederatedSimulation

import layers

__all__ = ["WORKLOADS", "Run", "run_workload"]

#: Rounds per rep of each round workload, and loop-engine prefix length.
REP_ROUNDS = {"clean_sparse": 60, "uea_krum_dense": 4, "uea_reg_ncf": 50}
PARITY_ROUNDS = 3
#: Dataset generations timed for ``setup_s`` at each of three points
#: of a ``paper_table4`` run (start, after the timed passes, after the
#: claims check), so the median spans the run's host-speed phases.
TABLE4_SETUPS = 5
#: Warm (cache-served) passes per cold pass of ``paper_table4``; they
#: are checked against the cold pass and traced, not timed end to end.
TABLE4_WARM_PASSES = 20
#: Fewest untraced cold passes per ``paper_table4`` run: one pass is a
#: ~20 s stretch of a host whose speed drifts in phases of seconds.
TABLE4_MIN_PASSES = 2

#: The Table IV sub-grid: PIECK-UEA against every kept defense on MF,
#: and the cells the NCF claims need (NCF Krum, the grid's single most
#: expensive cell, is left to MF and ``uea_krum_dense``).
TABLE4_CELLS = (
    ("mf", "none"),
    ("mf", "median"),
    ("mf", "krum"),
    ("mf", "regularization"),
    ("ncf", "none"),
    ("ncf", "median"),
    ("ncf", "regularization"),
)


def round_config(workload: str, seed: int):
    """The experiment config of a round workload at ``seed``."""
    if workload == "clean_sparse":
        config = presets.experiment(
            "az", "mf", attack=None, defense="none", seed=seed,
            users_per_round=1000,
        )
        scale = 0.5
    elif workload == "uea_krum_dense":
        config = presets.experiment(
            "ml-1m", "mf", attack="pieck_uea", defense="krum", seed=seed,
            users_per_round=1000,
        )
        scale = 0.5
    elif workload == "uea_reg_ncf":
        config = presets.experiment(
            "ml-100k", "ncf", attack="pieck_uea", defense="regularization",
            seed=seed,
        )
        scale = 1.0
    else:
        raise ValueError(f"not a round workload: {workload!r}")
    return replace(config, dataset=replace(config.dataset, scale=scale))


WORKLOADS = layers.ALL_WORKLOADS


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    traced_run_s: list[float] = field(default_factory=list)
    peak_rss_bytes: int = 0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def metrics(self) -> dict[str, float]:
        rounds_ms = 1e3 * np.asarray(self.round_s)
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.fmean(self.run_s),
            "round_ms_mean": float(rounds_ms.mean()),
            "round_ms_p90": float(np.percentile(rounds_ms, 90)),
            "peak_rss_mib": self.peak_rss_bytes / 2**20,
        }


def peak_rss_bytes() -> int:
    """This process's peak resident set size (``VmHWM``), in bytes."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def model_state(sim: FederatedSimulation) -> list[np.ndarray]:
    """Every array the trained model consists of, copied."""
    return (
        [sim.model.item_embeddings.copy()]
        + [p.copy() for p in sim.model.interaction_params()]
        + [np.array(sim.user_embedding_matrix())]
    )


def check_simulation(run: Run, sim: FederatedSimulation) -> None:
    """Finite model and every fallback counter at zero."""
    state = model_state(sim)
    run.check(all(np.isfinite(a).all() for a in state), "model is not finite")
    engine, server = sim._batch_engine, sim.server
    counters = {
        "engine.stacked_rounds": engine.stacked_rounds,
        "engine.object_malicious_rounds": engine.object_malicious_rounds,
        "engine.kernel_fallback_rounds": engine.kernel_fallback_rounds,
        "server.materialized_rounds": server.materialized_rounds,
    }
    for name, value in counters.items():
        run.check(value == 0, f"{name} = {value}, expected 0")
        run.count(name, value)
    run.count("server.rejected_uploads", server.rejected_uploads)


def item_sha256(sim: FederatedSimulation) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(sim.model.item_embeddings).tobytes()
    ).hexdigest()


# ----------------------------------------------------------------------
# Round workloads
# ----------------------------------------------------------------------


def _round_rep(run: Run, config, rounds: int, snapshot: list | None) -> float:
    """One timed rep; returns its ``run_s``."""
    start = time.perf_counter()
    dataset = loaders.load_dataset(config.dataset)
    sim = FederatedSimulation(config, dataset=dataset)
    run.setup_s.append(time.perf_counter() - start)
    try:
        busy = 0.0
        for round_idx in range(rounds):
            run.attempted += 1
            start = time.perf_counter()
            sim.run_round(round_idx)
            elapsed = time.perf_counter() - start
            run.round_s.append(elapsed)
            busy += elapsed
            if snapshot is not None and round_idx + 1 == PARITY_ROUNDS:
                snapshot.extend(model_state(sim))
        start = time.perf_counter()
        sim.evaluate()
        busy += time.perf_counter() - start
        check_simulation(run, sim)
        run.notes.setdefault("item_sha256", []).append(item_sha256(sim))
        return busy
    finally:
        sim.close()


def _check_loop_parity(run: Run, config, snapshot: list[np.ndarray]) -> None:
    """The batch engine's first rounds against the ``engine="loop"`` oracle.

    MF rounds must match bit for bit.  NCF rounds are compared within
    a tolerance fixed from the dtype, and whether they matched exactly
    is reported: the NCF tower's batched GEMMs have other shapes than
    the per-client ones, and BLAS may accumulate them in another order.
    """
    dataset = loaders.load_dataset(config.dataset)
    with FederatedSimulation(config, dataset=dataset, engine="loop") as sim:
        for round_idx in range(PARITY_ROUNDS):
            sim.run_round(round_idx)
        reference = model_state(sim)
    exact = len(reference) == len(snapshot) and all(
        np.array_equal(a, b) for a, b in zip(reference, snapshot)
    )
    max_diff = max(
        float(np.abs(a - b).max()) if a.size else 0.0
        for a, b in zip(reference, snapshot)
    )
    run.notes["loop_parity"] = {
        "rounds": PARITY_ROUNDS, "bit_identical": exact, "max_abs_diff": max_diff
    }
    if config.model.kind == "mf":
        run.check(exact, f"first {PARITY_ROUNDS} rounds differ from engine='loop'")
    else:
        scale = max(float(np.abs(a).max()) for a in reference)
        tolerance = 1024 * np.finfo(np.float64).eps * max(scale, 1.0)
        run.check(
            max_diff <= tolerance,
            f"first {PARITY_ROUNDS} rounds differ from engine='loop' by "
            f"{max_diff:.3g} > {tolerance:.3g}",
        )


def run_rounds(run: Run, seconds: float, tracer: layers.Tracer | None) -> None:
    """Reps until ``seconds`` are spent: at least two, four when traced.

    A traced run alternates untraced and traced reps, so both see the
    same warm-up; the traced reps' ``run_s`` only feeds
    ``trace.overhead_pct``.
    """
    config = round_config(run.workload, run.seed)
    rounds = REP_ROUNDS[run.workload]
    minimum = 2 if tracer is None else 4
    snapshot: list[np.ndarray] = []
    started = time.perf_counter()
    for rep in itertools.count():
        traced = tracer is not None and rep % 2 == 1
        # The first rep snapshots the model for the loop-engine check.
        target = snapshot if rep == 0 else None
        with layers.installed(tracer) if traced else contextlib.nullcontext():
            busy = _round_rep(run, config, rounds, target)
        (run.traced_run_s if traced else run.run_s).append(busy)
        spent = time.perf_counter() - started
        if rep + 1 >= minimum and spent * (rep + 2) / (rep + 1) > seconds:
            break
    run.peak_rss_bytes = peak_rss_bytes()
    shas = run.notes["item_sha256"]
    run.check(len(set(shas)) == 1, f"same seed gave different models: {shas}")
    _check_loop_parity(run, config, snapshot)


# ----------------------------------------------------------------------
# paper_table4
# ----------------------------------------------------------------------


def table4_specs(seed: int) -> list[CellSpec]:
    """The sub-grid's cells, built like ``tables.table4_defenses`` does."""
    return [
        CellSpec(
            config=presets.experiment(
                "ml-100k", kind, attack="pieck_uea", defense=defense, seed=seed
            ),
            dataset_key="ml-100k",
        )
        for kind, defense in TABLE4_CELLS
    ]


@contextlib.contextmanager
def _cell_probes(run: Run, record_rounds: bool):
    """Time ``run_round`` and check each cell's simulation after ``run``."""
    cls = FederatedSimulation
    original_round, original_run = cls.run_round, cls.run

    def timed_round(sim, round_idx):
        start = time.perf_counter()
        try:
            return original_round(sim, round_idx)
        finally:
            if record_rounds:
                run.round_s.append(time.perf_counter() - start)

    def checked_run(sim, *args, **kwargs):
        result = original_run(sim, *args, **kwargs)
        check_simulation(run, sim)
        return result

    cls.run_round, cls.run = timed_round, checked_run
    try:
        yield
    finally:
        cls.run_round, cls.run = original_round, original_run


#: The seed ``benchmarks/bench_table4_defenses.py`` asserts each
#: model's Table IV claims on.
CLAIM_SEEDS = {"mf": 0, "ncf": 1}


def _table4_claims(er: dict) -> dict[str, bool]:
    """The Table IV claims ``benchmarks/bench_table4_defenses.py`` asserts.

    On this sub-grid (PIECK-UEA column): robust aggregation fails to
    stop the attack on MF (Median and Krum keep more than half the
    undefended ER@10) and on NCF (NoDefense and Median above 80%), and
    the paper's regularization defense collapses it (below a fifth of
    the undefended ER@10) on MF and on NCF.
    """
    mf_none, ncf_none = er["mf", "none"], er["ncf", "none"]
    return {
        "mf_robust_fails": all(
            er["mf", defense] > 0.5 * mf_none for defense in ("median", "krum")
        ),
        "ncf_robust_fails": ncf_none > 80.0 and er["ncf", "median"] > 80.0,
        "mf_defense_holds": er["mf", "regularization"] < 0.2 * max(mf_none, 1.0),
        "ncf_defense_holds": er["ncf", "regularization"] < 0.2 * ncf_none,
    }


def _check_claims(run: Run, values, cache_dir: str) -> None:
    """Enforce the claims where the repository asserts them; report the rest.

    The claims are enforced on each model's cells at its
    :data:`CLAIM_SEEDS` seed, computed here untimed and untraced
    through a ``SweepRunner`` cache in ``cache_dir``: the cells are a
    function of the code and the environment alone, so the caller keys
    the directory by both and only the first run in a checkout pays
    for them.  At other seeds the claims do not all hold (over seeds
    0-41 the undefended NCF attack failed, ER@10 <= 0.5, on seeds 31,
    35 and 41; the MF defense claim failed on 11 seeds and the NCF one
    on 33), so at the run's seed they are reported, not enforced.
    """
    er = {cell: value[0][0] for cell, value in zip(TABLE4_CELLS, values)}
    run.notes["er"] = {f"{k}/{d}": v for (k, d), v in er.items()}
    run.notes["claims_at_run_seed"] = _table4_claims(er)
    reference = {}
    for kind, seed in CLAIM_SEEDS.items():
        cells, specs = zip(
            *(
                (cell, spec)
                for cell, spec in zip(TABLE4_CELLS, table4_specs(seed))
                if cell[0] == kind
            )
        )
        dataset = loaders.load_dataset(presets.dataset_config("ml-100k", seed=seed))
        served = SweepRunner(cache_dir=cache_dir).run(specs, {"ml-100k": dataset})
        reference.update((cell, value[0][0]) for cell, value in zip(cells, served))
    claims = _table4_claims(reference)
    run.notes["claims_at_claim_seeds"] = claims
    for claim, held in claims.items():
        run.check(held, f"Table IV claim {claim} failed at {CLAIM_SEEDS}: {reference}")


def _time_setups(run: Run, dataset_config):
    """Time :data:`TABLE4_SETUPS` generations of the shared dataset."""
    for _ in range(TABLE4_SETUPS):
        start = time.perf_counter()
        dataset = loaders.load_dataset(dataset_config)
        run.setup_s.append(time.perf_counter() - start)
    return dataset


def run_table4(
    run: Run,
    seconds: float,
    tracer: layers.Tracer | None,
    scratch: str,
    claims_cache: str,
) -> None:
    dataset_config = presets.dataset_config("ml-100k", seed=run.seed)
    with layers.installed(tracer) if tracer else contextlib.nullcontext():
        dataset = _time_setups(run, dataset_config)
    specs = table4_specs(run.seed)
    datasets = {"ml-100k": dataset}
    cold_values = []
    if tracer is None:
        phases = [(run.run_s, None, seconds, TABLE4_MIN_PASSES)]
    else:
        phases = [
            (run.run_s, None, seconds / 2, 1),
            (run.traced_run_s, tracer, seconds / 2, 1),
        ]
    for samples, phase_tracer, budget, minimum in phases:
        started = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if phase_tracer is not None:
                stack.enter_context(layers.installed(phase_tracer))
            stack.enter_context(_cell_probes(run, phase_tracer is None))
            while True:
                cache_dir = os.path.join(scratch, f"cache-{len(cold_values)}")
                os.makedirs(cache_dir)
                run.attempted += len(specs)
                cold = SweepRunner(cache_dir=cache_dir)
                start = time.perf_counter()
                values = cold.run(specs, datasets)
                samples.append(time.perf_counter() - start)
                cold_values.append(values)
                run.check(
                    cold.last_stats.executed == len(specs),
                    f"cold pass executed {cold.last_stats.executed} cells",
                )
                run.counters["sweep.executed"] = cold.last_stats.executed
                run.count("sweep.quarantined", cold.last_stats.quarantined)
                for _ in range(TABLE4_WARM_PASSES):
                    run.attempted += len(specs)
                    warm = SweepRunner(cache_dir=cache_dir)
                    served = warm.run(specs, datasets)
                    run.check(served == values, "warm pass differs from cold pass")
                    run.check(
                        warm.last_stats.hit_ratio == 1.0,
                        f"warm hit ratio {warm.last_stats.hit_ratio}",
                    )
                    run.counters["sweep.hit_ratio"] = warm.last_stats.hit_ratio
                    run.count("sweep.quarantined", warm.last_stats.quarantined)
                shutil.rmtree(cache_dir)
                spent = time.perf_counter() - started
                if len(samples) >= minimum and spent + spent / len(samples) > budget:
                    break
        if phase_tracer is None:
            run.peak_rss_bytes = peak_rss_bytes()
    run.check(
        all(values == cold_values[0] for values in cold_values),
        "same seed gave different Table IV cells",
    )
    _time_setups(run, dataset_config)
    _check_claims(run, cold_values[0], claims_cache)
    _time_setups(run, dataset_config)


def run_workload(
    run: Run,
    seconds: float,
    tracer: layers.Tracer | None,
    scratch: str,
    claims_cache: str,
) -> None:
    """Run ``run.workload`` for about ``seconds``, recording into ``run``.

    ``scratch`` is deleted after the run; ``claims_cache`` persists.
    """
    run.notes["kernel_backend"] = kernels.resolve(None).name
    if run.workload == "paper_table4":
        run_table4(run, seconds, tracer, scratch, claims_cache)
    else:
        run_rounds(run, seconds, tracer)
