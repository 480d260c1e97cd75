"""Per-layer tracing for the traced benchmark run, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`installed`
replaces each layer's public function with a timing wrapper *in the
namespace it is looked up from at its call site* (``batch_engine``
imports the two samplers by name, ``sweep`` the cache helpers; the
kernels are looked up as ``kernels.<name>`` attributes) and restores
the originals on exit.

Each wrapper records one span per call into an in-memory
:class:`Tracer`.  A span's *self* time is its duration minus the time
covered by the spans it encloses, so ``engine.client_self_ms`` is
``BatchClientEngine.run_round`` minus the sampling, state, cohort,
local-step, regularizer and ``Server.apply_batch`` spans nested in it.
Counters (rows, bytes, flops, uploads) are recorded at the same
boundaries from the call's arguments and result.

:data:`LAYERS` is the single table of layer spans: what each wraps,
which end-to-end metric it should move on which workload, and on which
workloads it is expected to run (a layer expected to run that records
zero calls fails the run, so a missed call site cannot read as zero).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field

__all__ = ["LAYERS", "Tracer", "installed", "layer_metrics", "PER_LAYER_UNITS"]

ROUND_WORKLOADS = ("clean_sparse", "uea_krum_dense", "uea_reg_ncf")
ALL_WORKLOADS = ROUND_WORKLOADS + ("paper_table4",)


@dataclass(frozen=True)
class Layer:
    """One traced layer: its span name, what it wraps, what it moves."""

    span: str
    wraps: str
    moves: str
    #: Workloads on which the layer must record calls.
    runs_on: tuple[str, ...]
    #: Workloads on which it must record none.
    absent_on: tuple[str, ...] = ()


LAYERS = (
    Layer("setup.dataset", "datasets.loaders.load_dataset",
          "setup_s on every round workload", ALL_WORKLOADS),
    Layer("setup.simulation", "FederatedSimulation.__init__",
          "setup_s on every round workload", ALL_WORKLOADS),
    Layer("server.sample", "Server.sample_users",
          "round_ms_mean (small everywhere)", ALL_WORKLOADS),
    Layer("engine.client", "BatchClientEngine.run_round minus its traced children",
          "round_ms_mean on clean_sparse", ALL_WORKLOADS),
    Layer("sampling.negatives",
          "batch_engine.sample_local_batches / sample_negatives_batch",
          "round_ms_mean on clean_sparse (small on uea_krum_dense)", ALL_WORKLOADS),
    Layer("state.gather", "ClientStateStore.gather_rows",
          "round_ms_mean on clean_sparse", ALL_WORKLOADS),
    Layer("state.scatter", "ClientStateStore.scatter_rows",
          "round_ms_mean on clean_sparse", ALL_WORKLOADS),
    Layer("kernels.scatter", "kernels.scatter_sum",
          "round_ms_mean on clean_sparse",
          ("clean_sparse", "uea_reg_ncf", "paper_table4"), ("uea_krum_dense",)),
    Layer("model.local_step", "batch_local_step / batch_local_step_bpr",
          "round_ms_mean on uea_reg_ncf", ALL_WORKLOADS),
    Layer("attack.cohort", "MaliciousCohort.compute_uploads",
          "run_s on paper_table4, round_ms_mean on uea_reg_ncf",
          ("uea_krum_dense", "uea_reg_ncf", "paper_table4"), ("clean_sparse",)),
    Layer("defense.regularize",
          "ClientRegularizer.observe / item_grad_terms / user_grad_term / param_grad_terms",
          "round_ms_mean and peak_rss_mib on uea_reg_ncf",
          ("uea_reg_ncf", "paper_table4"), ("clean_sparse", "uea_krum_dense")),
    Layer("server.apply", "Server.apply_batch minus its traced children",
          "round_ms_mean (gate, filter, grouping)", ALL_WORKLOADS),
    Layer("robust.aggregate", "robust aggregators' aggregate_stacks",
          "round_ms_mean on uea_krum_dense",
          ("uea_krum_dense", "paper_table4"), ("clean_sparse", "uea_reg_ncf")),
    Layer("kernels.pairwise", "kernels.pairwise_sq_dists",
          "round_ms_mean and run_s on uea_krum_dense, run_s on paper_table4",
          ("uea_krum_dense", "paper_table4"), ("clean_sparse", "uea_reg_ncf")),
    Layer("eval", "FederatedSimulation.evaluate",
          "run_s on every workload", ALL_WORKLOADS),
    Layer("sweep.cell", "sweep.execute_cell",
          "run_s on paper_table4", ("paper_table4",), ROUND_WORKLOADS),
    Layer("sweep.cache_write", "sweep.save_sweep_entry",
          "run_s on paper_table4", ("paper_table4",), ROUND_WORKLOADS),
    Layer("sweep.cache_read", "sweep.read_sweep_entry",
          "the warm passes on paper_table4 (no end-to-end metric)",
          ("paper_table4",), ROUND_WORKLOADS),
    Layer("sweep.fingerprint", "sweep.dataset_fingerprint",
          "run_s on paper_table4", ("paper_table4",), ROUND_WORKLOADS),
)

#: Every per-layer metric the traced run reports, with its unit.
#: ``*_ms`` of round-path layers are self time per round; setup,
#: evaluation and sweep timings are per call (``sweep.cell_ms_*`` are
#: inclusive cell times).  Counts of round-path work are per round.
PER_LAYER_UNITS = {
    "setup.dataset_ms": "ms",
    "setup.simulation_ms": "ms",
    "sampling.negatives_ms": "ms",
    "sampling.clients": "count",
    "state.gather_ms": "ms",
    "state.scatter_ms": "ms",
    "state.rows": "count",
    "state.bytes": "bytes",
    "kernels.scatter_ms": "ms",
    "kernels.scatter_bytes": "bytes",
    "engine.client_self_ms": "ms",
    "attack.cohort_ms": "ms",
    "attack.cohort_calls": "count",
    "attack.upload_ratio": "ratio",
    "model.local_step_ms": "ms",
    "defense.regularize_ms": "ms",
    "defense.regularize_calls": "count",
    "server.sample_ms": "ms",
    "server.apply_self_ms": "ms",
    "robust.aggregate_self_ms": "ms",
    "robust.aggregate_calls": "count",
    "kernels.pairwise_ms": "ms",
    "kernels.pairwise_calls": "count",
    "kernels.pairwise_flops": "flop",
    "eval.ms": "ms",
    "eval.users": "count",
    "sweep.cell_ms_p50": "ms",
    "sweep.cell_ms_sum": "ms",
    "sweep.cache_write_ms": "ms",
    "sweep.cache_read_ms": "ms",
    "sweep.fingerprint_ms": "ms",
    "sweep.hit_ratio": "ratio",
    "sweep.executed": "count",
    "sweep.quarantined": "count",
    "engine.stacked_rounds": "count",
    "engine.object_malicious_rounds": "count",
    "engine.kernel_fallback_rounds": "count",
    "server.materialized_rounds": "count",
    "server.rejected_uploads": "count",
    "trace.overhead_pct": "%",
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """In-memory span aggregates keyed by span name.

    ``_open`` holds, for each span currently running, the time its
    already-finished children covered; closing a span adds its whole
    duration to its parent's entry.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def wrap(self, fn, name: str, count=None, keep_durations: bool = False):
        """``fn`` recording one ``name`` span per call.

        ``count(stats, args, result)`` records counters after the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                stats = tracer.stats(name)
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if keep_durations:
                    stats.durations.append(elapsed)
            if count is not None:
                count(stats, args, result)
            return result

        return traced


def _count_rows(stats, args, result):
    store, ids = args[0], args[1]
    rows = len(ids)
    stats.add("rows", rows)
    stats.add("bytes", rows * store.embedding_dim * store.user_embeddings.itemsize)


def _count_clients(stats, args, result):
    stats.add("clients", len(args[0]))


def _count_scatter_bytes(stats, args, result):
    stats.add("bytes", args[1].nbytes)


def _count_uploads(stats, args, result):
    stats.add("sampled", len(args[4]))
    stats.add("uploads", sum(upload is not None for upload in result))


def _count_flops(stats, args, result):
    groups, n, dim = args[0].shape
    stats.add("flops", groups * n * n * dim)


def _count_eval_users(stats, args, result):
    stats.add("users", args[0].dataset.num_users)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    from repro import kernels
    from repro.attacks.cohort import MaliciousCohort
    from repro.datasets import loaders
    from repro.defenses import regularization, robust
    from repro.experiments import sweep
    from repro.federated import batch_engine, simulation, state
    from repro.federated.server import Server
    from repro.models import base as model_base, mf, ncf  # noqa: F401

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, count=None, keep_durations=False):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(
            owner, attr, tracer.wrap(original, name, count, keep_durations)
        )

    sim_cls = simulation.FederatedSimulation
    # Module-level functions, patched where their call sites look them up.
    for module in (loaders, simulation, sweep):
        patch(module, "load_dataset", "setup.dataset")
    patch(batch_engine, "sample_local_batches", "sampling.negatives", _count_clients)
    patch(batch_engine, "sample_negatives_batch", "sampling.negatives", _count_clients)
    patch(kernels, "scatter_sum", "kernels.scatter", _count_scatter_bytes)
    patch(kernels, "pairwise_sq_dists", "kernels.pairwise", _count_flops)
    patch(sweep, "execute_cell", "sweep.cell", keep_durations=True)
    patch(sweep, "save_sweep_entry", "sweep.cache_write")
    patch(sweep, "read_sweep_entry", "sweep.cache_read")
    patch(sweep, "dataset_fingerprint", "sweep.fingerprint")
    # Methods, patched on the class that defines them.
    patch(sim_cls, "__init__", "setup.simulation")
    patch(sim_cls, "run_round", "round")
    patch(sim_cls, "evaluate", "eval", _count_eval_users)
    patch(Server, "sample_users", "server.sample")
    patch(Server, "apply_batch", "server.apply")
    patch(batch_engine.BatchClientEngine, "run_round", "engine.client")
    patch(state.ClientStateStore, "gather_rows", "state.gather", _count_rows)
    patch(state.ClientStateStore, "scatter_rows", "state.scatter", _count_rows)
    patch(MaliciousCohort, "compute_uploads", "attack.cohort", _count_uploads)
    for name in ("observe", "item_grad_terms", "user_grad_term", "param_grad_terms"):
        patch(regularization.ClientRegularizer, name, "defense.regularize")
    for cls in _subclasses(model_base.RecommenderModel):
        for name in ("batch_local_step", "batch_local_step_bpr"):
            if name in cls.__dict__:
                patch(cls, name, "model.local_step")
    for cls in (
        robust.MedianAggregator,
        robust.TrimmedMeanAggregator,
        robust.KrumAggregator,
        robust.MultiKrumAggregator,
        robust.BulyanAggregator,
    ):
        patch(cls, "aggregate_stacks", "robust.aggregate")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def check_layers(tracer: Tracer, workload: str) -> list[str]:
    """Problems with the layers' call counts on ``workload``."""
    problems = []
    for layer in LAYERS:
        calls = tracer.stats(layer.span).calls
        if workload in layer.runs_on and calls == 0:
            problems.append(f"layer {layer.span} recorded no calls")
        if workload in layer.absent_on and calls:
            problems.append(
                f"layer {layer.span} was predicted absent but recorded {calls} calls"
            )
    return problems


def layer_metrics(tracer: Tracer, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from a traced run's spans and counters.

    ``counters`` carries the values read from public attributes at the
    end of the run (fallback counters, sweep statistics).
    """
    rounds = max(tracer.stats("round").calls, 1)

    def per_round_ms(name):
        return 1e3 * tracer.stats(name).self_s / rounds

    def per_call_ms(name):
        stats = tracer.stats(name)
        return 1e3 * stats.self_s / stats.calls if stats.calls else 0.0

    def count(name, key):
        return tracer.stats(name).counts.get(key, 0.0)

    cohort = tracer.stats("attack.cohort")
    cells = [1e3 * d for d in tracer.stats("sweep.cell").durations]
    metrics = {
        "setup.dataset_ms": per_call_ms("setup.dataset"),
        "setup.simulation_ms": per_call_ms("setup.simulation"),
        "sampling.negatives_ms": per_round_ms("sampling.negatives"),
        "sampling.clients": count("sampling.negatives", "clients") / rounds,
        "state.gather_ms": per_round_ms("state.gather"),
        "state.scatter_ms": per_round_ms("state.scatter"),
        "state.rows": (
            count("state.gather", "rows") + count("state.scatter", "rows")
        ) / rounds,
        "state.bytes": (
            count("state.gather", "bytes") + count("state.scatter", "bytes")
        ) / rounds,
        "kernels.scatter_ms": per_round_ms("kernels.scatter"),
        "kernels.scatter_bytes": count("kernels.scatter", "bytes") / rounds,
        "engine.client_self_ms": per_round_ms("engine.client"),
        "attack.cohort_ms": per_round_ms("attack.cohort"),
        "attack.cohort_calls": cohort.calls / rounds,
        "attack.upload_ratio": (
            cohort.counts.get("uploads", 0.0) / cohort.counts["sampled"]
            if cohort.counts.get("sampled")
            else 0.0
        ),
        "model.local_step_ms": per_round_ms("model.local_step"),
        "defense.regularize_ms": per_round_ms("defense.regularize"),
        "defense.regularize_calls": tracer.stats("defense.regularize").calls / rounds,
        "server.sample_ms": per_round_ms("server.sample"),
        "server.apply_self_ms": per_round_ms("server.apply"),
        "robust.aggregate_self_ms": per_round_ms("robust.aggregate"),
        "robust.aggregate_calls": tracer.stats("robust.aggregate").calls / rounds,
        "kernels.pairwise_ms": per_round_ms("kernels.pairwise"),
        "kernels.pairwise_calls": tracer.stats("kernels.pairwise").calls / rounds,
        "kernels.pairwise_flops": count("kernels.pairwise", "flops") / rounds,
        "eval.ms": per_call_ms("eval"),
        "eval.users": (
            count("eval", "users") / tracer.stats("eval").calls
            if tracer.stats("eval").calls
            else 0.0
        ),
        "sweep.cell_ms_p50": statistics.median(cells) if cells else 0.0,
        "sweep.cell_ms_sum": sum(cells),
        "sweep.cache_write_ms": per_call_ms("sweep.cache_write"),
        "sweep.cache_read_ms": per_call_ms("sweep.cache_read"),
        "sweep.fingerprint_ms": per_call_ms("sweep.fingerprint"),
    }
    metrics.update(counters)
    return metrics
