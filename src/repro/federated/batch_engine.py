"""Vectorised batch-client execution engine for federated rounds.

The reference implementation of one communication round (the "loop"
engine in :class:`~repro.federated.simulation.FederatedSimulation`)
trains each sampled client in pure Python: per-client RNG spawn,
negative sampling, forward/backward, upload, then a per-item grouped
aggregation at the server.  At production round sizes the Python
per-client overhead — not the arithmetic — dominates wall-clock time.

:class:`BatchClientEngine` executes the *same* round as three tensor
passes over all sampled participants at once:

1. **Stack.** Every sampled benign client's local batch (its positives
   plus freshly sampled negatives, drawn from the client's own private
   RNG stream) is packed into one ragged row-stack
   (:func:`~repro.datasets.sampling.sample_local_batches`): flat
   ``(total_rows,)`` item-id and label arrays in which client ``k``
   owns a contiguous segment of ``lengths[k]`` rows.  The CSR-style
   layout wastes nothing under long-tail activity, where padding every
   client to the most active one would dwarf the real data.
2. **Step.** One batched embedding gather produces the stacked item
   vectors and a single batched local step runs every client's local
   epoch — :meth:`~repro.models.base.RecommenderModel.batch_local_step`
   for the BCE loss,
   :meth:`~repro.models.base.RecommenderModel.batch_local_step_bpr`
   for BPR (paired positive/negative stacks, with per-client
   duplicate-row merging done here via one offset-keyed ``np.unique``)
   — with per-client reductions taken over each client's exact row
   segment.
3. **Hand-off.** All uploads (the benign gradient rows — already
   row-aligned in participation order — plus whatever the round's
   malicious clients emitted, spliced in at their sampled positions)
   are assembled into one dense
   :class:`~repro.federated.update_batch.UpdateBatch` and handed to
   :meth:`~repro.federated.server.Server.apply_batch`, which runs the
   whole server side — audit log, defense filters, robust or fused-sum
   aggregation — on the stacked tensors.  No per-client
   :class:`ClientUpdate` objects are materialised for any registry
   defense, filter, or audit configuration.

The malicious half of the round runs through an attached
:class:`~repro.attacks.cohort.MaliciousCohort` (the default for every
batch-engine simulation with an attack): all sampled malicious
clients' uploads are computed in one batched pass over the team's
struct-of-arrays state and splice into the ``UpdateBatch`` as
:class:`~repro.attacks.cohort.CohortUpload` views — again with no
``ClientUpdate`` materialisation.  Without a cohort the engine falls
back to the per-object ``participate`` loop, counted in
``object_malicious_rounds`` so CI can assert the cohort path never
silently degrades.

Client state enters and leaves the round through a
:class:`~repro.federated.state.ClientStateStore` when one is attached
(the default for every simulation): participant embeddings are
*gathered* from the store's dense user matrix by fancy indexing,
positives are zero-copy CSR slices, per-client learning rates come
from the store's vectorised cache, and the updated embeddings are
*scattered* back in one assignment.  Without a store the engine falls
back to stacking ``BenignClient`` objects row by row — the original
object-per-user path, kept as the benchmark baseline and counted in
``stacked_rounds`` so CI can assert the store path never silently
degrades to it.

Bit-exactness is a design invariant, not an approximation: every RNG
stream, every row-wise op, and every reduction matches the loop engine
bit for bit (NumPy scatters and reduces sequentially, so grouping rows
per item and summing matches scattering them in upload order), and so
``engine="loop"`` and ``engine="batch"`` produce identical
trajectories from the same seed.  The parity suites in
``tests/test_batch_engine.py`` and ``tests/test_batch_defended.py``
(every registry defense x attack x model/loss combination) assert
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import kernels
from repro.config import TrainConfig
from repro.datasets.sampling import sample_local_batches, sample_negatives_batch
from repro.federated.client import BenignClient
from repro.federated.payload import ClientUpdate
from repro.federated.server import Server
from repro.federated.update_batch import UpdateBatch
from repro.models.base import RecommenderModel, segment_starts
from repro.rng import spawn_batch

if TYPE_CHECKING:
    from repro.attacks.cohort import CohortUpload

__all__ = ["BatchClientEngine", "ProcessRoundExecutor"]


# ----------------------------------------------------------------------
# Stacked local training, as pure functions
#
# Module-level so the multi-process round executor's workers run the
# *same code object* as the in-process engine: bit-identity between the
# two paths is then a property of per-client independence (private RNG
# streams, per-segment reductions, per-client BPR merges) rather than
# of two implementations staying in sync.
# ----------------------------------------------------------------------


def _bce_stacks_fn(
    model: RecommenderModel,
    train_cfg: TrainConfig,
    positives_list: list[np.ndarray],
    rngs: list[np.random.Generator],
    user_vecs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Stacked BCE local batches and gradients for all clients."""
    item_ids, labels, lengths = sample_local_batches(
        rngs,
        positives_list,
        model.num_items,
        train_cfg.negative_ratio,
    )
    item_vecs = model.item_embeddings[item_ids]
    result = model.batch_local_step(user_vecs, item_vecs, labels, lengths)
    return item_ids, lengths, result.item_grads, result.user_grads, result.param_grads


def _bpr_stacks_fn(
    model: RecommenderModel,
    positives_list: list[np.ndarray],
    rngs: list[np.random.Generator],
    user_vecs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stacked BPR pairs, trained and merged to per-client uploads.

    Mirrors ``BenignClient._bpr_step`` for the whole stack: pair each
    positive with one freshly sampled negative (truncating positives
    when negatives are scarce), run the batched pairwise step, then
    merge each client's duplicate item rows exactly as the reference's
    per-client ``np.unique`` + ``np.add.at`` does — realised here as
    *one* ``np.unique`` over client-offset item keys, whose per-client
    blocks are the per-client results.
    """
    num_clients = len(positives_list)
    counts = np.array([len(p) for p in positives_list], dtype=np.int64)
    negatives = sample_negatives_batch(
        rngs, positives_list, model.num_items, counts
    )
    pairs = [
        (p[: len(n)], n) if len(n) < len(p) else (p, n)
        for p, n in zip(positives_list, negatives)
    ]
    lengths = np.array([len(n) for _, n in pairs], dtype=np.int64)
    pos_ids = np.concatenate([p for p, _ in pairs])
    neg_ids = np.concatenate([n for _, n in pairs])
    pos_vecs = model.item_embeddings[pos_ids]
    neg_vecs = model.item_embeddings[neg_ids]
    result = model.batch_local_step_bpr(
        user_vecs, pos_vecs, neg_vecs, lengths
    )
    total = int(lengths.sum())
    pos_grads = result.item_grads[:total]
    neg_grads = result.item_grads[total:]

    # Interleave each client's positive and negative rows into the
    # reference upload order (positives first), then merge duplicate
    # items per client.  Both buffers inherit the gradient dtype so
    # reduced-precision models upload at their own precision.
    starts = segment_starts(lengths)
    within = np.arange(total) - np.repeat(starts, lengths)
    dest_base = np.repeat(2 * starts, lengths)
    all_ids = np.empty(2 * total, dtype=np.int64)
    all_grads = np.empty(
        (2 * total, model.embedding_dim), dtype=result.item_grads.dtype
    )
    pos_dest = dest_base + within
    neg_dest = dest_base + np.repeat(lengths, lengths) + within
    all_ids[pos_dest] = pos_ids
    all_ids[neg_dest] = neg_ids
    all_grads[pos_dest] = pos_grads
    all_grads[neg_dest] = neg_grads

    owners = np.repeat(np.arange(num_clients, dtype=np.int64), 2 * lengths)
    keys = owners * model.num_items + all_ids
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(
        (len(unique_keys), model.embedding_dim), dtype=all_grads.dtype
    )
    np.add.at(merged, inverse, all_grads)
    merged_ids = unique_keys % model.num_items
    merged_lengths = np.bincount(
        unique_keys // model.num_items, minlength=num_clients
    ).astype(np.int64)
    return merged_ids, merged_lengths, merged, result.user_grads


def _compute_benign_stacks(
    model: RecommenderModel,
    train_cfg: TrainConfig,
    seed: int,
    store,
    benign_ids: np.ndarray,
    round_idx: int,
    regularizer=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """One store-backed benign local step for a participant subset.

    Returns ``(new_users, item_ids, lengths, item_grads, param_stacks)``
    with rows in ``benign_ids`` order, *without* scattering the updated
    embeddings (the caller owns all store writes — pure reads are what
    make worker retry after a SIGKILL trivially bit-identical).

    Without a ``regularizer`` every per-client quantity is a pure
    function of ``(seed, user_id, round_idx)`` and the frozen
    round-start model, so computing a subset here equals slicing the
    full-cohort computation: the exact property the multi-process
    executor's parity suite pins.  (The executor rejects regularized
    configs; the in-process engine passes its batched
    :class:`~repro.defenses.regularization.ClientRegularizer`.)
    """
    if train_cfg.client_lr_range is None:
        lrs: np.ndarray | float = train_cfg.effective_client_lr
    else:
        lrs = store.client_lrs_for(train_cfg.client_lr_range, benign_ids)
    return _local_step(
        model, train_cfg, seed, benign_ids, round_idx,
        store.gather_rows(benign_ids), store.positives_list(benign_ids),
        lrs, regularizer,
    )


def _local_step(
    model: RecommenderModel,
    train_cfg: TrainConfig,
    seed: int,
    benign_ids: np.ndarray,
    round_idx: int,
    user_vecs: np.ndarray,
    positives_list: list[np.ndarray],
    lrs: np.ndarray | float,
    regularizer=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Stacked local step of the given participants, defense terms included.

    Mirrors :meth:`BenignClient.participate` for the whole stack: the
    regularizer observes the received item matrix, the BCE or BPR step
    runs, the defense's item / user / tower terms are added (against
    the pre-update user rows, as the reference hooks see them), and
    each user row takes its local step ``u <- u - eta * grad_u``.
    """
    item_matrix = model.item_embeddings
    if regularizer is not None:
        regularizer.observe(benign_ids, item_matrix, round_idx)
    rngs = spawn_batch(seed, ("client-round",), benign_ids, (round_idx,))
    if train_cfg.loss == "bpr":
        item_ids, lengths, item_grads, user_grads = _bpr_stacks_fn(
            model, positives_list, rngs, user_vecs
        )
        param_stacks: list[np.ndarray] = []
    else:
        # Any non-BPR loss trains with BCE, exactly like the reference
        # client.
        item_ids, lengths, item_grads, user_grads, param_stacks = (
            _bce_stacks_fn(model, train_cfg, positives_list, rngs, user_vecs)
        )
    if regularizer is not None:
        item_grads += regularizer.item_grad_terms(
            benign_ids, item_ids, lengths, item_matrix
        )
        user_grads += regularizer.user_grad_term(benign_ids, user_vecs, item_matrix)
        if model.interaction_params():
            extra = regularizer.param_grad_terms(model, benign_ids, item_ids, lengths)
            # The BPR upload carries no parameter gradients of its own:
            # the reference client uploads the tower term alone.
            param_stacks = (
                [stack + term for stack, term in zip(param_stacks, extra)]
                if param_stacks
                else extra
            )
    if isinstance(lrs, np.ndarray):
        lrs = lrs[:, None]
    new_users = user_vecs - lrs * user_grads
    return new_users, item_ids, lengths, item_grads, param_stacks


@dataclass
class _RoundBatch:
    """The benign half of one round, in ragged row-stack layout."""

    item_ids: np.ndarray  # (total_rows,)
    lengths: np.ndarray  # (clients,)
    starts: np.ndarray  # (clients,) row offset of each client's segment
    item_grads: np.ndarray  # (total_rows, dim)
    param_stacks: list[np.ndarray] = field(default_factory=list)
    #: Client rows (participation order) that contribute parameter
    #: gradients; row ``j`` of every stack belongs to client
    #: ``param_owners[j]``.  All clients under BCE on a parametric
    #: model, and under BPR when the defense adds its tower term;
    #: none otherwise.
    param_owners: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


class BatchClientEngine:
    """Executes federated rounds with stacked per-client tensors."""

    def __init__(
        self,
        model: RecommenderModel,
        server: Server,
        benign_clients: list[BenignClient],
        malicious_clients: list,
        train_cfg: TrainConfig,
        seed: int,
        *,
        state=None,
        cohort=None,
        kernel_backend=None,
        fault_controller=None,
        executor=None,
        regularizer=None,
    ):
        self.model = model
        self.server = server
        self.benign_clients = benign_clients
        self.malicious_clients = malicious_clients
        self.train_cfg = train_cfg
        self.seed = seed
        #: The struct-of-arrays client state this engine gathers from
        #: and scatters to; ``None`` selects the object-per-user
        #: fallback path.
        self.state = state
        #: The team-level :class:`~repro.attacks.cohort.MaliciousCohort`
        #: executing all sampled malicious clients per round in one
        #: batched pass; ``None`` selects the per-object ``participate``
        #: fallback loop.
        self.cohort = cohort
        #: Rounds that ran on the object-per-user fallback (stacking
        #: ``BenignClient`` attributes row by row instead of indexing
        #: the store).  The state-scale CI smoke asserts this stays
        #: zero for store-backed simulations.
        self.stacked_rounds = 0
        #: Rounds whose malicious participants ran through the
        #: per-object ``participate`` loop instead of the cohort.  The
        #: attack-scale CI smoke asserts this stays zero for
        #: cohort-backed simulations.
        self.object_malicious_rounds = 0
        #: Resolved kernel backend (:func:`repro.kernels.resolve`) every
        #: round runs under; ``None`` defers to the caller's dispatch
        #: scope / the ``REPRO_KERNELS`` environment default per round.
        self.kernel_backend = kernel_backend
        #: Rounds in which the kernel backend served at least one
        #: dispatched call through its numpy fallback (unsupported
        #: dtype) — the same anti-fallback contract as the two counters
        #: above: a native-backend run that quietly degrades must be
        #: visible, and the native bench asserts this stays zero.
        self.kernel_fallback_rounds = 0
        #: Optional :class:`~repro.federated.faults.FaultController`
        #: transforming each assembled round batch (dropout /
        #: straggler / corruption injection plus stale-upload splicing)
        #: before the server sees it; ``None`` — the default — skips
        #: the hook entirely, keeping the ideal-synchronous path
        #: bit-identical and overhead-free.
        self.fault_controller = fault_controller
        #: Optional :class:`ProcessRoundExecutor` computing each benign
        #: local step across forked worker processes attached to the
        #: sharded store; ``None`` computes rounds in-process.
        self.executor = executor
        #: Rounds whose benign step ran on the multi-process executor —
        #: the anti-fallback counter the million-user CI smoke asserts
        #: equals the round count (the shm path must actually engage).
        self.process_rounds = 0
        #: The batched client-side defense
        #: (:class:`~repro.defenses.regularization.ClientRegularizer`)
        #: every benign participant runs, or ``None``.
        self.regularizer = regularizer

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    @property
    def num_benign(self) -> int:
        if self.state is not None:
            return self.state.num_users
        return len(self.benign_clients)

    def run_round(self, round_idx: int, sampled: np.ndarray) -> None:
        """Execute one communication round for the sampled user ids.

        The whole round runs inside the engine's kernel dispatch scope;
        per-call numpy fallbacks of the active backend are snapshotted
        across the round into ``kernel_fallback_rounds``.
        """
        with kernels.use(self.kernel_backend) as backend:
            fallbacks_before = backend.fallback_calls
            self._run_round(round_idx, sampled)
            if backend.fallback_calls > fallbacks_before:
                self.kernel_fallback_rounds += 1

    def compute_round_batch(
        self, round_idx: int, sampled: np.ndarray
    ) -> UpdateBatch:
        """One round's assembled :class:`UpdateBatch`, *not* applied.

        Runs the full client side of a round — malicious cohort pass,
        batched benign local training (participants' private state
        advances), splice — inside the engine's kernel scope, and
        returns the assembled batch instead of handing it to the
        server.  The asynchronous engine uses this to train a wave at
        dispatch time and decide later when each upload aggregates;
        because the RNG streams are keyed only by ``round_idx``, the
        batch is bit-identical to what :meth:`run_round` would have
        produced for the same round.  The fault-controller hook is
        *not* applied — transport faults are the synchronous loop's
        churn model, and the two layers are mutually exclusive.

        Kernel-fallback accounting is left to the caller's scope so a
        wave is never double-counted.
        """
        with kernels.use(self.kernel_backend):
            return self._compute_round(round_idx, sampled)

    def _run_round(self, round_idx: int, sampled: np.ndarray) -> None:
        round_batch = self._compute_round(round_idx, sampled)
        if self.fault_controller is not None:
            # Transport faults strike between upload and aggregation:
            # local training above already happened (dropped clients'
            # private state advanced), only the server's view changes.
            round_batch = self.fault_controller.apply_to_batch(
                round_batch, [int(u) for u in sampled], round_idx
            )
        self.server.apply_batch(round_batch)

    def _compute_round(self, round_idx: int, sampled: np.ndarray) -> UpdateBatch:
        num_benign = self.num_benign
        sampled_list = [int(user_id) for user_id in sampled]
        benign_ids = np.array(
            [u for u in sampled_list if u < num_benign], dtype=np.int64
        )

        # Malicious participants run before the benign tensor pass (the
        # global model is frozen within a round, so this is
        # order-equivalent to the interleaved reference loop): one
        # batched cohort pass when a MaliciousCohort is attached
        # (CohortUpload views), the per-object participate loop
        # otherwise (materialised ClientUpdate objects).
        malicious_by_pos: dict[int, "ClientUpdate | CohortUpload"] = {}
        mal_positions = [
            (pos, user_id - num_benign)
            for pos, user_id in enumerate(sampled_list)
            if user_id >= num_benign
        ]
        if mal_positions and self.cohort is not None:
            uploads = self.cohort.compute_uploads(
                self.model,
                self.train_cfg,
                round_idx,
                np.array([row for _, row in mal_positions], dtype=np.int64),
            )
            for (pos, _), upload in zip(mal_positions, uploads):
                if upload is not None:
                    malicious_by_pos[pos] = upload
        elif mal_positions:
            self.object_malicious_rounds += 1
            for pos, row in mal_positions:
                update = self.malicious_clients[row].participate(
                    self.model, self.train_cfg, round_idx
                )
                if update is not None:
                    malicious_by_pos[pos] = update

        batch = self._benign_batch_step(benign_ids, round_idx)
        return self._assemble(
            sampled_list, num_benign, benign_ids, malicious_by_pos, batch
        )

    # ------------------------------------------------------------------
    # Benign local training, batched
    # ------------------------------------------------------------------

    def _benign_batch_step(
        self, benign_ids: np.ndarray, round_idx: int
    ) -> _RoundBatch:
        """Run every sampled benign client's local step in one batch.

        Participant state enters as one embedding gather plus zero-copy
        CSR positive slices when a store is attached (computed
        in-process or on the executor's workers) and leaves as one
        scatter; the object fallback stacks the same values attribute
        by attribute.  Both feed the identical stacked arithmetic of
        :func:`_local_step`, defense terms included.
        """
        store = self.state
        if not len(benign_ids):
            zero = np.empty(0, dtype=np.int64)
            return _RoundBatch(
                zero, zero, zero, np.empty((0, self.model.embedding_dim))
            )

        if store is not None:
            if self.executor is not None:
                new_users, item_ids, lengths, item_grads, param_stacks = (
                    self.executor.compute(benign_ids, round_idx)
                )
                self.process_rounds += 1
            else:
                new_users, item_ids, lengths, item_grads, param_stacks = (
                    _compute_benign_stacks(
                        self.model, self.train_cfg, self.seed,
                        store, benign_ids, round_idx, self.regularizer,
                    )
                )
            store.scatter_rows(benign_ids, new_users)
        else:
            self.stacked_rounds += 1
            clients = [self.benign_clients[int(u)] for u in benign_ids]
            if self.train_cfg.client_lr_range is None:
                lrs: np.ndarray | float = self.train_cfg.effective_client_lr
            else:
                lrs = np.array(
                    [client._client_lr(self.train_cfg) for client in clients]
                )
            new_users, item_ids, lengths, item_grads, param_stacks = _local_step(
                self.model, self.train_cfg, self.seed, benign_ids, round_idx,
                np.stack([client.user_embedding for client in clients]),
                [client.positive_items for client in clients],
                lrs, self.regularizer,
            )
            for client, row in zip(clients, new_users):
                client.user_embedding = row

        param_owners = (
            np.arange(len(benign_ids), dtype=np.int64)
            if param_stacks
            else np.empty(0, dtype=np.int64)
        )
        return _RoundBatch(
            item_ids, lengths, segment_starts(lengths),
            item_grads, param_stacks, param_owners,
        )

    # ------------------------------------------------------------------
    # Server hand-off
    # ------------------------------------------------------------------

    def _assemble(
        self,
        sampled_list: list[int],
        num_benign: int,
        benign_ids: np.ndarray,
        malicious_by_pos: dict[int, ClientUpdate | CohortUpload],
        batch: _RoundBatch,
    ) -> UpdateBatch:
        """Splice benign stacks and malicious uploads into one UpdateBatch.

        The benign gradient rows already sit in participation order, so
        a round without malicious uploads wraps the training stacks
        with zero copies; otherwise malicious uploads are spliced in at
        their sampled positions (splitting the benign stack into a
        handful of contiguous runs), keeping the batch's client order —
        and therefore every downstream float accumulation — exactly the
        reference engine's upload order.

        ``malicious_by_pos`` values only need the upload attributes
        (``user_id`` / ``item_ids`` / ``item_grads`` / ``param_grads``
        / ``malicious``): the cohort path passes
        :class:`~repro.attacks.cohort.CohortUpload` views into its
        stacked round arrays, the fallback path real ``ClientUpdate``
        objects.
        """
        num_params = len(self.model.interaction_params())
        if not malicious_by_pos:
            return UpdateBatch(
                user_ids=benign_ids,
                item_ids=batch.item_ids,
                item_grads=batch.item_grads,
                lengths=batch.lengths,
                param_stacks=batch.param_stacks if num_params else [],
                param_owners=batch.param_owners if num_params else np.empty(0, dtype=np.int64),
                malicious=np.zeros(len(benign_ids), dtype=bool),
            )

        run_starts = batch.starts
        run_lengths = batch.lengths
        owners = batch.param_owners
        user_chunks: list[np.ndarray] = []
        length_chunks: list[np.ndarray] = []
        mal_chunks: list[np.ndarray] = []
        id_chunks: list[np.ndarray] = []
        grad_chunks: list[np.ndarray] = []
        param_chunks: list[list[np.ndarray]] = [[] for _ in range(num_params)]
        owner_chunks: list[np.ndarray] = []
        benign_row = 0  # index of the next benign client
        run_begin = 0  # first benign client of the current contiguous run
        inserted = 0  # malicious uploads spliced in so far

        def flush_run(end: int) -> None:
            nonlocal run_begin
            if end > run_begin:
                lo = int(run_starts[run_begin])
                hi = int(run_starts[end - 1] + run_lengths[end - 1])
                id_chunks.append(batch.item_ids[lo:hi])
                grad_chunks.append(batch.item_grads[lo:hi])
                user_chunks.append(benign_ids[run_begin:end])
                length_chunks.append(run_lengths[run_begin:end])
                mal_chunks.append(np.zeros(end - run_begin, dtype=bool))
                if num_params and len(owners):
                    olo, ohi = np.searchsorted(owners, (run_begin, end))
                    if ohi > olo:
                        owner_chunks.append(owners[olo:ohi] + inserted)
                        for index, stack in enumerate(batch.param_stacks):
                            param_chunks[index].append(stack[olo:ohi])
            run_begin = end

        for pos, user_id in enumerate(sampled_list):
            if user_id < num_benign:
                benign_row += 1
                continue
            update = malicious_by_pos.get(pos)
            if update is None:
                continue
            flush_run(benign_row)
            client_pos = benign_row + inserted
            user_chunks.append(np.array([update.user_id], dtype=np.int64))
            length_chunks.append(np.array([len(update.item_ids)], dtype=np.int64))
            mal_chunks.append(np.array([update.malicious], dtype=bool))
            id_chunks.append(update.item_ids)
            grad_chunks.append(update.item_grads)
            # Parameter uploads against a parameter-free model are
            # ignored, exactly like the reference server path.
            if update.param_grads and num_params:
                owner_chunks.append(np.array([client_pos], dtype=np.int64))
                for index, grad in enumerate(update.param_grads):
                    param_chunks[index].append(grad[None])
            inserted += 1
        flush_run(benign_row)

        param_stacks = [
            np.concatenate(chunks) for chunks in param_chunks if chunks
        ]
        return UpdateBatch(
            user_ids=np.concatenate(user_chunks)
            if user_chunks
            else np.empty(0, dtype=np.int64),
            item_ids=np.concatenate(id_chunks)
            if id_chunks
            else np.empty(0, dtype=np.int64),
            item_grads=np.concatenate(grad_chunks, axis=0)
            if grad_chunks
            else np.empty((0, self.model.embedding_dim)),
            lengths=np.concatenate(length_chunks)
            if length_chunks
            else np.empty(0, dtype=np.int64),
            param_stacks=param_stacks,
            param_owners=np.concatenate(owner_chunks)
            if owner_chunks
            else np.empty(0, dtype=np.int64),
            malicious=np.concatenate(mal_chunks)
            if mal_chunks
            else np.empty(0, dtype=bool),
        )


# ----------------------------------------------------------------------
# Multi-process round execution
# ----------------------------------------------------------------------


class _ModelMirror:
    """The round-start global model in one fork-shared anonymous mapping.

    The parent publishes ``item_embeddings`` (and any interaction
    parameters) into the mapping before dispatching a round; each
    worker copies them into its private model replica before computing.
    Anonymous ``MAP_SHARED`` memory needs no names, no unlink and no
    tracker — it dies with the last process that maps it — and is
    inherited by the fork-spawned workers automatically.
    """

    def __init__(self, model: RecommenderModel):
        import mmap as _mmap

        shapes = [model.item_embeddings.shape] + [
            p.shape for p in model.interaction_params()
        ]
        dtypes = [model.item_embeddings.dtype] + [
            p.dtype for p in model.interaction_params()
        ]
        sizes = [
            int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            for shape, dtype in zip(shapes, dtypes)
        ]
        self._mmap = _mmap.mmap(-1, max(1, sum(sizes)))
        self.views: list[np.ndarray] = []
        offset = 0
        buffer = memoryview(self._mmap)
        for shape, dtype, nbytes in zip(shapes, dtypes, sizes):
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(
                buffer[offset : offset + nbytes], dtype=dtype, count=count
            ).reshape(shape)
            self.views.append(view)
            offset += nbytes

    def publish(self, model: RecommenderModel) -> None:
        """Parent side: copy the live model into the shared mapping."""
        arrays = [model.item_embeddings] + list(model.interaction_params())
        for view, array in zip(self.views, arrays):
            view[...] = array

    def load_into(self, model: RecommenderModel) -> None:
        """Worker side: refresh the private replica from the mapping."""
        arrays = [model.item_embeddings] + list(model.interaction_params())
        for array, view in zip(arrays, self.views):
            array[...] = view


def _round_worker_main(
    conn,
    store,
    manifest_json,
    shard_ids,
    model,
    mirror,
    train_cfg,
    seed,
    kernel_backend,
):
    """One executor worker: pure per-subset local steps, forever.

    ``store`` arrives fork-inherited; for named-shm stores the worker
    drops it and re-attaches *only its own shards* through the manifest
    (the attach path the sweep backend also uses), for anonymous-mmap
    stores the inherited ``MAP_SHARED`` mappings are the attachment.
    Every task is a pure read of (store segments, model mirror): the
    worker never writes shared state, so the parent can kill and
    re-dispatch at any point without bit-drift.
    """
    if manifest_json is not None:
        from repro.federated.shards import ShardedStateStore

        store = ShardedStateStore.attach(manifest_json, shard_ids=shard_ids)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; nothing left to do
            return
        if message is None:
            return
        round_idx, benign_ids = message
        with kernels.use(kernel_backend) as backend:
            fallbacks_before = backend.fallback_calls
            mirror.load_into(model)
            result = _compute_benign_stacks(
                model, train_cfg, seed, store, benign_ids, round_idx
            )
            fallbacks = backend.fallback_calls - fallbacks_before
        try:
            conn.send((round_idx,) + result + (fallbacks,))
        except (BrokenPipeError, OSError):  # parent died mid-round
            return


class _RoundWorker:
    """Handle for one forked worker process plus its pipe."""

    def __init__(self, ctx, index, spawn_args):
        self._ctx = ctx
        self.index = index
        self._spawn_args = spawn_args
        self.conn = None
        self.process = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_round_worker_main,
            args=(child_conn,) + self._spawn_args,
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.conn = parent_conn
        self.process = process

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


class ProcessRoundExecutor:
    """Computes benign round steps across forked worker processes.

    Each worker owns the shards ``{s : s mod workers == w}`` of a
    :class:`~repro.federated.shards.ShardedStateStore` and, per round,
    receives exactly the sampled participants living in those shards.
    Workers return per-client row stacks plus updated user rows over
    their pipe; the parent reassembles everything into exact
    participation order and performs the *single* scatter that commits
    the round — so the downstream fused server merge
    (:meth:`~repro.federated.server.Server.apply_batch`) accumulates in
    precisely the single-process order and the result is bit-identical
    to the in-process reference (pinned by the executor parity suite).

    Crash tolerance falls out of the dataflow: worker tasks are pure
    reads, so a worker SIGKILLed mid-round is respawned (re-attaching
    its shards) and its subset re-dispatched, with no state to repair.
    ``respawns`` counts those events for the chaos suite.

    Regularized stores are rejected at construction (and regularized
    simulations before they build an executor): the client-side
    defense's miner state lives only in the parent, and silently
    computing around it would diverge.
    """

    def __init__(
        self,
        model: RecommenderModel,
        train_cfg: TrainConfig,
        seed: int,
        store,
        num_workers: int,
        *,
        kernel_backend=None,
    ):
        if num_workers < 2:
            raise ValueError("ProcessRoundExecutor needs num_workers >= 2")
        backend = getattr(store, "backend", None)
        if backend not in ("shm", "mmap"):
            raise ValueError(
                "ProcessRoundExecutor requires a ShardedStateStore "
                "(shared segments are what make worker reads see live "
                "state); got a dense in-process store"
            )
        if store.has_regularizers:
            raise ValueError(
                "ProcessRoundExecutor cannot execute client-side "
                "regularization: per-user regularizer state lives only "
                "in the parent process. Run this config in-process "
                "(round_workers=0)."
            )
        import multiprocessing

        self.model = model
        self.train_cfg = train_cfg
        self.seed = seed
        self.store = store
        self.num_workers = min(num_workers, store.manifest.num_shards)
        #: Workers respawned after dying mid-round (chaos counter).
        self.respawns = 0
        #: Rounds dispatched through the worker pool.
        self.rounds = 0
        #: Kernel numpy-fallback calls reported by workers.
        self.worker_kernel_fallbacks = 0
        self._bounds = store.manifest.bounds()
        self._ctx = multiprocessing.get_context("fork")
        manifest_json = (
            store.manifest.to_json() if backend == "shm" else None
        )
        # One mirror shared by every worker; created before the forks
        # so the anonymous mapping is inherited.
        self._mirror = _ModelMirror(model)
        self._pool = []
        for w in range(self.num_workers):
            shard_ids = [
                s
                for s in range(store.manifest.num_shards)
                if s % self.num_workers == w
            ]
            spawn_args = (
                None if manifest_json is not None else store,
                manifest_json,
                shard_ids,
                model,
                self._mirror,
                train_cfg,
                seed,
                kernel_backend,
            )
            self._pool.append(_RoundWorker(self._ctx, w, spawn_args))
        self._closed = False

    # -- dispatch -------------------------------------------------------

    def _worker_of(self, benign_ids: np.ndarray) -> np.ndarray:
        shards = np.searchsorted(self._bounds, benign_ids, side="right") - 1
        return shards % self.num_workers

    def compute(
        self, benign_ids: np.ndarray, round_idx: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
        """One round's benign stacks, reassembled in participation order."""
        if self._closed:
            raise RuntimeError("executor is closed")
        self._mirror.publish(self.model)
        ids = np.asarray(benign_ids, dtype=np.int64)
        owners = self._worker_of(ids)
        tasks: list[tuple[_RoundWorker, np.ndarray]] = []
        for w in np.unique(owners):
            positions = np.flatnonzero(owners == w)
            tasks.append((self._pool[int(w)], positions))
        # Phase 1: every worker gets its subset before any reply is
        # awaited, so all workers compute concurrently.
        for worker, positions in tasks:
            self._send(worker, round_idx, ids[positions])
        # Phase 2: collect (respawn + re-dispatch on worker death —
        # tasks are pure reads and nothing was scattered yet, so a
        # fresh worker recomputes the identical subset).
        replies = [
            self._recv(worker, round_idx, ids[positions])
            for worker, positions in tasks
        ]
        self.rounds += 1
        return self._reassemble(benign_ids, tasks, replies)

    def _send(self, worker: _RoundWorker, round_idx, ids) -> None:
        try:
            worker.conn.send((round_idx, ids))
        except (BrokenPipeError, OSError):
            self.respawns += 1
            worker.spawn()
            worker.conn.send((round_idx, ids))

    def _recv(self, worker: _RoundWorker, round_idx, ids):
        for attempt in range(3):
            try:
                reply = worker.conn.recv()
                if reply[0] != round_idx:  # pragma: no cover - stale reply
                    raise RuntimeError("out-of-order executor reply")
                self.worker_kernel_fallbacks += int(reply[-1])
                return reply[1:-1]
            except (EOFError, BrokenPipeError, OSError):
                self.respawns += 1
                worker.spawn()
                worker.conn.send((round_idx, ids))
        raise RuntimeError(
            f"executor worker {worker.index} kept dying mid-round; giving up"
        )

    def _reassemble(self, benign_ids, tasks, replies):
        """Merge per-worker subset results back into cohort order."""
        positions = np.concatenate([p for _, p in tasks])
        order = np.argsort(positions)
        new_users = np.concatenate([r[0] for r in replies])[order]
        lengths_cat = np.concatenate([r[2] for r in replies])
        ids_cat = np.concatenate([r[1] for r in replies])
        grads_cat = np.concatenate([r[3] for r in replies])
        lengths = lengths_cat[order]
        total = int(lengths_cat.sum())
        starts_cat = segment_starts(lengths_cat)
        # Row permutation: client `order[k]`'s contiguous row segment
        # moves to position k, rows within a segment keep their order.
        row_idx = (
            np.repeat(starts_cat[order], lengths)
            + np.arange(total, dtype=np.int64)
            - np.repeat(segment_starts(lengths), lengths)
        )
        item_ids = ids_cat[row_idx]
        item_grads = grads_cat[row_idx]
        num_param_stacks = len(replies[0][4]) if replies else 0
        param_stacks = [
            np.concatenate([r[4][index] for r in replies])[order]
            for index in range(num_param_stacks)
        ]
        return new_users, item_ids, lengths, item_grads, param_stacks

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if not self._closed:
            self._closed = True
            for worker in self._pool:
                worker.stop()
