"""Popular item mining from embedding changes (Algorithm 1, Section IV-B).

The core observation of the paper: popular items' embeddings undergo
larger and longer-lasting changes during FRS training (Properties 1-2),
so accumulating the per-item L2 change of the received item matrix
across the rounds a client is sampled (Δ-Norm, Eq. 7) ranks popular
items at the top — with no prior knowledge whatsoever.

Three executions of Algorithm 1 live here:

* the per-client objects (:class:`DeltaNormTracker` wrapped by
  :class:`PopularItemMiner`) — the reference implementation, one miner
  per malicious client (fed through ``participate``) or per benign
  client of the loop engine's defense oracle;
* the team-level :class:`CohortMiner` — struct-of-arrays state for a
  fixed malicious team (one ``(num_clients, num_items)`` accumulator
  matrix, vectorised observation counters);
* the population-level :class:`PopulationMiner` — the same arithmetic
  for an open-ended, sparsely sampled population (every benign client
  of the regularization defense): state is keyed by user id,
  accumulator rows exist only for users still mining, and mined sets
  are one ``(ready users, num_popular)`` int array.

Both struct-of-arrays miners share an :class:`ObservationLedger`: each
round's received item matrix is snapshotted **once** for all sampled
miners, ``||v_j^r − v_j^{r'}||`` is computed once per distinct
previous-observation round ``r'`` and added into every matching
accumulator row.  Bit-identical to running one
:class:`DeltaNormTracker` per client (asserted by the property suites
in ``tests/test_attack_cohort.py`` and ``tests/test_regularization.py``)
at O(1) item-matrix copies per round instead of O(clients).

Same-round snapshot sharing for the per-client objects is provided by
:class:`RoundSnapshotCache`: trackers observing the same round share
one copy of the item matrix instead of each taking their own.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

__all__ = [
    "DeltaNormTracker",
    "PopularItemMiner",
    "RoundSnapshotCache",
    "ObservationLedger",
    "CohortMiner",
    "PopulationMiner",
]

#: :class:`PopulationMiner` index code of a user never observed.
_UNSEEN = np.iinfo(np.int64).max


class DeltaNormTracker:
    """Accumulates per-item Δ-Norm across successive model observations.

    ``observe`` is called with the item embedding matrix the client
    received this round; the first call initialises the baseline
    (Algorithm 1 line 3) and each later call adds
    ``||v_j^r - v_j^{r-1}||_2`` per item (line 4).
    """

    def __init__(self, num_items: int):
        self.num_items = num_items
        self.accumulated = np.zeros(num_items)
        self.observations = 0
        self._last: np.ndarray | None = None
        self._order: np.ndarray | None = None

    @property
    def num_deltas(self) -> int:
        """How many Δ-Norm increments have been accumulated."""
        return max(self.observations - 1, 0)

    def observe(
        self, item_matrix: np.ndarray, snapshot: np.ndarray | None = None
    ) -> None:
        """Record one received item embedding matrix.

        ``snapshot`` may carry an already-materialised private copy of
        ``item_matrix`` (same values, safe to retain) so that many
        trackers observing the same round share **one** copy — without
        it every tracker takes its own ``item_matrix.copy()``, which at
        N malicious clients means N redundant ``(num_items, dim)``
        matrices per round (see :class:`RoundSnapshotCache`).
        """
        if item_matrix.shape[0] != self.num_items:
            raise ValueError(
                f"expected {self.num_items} items, got {item_matrix.shape[0]}"
            )
        if self._last is not None:
            # The per-item ||v_j^r - v_j^{r-1}|| vector is the dispatched
            # row_diff_norms kernel (sequential per-row accumulation).
            self.accumulated += kernels.row_diff_norms(item_matrix, self._last)
        self._last = item_matrix.copy() if snapshot is None else snapshot
        self.observations += 1
        self._order = None

    def top_items(self, count: int) -> np.ndarray:
        """Item ids with the highest accumulated Δ-Norm, descending.

        The requested prefix of the descending order is cached between
        observations: repeated calls on a frozen accumulator (e.g.
        analysis code reading a mined ranking every round) do not
        re-sort.  Only the prefix is retained — a full ``(num_items,)``
        permutation per tracker would dwarf the mined set at catalogue
        scale — so a *larger* request after a smaller one re-sorts
        once.
        """
        count = min(count, self.num_items)
        if self._order is None or len(self._order) < count:
            self._order = np.argsort(-self.accumulated, kind="stable")[
                :count
            ].copy()
        return self._order[:count]


class PopularItemMiner:
    """Algorithm 1: mine the popular set P after R-tilde accumulations.

    The miner is *ready* once it has seen ``mining_rounds + 1`` model
    snapshots (i.e. accumulated ``mining_rounds`` Δ-Norm increments);
    afterwards the mined set is frozen, matching Algorithm 1's
    one-shot output, and the tracker — with its ``(num_items, dim)``
    baseline copy and its accumulator — is dropped: nothing reads it
    once the set is mined.
    """

    def __init__(self, num_items: int, mining_rounds: int, num_popular: int):
        if mining_rounds < 1:
            raise ValueError("mining_rounds must be >= 1")
        if num_popular < 1:
            raise ValueError("num_popular must be >= 1")
        self.num_items = num_items
        self.mining_rounds = mining_rounds
        self.num_popular = num_popular
        self._tracker = DeltaNormTracker(num_items)
        self._mined: np.ndarray | None = None

    @property
    def ready(self) -> bool:
        """Whether the popular set has been mined."""
        return self._mined is not None

    def observe(
        self, item_matrix: np.ndarray, snapshot: np.ndarray | None = None
    ) -> None:
        """Feed one received item matrix; freezes P when R-tilde is hit.

        ``snapshot`` is passed through to the tracker (see
        :meth:`DeltaNormTracker.observe`) so a whole malicious team can
        share one per-round item-matrix copy.
        """
        if self.ready:
            return
        self._tracker.observe(item_matrix, snapshot=snapshot)
        if self._tracker.num_deltas >= self.mining_rounds:
            self._mined = self._tracker.top_items(self.num_popular)
            self._tracker = None

    def popular_items(self) -> np.ndarray:
        """The mined popular set P, most-popular-first (by Δ-Norm)."""
        if self._mined is None:
            raise RuntimeError("popular items not mined yet (miner not ready)")
        return self._mined


class RoundSnapshotCache:
    """One shared item-matrix copy per round for a team of trackers.

    The registry hands every PIECK client of one attacker team the same
    cache; each ``participate`` call fetches the round's shared
    snapshot and passes it into its miner, so N co-sampled miners
    retain one copy instead of N.  Keyed by the round index (the global
    model is frozen within a round, so all same-round observers receive
    identical matrices); earlier rounds' copies stay alive exactly as
    long as some tracker still holds them as its baseline — ordinary
    reference counting, no bookkeeping here.
    """

    def __init__(self):
        self._round: int | None = None
        self._copy: np.ndarray | None = None
        #: Total copies materialised — O(rounds observed), never
        #: O(clients); benchmarks assert this stays flat in team size.
        self.copies = 0

    def get(self, item_matrix: np.ndarray, round_idx: int) -> np.ndarray:
        """The shared private copy of this round's item matrix."""
        if self._round != round_idx:
            self._copy = item_matrix.copy()
            self._round = round_idx
            self.copies += 1
        return self._copy


class ObservationLedger:
    """Refcounted per-round item-matrix snapshots shared by many miners.

    Round ``r``'s received item matrix is copied once (Algorithm 1
    line 3, for every sampled miner at once) and kept alive only while
    some still-mining miner's last observation was round ``r``.
    :meth:`accumulate` computes ``||v_j^r − v_j^{r'}||`` (line 4) once
    per *distinct* previous round ``r'`` and adds the resulting vector
    into every matching accumulator row — the arithmetic of the
    per-client reference, executed once per distinct input instead of
    once per client.  The refcounts are
    plain ints in a dict, so the ledger pickles (and resumes) with its
    owner.
    """

    def __init__(self):
        self._snapshots: dict[int, np.ndarray] = {}
        self._refs: dict[int, int] = {}
        #: Item-matrix copies taken so far — grows with *rounds*, not
        #: with the number of miners.
        self.copies = 0

    def __len__(self) -> int:
        """How many round snapshots the ledger currently retains."""
        return len(self._snapshots)

    def accumulate(
        self,
        accumulated: np.ndarray,
        rows: np.ndarray,
        prev_rounds: np.ndarray,
        item_matrix: np.ndarray,
    ) -> None:
        """Add this round's Δ-Norm into ``accumulated[rows]``.

        ``prev_rounds[i]`` is the round ``rows[i]`` last observed; each
        row's reference on that round's snapshot is released.
        """
        for prev in np.unique(prev_rounds).tolist():
            matching = rows[prev_rounds == prev]
            norms = kernels.row_diff_norms(item_matrix, self._snapshots[prev])
            accumulated[matching] += norms
            self._refs[prev] -= len(matching)

    def retain(self, round_idx: int, item_matrix: np.ndarray, count: int) -> None:
        """Hold ``count`` references on this round's (shared) snapshot."""
        if not count:
            return
        if round_idx not in self._snapshots:
            self._snapshots[round_idx] = item_matrix.copy()
            self._refs[round_idx] = 0
            self.copies += 1
        self._refs[round_idx] += count

    def collect(self) -> None:
        """Drop every snapshot no miner references any more."""
        for key in [k for k, refs in self._refs.items() if refs <= 0]:
            del self._snapshots[key]
            del self._refs[key]


class CohortMiner:
    """Struct-of-arrays Algorithm 1 for a whole malicious team.

    Mirrors one :class:`DeltaNormTracker` + :class:`PopularItemMiner`
    per client as flat arrays:

    * ``accumulated`` — ``(num_clients, num_items)``; row ``i`` is
      client ``i``'s Δ-Norm accumulator (Eq. 7);
    * ``observations`` / ``last_round`` — per-client observation count
      and the round of the client's previous observation;
    * ``ready`` / ``mined`` — frozen-set flags and the mined popular
      ids (``min(num_popular, num_items)`` wide, mined order).

    Baselines live in a shared :class:`ObservationLedger`.
    """

    def __init__(
        self,
        num_items: int,
        mining_rounds: int,
        num_popular: int,
        num_clients: int,
    ):
        if mining_rounds < 1:
            raise ValueError("mining_rounds must be >= 1")
        if num_popular < 1:
            raise ValueError("num_popular must be >= 1")
        self.num_items = num_items
        self.mining_rounds = mining_rounds
        self.num_popular = min(num_popular, num_items)
        self.accumulated = np.zeros((num_clients, num_items))
        self.observations = np.zeros(num_clients, dtype=np.int64)
        self.last_round = np.full(num_clients, -1, dtype=np.int64)
        self.ready = np.zeros(num_clients, dtype=bool)
        self.mined = np.full((num_clients, self.num_popular), -1, dtype=np.int64)
        self.ledger = ObservationLedger()

    @property
    def all_ready(self) -> bool:
        """Whether every client's popular set is frozen."""
        return bool(self.ready.all())

    @property
    def snapshot_copies(self) -> int:
        """Item-matrix copies taken so far (O(rounds), not O(team))."""
        return self.ledger.copies

    def live_snapshots(self) -> int:
        """How many round snapshots the ledger currently retains."""
        return len(self.ledger)

    def observe(
        self, rows: np.ndarray, item_matrix: np.ndarray, round_idx: int
    ) -> None:
        """Feed this round's item matrix to the sampled clients ``rows``.

        Already-ready rows are skipped (their sets are frozen, exactly
        like :meth:`PopularItemMiner.observe` returning early).
        """
        rows = np.asarray(rows, dtype=np.int64)
        rows = rows[~self.ready[rows]]
        if not len(rows):
            return
        if item_matrix.shape[0] != self.num_items:
            raise ValueError(
                f"expected {self.num_items} items, got {item_matrix.shape[0]}"
            )

        seen_before = rows[self.observations[rows] > 0]
        self.ledger.accumulate(
            self.accumulated, seen_before, self.last_round[seen_before], item_matrix
        )
        self.observations[rows] += 1
        num_deltas = self.observations[rows] - 1
        freezing = rows[num_deltas >= self.mining_rounds]
        staying = rows[num_deltas < self.mining_rounds]

        # One shared baseline copy for every client that still needs a
        # next-round delta.
        self.ledger.retain(round_idx, item_matrix, len(staying))
        self.last_round[staying] = round_idx

        if len(freezing):
            order = np.argsort(-self.accumulated[freezing], axis=1, kind="stable")
            self.mined[freezing] = order[:, : self.num_popular]
            self.ready[freezing] = True
        self.ledger.collect()


class PopulationMiner:
    """Algorithm 1 for every user of an open-ended, sparsely sampled population.

    The benign side of the regularization defense runs one miner per
    benign user, but a round samples a few dozen of them, most users
    have not been sampled yet, and a user stops needing its
    accumulator the round its set freezes.  State is therefore keyed
    by user id and sized by what is live:

    * an index — sorted ``ids`` of every user observed so far, with a
      code per user: ``>= 0`` is a slot of the mining pool, ``< 0``
      encodes row ``-(code + 1)`` of ``mined``;
    * the mining pool — Δ-Norm accumulator rows ``(mining users,
      num_items)`` plus per-slot observation counts, last-observation
      rounds and owners, kept dense in ``[0, num_mining)`` by moving
      the last live slots into the holes freezing users leave;
    * ``mined`` — one ``(ready users, num_popular)`` int array, rows in
      freezing order;
    * the shared :class:`ObservationLedger` of baselines.

    Nothing is allocated per user at construction, and retained memory
    grows only with ledger rounds x items x dim, mining users x items
    and ready users x ``num_popular`` — never with distinct users x
    items x dim.  Bit-identical to one :class:`PopularItemMiner` per
    user (the differential suite in ``tests/test_regularization.py``).
    """

    #: Smallest pool/``mined`` capacity allocated once a row is needed.
    _MIN_CAPACITY = 16

    def __init__(self, num_items: int, mining_rounds: int, num_popular: int):
        if mining_rounds < 1:
            raise ValueError("mining_rounds must be >= 1")
        if num_popular < 1:
            raise ValueError("num_popular must be >= 1")
        self.num_items = num_items
        self.mining_rounds = mining_rounds
        self.num_popular = min(num_popular, num_items)
        self.ledger = ObservationLedger()
        self._ids = np.empty(0, dtype=np.int64)
        self._codes = np.empty(0, dtype=np.int64)
        self.num_mining = 0
        self._accumulated = np.empty((0, num_items))
        self._observations = np.empty(0, dtype=np.int64)
        self._last_round = np.empty(0, dtype=np.int64)
        self._owners = np.empty(0, dtype=np.int64)
        self.num_ready = 0
        self._mined = np.empty((0, self.num_popular), dtype=np.int64)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def mined(self) -> np.ndarray:
        """Every frozen popular set, one row per ready user."""
        return self._mined[: self.num_ready]

    def _lookup(self, user_ids: np.ndarray) -> np.ndarray:
        """Index code of each user; ``_UNSEEN`` for first-time users."""
        codes = np.full(len(user_ids), _UNSEEN, dtype=np.int64)
        if len(self._ids):
            pos = np.minimum(np.searchsorted(self._ids, user_ids), len(self._ids) - 1)
            known = self._ids[pos] == user_ids
            codes[known] = self._codes[pos[known]]
        return codes

    def mined_sets(self, user_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, sets)`` of the ready users among ``user_ids``.

        ``positions`` index into ``user_ids`` (ascending);
        ``sets[i]`` is the mined popular set of
        ``user_ids[positions[i]]``, most popular first.
        """
        codes = self._lookup(np.asarray(user_ids, dtype=np.int64))
        ready = np.flatnonzero(codes < 0)
        return ready, self._mined[-(codes[ready] + 1)]

    def accumulator(self, user_id: int) -> np.ndarray | None:
        """A still-mining user's Δ-Norm accumulator (``None`` otherwise)."""
        code = int(self._lookup(np.array([user_id], dtype=np.int64))[0])
        if code < 0 or code == _UNSEEN:
            return None
        return self._accumulated[code]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(
        self, user_ids: np.ndarray, item_matrix: np.ndarray, round_idx: int
    ) -> None:
        """Feed this round's item matrix to the sampled users ``user_ids``.

        ``user_ids`` are distinct (the server samples without
        replacement).  Ready users are skipped (their sets are frozen, exactly like
        :meth:`PopularItemMiner.observe` returning early); first-time
        users get a fresh accumulator row.
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        codes = self._lookup(user_ids)
        fresh = user_ids[codes == _UNSEEN]
        slots = codes[(codes >= 0) & (codes != _UNSEEN)]
        if not len(slots) and not len(fresh):
            return
        if item_matrix.shape[0] != self.num_items:
            raise ValueError(
                f"expected {self.num_items} items, got {item_matrix.shape[0]}"
            )
        if len(fresh):
            slots = np.concatenate([slots, self._admit(fresh)])

        seen_before = slots[self._observations[slots] > 0]
        self.ledger.accumulate(
            self._accumulated, seen_before, self._last_round[seen_before], item_matrix
        )
        self._observations[slots] += 1
        num_deltas = self._observations[slots] - 1
        freezing = slots[num_deltas >= self.mining_rounds]
        staying = slots[num_deltas < self.mining_rounds]

        self.ledger.retain(round_idx, item_matrix, len(staying))
        self._last_round[staying] = round_idx

        if len(freezing):
            order = np.argsort(-self._accumulated[freezing], axis=1, kind="stable")
            rows = self._append_mined(order[:, : self.num_popular])
            owners = self._owners[freezing]
            self._codes[np.searchsorted(self._ids, owners)] = -(rows + 1)
            self._release(freezing)
        self.ledger.collect()

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------

    @staticmethod
    def _resized(array: np.ndarray, used: int, capacity: int) -> np.ndarray:
        grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
        grown[:used] = array[:used]
        return grown

    def _admit(self, fresh: np.ndarray) -> np.ndarray:
        """Give first-time users pool slots and index entries."""
        start = self.num_mining
        end = start + len(fresh)
        if end > len(self._owners):
            capacity = max(2 * len(self._owners), end, self._MIN_CAPACITY)
            self._accumulated = self._resized(self._accumulated, start, capacity)
            self._observations = self._resized(self._observations, start, capacity)
            self._last_round = self._resized(self._last_round, start, capacity)
            self._owners = self._resized(self._owners, start, capacity)
        new_slots = np.arange(start, end, dtype=np.int64)
        self._accumulated[start:end] = 0.0
        self._observations[start:end] = 0
        self._last_round[start:end] = -1
        self._owners[start:end] = fresh
        self.num_mining = end
        order = np.argsort(fresh)
        at = np.searchsorted(self._ids, fresh[order])
        self._ids = np.insert(self._ids, at, fresh[order])
        self._codes = np.insert(self._codes, at, new_slots[order])
        return new_slots

    def _append_mined(self, sets: np.ndarray) -> np.ndarray:
        """Store newly frozen sets; returns their ``mined`` rows."""
        start = self.num_ready
        end = start + len(sets)
        if end > len(self._mined):
            capacity = max(2 * len(self._mined), end, self._MIN_CAPACITY)
            self._mined = self._resized(self._mined, start, capacity)
        self._mined[start:end] = sets
        self.num_ready = end
        return np.arange(start, end, dtype=np.int64)

    def _release(self, slots: np.ndarray) -> None:
        """Free the pool slots of users whose sets just froze.

        The last live slots move into the holes (their index codes
        follow), so live slots stay dense; the pool shrinks by half
        once it is under a quarter full, so its size tracks the users
        still mining rather than the peak.
        """
        live = self.num_mining - len(slots)
        holes = np.sort(slots[slots < live])
        tail = np.arange(live, self.num_mining, dtype=np.int64)
        movers = tail[~np.isin(tail, slots)]
        if len(holes):
            self._accumulated[holes] = self._accumulated[movers]
            self._observations[holes] = self._observations[movers]
            self._last_round[holes] = self._last_round[movers]
            self._owners[holes] = self._owners[movers]
            self._codes[np.searchsorted(self._ids, self._owners[holes])] = holes
        self.num_mining = live
        capacity = len(self._owners)
        if live < capacity // 4 and capacity > self._MIN_CAPACITY:
            capacity = max(2 * live, self._MIN_CAPACITY) if live else 0
            self._accumulated = self._resized(self._accumulated, live, capacity)
            self._observations = self._resized(self._observations, live, capacity)
            self._last_round = self._resized(self._last_round, live, capacity)
            self._owners = self._resized(self._owners, live, capacity)
