"""The paper's client-side regularization defense (Section V-B).

Each *benign* client mines popular items itself (the same Algorithm 1
the attacker uses) and trains with the combined loss of Eq. 16:

``L_def = L_i - beta * Re1 - gamma * Re2``

* **Re1** (Eq. 14) is the kappa'-weighted mean cosine similarity
  between the client's unpopular local items and the mined popular
  items. Maximising it blurs the distinction between popular and
  unpopular item features, so PIECK-IPE can no longer counterfeit a
  target as distinctly "popular" (counters finding F2).
* **Re2** (Eq. 15) is the kappa'-weighted KL divergence between the
  mined popular item embeddings and the user embedding. Maximising it
  separates the user-embedding distribution from the popular-item
  distribution, so PIECK-UEA's approximation becomes inaccurate
  (counters finding F3).

Minimising ``L_def`` therefore *maximises* both terms, while the
original loss term preserves recommendation quality.

Two executions of the defense live here:

* :class:`ClientRegularizer` — the struct-of-arrays defense for *all*
  benign clients of a simulation, driven by the batch engine once per
  round with the whole benign stack: mining through a shared
  :class:`~repro.attacks.mining.PopulationMiner` ledger, Re1 / Re2 /
  tower terms as segment ops over the stacked rows;
* :class:`ReferenceRegularizer` — one object per benign client, the
  loop engine's executable oracle.

Both share one pinned arithmetic order for the non-elementwise steps
— Re1's weighted cosine sum taken as one dot with the weighted unit
popular vector, its norms and dots accumulated over the embedding axis
in order, :func:`_rank_weighted_sum` over the mined ranks — so the two
are bit-identical client by client.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.mining import PopularItemMiner, PopulationMiner
from repro.config import DefenseConfig
from repro.metrics.divergence import softmax
from repro.models.base import segment_starts
from repro.models.losses import sigmoid

__all__ = [
    "ClientRegularizer",
    "ReferenceRegularizer",
    "exponential_rank_weights",
    "re1_value",
    "re2_value",
]

_EPS = 1e-12


def exponential_rank_weights(size: int) -> np.ndarray:
    """kappa': normalised exponential inverse-rank weights.

    The paper uses an exponential form so the defense focuses on the
    very most popular items (footnote 9). Item at mined rank ``i``
    (0 = most popular) receives weight proportional to ``exp(-i)``.
    """
    weights = np.exp(-np.arange(size, dtype=np.float64))
    return weights / weights.sum()


def re1_value(
    unpopular_vecs: np.ndarray, popular_vecs: np.ndarray, weights: np.ndarray
) -> float:
    """Re1 (Eq. 14): weighted mean popular/unpopular cosine similarity."""
    if len(unpopular_vecs) == 0:
        return 0.0
    u_norms = np.linalg.norm(unpopular_vecs, axis=1) + _EPS
    p_norms = np.linalg.norm(popular_vecs, axis=1) + _EPS
    cosines = (popular_vecs @ unpopular_vecs.T) / np.outer(p_norms, u_norms)
    return float((weights @ cosines).mean())


def re2_value(
    popular_vecs: np.ndarray, user_vec: np.ndarray, weights: np.ndarray
) -> float:
    """Re2 (Eq. 15): weighted KL between popular items and the user."""
    p = softmax(popular_vecs)
    q = softmax(user_vec)
    kls = np.sum(p * (np.log(p + _EPS) - np.log(q + _EPS)), axis=1)
    return float(weights @ kls)


def _rank_weighted_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] * rows[..., k, :]``, accumulated in rank order.

    The one reduction over the mined ranks both regularizers share:
    an explicit sequential loop, so a single client's ``(N, d)`` block
    and a stacked ``(clients, N, d)`` block round identically.
    """
    total = weights[0] * rows[..., 0, :]
    for rank in range(1, len(weights)):
        total = total + weights[rank] * rows[..., rank, :]
    return total


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    """Rows scaled by ``1 / (||row|| + eps)`` (any leading shape)."""
    return vecs / (np.linalg.norm(vecs, axis=-1) + _EPS)[..., None]


def _re1_columns(
    vecs: np.ndarray,
    weighted_pop: np.ndarray,
    owners: np.ndarray,
    scale: np.ndarray | float,
) -> np.ndarray:
    """``-beta * dRe1/dv_j`` for unpopular item vectors, column-wise.

    ``vecs`` is ``(d, m)``, one column per unpopular item (a private
    buffer: it is overwritten with the result).  ``weighted_pop`` is
    ``(d, clients)``: column ``c`` holds ``w = sum_k kappa'_k p_k /
    |p_k|`` of client ``c``, and ``owners[j]`` names the client of
    item ``j``.  Then ``sum_k kappa'_k cos(p_k, v_j) = w . v_j / |v_j|``
    and its gradient is ``w / |v_j| - (w . v_j) v_j / |v_j|^3``;
    ``scale`` is ``-beta / |Delta D_i|`` (Re1 averages over the
    client's unpopular items).  Dots accumulate over ``d`` in order,
    and every pass runs along the ``m`` items with item-length
    temporaries only.
    """
    norms_sq = vecs[0] * vecs[0]
    dots = vecs[0] * weighted_pop[0].take(owners)
    for k in range(1, len(vecs)):
        norms_sq += vecs[k] * vecs[k]
        dots += vecs[k] * weighted_pop[k].take(owners)
    v_norms = np.sqrt(norms_sq)
    v_norms += _EPS
    along_pop = scale / v_norms
    along_vec = along_pop * (dots / (v_norms * v_norms))
    for k in range(len(vecs)):
        column = weighted_pop[k].take(owners) * along_pop
        column -= vecs[k] * along_vec
        vecs[k] = column
    return vecs


class ReferenceRegularizer:
    """One benign client's defense state and gradient terms (the oracle).

    The hook protocol used by :class:`repro.federated.BenignClient`
    under the loop engine:

    * ``observe(item_matrix)`` — feed the received global item matrix
      into the client's own popular item miner;
    * ``item_grad_terms(item_ids, item_matrix)`` — extra gradient rows
      for the local batch implementing ``-beta * dRe1/dv_j``;
    * ``user_grad_term(user_emb, item_matrix)`` — extra user-embedding
      gradient implementing ``-gamma * dRe2/du_i``;
    * ``param_grad_terms(model, item_ids)`` — the tower-level Re2 term
      (DL-FRS only).

    Before the miner is ready every term is zero (the client simply
    trains normally while accumulating Δ-Norm observations).
    :class:`ClientRegularizer` runs the same arithmetic for all
    clients at once.
    """

    #: Relative strength of the tower-level Re2 term (DL-FRS only).
    TOWER_WEIGHT = 0.5
    #: Local items paired with each pseudo-user in the tower-level term.
    TOWER_ITEM_BATCH = 8

    def __init__(self, num_items: int, config: DefenseConfig):
        self.config = config
        self.miner = PopularItemMiner(
            num_items, config.mining_rounds, config.num_popular
        )

    def observe(self, item_matrix: np.ndarray) -> None:
        """Feed one received item matrix into the miner."""
        self.miner.observe(item_matrix)

    def item_grad_terms(
        self, item_ids: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-beta * Re1`` w.r.t. the local batch items."""
        grads = np.zeros((len(item_ids), item_matrix.shape[1]))
        if not self.miner.ready or self.config.beta == 0.0:
            return grads
        popular = self.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        weighted_pop = _rank_weighted_sum(weights, _unit_rows(item_matrix[popular]))
        unpopular_rows = np.flatnonzero(~np.isin(item_ids, popular))
        if len(unpopular_rows) == 0:
            return grads
        grads[unpopular_rows] = _re1_columns(
            item_matrix[item_ids[unpopular_rows]].T,
            weighted_pop[:, None],
            np.zeros(len(unpopular_rows), dtype=np.int64),
            -self.config.beta / len(unpopular_rows),
        ).T
        return grads

    def user_grad_term(
        self, user_emb: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """Gradient of ``-gamma * Re2`` w.r.t. the user embedding."""
        if not self.miner.ready or self.config.gamma == 0.0:
            return np.zeros_like(user_emb)
        popular = self.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        # sum_k kappa'_k * (softmax(u) - softmax(v_k)) collapses to
        # softmax(u) - sum_k kappa'_k softmax(v_k) since weights sum to 1.
        q = softmax(user_emb)
        p_mean = _rank_weighted_sum(weights, softmax(item_matrix[popular]))
        return -self.config.gamma * (q - p_mean)

    def param_grad_terms(self, model, item_ids: np.ndarray) -> list[np.ndarray]:
        """Re2 through the learnable interaction function (DL-FRS only).

        On DL-FRS, separating the user-embedding *distribution* is not
        enough: the learnable tower can still map (popular-item-as-user,
        target) pairs to high scores regardless of where real users
        live. This term realises Re2's goal — "user embeddings inferred
        from popular item embeddings are inherently inaccurate" — at
        the tower level: each benign client trains the interaction
        function to score pseudo-users built from its own mined popular
        items *low* on its local items, so an attacker approximating
        users with popular embeddings (PIECK-UEA) optimises against a
        channel the federation actively closes. Returns one gradient
        per interaction parameter; empty for MF-FRS.
        """
        params = model.interaction_params()
        if not params:
            return []
        if not self.miner.ready or self.config.gamma == 0.0:
            return [np.zeros_like(p) for p in params]
        popular = self.miner.popular_items()
        pseudo_users = model.item_embeddings[popular]
        items = model.item_embeddings[item_ids[: self.TOWER_ITEM_BATCH]]
        # All (pseudo-user, local item) pairs, trained towards label 0.
        n_pairs = len(pseudo_users) * len(items)
        users_rep = np.repeat(pseudo_users, len(items), axis=0)
        items_rep = np.tile(items, (len(pseudo_users), 1))
        _, cache = model.forward(users_rep, items_rep)
        dlogits = sigmoid(_tower_logits(model, cache)) / n_pairs
        bundle = model.backward(cache, dlogits)
        weight = self.TOWER_WEIGHT * self.config.gamma
        # Confine the correction to the *user-slot* columns of the first
        # layer: that is the exact channel a pseudo-user enters through.
        # Touching the item half (or deeper layers) would suppress the
        # tower's scoring of real pairs and collapse recommendation
        # quality instead of closing the approximation channel.
        grads = [np.zeros_like(p) for p in params]
        first = bundle.params[0]
        user_dims = model.embedding_dim
        grads[0][:user_dims] = weight * first[:user_dims]
        return grads


class ClientRegularizer:
    """The regularization defense for every benign client, batched.

    One instance serves a whole simulation.  The batch engine calls
    each method at most once per round with the round's benign stack —
    ``user_ids`` in participation order and, where rows are involved,
    the ragged row-stack (client ``k`` owns ``lengths[k]`` contiguous
    rows of ``item_ids``):

    * ``observe(user_ids, item_matrix, round_idx)`` — Algorithm 1 for
      every sampled client through one :class:`PopulationMiner`
      (shared per-round baselines; accumulators only for users still
      mining; mined sets as one ``(ready users, N)`` int array);
    * ``item_grad_terms(user_ids, item_ids, lengths, item_matrix)`` —
      ``-beta * dRe1/dv_j`` for every stacked row;
    * ``user_grad_term(user_ids, user_vecs, item_matrix)`` —
      ``-gamma * dRe2/du_i`` for every client;
    * ``param_grad_terms(model, user_ids, item_ids, lengths)`` — the
      tower-level Re2 term as per-client parameter stacks (DL-FRS;
      empty list for MF-FRS).

    Client by client the results are bit-identical to one
    :class:`ReferenceRegularizer` per user fed the same rounds.
    """

    TOWER_WEIGHT = ReferenceRegularizer.TOWER_WEIGHT
    TOWER_ITEM_BATCH = ReferenceRegularizer.TOWER_ITEM_BATCH

    def __init__(self, num_items: int, config: DefenseConfig):
        self.config = config
        self.miner = PopulationMiner(
            num_items, config.mining_rounds, config.num_popular
        )
        self.weights = exponential_rank_weights(self.miner.num_popular)

    def observe(
        self, user_ids: np.ndarray, item_matrix: np.ndarray, round_idx: int
    ) -> None:
        """Feed this round's item matrix to every sampled client's miner."""
        self.miner.observe(user_ids, item_matrix, round_idx)

    def item_grad_terms(
        self,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        lengths: np.ndarray,
        item_matrix: np.ndarray,
    ) -> np.ndarray:
        """``-beta * dRe1/dv_j`` for every row of the stack (zeros elsewhere)."""
        grads = np.zeros((len(item_ids), item_matrix.shape[1]))
        if self.config.beta == 0.0:
            return grads
        clients, mined = self.miner.mined_sets(user_ids)
        if not len(clients):
            return grads
        weighted_pop = _rank_weighted_sum(self.weights, _unit_rows(item_matrix[mined]))
        rows, owners = _segment_rows(segment_starts(lengths)[clients], lengths[clients])
        is_popular = np.zeros((len(clients), item_matrix.shape[0]), dtype=bool)
        is_popular[np.arange(len(clients))[:, None], mined] = True
        unpopular = ~is_popular[owners, item_ids[rows]]
        rows, owners = rows[unpopular], owners[unpopular]
        if not len(rows):
            return grads
        scales = -self.config.beta / np.bincount(owners)[owners]
        grads[rows] = _re1_columns(
            np.ascontiguousarray(item_matrix.T).take(item_ids[rows], axis=1),
            np.ascontiguousarray(weighted_pop.T),
            owners,
            scales,
        ).T
        return grads

    def user_grad_term(
        self, user_ids: np.ndarray, user_vecs: np.ndarray, item_matrix: np.ndarray
    ) -> np.ndarray:
        """``-gamma * dRe2/du_i`` for every client (zeros before ready)."""
        grads = np.zeros_like(user_vecs)
        if self.config.gamma == 0.0:
            return grads
        clients, mined = self.miner.mined_sets(user_ids)
        if not len(clients):
            return grads
        q = softmax(user_vecs[clients])
        p_mean = _rank_weighted_sum(self.weights, softmax(item_matrix[mined]))
        grads[clients] = -self.config.gamma * (q - p_mean)
        return grads

    def param_grad_terms(
        self,
        model,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        lengths: np.ndarray,
    ) -> list[np.ndarray]:
        """Per-client tower-term stacks, one ``(clients, *shape)`` per parameter.

        Every ready client's (pseudo-user, local item) pairs run through
        one flattened tower forward; the per-client parameter
        reductions are :meth:`~repro.models.mlp.MLPTower.backward_segmented`'s
        (see :meth:`ReferenceRegularizer.param_grad_terms` for the term).
        """
        params = model.interaction_params()
        if not params:
            return []
        stacks = [np.zeros((len(user_ids),) + p.shape, dtype=p.dtype) for p in params]
        if self.config.gamma == 0.0:
            return stacks
        clients, mined = self.miner.mined_sets(user_ids)
        if not len(clients):
            return stacks
        batch = np.minimum(lengths[clients], self.TOWER_ITEM_BATCH)
        n_pairs = mined.shape[1] * batch
        pairs, owners = _segment_rows(np.zeros(len(clients), dtype=np.int64), n_pairs)
        rank, col = np.divmod(pairs, batch[owners])
        item_rows = segment_starts(lengths)[clients][owners] + col
        _, cache = model.forward(
            model.item_embeddings[mined[owners, rank]],
            model.item_embeddings[item_ids[item_rows]],
        )
        dlogits = sigmoid(_tower_logits(model, cache)) / n_pairs[owners]
        _, grads = model.tower.backward_segmented(
            cache, dlogits, segment_starts(n_pairs), n_pairs, resolve=frozenset({0})
        )
        user_dims = model.embedding_dim
        weight = self.TOWER_WEIGHT * self.config.gamma
        stacks[0][clients, :user_dims] = weight * grads[0][:, :user_dims]
        return stacks


def _tower_logits(model, cache: list[np.ndarray]) -> np.ndarray:
    """The tower's logits for the rows of ``cache``, as a row-wise sum.

    ``cache[-1] @ projection`` is a BLAS matrix-vector product whose
    per-row rounding depends on how many rows are stacked; the tower
    term recomputes the logits elementwise with a per-row reduction,
    so one client's pairs and every client's stacked pairs agree bit
    for bit.
    """
    return (cache[-1] * model.tower.projection).sum(axis=1)


def _segment_rows(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``starts[k] + [0, lengths[k])`` and their owner ``k``."""
    owners = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    offsets = np.arange(len(owners), dtype=np.int64) - np.repeat(
        segment_starts(lengths), lengths
    )
    return starts[owners] + offsets, owners
