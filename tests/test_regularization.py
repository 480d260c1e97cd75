"""Tests for the client-side regularization defense (Section V-B)."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DefenseConfig
from repro.defenses.regularization import (
    ClientRegularizer,
    ReferenceRegularizer,
    exponential_rank_weights,
    re1_value,
    re2_value,
)
from repro.rng import make_rng
from tests.conftest import numeric_gradient


def ready_regularizer(num_items=12, dim=4, beta=0.5, gamma=0.5, num_popular=3, seed=0):
    """A regularizer fed enough snapshots that its miner is ready."""
    reg = ReferenceRegularizer(
        num_items,
        DefenseConfig(
            name="regularization", beta=beta, gamma=gamma,
            num_popular=num_popular, mining_rounds=2,
        ),
    )
    rng = make_rng(seed)
    matrix = rng.normal(size=(num_items, dim))
    hot = np.arange(num_popular)
    for _ in range(3):
        matrix = matrix.copy()
        matrix[hot] += rng.normal(scale=2.0, size=(num_popular, dim))
        reg.observe(matrix)
    return reg, matrix, hot


class TestWeights:
    def test_normalised(self):
        weights = exponential_rank_weights(5)
        assert weights.sum() == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        weights = exponential_rank_weights(6)
        assert (np.diff(weights) < 0).all()

    def test_exponential_shape(self):
        weights = exponential_rank_weights(4)
        ratios = weights[1:] / weights[:-1]
        np.testing.assert_allclose(ratios, np.exp(-1.0))


class TestBeforeReady:
    def test_zero_grads_before_mining_completes(self):
        reg = ReferenceRegularizer(10, DefenseConfig(name="regularization"))
        reg.observe(np.zeros((10, 4)))
        item_grads = reg.item_grad_terms(np.array([1, 2]), np.zeros((10, 4)))
        np.testing.assert_array_equal(item_grads, 0.0)
        user_grad = reg.user_grad_term(np.ones(4), np.zeros((10, 4)))
        np.testing.assert_array_equal(user_grad, 0.0)


class TestRe1:
    def test_item_grads_increase_re1(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8, 9])
        grads = reg.item_grad_terms(batch, matrix)
        # Simulated server step: v <- v - grad (lr=1); Re1 must increase.
        before = re1_value(matrix[batch], matrix[popular], weights)
        moved = matrix.copy()
        moved[batch] -= grads
        after = re1_value(moved[batch], moved[popular], weights)
        assert after > before

    def test_popular_items_in_batch_get_zero_grad(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.popular_items()
        batch = np.array([int(popular[0]), 9])
        grads = reg.item_grad_terms(batch, matrix)
        np.testing.assert_array_equal(grads[0], 0.0)
        assert np.abs(grads[1]).sum() > 0

    def test_grad_matches_numeric(self):
        reg, matrix, hot = ready_regularizer(beta=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8])

        def negative_re1_of_item(vec):
            vecs = matrix[batch].copy()
            vecs[0] = vec
            return -re1_value(vecs, matrix[popular], weights)

        grads = reg.item_grad_terms(batch, matrix)
        numeric = numeric_gradient(negative_re1_of_item, matrix[batch[0]].copy())
        np.testing.assert_allclose(grads[0], numeric, atol=1e-6)

    def test_beta_zero_disables(self):
        reg, matrix, _ = ready_regularizer(beta=0.0)
        grads = reg.item_grad_terms(np.array([7]), matrix)
        np.testing.assert_array_equal(grads, 0.0)


class TestRe2:
    def test_user_grad_increases_re2(self):
        reg, matrix, hot = ready_regularizer(gamma=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        user = make_rng(3).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        before = re2_value(matrix[popular], user, weights)
        after = re2_value(matrix[popular], user - grad, weights)
        assert after > before

    def test_grad_matches_numeric(self):
        reg, matrix, _ = ready_regularizer(gamma=1.0)
        popular = reg.miner.popular_items()
        weights = exponential_rank_weights(len(popular))
        user = make_rng(4).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        numeric = numeric_gradient(
            lambda u: -re2_value(matrix[popular], u, weights), user.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_gamma_zero_disables(self):
        reg, matrix, _ = ready_regularizer(gamma=0.0)
        grad = reg.user_grad_term(np.ones(4), matrix)
        np.testing.assert_array_equal(grad, 0.0)


class TestValues:
    def test_re1_empty_unpopular(self):
        weights = exponential_rank_weights(2)
        assert re1_value(np.zeros((0, 3)), np.ones((2, 3)), weights) == 0.0

    def test_re2_non_negative(self):
        rng = make_rng(5)
        popular = rng.normal(size=(3, 4))
        weights = exponential_rank_weights(3)
        assert re2_value(popular, rng.normal(size=4), weights) >= 0.0


class TestTowerTerm:
    def test_mf_returns_empty(self):
        from repro.models.mf import MFModel

        reg, matrix, _ = ready_regularizer()
        assert reg.param_grad_terms(MFModel(12, 4, seed=0), np.array([1])) == []

    def test_zero_before_ready(self):
        from repro.models.ncf import NCFModel

        reg = ReferenceRegularizer(12, DefenseConfig(name="regularization"))
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([1, 2]))
        assert all((g == 0).all() for g in grads)

    def test_confined_to_user_slot_of_first_layer(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        model.item_embeddings[...] = matrix
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        assert len(grads) == len(model.interaction_params())
        # Only the user-slot rows of W1 carry gradient.
        assert np.abs(grads[0][:4]).sum() > 0
        assert np.abs(grads[0][4:]).sum() == 0
        assert all((g == 0).all() for g in grads[1:])

    def test_gamma_zero_disables(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(gamma=0.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([7]))
        assert all((g == 0).all() for g in grads)

    def test_server_step_lowers_pseudo_user_scores(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4, gamma=1.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=3)
        model.item_embeddings[...] = matrix
        popular = reg.miner.popular_items()
        pseudo = model.item_embeddings[popular]
        items = model.item_embeddings[[7, 8, 9]]
        users_rep = np.repeat(pseudo, len(items), axis=0)
        items_rep = np.tile(items, (len(pseudo), 1))
        before, _ = model.forward(users_rep, items_rep)
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        model.apply_param_update([-1.0 * g for g in grads])
        after, _ = model.forward(users_rep, items_rep)
        assert after.mean() < before.mean()


# ----------------------------------------------------------------------
# Batched ClientRegularizer vs one ReferenceRegularizer per user
# ----------------------------------------------------------------------


@st.composite
def defense_schedules(draw):
    """A random defended population: sizes, knobs and who is sampled when."""
    num_users = draw(st.integers(1, 9))
    rounds = draw(st.integers(1, 8))
    return {
        "kind": draw(st.sampled_from(["mf", "ncf"])),
        "mlp_layers": draw(st.sampled_from([(8,), (32, 16)])),
        "num_items": draw(st.integers(4, 18)),
        "dim": draw(st.sampled_from([4, 6, 8, 16])),
        "num_popular": draw(st.integers(1, 5)),
        "mining_rounds": draw(st.integers(1, 3)),
        "beta": draw(st.sampled_from([0.0, 0.7])),
        "gamma": draw(st.sampled_from([0.0, 0.5])),
        "schedule": draw(
            st.lists(
                st.lists(
                    st.integers(0, num_users - 1), unique=True, max_size=num_users
                ),
                min_size=rounds,
                max_size=rounds,
            )
        ),
        "seed": draw(st.integers(0, 2**16)),
    }


def _segment(rng, oracle, num_items):
    """A local batch of distinct items, sometimes popular-only."""
    popular = oracle.miner.popular_items() if oracle.miner.ready else []
    if len(popular) >= 2 and rng.random() < 0.3:
        size = int(rng.integers(2, len(popular) + 1))
        return rng.choice(popular, size=size, replace=False)
    size = int(rng.integers(2, min(num_items, 12) + 1))
    return rng.choice(num_items, size=size, replace=False)


class TestBatchedMatchesOracle:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(defense_schedules())
    def test_round_by_round_bit_identity(self, case):
        from repro.models.mf import MFModel
        from repro.models.ncf import NCFModel

        num_items, dim = case["num_items"], case["dim"]
        config = DefenseConfig(
            name="regularization",
            beta=case["beta"],
            gamma=case["gamma"],
            num_popular=case["num_popular"],
            mining_rounds=case["mining_rounds"],
        )
        rng = make_rng(case["seed"])
        model = (
            NCFModel(num_items, dim, mlp_layers=case["mlp_layers"], seed=case["seed"])
            if case["kind"] == "ncf"
            else MFModel(num_items, dim, seed=case["seed"])
        )
        batched = ClientRegularizer(num_items, config)
        oracles: dict[int, ReferenceRegularizer] = {}
        hot = rng.choice(num_items, size=min(3, num_items), replace=False)
        for round_idx, sampled in enumerate(case["schedule"]):
            # A drifting global model whose hot items move the most.
            model.item_embeddings[...] += rng.normal(
                scale=0.05, size=(num_items, dim)
            )
            model.item_embeddings[hot] += rng.normal(scale=0.5, size=(len(hot), dim))
            matrix = model.item_embeddings
            ids = np.array(sampled, dtype=np.int64)
            for user in sampled:
                oracles.setdefault(user, ReferenceRegularizer(num_items, config))

            batched.observe(ids, matrix, round_idx)
            for user in sampled:
                oracles[user].observe(matrix)

            positions, sets = batched.miner.mined_sets(ids)
            assert positions.tolist() == [
                i for i, user in enumerate(sampled) if oracles[user].miner.ready
            ]
            for position, mined in zip(positions, sets):
                assert np.array_equal(
                    mined, oracles[sampled[position]].miner.popular_items()
                )
            for user in sampled:
                if not oracles[user].miner.ready:
                    assert np.array_equal(
                        batched.miner.accumulator(user),
                        oracles[user].miner._tracker.accumulated,
                    )

            segments = [_segment(rng, oracles[user], num_items) for user in sampled]
            item_ids = (
                np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
            )
            lengths = np.array([len(s) for s in segments], dtype=np.int64)
            user_vecs = rng.normal(size=(len(sampled), dim))

            item_terms = batched.item_grad_terms(ids, item_ids, lengths, matrix)
            expected = [
                oracles[user].item_grad_terms(segment, matrix)
                for user, segment in zip(sampled, segments)
            ]
            assert item_terms.shape == (len(item_ids), dim)
            if expected:
                assert np.array_equal(item_terms, np.concatenate(expected))

            user_terms = batched.user_grad_term(ids, user_vecs, matrix)
            for row, user in enumerate(sampled):
                assert np.array_equal(
                    user_terms[row],
                    oracles[user].user_grad_term(user_vecs[row], matrix),
                )

            stacks = batched.param_grad_terms(model, ids, item_ids, lengths)
            for row, (user, segment) in enumerate(zip(sampled, segments)):
                terms = oracles[user].param_grad_terms(model, segment)
                assert len(terms) == len(stacks)
                for stack, term in zip(stacks, terms):
                    assert np.array_equal(stack[row], term)


# ----------------------------------------------------------------------
# Memory: what the batched defense retains
# ----------------------------------------------------------------------


class TestRetainedMemory:
    def _retained(self, population: int, rounds: int = 30, per_round: int = 40):
        """Bytes a ClientRegularizer retains after a sampled run, plus its bound."""
        num_items, dim, num_popular = 400, 8, 5
        config = DefenseConfig(
            name="regularization", num_popular=num_popular, mining_rounds=2
        )
        rng = make_rng(population)
        schedule = [
            rng.choice(population, size=per_round, replace=False)
            for _ in range(rounds)
        ]
        matrix = rng.normal(size=(num_items, dim))
        gc.collect()
        tracemalloc.start()
        try:
            reg = ClientRegularizer(num_items, config)
            baseline = tracemalloc.get_traced_memory()[0]
            for round_idx, ids in enumerate(schedule):
                matrix = matrix + rng.normal(scale=0.1, size=matrix.shape)
                reg.observe(ids, matrix, round_idx)
            del matrix
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        miner = reg.miner
        seen = miner.num_mining + miner.num_ready
        # Allowed terms only: ledger rounds x items x dim, mining users x
        # items (pool capacity stays within 8x its live rows, or its
        # minimum), ready users x num_popular (capacity within 2x), the
        # sorted id index, and a fixed allowance for the Python objects.
        bound = (
            len(miner.ledger) * num_items * dim * 8
            + 8 * max(miner.num_mining, miner._MIN_CAPACITY) * (num_items + 3) * 8
            + 2 * max(miner.num_ready, miner._MIN_CAPACITY) * num_popular * 8
            + 2 * seen * 8
            + 64 * 1024
        )
        distinct = len(np.unique(np.concatenate(schedule)))
        return retained, bound, distinct, miner

    @pytest.mark.parametrize("population", [60, 1200])
    def test_retained_bytes_within_allowed_terms(self, population):
        retained, bound, distinct, miner = self._retained(population)
        assert miner.num_ready > 0
        assert len(miner.ledger) <= 30
        assert retained <= bound

    def test_no_copy_per_distinct_user(self):
        retained, _, distinct, miner = self._retained(1200)
        # One (num_items, dim) baseline per distinct sampled user — what
        # per-user trackers retained — would be ~10x this.
        assert distinct > 600
        assert retained < distinct * 400 * 8 * 8 / 4

    def test_freezing_releases_accumulators_and_ledger(self):
        retained, bound, distinct, miner = self._retained(40, rounds=60, per_round=40)
        # Every user was sampled every round: all froze after three
        # observations, leaving mined sets only.
        assert miner.num_mining == 0
        assert miner.num_ready == 40
        assert len(miner.ledger) == 0
        assert retained <= 40 * 5 * 8 * 2 + 40 * 16 + 64 * 1024
