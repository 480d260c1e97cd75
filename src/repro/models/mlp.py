"""Minimal MLP substrate with exact forward/backward in NumPy.

This is the learnable-interaction-function building block of DL-FRS
(Eq. 1 in the paper): a stack of ReLU layers followed by a projection
vector ``h``. Gradients are derived by hand and checked against
numerical differentiation in the test suite.

:meth:`MLPTower.forward` is row-wise, so the batch-client engine feeds
it all sampled clients' rows in one flattened call;
:meth:`MLPTower.backward_segmented` is the matching backward pass that
resolves the parameter gradients per client segment (federated clients
upload *per-client* parameter gradients, not one fused sum).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Linear", "MLPTower"]


class Linear:
    """Fully-connected layer ``z = x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: float = 0.1):
        self.weight = rng.normal(scale=scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a batch ``x`` of shape (n, in_dim)."""
        z = x @ self.weight
        z += self.bias
        return z

    def backward(
        self, x: np.ndarray, dz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop through the layer.

        Given the layer input ``x`` and upstream gradient ``dz`` (both
        batched), returns ``(dx, dW, db)``.
        """
        dx = dz @ self.weight.T
        dw = x.T @ dz
        db = dz.sum(axis=0)
        return dx, dw, db


class MLPTower:
    """ReLU MLP stack with a final scalar projection (Eq. 1).

    ``logit = h . relu(W_L ... relu(W_1 x + b_1) ... + b_L)``

    Parameters are exposed as a flat list (``param_list``) in a stable
    order so that federated aggregation can treat them uniformly.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...],
        rng: np.random.Generator,
        scale: float = 0.1,
    ):
        self.layers: list[Linear] = []
        prev = input_dim
        for width in hidden_dims:
            self.layers.append(Linear(prev, width, rng, scale))
            prev = width
        self.projection = rng.normal(scale=scale, size=prev)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------

    def param_list(self) -> list[np.ndarray]:
        """All learnable arrays: W_1, b_1, ..., W_L, b_L, h (live views)."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        params.append(self.projection)
        return params

    def set_params(self, params: list[np.ndarray]) -> None:
        """Overwrite parameters in place from a matching flat list."""
        expected = self.param_list()
        if len(params) != len(expected):
            raise ValueError(
                f"expected {len(expected)} parameter arrays, got {len(params)}"
            )
        for current, new in zip(expected, params):
            if current.shape != new.shape:
                raise ValueError(
                    f"parameter shape mismatch: {current.shape} vs {new.shape}"
                )
            current[...] = new

    def zero_like_params(self) -> list[np.ndarray]:
        """Zero-filled arrays matching ``param_list`` shapes."""
        return [np.zeros_like(p) for p in self.param_list()]

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Compute logits for a batch ``x`` of shape (n, input_dim).

        Returns ``(logits, cache)`` where ``cache`` holds the
        activations needed by :meth:`backward`.
        """
        cache = [x]
        current = x
        for layer in self.layers:
            current = layer.forward(current)
            np.maximum(current, 0.0, out=current)
            cache.append(current)
        logits = cache[-1] @ self.projection
        return logits, cache

    def backward(
        self, cache: list[np.ndarray], dlogits: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Backprop from logit gradients to input and parameter gradients.

        Returns ``(dx, param_grads)`` with ``param_grads`` ordered like
        :meth:`param_list`.
        """
        final_act = cache[-1]
        dproj = final_act.T @ dlogits
        dact = np.outer(dlogits, self.projection)

        layer_grads: list[tuple[np.ndarray, np.ndarray]] = []
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            act_out = cache[index + 1]
            act_in = cache[index]
            dz = dact * (act_out > 0.0)
            dact, dw, db = layer.backward(act_in, dz)
            layer_grads.append((dw, db))
        layer_grads.reverse()

        param_grads: list[np.ndarray] = []
        for dw, db in layer_grads:
            param_grads.append(dw)
            param_grads.append(db)
        param_grads.append(dproj)
        return dact, param_grads

    def backward_segmented(
        self,
        cache: list[np.ndarray],
        dlogits: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        *,
        resolve: frozenset[int] | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Backward pass resolving parameter gradients per client segment.

        ``cache``/``dlogits`` come from one flattened :meth:`forward`
        over all clients' stacked rows; segment ``k`` owns rows
        ``starts[k] : starts[k] + lengths[k]``.  The row-wise parts of
        the backward pass (ReLU masking, ``dz @ W.T``) run once over the
        whole stack; only the per-parameter reductions (``x.T @ dz``,
        ``dz.sum(axis=0)``) run per segment, on each segment's exact
        rows, making every per-client gradient bit-identical to
        :meth:`backward` on that client alone.

        Returns ``(dx, param_stacks)`` where ``dx`` covers all rows and
        ``param_stacks`` is ordered like :meth:`param_list` with one
        leading ``(num_segments,)`` axis.  ``resolve`` (indices into
        :meth:`param_list`) restricts the per-segment reductions to the
        parameters a caller reads; the others come back as ``None``.
        """
        num_segments = len(starts)
        segs = [
            slice(int(s), int(s) + int(n)) for s, n in zip(starts, lengths)
        ]

        def reduce(index: int, shape: tuple, per_segment) -> np.ndarray | None:
            if resolve is not None and index not in resolve:
                return None
            stack = np.empty((num_segments,) + shape)
            for k, seg in enumerate(segs):
                stack[k] = per_segment(seg)
            return stack

        final_act = cache[-1]
        param_stacks: list[np.ndarray | None] = [None] * (2 * len(self.layers) + 1)
        param_stacks[-1] = reduce(
            len(param_stacks) - 1,
            self.projection.shape,
            lambda seg: final_act[seg].T @ dlogits[seg],
        )
        dact = np.outer(dlogits, self.projection)
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            act_in = cache[index]
            dz = dact * (cache[index + 1] > 0.0)
            param_stacks[2 * index] = reduce(
                2 * index, layer.weight.shape, lambda seg: act_in[seg].T @ dz[seg]
            )
            param_stacks[2 * index + 1] = reduce(
                2 * index + 1, layer.bias.shape, lambda seg: dz[seg].sum(axis=0)
            )
            dact = dz @ layer.weight.T
        return dact, param_stacks
