"""Negative sampling: one batched draw-and-redraw routine.

Negative items are drawn with probability proportional to the reciprocal of
their training interaction count, so rare items appear as negatives more
often than popular ones. Items with zero interactions are treated as count
1, keeping every catalog item reachable; all-zero counts therefore give the
uniform sampler of the content model. A whole batch is drawn at once by
inverse CDF. Rows that hit one of their user's train positives, found by one
binary search over the sorted `user * num_items + item` keys, are redrawn;
rows still colliding after MAX_REJECTIONS rounds fall back to a uniform pick
among the user's non-positive items.
"""

from __future__ import annotations

import numpy as np

from .data import InteractionStore

MAX_REJECTIONS = 100


class ReciprocalSampler:
    """Negative sampler with weights 1 / max(train_count, 1).

    `positive_keys` holds `user * num_items + item` for every train
    positive, sorted ascending.
    """

    def __init__(self, num_items: int, train_counts: np.ndarray, positive_keys):
        if num_items <= 0:
            raise ValueError("num_items must be positive")
        counts = np.asarray(train_counts, dtype=np.int64)
        if counts.shape != (num_items,):
            raise ValueError("train_counts must have one entry per item")
        self.num_items = num_items
        self.weights = 1.0 / np.maximum(counts, 1).astype(np.float64)
        cdf = np.cumsum(self.weights)
        self.cdf = cdf / cdf[-1]
        # the sentinel keeps every searchsorted position a valid index
        self._keys = np.append(np.asarray(positive_keys, dtype=np.int64), np.iinfo(np.int64).max)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Raw popularity-inverse draw of `size` items, no positive filtering."""
        return np.searchsorted(self.cdf, rng.random(size), side="right").astype(np.int64)

    def _collides(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        probe = users * self.num_items + items
        return self._keys[np.searchsorted(self._keys, probe)] == probe

    def sample_negatives(self, rng: np.random.Generator, users: np.ndarray) -> np.ndarray:
        """One negative per entry of `users` (repeats allowed), never one of
        that user's train positives."""
        users = np.asarray(users, dtype=np.int64)
        out = self.draw(rng, len(users))
        todo = np.flatnonzero(self._collides(users, out))
        for _ in range(MAX_REJECTIONS):
            if len(todo) == 0:
                break
            out[todo] = self.draw(rng, len(todo))
            todo = todo[self._collides(users[todo], out[todo])]
        for k in todo:
            u = int(users[k])
            lo, hi = np.searchsorted(self._keys, [u * self.num_items, (u + 1) * self.num_items])
            pool = np.setdiff1d(np.arange(self.num_items), self._keys[lo:hi] - u * self.num_items)
            if len(pool) == 0:
                raise ValueError(f"user {u} has every item as a positive; no negative exists")
            out[k] = pool[rng.integers(len(pool))]
        return out


def build_sampler(store: InteractionStore, uniform: bool = False) -> ReciprocalSampler:
    """Sampler over the store's train positives; `uniform` ignores the
    interaction counts and weighs every item 1."""
    n = store.num_items
    users, items = store.train_pairs()
    counts = np.zeros(n, dtype=np.int64) if uniform else np.bincount(items, minlength=n)
    return ReciprocalSampler(n, counts, users * n + items)
