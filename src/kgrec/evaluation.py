"""Full-catalog top-K evaluation: Recall, ndcg, HitRatio.

Every item is scored for every evaluated user (no sampled candidates);
seen items are masked out of the ranking; ties break toward the smaller
item id. Users whose test list for the chosen split is empty are skipped
and counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle, DatasetError
from .model import KmpnParams, aggregate_layers, entity_forward, preference_embeddings, user_forward
from .numeric import softmax_rows

DEFAULT_KS = (20, 60, 100)


def rank_items(user_emb: np.ndarray, item_embs: np.ndarray, mask, k: int):
    """Top-k item ids by dot-product score, masked items excluded.

    Returns (ids, exhausted) where exhausted flags k exceeding the unmasked
    catalog (all unmasked ids are returned in that case).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = item_embs @ np.asarray(user_emb, dtype=np.float64)
    n = len(scores)
    mask_arr = np.zeros(n, dtype=bool)
    mask_ids = np.asarray(list(mask), dtype=np.int64) if mask is not None else None
    if mask_ids is not None and len(mask_ids):
        mask_arr[mask_ids] = True
    avail = int(n - mask_arr.sum())
    scores = np.where(mask_arr, -np.inf, scores)
    order = np.lexsort((np.arange(n), -scores))  # score desc, id asc
    take = min(k, avail)
    return order[:take], k > avail


def _test_set(test) -> set:
    test = set(int(t) for t in test)
    if not test:
        raise ValueError("empty test set")
    return test


def recall_at_k(topk, test) -> float:
    test = _test_set(test)
    return sum(1 for i in topk if int(i) in test) / len(test)


def ndcg_at_k(topk, test, k: int) -> float:
    test = _test_set(test)
    dcg = 0.0
    for rank, i in enumerate(topk[:k], start=1):
        if int(i) in test:
            dcg += 1.0 / np.log2(rank + 1)
    ideal = sum(1.0 / np.log2(r + 1) for r in range(1, min(k, len(test)) + 1))
    return float(dcg / ideal)


def hit_ratio_at_k(topk, test) -> float:
    test = _test_set(test)
    return 1.0 if any(int(i) in test for i in topk) else 0.0


@dataclass(frozen=True)
class MetricsReport:
    split: str
    ks: tuple
    recall: dict
    ndcg: dict
    hit: dict
    users_evaluated: int
    users_skipped: int

    def render(self) -> str:
        """Tab-separated `metric K value` rows plus a key=value block."""
        tables = (("recall", self.recall), ("ndcg", self.ndcg), ("hit_ratio", self.hit))
        lines = [f"{name}\t{k}\t{table[k]!r}" for name, table in tables for k in self.ks]
        lines.append(f"split={self.split}")
        lines.append(f"users_evaluated={self.users_evaluated}")
        lines.append(f"users_skipped={self.users_skipped}")
        return "\n".join(lines) + "\n"


def _sorted_ks(ks) -> tuple:
    ks = tuple(sorted(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("ks must be positive")
    return ks


def _check_split(store, split: str):
    if split in ("valid", "test"):
        lists = store.split(split)
        if not any(len(v) for v in lists):
            raise DatasetError(f"split absent: no {split} interactions in dataset")
        return lists
    if split == "cold_start":
        if not any(len(v) for v in store.cold_test) or not any(len(v) for v in store.cold_history):
            raise DatasetError("split absent: dataset has no cold-start files")
        return store.cold_test
    raise DatasetError(f"unknown split {split!r}")


def _split_users(seen_lists, test_lists, split: str):
    """Users with both seen and test items, plus the number skipped: users
    with only one of the two (users with neither are not counted)."""
    has_seen = np.array([len(v) > 0 for v in seen_lists])
    has_test = np.array([len(v) > 0 for v in test_lists])
    users = np.flatnonzero(has_seen & has_test)
    if len(users) == 0:
        raise DatasetError(f"split {split!r} has no evaluable users")
    return users, int((has_seen ^ has_test).sum())


def _rank_users(user_vecs, users, skipped, item_embs, seen_lists, test_lists, split, ks):
    """Rank the catalog for each row of `user_vecs`, masking the user's
    seen items, and average the per-user metrics."""
    per_user = {name: {k: [] for k in ks} for name in ("recall", "ndcg", "hit")}
    for u, vec in zip(users, user_vecs):
        topk, _ = rank_items(vec, item_embs, seen_lists[u], max(ks))
        test = test_lists[u]
        for k in ks:
            head = topk[:k]
            per_user["recall"][k].append(recall_at_k(head, test))
            per_user["ndcg"][k].append(ndcg_at_k(head, test, k))
            per_user["hit"][k].append(hit_ratio_at_k(head, test))
    mean = {name: {k: float(np.mean(v)) for k, v in t.items()} for name, t in per_user.items()}
    return MetricsReport(
        split=split,
        ks=ks,
        recall=mean["recall"],
        ndcg=mean["ndcg"],
        hit=mean["hit"],
        users_evaluated=len(users),
        users_skipped=skipped,
    )


def evaluate(params: KmpnParams, bundle: DatasetBundle, split: str, ks=DEFAULT_KS) -> MetricsReport:
    """Rank the full catalog for every user with test items in `split`.

    Standard splits build the trained user vector (learned attention over
    the train history, which is masked); the cold-start split builds the
    uniform-attention vector from the held history (history masked).
    """
    ks = _sorted_ks(ks)
    store = bundle.store
    test_lists = _check_split(store, split)
    if bundle.graph.num_entities != params.num_entities:
        raise DatasetError("checkpoint/graph entity count mismatch")
    if store.num_users != params.num_users:
        raise DatasetError("checkpoint/dataset user count mismatch")

    layers, _ = entity_forward(params, bundle.graph)
    item_embs = aggregate_layers(layers)[: store.num_items]
    _, pref = preference_embeddings(params)
    seen_lists = store.cold_history if split == "cold_start" else store.train
    users, skipped = _split_users(seen_lists, test_lists, split)
    if split == "cold_start":
        profile = pref.mean(axis=0)  # uniform alpha = 1/P
    else:
        profile = softmax_rows(params.user_emb[users] @ pref.T) @ pref
    _, user_vecs, _, _ = user_forward(layers, seen_lists, users, profile)
    return _rank_users(user_vecs, users, skipped, item_embs, seen_lists, test_lists, split, ks)


def evaluate_embeddings(
    user_set, item_set, bundle: DatasetBundle, split: str, ks=DEFAULT_KS
) -> MetricsReport:
    """Same protocol but scoring directly with exchange-file embeddings
    (content-model evaluation or comparison hooks)."""
    ks = _sorted_ks(ks)
    store = bundle.store
    test_lists = _check_split(store, split)
    item_embs = item_set.rows(np.arange(store.num_items, dtype=np.int64))
    if split == "cold_start":
        raise DatasetError("cold_start evaluation needs model parameters, not embedding files")
    users, skipped = _split_users(store.train, test_lists, split)
    user_vecs = user_set.rows(users)
    return _rank_users(user_vecs, users, skipped, item_embs, store.train, test_lists, split, ks)
