"""Full-catalog top-K evaluation: Recall, ndcg, HitRatio.

Every item is scored for every evaluated user (no sampled candidates);
seen items are masked out of the ranking; ties break toward the smaller
item id. Users whose test list for the chosen split is empty are skipped
and counted separately. One kernel, `rank_block`, ranks a block of users
and scores their lists; `evaluate` and `evaluate_embeddings` both feed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .content import exchange_tables
from .data import DatasetBundle, DatasetError
from .model import KmpnParams, aggregate_layers, entity_forward, preference_embeddings, user_forward
from .numeric import softmax_rows

DEFAULT_KS = (20, 60, 100)
BLOCK_SCORES = 1 << 20  # scores per ranking block; rows = this // catalog size


def _block_buffers(rows: int, n_items: int, kk: int):
    """Fresh (scores, group minima, `<=` mask) arrays for rank_block: about
    8·kk groups, or one per item in catalogs under 16·kk."""
    n_groups = n_items // max(1, n_items // (8 * kk))
    return np.empty((rows, n_items)), np.empty((rows, n_groups)), np.empty((rows, n_items), dtype=bool)


def rank_block(user_vecs, item_embs, seen, test, ks, buffers=None):
    """Rank the catalog for a block of users and score their top-K lists.

    `seen` and `test` are flat per-user lists `(concatenation, counts)`,
    one count per row of `user_vecs`; seen lists may be empty, test lists
    may not. Seen items score -inf. The top kk = min(max(ks), catalog) ids
    per row are exact under (score desc, id asc). The cut is the kk-th best
    of the maxima of disjoint item groups: kk distinct items reach it, so
    no top-kk score lies below it. Every unmasked candidate at or above the
    cut goes into a small per-row table, ids ascending and padded with +inf
    keys and id -1; a stable argsort of each row then keeps the first kk,
    breaking equal scores toward the smaller id. Positions past the
    unmasked catalog read -1. `buffers`, (scores, group minima, mask) arrays
    as `_block_buffers` makes them with at least B rows, are written over
    instead of allocated.

    Returns (ids [B, kk], metrics [3, len(ks), B]): recall, ndcg and hit
    ratio at each k.
    """
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    user_vecs, item_embs = np.asarray(user_vecs, dtype=np.float64), np.asarray(item_embs, dtype=np.float64)
    n_rows, n_items = len(user_vecs), len(item_embs)
    kk = min(max(ks), n_items)
    neg, part, below = (b[:n_rows] for b in buffers or _block_buffers(n_rows, n_items, kk))
    # negating the small side is exact, so these are the negated scores bit for bit
    np.matmul(-user_vecs, item_embs.T, out=neg)
    rows = np.arange(n_rows)
    neg[np.repeat(rows, seen[1]), seen[0]] = np.inf

    # group j of g = part's width holds items j, j + g, j + 2g, ...
    size, n_groups = n_items // part.shape[1], part.shape[1]
    np.minimum.reduce(neg[:, : size * n_groups].reshape(n_rows, size, n_groups), axis=1, out=part)
    part.partition(kk - 1, axis=1)
    # row-major: rows ascending, ids ascending within
    flat = np.flatnonzero(np.less_equal(neg, part[:, kk - 1 : kk], out=below))
    key = neg.ravel()[flat]
    live = key != np.inf  # masked items only ever pad
    flat, key = flat[live], key[live]
    row = flat // n_items
    counts = np.bincount(row, minlength=n_rows)
    slot = np.arange(len(flat)) - (np.cumsum(counts) - counts)[row]
    keys = np.full((n_rows, max(kk, int(counts.max(initial=0)))), np.inf)
    cand = np.full(keys.shape, -1)
    keys[row, slot] = key
    cand[row, slot] = flat - row * n_items
    ids = np.take_along_axis(cand, np.argsort(keys, axis=1, kind="stable")[:, :kk], axis=1)

    # hits: sorted unique (row, item) keys of the test lists; id -1 maps to
    # slot n_items of the row before, which no test item reaches
    width = n_items + 1
    tested = np.unique(np.repeat(rows, test[1]) * width + test[0])
    n_test = np.bincount(tested // width, minlength=n_rows)
    if not n_test.all():
        raise ValueError("empty test set")
    probe = rows[:, None] * width + ids
    hits = tested[np.minimum(np.searchsorted(tested, probe), len(tested) - 1)] == probe
    discount = 1.0 / np.log2(np.arange(2, kk + 2))
    hit_count = np.cumsum(hits, axis=1)
    dcg = np.cumsum(np.where(hits, discount, 0.0), axis=1)
    ideal = np.cumsum(discount)

    out = np.empty((3, len(ks), n_rows))
    for j, k in enumerate(ks):
        at = min(k, kk) - 1
        out[0, j] = hit_count[:, at] / n_test
        out[1, j] = dcg[:, at] / ideal[np.minimum(k, n_test) - 1]
        out[2, j] = hit_count[:, at] > 0
    return ids, out


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
    ks = tuple(sorted({int(k) for k in ks}))  # distinct: one report row per metric and k
    if not ks or ks[0] < 1:
        raise ValueError("ks must be positive")
    return ks


def _check_split(store, split: str):
    if split in ("valid", "test"):
        test = store.split(split)
        if not len(test.items):
            raise DatasetError(f"split absent: no {split} interactions in dataset")
        return test
    if split == "cold_start":
        if not len(store.cold_test.items) or not len(store.cold_history.items):
            raise DatasetError("split absent: dataset has no cold-start files")
        return store.cold_test
    raise DatasetError(f"unknown split {split!r}")


def _split_users(seen, test, split: str):
    """Users with both seen and test items, plus the number skipped: users
    with only one of the two (users with neither are not counted)."""
    has_seen, has_test = seen.counts() > 0, test.counts() > 0
    users = np.flatnonzero(has_seen & has_test)
    if len(users) == 0:
        raise DatasetError(f"split {split!r} has no evaluable users")
    return users, int((has_seen ^ has_test).sum())


def _rank_users(user_vecs, users, skipped, item_embs, seen, test, split, ks):
    """Run `rank_block` over blocks of about BLOCK_SCORES scores, masking each
    user's `seen` items, and average every metric over the users in order."""
    rows = max(1, BLOCK_SCORES // len(item_embs))
    buffers = _block_buffers(min(rows, len(users)), len(item_embs), min(max(ks), len(item_embs)))
    per_user = np.empty((3, len(ks), len(users)))
    for a in range(0, len(users), rows):
        block = users[a : a + rows]
        _, per_user[:, :, a : a + rows] = rank_block(
            user_vecs[a : a + rows], item_embs, seen.rows(block), test.rows(block), ks, buffers
        )
    recall, ndcg, hit = ({k: float(np.mean(m[j])) for j, k in enumerate(ks)} for m in per_user)
    return MetricsReport(split, ks, recall, ndcg, hit, users_evaluated=len(users), users_skipped=skipped)


def evaluate(params: KmpnParams, bundle: DatasetBundle, split: str, ks=DEFAULT_KS) -> MetricsReport:
    """Rank the full catalog for every user with test items in `split`.

    Standard splits build the trained user vector (learned attention over
    the train history, which is masked); the cold-start split builds the
    uniform-attention vector from the held history (history masked).
    """
    ks = _sorted_ks(ks)
    store = bundle.store
    test = _check_split(store, split)
    if store.num_users != params.num_users:
        raise DatasetError("checkpoint/dataset user count mismatch")

    entity_agg = aggregate_layers(entity_forward(params, bundle.graph, store.num_items)[0])  # the layers die here
    _, pref = preference_embeddings(params)
    seen = store.cold_history if split == "cold_start" else store.train
    users, skipped = _split_users(seen, test, split)
    if split == "cold_start":
        profile = pref.mean(axis=0)  # uniform alpha = 1/P
    else:
        profile = softmax_rows(params.user_emb[users] @ pref.T) @ pref
    _, user_vecs, _, _ = user_forward(entity_agg, seen, users, profile)
    return _rank_users(user_vecs, users, skipped, entity_agg, seen, test, split, ks)


def evaluate_embeddings(user_set, item_set, bundle: DatasetBundle, split: str, ks=DEFAULT_KS) -> MetricsReport:
    """Same protocol but scoring directly with exchange-file embeddings
    (content-model evaluation or comparison hooks). After the split checks,
    content.exchange_tables checks the pair and returns the item table and
    the evaluated users' rows, before anything is scored."""
    ks = _sorted_ks(ks)
    store = bundle.store
    test = _check_split(store, split)
    if split == "cold_start":
        raise DatasetError("cold_start evaluation needs model parameters, not embedding files")
    users, skipped = _split_users(store.train, test, split)
    item_embs, user_vecs = exchange_tables(item_set, user_set, np.arange(store.num_items, dtype=np.int64), users)
    return _rank_users(user_vecs, users, skipped, item_embs, store.train, test, split, ks)
