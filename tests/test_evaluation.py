import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import build_store

from kgrec.content import EmbeddingMatrixFile
from kgrec.data import (
    DatasetBundle,
    DatasetError,
    ItemCorpus,
    kg_from_triplets,
)
from kgrec import evaluation
from kgrec.evaluation import evaluate, evaluate_embeddings, rank_block
from kgrec.model import entity_forward, init_params


def flat(lists):
    """Flat per-user lists (concatenation, counts), the kernel's row format."""
    rows = [np.asarray(v, dtype=np.int64) for v in lists]
    return np.concatenate(rows), np.array([len(v) for v in rows], dtype=np.int64)


def rank_one(user, item_embs, mask=(), ks=(1,), test=(0,)):
    """One user through the kernel: (ids, {metric: {k: value}})."""
    ids, out = rank_block(np.asarray(user)[None], item_embs, flat([mask]), flat([test]), ks)
    names = ("recall", "ndcg", "hit")
    return ids[0], {name: {k: out[m, j, 0] for j, k in enumerate(ks)} for m, name in enumerate(names)}


def ranked_as(order, n):
    """[n, 1] item embeddings under which `order` heads the ranking for user [1.0]."""
    embs = np.full((n, 1), -1.0)
    embs[list(order), 0] = np.arange(len(order), 0, -1)
    return embs


def metrics_of(order, test, k, n=12):
    return rank_one([1.0], ranked_as(order, n), ks=(k,), test=sorted(test))[1]


# -- ranking ------------------------------------------------------------------


def test_rank_block_orders_by_score_then_id():
    item_embs = np.array([[3.0], [5.0], [4.0]])
    ids, _ = rank_one([1.0], item_embs, ks=(2,))
    assert ids.tolist() == [1, 2]
    ids, _ = rank_one([1.0], item_embs, ks=(3,))
    assert ids.tolist() == [1, 2, 0]


def test_rank_block_breaks_ties_toward_small_id():
    item_embs = np.ones((4, 2))
    ids, _ = rank_one([0.5, 0.5], item_embs, ks=(3,))
    assert ids.tolist() == [0, 1, 2]
    ids, _ = rank_one([0.5, 0.5], item_embs, mask=[0, 2], ks=(2,))
    assert ids.tolist() == [1, 3]


def test_rank_block_masks_and_pads_past_the_catalog():
    item_embs = np.array([[3.0], [5.0], [4.0]])
    ids, _ = rank_one([1.0], item_embs, mask=[1], ks=(2,))
    assert ids.tolist() == [2, 0]
    ids, metrics = rank_one([1.0], item_embs, mask=[0, 1], ks=(3, 50), test=[2])
    assert ids.tolist() == [2, -1, -1]  # k beyond the catalog: kk = 3, masked slots read -1
    assert metrics["recall"] == {3: 1.0, 50: 1.0} and metrics["ndcg"][50] == 1.0
    with pytest.raises(ValueError, match="k must be"):
        rank_one([1.0], item_embs, ks=(0,))


def test_rank_block_score_scale_changes_nothing():
    rng = np.random.default_rng(0)
    item_embs = rng.normal(size=(20, 4))
    user = rng.normal(size=4)
    base, _ = rank_one(user, item_embs, mask=[3, 7], ks=(10,))
    scaled, _ = rank_one(user * 2.0, item_embs, mask=[3, 7], ks=(10,))
    assert base.tolist() == scaled.tolist()  # positive scaling is rank-safe


def test_rank_block_tie_heavy_matches_brute_oracle():
    # small-integer embeddings: scores repeat, so equal scores straddle the
    # top-K boundary in most rows
    rng = np.random.default_rng(4)
    ks = (1, 3, 8, 15)  # kk = 15 stays below the catalog, so the cut is a real one
    for _ in range(20):
        n, users = int(rng.integers(20, 60)), int(rng.integers(1, 9))
        item_embs = rng.integers(-1, 2, size=(n, 2)).astype(np.float64)
        user_vecs = rng.integers(-1, 2, size=(users, 2)).astype(np.float64)
        masks = [rng.choice(n, size=int(rng.integers(0, n // 2)), replace=False) for _ in range(users)]
        tests = [rng.choice(n, size=int(rng.integers(1, 5)), replace=False) for _ in range(users)]
        ids, out = rank_block(user_vecs, item_embs, flat(masks), flat(tests), ks)
        for u in range(users):
            scores = item_embs @ user_vecs[u]
            order = sorted(set(range(n)) - set(masks[u].tolist()), key=lambda i: (-scores[i], i))
            want = order[: max(ks)]
            assert ids[u].tolist() == want + [-1] * (max(ks) - len(want))
            test = set(tests[u].tolist())
            for j, k in enumerate(ks):
                hits = [r + 1 for r, i in enumerate(order[:k]) if i in test]
                dcg = sum(1.0 / math.log2(r + 1) for r in hits)
                ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(test)) + 1))
                assert out[0, j, u] == pytest.approx(len(hits) / len(test), abs=1e-12)
                assert out[1, j, u] == pytest.approx(dcg / ideal, abs=1e-12)
                assert out[2, j, u] == (1.0 if hits else 0.0)


def lexsort_rank_block(user_vecs, item_embs, seen, test, ks):
    """Reference kernel: every candidate at or above the kk-th score found by
    2-D nonzero, lexsorted by (row, score desc, id asc), and hits read off a
    dense [rows, items + 1] relevant table."""
    neg = np.asarray(user_vecs, dtype=np.float64) @ -np.asarray(item_embs, dtype=np.float64).T
    n_rows, n_items = neg.shape
    kk = min(max(ks), n_items)
    neg[np.repeat(np.arange(n_rows), seen[1]), seen[0]] = np.inf
    cut = np.partition(neg, kk - 1, axis=1)[:, kk - 1 : kk]
    row, col = np.nonzero(neg <= cut)
    key = neg[row, col]
    order = np.lexsort((col, key, row))
    top = order[np.searchsorted(row, np.arange(n_rows))[:, None] + np.arange(kk)]
    ids = np.where(key[top] == np.inf, -1, col[top])
    relevant = np.zeros((n_rows, n_items + 1), dtype=bool)
    relevant[np.repeat(np.arange(n_rows), test[1]), test[0]] = True
    n_test = relevant.sum(axis=1)
    hits = np.take_along_axis(relevant, ids, axis=1)
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


def test_rank_block_matches_lexsort_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, users = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        item_embs = rng.integers(-1, 2, size=(n, 2)).astype(np.float64)
        user_vecs = rng.integers(-1, 2, size=(users, 2)).astype(np.float64)
        user_vecs[rng.integers(users)] = 0.0  # every item ties in this row
        masks = [rng.choice(n, size=int(rng.integers(0, n)), replace=False) for _ in range(users)]
        masks[rng.integers(users)] = rng.permutation(n)[1:]  # every item but one masked
        # unsorted, often duplicated test lists
        tests = [rng.integers(0, n, size=int(rng.integers(1, 6))) for _ in range(users)]
        ks = tuple(sorted({int(k) for k in rng.integers(1, 50, size=3)}))  # max(ks) often past n
        args = (user_vecs, item_embs, flat(masks), flat(tests), ks)
        want_ids, want = lexsort_rank_block(*args)
        ids, got = rank_block(*args)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(got, want)


def test_rank_block_grouped_cut_matches_lexsort_reference():
    # catalogs of at least 16·kk items bound the cut by group minima; with
    # small-integer embeddings equal scores straddle it in most rows
    rng = np.random.default_rng(23)
    for _ in range(12):
        n, users = int(rng.integers(800, 3001)), int(rng.integers(4, 9))
        ks = tuple(sorted({int(k) for k in rng.integers(1, n // 16 + 1, size=3)}))
        kk = max(ks)
        size = n // (8 * kk)
        assert size >= 2
        n_groups = n // size
        item_embs = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
        user_vecs = rng.integers(-2, 3, size=(users, 3)).astype(np.float64)
        user_vecs[0] = 0.0  # every item ties in this row
        masks = [rng.choice(n, size=int(rng.integers(0, n // 4)), replace=False) for _ in range(users)]
        masks[1] = rng.permutation(n)[int(rng.integers(1, kk + 1)) :]  # fewer than kk unmasked
        # the unmasked items fill fewer than kk groups, so fewer than kk group minima are finite
        crowded = np.arange(n) % n_groups < max(1, kk // 2)
        masks[2] = np.flatnonzero(~crowded)
        # unsorted, often duplicated test lists
        tests = [rng.integers(0, n, size=int(rng.integers(1, 30))) for _ in range(users)]
        args = (user_vecs, item_embs, flat(masks), flat(tests), ks)
        want_ids, want = lexsort_rank_block(*args)
        ids, got = rank_block(*args)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(got, want)


def test_rank_block_with_stale_buffers_equals_fresh_buffers():
    rng = np.random.default_rng(17)
    n, rows, users = 40, 7, 17  # blocks of 7, 7 and a short 3
    item_embs = rng.integers(-1, 2, size=(n, 2)).astype(np.float64)
    user_vecs = rng.integers(-1, 2, size=(users, 2)).astype(np.float64)
    masks = [rng.choice(n, size=int(rng.integers(0, n)), replace=False) for _ in range(users)]
    tests = [rng.integers(0, n, size=int(rng.integers(1, 6))) for _ in range(users)]
    buffers = (np.full((rows, n), np.nan), np.full((rows, n), np.nan), np.ones((rows, n), dtype=bool))
    for a in range(0, users, rows):
        block = slice(a, a + rows)
        args = (user_vecs[block], item_embs, flat(masks[block]), flat(tests[block]), (1, 5, 50))
        want_ids, want = rank_block(*args)
        ids, got = rank_block(*args, buffers)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(got, want)


def test_rank_block_memory_stays_near_the_score_block():
    rng = np.random.default_rng(5)
    rows, n, h = 131, 8000, 16
    user_vecs, item_embs = rng.normal(size=(rows, h)), rng.normal(size=(n, h))
    seen = flat([rng.choice(n, size=12, replace=False) for _ in range(rows)])
    test = flat([rng.choice(n, size=3, replace=False) for _ in range(rows)])
    tracemalloc.start()
    try:
        rank_block(user_vecs, item_embs, seen, test, (20, 60, 100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = rows * n * 8
    assert peak < 3 * block, f"traced peak {peak / block:.2f}x one [rows, items] float64 block"


# -- per-list metrics -------------------------------------------------------------


def test_recall_anchor():
    assert metrics_of([1, 2, 3], {2, 9}, k=3)["recall"][3] == 0.5
    assert metrics_of([1, 2, 3], {7}, k=3)["recall"][3] == 0.0
    assert metrics_of([1, 2], {1, 2}, k=2)["recall"][2] == 1.0
    with pytest.raises(ValueError, match="empty test"):
        rank_one([1.0], ranked_as([1], 3), test=[])


def test_ndcg_single_hit_at_rank_two():
    got = metrics_of([5, 9, 4], {9}, k=3)["ndcg"][3]
    assert got == pytest.approx(1.0 / math.log2(3.0), rel=1e-14)


def test_ndcg_two_hits_with_three_relevant():
    # hits at ranks 1 and 4 of a k=5 list, 3 relevant items in total
    topk = [10, 3, 4, 11, 5]
    test = {10, 11, 12}
    dcg = 1.0 + 1.0 / math.log2(5.0)
    ideal = 1.0 + 1.0 / math.log2(3.0) + 1.0 / math.log2(4.0)
    assert metrics_of(topk, test, k=5, n=13)["ndcg"][5] == pytest.approx(dcg / ideal, rel=1e-14)


def test_ndcg_is_one_exactly_when_prefix_is_ideal():
    assert metrics_of([0, 1, 5], {0, 1}, k=3)["ndcg"][3] == pytest.approx(1.0)
    assert metrics_of([0, 5, 1], {0, 1}, k=3)["ndcg"][3] < 1.0
    # more relevant items than k: a fully relevant prefix is still ideal
    assert metrics_of([0, 1], {0, 1, 2}, k=2)["ndcg"][2] == pytest.approx(1.0)


def test_hit_ratio_anchor():
    assert metrics_of([1, 2], {2}, k=2)["hit"][2] == 1.0
    assert metrics_of([1, 2], {3}, k=2)["hit"][2] == 0.0
    with pytest.raises(ValueError):
        rank_one([1.0], ranked_as([1], 3), ks=(2,), test=[])


def test_recall_and_hit_monotone_in_k():
    rng = np.random.default_rng(1)
    item_embs = rng.normal(size=(30, 3))
    user = rng.normal(size=3)
    ks = tuple(range(1, 31))
    _, metrics = rank_one(user, item_embs, ks=ks, test=[4, 9, 17])
    recall = [metrics["recall"][k] for k in ks]
    hit = [metrics["hit"][k] for k in ks]
    assert recall == sorted(recall) and hit == sorted(hit)
    assert recall[-1] == 1.0 and hit[-1] == 1.0


# -- full evaluation with exchange embeddings -------------------------------------


def one_hot_bundle():
    store = build_store(
        {0: [0, 1], 1: [2], 2: [3, 4]},
        test={0: [2], 1: [4], 2: [0]},
        num_items=5,
    )
    graph = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=5)
    return DatasetBundle(store=store, graph=graph, corpus=ItemCorpus(("",) * 5))


def test_evaluate_embeddings_perfect_pointer_model():
    b = one_hot_bundle()
    items = EmbeddingMatrixFile("item", np.arange(5), np.eye(5, dtype=np.float32))
    # each user's vector is the one-hot of its test item
    user_vecs = np.zeros((3, 5), dtype=np.float32)
    for u, t in enumerate([2, 4, 0]):
        user_vecs[u, t] = 1.0
    users = EmbeddingMatrixFile("user", np.arange(3), user_vecs)
    report = evaluate_embeddings(users, items, b, "test", ks=(1, 2))
    assert report.recall[1] == 1.0
    assert report.ndcg[1] == 1.0
    assert report.hit[1] == 1.0
    assert report.users_evaluated == 3 and report.users_skipped == 0


def test_evaluate_embeddings_skip_accounting():
    store = build_store(
        {0: [0], 1: [1], 2: [2]},
        test={0: [3]},
        num_items=4,
    )
    b = DatasetBundle(
        store=store,
        graph=kg_from_triplets([(0, 0, 1)], 1, num_entities=4),
        corpus=ItemCorpus(("",) * 4),
    )
    rng = np.random.default_rng(2)
    items = EmbeddingMatrixFile("item", np.arange(4), rng.normal(size=(4, 3)))
    users = EmbeddingMatrixFile("user", np.arange(3), rng.normal(size=(3, 3)))
    report = evaluate_embeddings(users, items, b, "test", ks=(2,))
    assert report.users_evaluated == 1
    assert report.users_skipped == 2  # trained users with nothing to test


def test_evaluate_embeddings_rejects_a_swapped_pair():
    # as many users as items: every id resolves, so only the kinds tell the
    # files apart
    store = build_store({0: [0], 1: [1], 2: [2]}, test={0: [1], 1: [2], 2: [0]}, num_items=3)
    b = DatasetBundle(store=store, graph=kg_from_triplets([(0, 0, 1)], 1, num_entities=3), corpus=ItemCorpus(("",) * 3))
    rng = np.random.default_rng(4)
    items = EmbeddingMatrixFile("item", np.arange(3), rng.normal(size=(3, 2)))
    users = EmbeddingMatrixFile("user", np.arange(3), rng.normal(size=(3, 2)))
    with pytest.raises(ValueError, match=r"^content pair must be \(item file, user file\), got \(user file, item file\)$"):
        evaluate_embeddings(items, users, b, "test")
    with pytest.raises(ValueError, match=r"got \(item file, item file\)$"):
        evaluate_embeddings(items, items, b, "test")


def test_evaluate_embeddings_rejects_a_dim_mismatch():
    b = one_hot_bundle()
    items = EmbeddingMatrixFile("item", np.arange(5), np.eye(5, dtype=np.float32))
    users = EmbeddingMatrixFile("user", np.arange(3), np.ones((3, 4), dtype=np.float32))
    with pytest.raises(ValueError, match=r"^content pair dims differ: item file 5, user file 4$"):
        evaluate_embeddings(users, items, b, "test")


def test_evaluate_embeddings_random_scores_match_chance_level(synth_bundle):
    store = synth_bundle.store
    rng = np.random.default_rng(3)
    items = EmbeddingMatrixFile(
        "item", np.arange(store.num_items), rng.normal(size=(store.num_items, 8))
    )
    users = EmbeddingMatrixFile(
        "user", np.arange(store.num_users), rng.normal(size=(store.num_users, 8))
    )
    K = 20
    report = evaluate_embeddings(users, items, synth_bundle, "test", ks=(K,))

    # under random scoring each test item lands in the top K of the masked
    # catalog with probability K / avail; average that user-expectation
    expected = []
    var_sum = 0.0
    for u in range(store.num_users):
        test = store.test[u]
        if len(test) == 0 or len(store.train[u]) == 0:
            continue
        avail = store.num_items - len(store.train[u])
        p = K / avail
        expected.append(p)
        var_sum += p * (1 - p) / len(test)
    mean_expected = float(np.mean(expected))
    sigma = math.sqrt(var_sum) / len(expected)
    assert abs(report.recall[K] - mean_expected) < 4 * sigma + 1e-9
    assert report.users_evaluated == len(expected)


# -- full evaluation with the graph model ------------------------------------------


def graph_bundle():
    store = build_store(
        {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [1, 4]},
        valid={0: [3], 2: [0]},
        test={0: [2], 1: [4, 5], 2: [1], 3: [0, 3]},
        cold_history={4: [0, 2]},
        cold_test={4: [4, 5]},
        num_items=6,
    )
    triplets = [(i, i % 2, 6 + i % 3) for i in range(6)]
    graph = kg_from_triplets(triplets, num_relations_raw=2, num_entities=9)
    return DatasetBundle(store=store, graph=graph, corpus=ItemCorpus(("",) * 6))


def graph_params(b, seed=0):
    return init_params(
        b.graph.num_entities, b.graph.num_relations, b.store.num_users,
        h=8, n_layers=2, n_pref=3, n_meta=4, seed=seed,
    )


def manual_eval(params, bundle, split, ks):
    """Re-evaluation via explicit per-user loops and python sorting."""
    store = bundle.store
    layers, _ = entity_forward(params, bundle.graph)
    entity_agg = layers[0].copy()
    for m in layers[1:]:
        entity_agg = entity_agg + m
    item_embs = entity_agg[: store.num_items]

    logits = params.pref_logits
    beta = np.exp(logits - logits.max(axis=1, keepdims=True))
    beta /= beta.sum(axis=1, keepdims=True)
    pref = beta @ params.meta_pref_emb

    out = {k: {"recall": [], "ndcg": [], "hit": []} for k in ks}
    for u in range(store.num_users):
        if split == "cold_start":
            hist, test = store.cold_history[u], store.cold_test[u]
            if len(hist) == 0 or len(test) == 0:
                continue
            msum = sum(m[hist].mean(axis=0) for m in layers)
            # uniform attention, unfactorized: mean_p (msum o pref_p)
            vec = sum(msum * pref[q] for q in range(len(pref))) / len(pref)
            mask = hist
        else:
            test = store.split(split)[u]
            hist = store.train[u]
            if len(test) == 0 or len(hist) == 0:
                continue
            msum = sum(m[hist].mean(axis=0) for m in layers)
            a = np.exp(params.user_emb[u] @ pref.T)
            a /= a.sum()
            # unfactorized: sum_p alpha_p * (msum o pref_p)
            vec = sum(a[q] * msum * pref[q] for q in range(len(pref)))
            mask = hist
        scores = item_embs @ vec
        masked = set(int(i) for i in mask)
        order = sorted(
            (i for i in range(store.num_items) if i not in masked),
            key=lambda i: (-scores[i], i),
        )
        tset = set(int(t) for t in test)
        for k in ks:
            head = order[:k]
            hits = [r + 1 for r, i in enumerate(head) if i in tset]
            out[k]["recall"].append(len(hits) / len(tset))
            dcg = sum(1.0 / math.log2(r + 1) for r in hits)
            ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(tset)) + 1))
            out[k]["ndcg"].append(dcg / ideal)
            out[k]["hit"].append(1.0 if hits else 0.0)
    return out


@pytest.mark.parametrize("split", ["valid", "test", "cold_start"])
def test_evaluate_matches_manual_loop(split):
    b = graph_bundle()
    p = graph_params(b)
    ks = (1, 3, 5)
    report = evaluate(p, b, split, ks=ks)
    manual = manual_eval(p, b, split, ks)
    for k in ks:
        assert report.recall[k] == pytest.approx(np.mean(manual[k]["recall"]), abs=1e-12)
        assert report.ndcg[k] == pytest.approx(np.mean(manual[k]["ndcg"]), abs=1e-12)
        assert report.hit[k] == pytest.approx(np.mean(manual[k]["hit"]), abs=1e-12)


def test_evaluate_matches_manual_loop_on_synthetic(synth_bundle):
    p = init_params(
        synth_bundle.graph.num_entities,
        synth_bundle.graph.num_relations,
        synth_bundle.store.num_users,
        h=8, n_layers=2, n_pref=4, n_meta=6, seed=11,
    )
    ks = (10,)
    report = evaluate(p, synth_bundle, "test", ks=ks)
    manual = manual_eval(p, synth_bundle, "test", ks)
    assert report.users_evaluated == len(manual[10]["recall"])
    assert report.recall[10] == pytest.approx(np.mean(manual[10]["recall"]), abs=1e-12)
    assert report.ndcg[10] == pytest.approx(np.mean(manual[10]["ndcg"]), abs=1e-12)


def test_evaluate_cold_start_uses_uniform_attention(synth_bundle):
    p = init_params(
        synth_bundle.graph.num_entities,
        synth_bundle.graph.num_relations,
        synth_bundle.store.num_users,
        h=8, n_layers=2, n_pref=4, n_meta=6, seed=5,
    )
    ks = (10,)
    report = evaluate(p, synth_bundle, "cold_start", ks=ks)
    manual = manual_eval(p, synth_bundle, "cold_start", ks)
    assert report.users_evaluated == len(manual[10]["recall"]) > 0
    assert report.recall[10] == pytest.approx(np.mean(manual[10]["recall"]), abs=1e-12)
    assert report.ndcg[10] == pytest.approx(np.mean(manual[10]["ndcg"]), abs=1e-12)
    # cold-start users never consult their (untrained) query vectors
    cold_users = [u for u, hist in enumerate(synth_bundle.store.cold_history) if len(hist)]
    p.user_emb[cold_users] = 50.0
    assert evaluate(p, synth_bundle, "cold_start", ks=ks) == report


def test_report_does_not_depend_on_block_size(synth_bundle, monkeypatch):
    store = synth_bundle.store
    p = init_params(
        synth_bundle.graph.num_entities, synth_bundle.graph.num_relations, store.num_users,
        h=8, n_layers=2, n_pref=4, n_meta=6, seed=3,
    )
    rng = np.random.default_rng(6)  # integer exchange vectors: many tied scores
    items = EmbeddingMatrixFile("item", np.arange(store.num_items), rng.integers(-2, 3, (store.num_items, 4)))
    users = EmbeddingMatrixFile("user", np.arange(store.num_users), rng.integers(-2, 3, (store.num_users, 4)))

    def reports():
        return (
            evaluate(p, synth_bundle, "test"),
            evaluate(p, synth_bundle, "cold_start"),
            evaluate_embeddings(users, items, synth_bundle, "valid"),
        )

    assert evaluation.BLOCK_SCORES // store.num_items >= store.num_users  # one block
    single = reports()
    monkeypatch.setattr(evaluation, "BLOCK_SCORES", 7 * store.num_items)  # 7 users a block
    assert reports() == single


def test_evaluate_cold_start_masks_history_not_train():
    b = graph_bundle()
    p = graph_params(b)
    report = evaluate(p, b, "cold_start", ks=(4,))
    assert report.users_evaluated == 1
    # the held-back history items 0 and 2 may never be recommended, but the
    # catalog outside it is fair game: with k=4 over 4 unmasked items the
    # two test items are always found
    assert report.recall[4] == 1.0


def test_evaluate_split_absent_errors():
    store = build_store({0: [0, 1]}, test={0: [2]}, num_items=3)
    b = DatasetBundle(
        store=store,
        graph=kg_from_triplets([(0, 0, 1)], 1, num_entities=3),
        corpus=ItemCorpus(("",) * 3),
    )
    p = init_params(3, 2, 1, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0)
    with pytest.raises(DatasetError, match="split absent: no valid interactions"):
        evaluate(p, b, "valid")
    with pytest.raises(DatasetError, match="split absent: dataset has no cold-start files"):
        evaluate(p, b, "cold_start")
    with pytest.raises(DatasetError, match="unknown split"):
        evaluate(p, b, "train")
    cold = graph_bundle()  # this one has cold files, so the split exists
    items = EmbeddingMatrixFile("item", np.arange(6), np.zeros((6, 2), dtype=np.float32))
    users = EmbeddingMatrixFile("user", np.arange(5), np.zeros((5, 2), dtype=np.float32))
    with pytest.raises(DatasetError, match="needs model parameters"):
        evaluate_embeddings(users, items, cold, "cold_start")


def test_evaluate_ranks_without_the_per_depth_layers(monkeypatch):
    b, alive = graph_bundle(), []

    def forward_spy(params, graph, rows):
        layers, gates = entity_forward(params, graph, rows)
        alive.extend(weakref.ref(m) for m in layers[1:])
        return layers, gates

    def rank_spy(*args):
        assert alive and all(ref() is None for ref in alive), "a per-depth layer outlives aggregation"
        return rank_users(*args)

    rank_users = evaluation._rank_users
    monkeypatch.setattr(evaluation, "entity_forward", forward_spy)
    monkeypatch.setattr(evaluation, "_rank_users", rank_spy)
    for split in ("test", "cold_start"):
        evaluate(graph_params(b), b, split)


def test_evaluate_checkpoint_mismatch_errors():
    b = graph_bundle()
    wrong_users = init_params(
        b.graph.num_entities, b.graph.num_relations, 99, h=4, n_layers=1,
        n_pref=2, n_meta=2, seed=0,
    )
    with pytest.raises(DatasetError, match="user count mismatch"):
        evaluate(wrong_users, b, "test")
    wrong_entities = init_params(
        b.graph.num_entities + 3, b.graph.num_relations, b.store.num_users,
        h=4, n_layers=1, n_pref=2, n_meta=2, seed=0,
    )
    with pytest.raises(ValueError, match="^graph/params entity count mismatch$"):
        evaluate(wrong_entities, b, "test")
    for n_rel in (b.graph.num_relations - 2, b.graph.num_relations + 2):  # fewer and more rows than the graph
        wrong_relations = init_params(
            b.graph.num_entities, n_rel, b.store.num_users, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0,
        )
        with pytest.raises(ValueError, match="^graph/params relation count mismatch$"):
            evaluate(wrong_relations, b, "test")


def test_metrics_report_render_format():
    b = graph_bundle()
    report = evaluate(graph_params(b), b, "test", ks=(2, 5))
    text = report.render()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0].split("\t")[0:2] == ["recall", "2"]
    assert float(lines[0].split("\t")[2]) == report.recall[2]
    assert lines[2].split("\t")[0:2] == ["ndcg", "2"]
    assert lines[4].split("\t")[0:2] == ["hit_ratio", "2"]
    assert "split=test" in lines
    assert f"users_evaluated={report.users_evaluated}" in lines
    assert f"users_skipped={report.users_skipped}" in lines
