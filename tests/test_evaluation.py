import math

import numpy as np
import pytest

from kgrec.content import EmbeddingMatrixFile
from kgrec.data import (
    DatasetBundle,
    DatasetError,
    ItemCorpus,
    build_store,
    kg_from_triplets,
)
from kgrec.evaluation import (
    evaluate,
    evaluate_embeddings,
    hit_ratio_at_k,
    ndcg_at_k,
    rank_items,
    recall_at_k,
)
from kgrec.model import entity_forward, init_params


# -- ranking ------------------------------------------------------------------


def test_rank_items_orders_by_score_then_id():
    item_embs = np.array([[3.0], [5.0], [4.0]])
    user = np.array([1.0])
    ids, exhausted = rank_items(user, item_embs, mask=None, k=2)
    assert ids.tolist() == [1, 2] and not exhausted
    ids, _ = rank_items(user, item_embs, mask=None, k=3)
    assert ids.tolist() == [1, 2, 0]


def test_rank_items_breaks_ties_toward_small_id():
    item_embs = np.ones((4, 2))
    ids, _ = rank_items(np.array([0.5, 0.5]), item_embs, mask=None, k=3)
    assert ids.tolist() == [0, 1, 2]
    ids, _ = rank_items(np.array([0.5, 0.5]), item_embs, mask=[0, 2], k=2)
    assert ids.tolist() == [1, 3]


def test_rank_items_masks_and_exhaustion():
    item_embs = np.array([[3.0], [5.0], [4.0]])
    ids, exhausted = rank_items(np.array([1.0]), item_embs, mask=[1], k=2)
    assert ids.tolist() == [2, 0] and not exhausted
    ids, exhausted = rank_items(np.array([1.0]), item_embs, mask=[0, 1], k=3)
    assert ids.tolist() == [2] and exhausted
    with pytest.raises(ValueError, match="k must be"):
        rank_items(np.array([1.0]), item_embs, None, 0)


def test_rank_items_score_shift_changes_nothing():
    rng = np.random.default_rng(0)
    item_embs = rng.normal(size=(20, 4))
    user = rng.normal(size=4)
    base, _ = rank_items(user, item_embs, mask=[3, 7], k=10)
    shifted, _ = rank_items(user * 2.0, item_embs, mask=[3, 7], k=10)
    assert base.tolist() == shifted.tolist()  # positive scaling is rank-safe


# -- single-list metrics --------------------------------------------------------


def test_recall_anchor():
    assert recall_at_k([1, 2, 3], {2, 9}) == 0.5
    assert recall_at_k([1, 2, 3], {7}) == 0.0
    assert recall_at_k([1, 2], {1, 2}) == 1.0
    with pytest.raises(ValueError, match="empty test"):
        recall_at_k([1], set())


def test_ndcg_single_hit_at_rank_two():
    got = ndcg_at_k([5, 9, 4], {9}, k=3)
    assert got == pytest.approx(1.0 / math.log2(3.0), rel=1e-14)


def test_ndcg_two_hits_with_three_relevant():
    # hits at ranks 1 and 4 of a k=5 list, 3 relevant items in total
    topk = [10, 3, 4, 11, 5]
    test = {10, 11, 12}
    dcg = 1.0 + 1.0 / math.log2(5.0)
    ideal = 1.0 + 1.0 / math.log2(3.0) + 1.0 / math.log2(4.0)
    assert ndcg_at_k(topk, test, k=5) == pytest.approx(dcg / ideal, rel=1e-14)


def test_ndcg_is_one_exactly_when_prefix_is_ideal():
    assert ndcg_at_k([0, 1, 5], {0, 1}, k=3) == pytest.approx(1.0)
    assert ndcg_at_k([0, 5, 1], {0, 1}, k=3) < 1.0
    # more relevant items than k: a fully relevant prefix is still ideal
    assert ndcg_at_k([0, 1], {0, 1, 2}, k=2) == pytest.approx(1.0)


def test_hit_ratio_anchor():
    assert hit_ratio_at_k([1, 2], {2}) == 1.0
    assert hit_ratio_at_k([1, 2], {3}) == 0.0
    with pytest.raises(ValueError):
        hit_ratio_at_k([1], set())


def test_recall_and_hit_monotone_in_k():
    rng = np.random.default_rng(1)
    item_embs = rng.normal(size=(30, 3))
    user = rng.normal(size=3)
    test = {4, 9, 17}
    full, _ = rank_items(user, item_embs, mask=None, k=30)
    prev_r, prev_h = 0.0, 0.0
    for k in range(1, 31):
        r = recall_at_k(full[:k], test)
        h = hit_ratio_at_k(full[:k], test)
        assert r >= prev_r and h >= prev_h
        prev_r, prev_h = r, h
    assert prev_r == 1.0 and prev_h == 1.0


# -- full evaluation with exchange embeddings -------------------------------------


def one_hot_bundle():
    store = build_store(
        {0: [0, 1], 1: [2], 2: [3, 4]},
        test={0: [2], 1: [4], 2: [0]},
        num_items=5,
    )
    graph = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=5)
    return DatasetBundle(store=store, graph=graph, corpus=ItemCorpus(5, {}))


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
        corpus=ItemCorpus(4, {}),
    )
    rng = np.random.default_rng(2)
    items = EmbeddingMatrixFile("item", np.arange(4), rng.normal(size=(4, 3)))
    users = EmbeddingMatrixFile("user", np.arange(3), rng.normal(size=(3, 3)))
    report = evaluate_embeddings(users, items, b, "test", ks=(2,))
    assert report.users_evaluated == 1
    assert report.users_skipped == 2  # trained users with nothing to test


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
    return DatasetBundle(store=store, graph=graph, corpus=ItemCorpus(6, {}))


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
    p.user_emb[synth_bundle.store.cold_users] = 50.0
    assert evaluate(p, synth_bundle, "cold_start", ks=ks) == report


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
        corpus=ItemCorpus(3, {}),
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
    with pytest.raises(DatasetError, match="entity count mismatch"):
        evaluate(wrong_entities, b, "test")


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
