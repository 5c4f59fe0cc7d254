from dataclasses import replace

import numpy as np
import pytest
from conftest import build_store, score_row_grads
from dcor_reference import dist_and_centered

from kgrec import optim, training
from kgrec.content import (EmbeddingMatrixFile, exchange_tables, init_content, read_embeddings, train_content,
                           write_embeddings_text)
from kgrec.data import SPLIT_NAMES, DatasetBundle, ItemCorpus, kg_from_triplets, make_synthetic_dataset
from kgrec.evaluation import evaluate, evaluate_embeddings
from kgrec.losses import LossWeights, pca_project
from kgrec.model import backward, forward, init_params, preference_embeddings, save_checkpoint
from kgrec.optim import ADAM_BLOCK, AdamState, TrainConfig, adam_step, init_adam, lr_at, pack
from kgrec.training import (
    FD_STEP,
    LossParts,
    _fd_sweep,
    grad_check,
    kmpn_loss_and_grads,
    train_ckmpn,
    train_kmpn,
)


# -- learning-rate schedule -----------------------------------------------------


def test_lr_linear_interpolation_anchors():
    cfg = TrainConfig(lr_start=0.1, lr_end=0.02)
    assert lr_at(cfg, 0, 10) == pytest.approx(0.1)
    assert lr_at(cfg, 10, 10) == pytest.approx(0.02)
    assert lr_at(cfg, 5, 10) == pytest.approx(0.06)
    assert lr_at(cfg, 1, 4) == pytest.approx(0.08)


def test_lr_schedule_monotone_non_increasing():
    cfg = TrainConfig(lr_start=1e-3, lr_end=0.0)
    vals = [lr_at(cfg, s, 50) for s in range(51)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1e-3 and vals[-1] == 0.0


def test_lr_range_errors():
    cfg = TrainConfig()
    with pytest.raises(ValueError, match="total_steps"):
        lr_at(cfg, 0, 0)
    with pytest.raises(ValueError, match="outside"):
        lr_at(cfg, 7, 5)
    with pytest.raises(ValueError, match="outside"):
        lr_at(cfg, -1, 5)


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError, match="lr_start >= lr_end"):
        TrainConfig(lr_start=0.1, lr_end=0.2).validate()
    with pytest.raises(ValueError, match="^dcorr must be >= 0$"):
        TrainConfig(weights=LossWeights(dcorr=-1.0)).validate()
    with pytest.raises(ValueError, match="^h must be >= 1$"):  # not a ZeroDivisionError from sqrt(6 / h)
        init_params(3, 2, 2, h=0)
    with pytest.raises(ValueError, match="^h must be >= 1$"):
        init_content(h=0)


# -- Adam -------------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    tensors = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, -0.25, 1e3])}
    state = init_adam(tensors)
    adam_step(tensors, grads, state, lr=0.1)
    # bias correction makes the first update lr * g / (|g| + eps) ~ lr * sign(g)
    np.testing.assert_allclose(
        tensors["w"], [1.0 - 0.1, -2.0 + 0.1, 3.0 - 0.1], rtol=1e-6
    )
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    tensors = {"w": np.array([0.3, 0.7])}
    state = init_adam(tensors)
    adam_step(tensors, {"w": np.zeros(2)}, state, lr=0.5)
    np.testing.assert_array_equal(tensors["w"], [0.3, 0.7])
    assert state.step == 1


def test_adam_descends_quadratic_bowl():
    rng = np.random.default_rng(0)
    tensors = {"x": rng.normal(size=6) * 3.0}
    state = init_adam(tensors)
    start = float(np.sum(tensors["x"] ** 2))
    for _ in range(300):
        adam_step(tensors, {"x": tensors["x"].copy()}, state, lr=0.05)
    assert float(np.sum(tensors["x"] ** 2)) < 1e-3 * start


def test_adam_two_steps_match_closed_form():
    # beta1 = 0.9, beta2 = 0.999, eps = 1e-8; the 1e-8 gradient makes eps show
    g1 = np.array([0.5, -2.0, 1e-8, 3e-3])
    g2 = np.array([-0.25, -1.0, 2e-8, 7e-3])
    x0 = np.array([3.0, -2.5, 2.0, 4.0])
    lr = 0.1
    tensors = {"w": x0.copy()}
    state = init_adam(tensors)
    adam_step(tensors, {"w": g1}, state, lr)
    adam_step(tensors, {"w": g2}, state, lr)
    # after bias correction: m_hat = (b1 g1 + g2) / (1 + b1), v_hat = (b2 g1^2 + g2^2) / (1 + b2)
    m_hat = (0.9 * g1 + g2) / 1.9
    v_hat = (0.999 * g1**2 + g2**2) / 1.999
    expect = x0 - lr * g1 / (np.abs(g1) + 1e-8) - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(tensors["w"], expect, rtol=1e-15, atol=0)
    np.testing.assert_allclose(state.m["w"], 0.1 * (0.9 * g1 + g2), rtol=1e-15, atol=0)
    np.testing.assert_allclose(state.v["w"], 0.001 * (0.999 * g1**2 + g2**2), rtol=1e-15, atol=0)
    assert state.step == 2


def test_adam_steps_equal_the_plain_update_expression_bit_for_bit():
    def plain_step(tensors, grads, m, v, t, lr):  # the update as one numpy expression per line
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for name, param in tensors.items():
            g = grads[name]
            m[name] *= 0.9
            m[name] += (1.0 - 0.9) * g
            v[name] *= 0.999
            v[name] += (1.0 - 0.999) * (g * g)
            param -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + 1e-8)

    rng = np.random.default_rng(17)
    shapes = {"table": (300, 64), "row": (7,), "tiny": (5, 3)}
    tensors = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: t.copy() for k, t in tensors.items()}
    m, v = ({k: np.zeros(s) for k, s in shapes.items()} for _ in range(2))
    state = init_adam(tensors)
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-9, 2, size=s) for k, s in shapes.items()}
        adam_step(tensors, grads, state, 0.05 / t)
        plain_step(want, grads, m, v, t, 0.05 / t)
        for k in shapes:
            assert np.array_equal(tensors[k], want[k]), (t, k)
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k]), (t, k)


def _count_adam_rows(monkeypatch) -> list:
    """A list that grows by one for every `optim._adam_rows` call."""
    calls, real = [], optim._adam_rows
    monkeypatch.setattr(optim, "_adam_rows", lambda *args: calls.append(1) or real(*args))
    return calls


def test_packed_adam_equals_tensor_by_tensor_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    shapes = {"table": (300, 64), "w": (64, 32), "b": (32,), "col": (32, 1), "one": (1,)}
    assert 300 * 64 > ADAM_BLOCK  # the table alone takes two blocks
    apart = {k: rng.normal(size=s) for k, s in shapes.items()}
    packed = pack(apart)
    assert len({id(t.base) for t in packed.values()}) == 1
    states = init_adam(apart), init_adam(packed)
    calls = _count_adam_rows(monkeypatch)
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-9, 2, size=s) for k, s in shapes.items()}
        adam_step(apart, grads, states[0], 0.05 / t)
        assert len(calls) == 8 * t - 2  # two table blocks and four whole tensors
        adam_step(packed, grads, states[1], 0.05 / t)
        assert len(calls) == 8 * t  # two blocks of one 21313-value buffer
        for k in shapes:
            assert np.array_equal(packed[k], apart[k]), (t, k)
            for d0, d1 in ((states[0].m, states[1].m), (states[0].v, states[1].v)):
                assert np.array_equal(d1[k], d0[k]), (t, k)


def test_one_adam_update_per_content_instance_and_unchanged_graph_batches(synth_bundle, monkeypatch):
    store, graph = synth_bundle.store, synth_bundle.graph
    calls = _count_adam_rows(monkeypatch)
    train_content(synth_bundle.corpus, store, init_content(), TrainConfig(epochs=1))
    assert len(calls) == np.count_nonzero(store.train.counts())  # one instance per train user
    calls.clear()
    p = init_params(graph.num_entities, graph.num_relations, store.num_users)
    train_kmpn(synth_bundle, p, TrainConfig(epochs=1, batch_size=len(store.train_pairs()[0])))
    assert len(calls) == 6  # entity_emb [340, 64] in two row blocks, the other four tensors whole


def test_adam_error_messages_name_tensor():
    tensors = {"emb": np.zeros(3), "w": np.zeros(2)}
    state = init_adam(tensors)
    with pytest.raises(ValueError, match="non-finite gradient in emb"):
        adam_step(
            tensors,
            {"emb": np.array([0.0, np.nan, 0.0]), "w": np.zeros(2)},
            state,
            lr=0.1,
        )
    with pytest.raises(ValueError, match="shape mismatch for w"):
        adam_step(
            tensors,
            {"emb": np.zeros(3), "w": np.zeros(3)},
            state,
            lr=0.1,
        )


def test_adam_bad_last_gradient_touches_nothing():
    rng = np.random.default_rng(4)
    tensors = {name: rng.normal(size=(3, 2)) for name in ("entity_emb", "relation_emb", "user_emb")}
    state = init_adam(tensors)
    adam_step(tensors, {k: rng.normal(size=(3, 2)) for k in tensors}, state, lr=0.1)
    snapshot = [{k: t.copy() for k, t in d.items()} for d in (tensors, state.m, state.v)]
    grads = {k: rng.normal(size=(3, 2)) for k in tensors}
    grads["user_emb"][1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient in user_emb"):
        adam_step(tensors, grads, state, lr=0.1)
    assert state.step == 1
    for before, after in zip(snapshot, (tensors, state.m, state.v)):
        for name in tensors:
            np.testing.assert_array_equal(after[name], before[name])


def test_adam_state_moments_track_shapes():
    tensors = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    state = init_adam(tensors)
    assert isinstance(state, AdamState)
    assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (4,)
    assert state.step == 0


# -- composite objective ------------------------------------------------------------


def tiny_bundle():
    store = build_store(
        {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [0, 5]},
        valid={0: [2]},
        num_items=6,
    )
    triplets = [(i, i % 2, 6 + (i % 3)) for i in range(6)]
    graph = kg_from_triplets(triplets, num_relations_raw=2, num_entities=9)
    corpus = ItemCorpus(tuple(f"tok{i}" for i in range(6)))
    return DatasetBundle(store=store, graph=graph, corpus=corpus)


def tiny_params(bundle, h=8, seed=0):
    return init_params(
        bundle.graph.num_entities,
        bundle.graph.num_relations,
        bundle.store.num_users,
        h=h,
        n_layers=2,
        n_pref=3,
        n_meta=4,
        seed=seed,
    )


def tiny_content(bundle, h=8, seed=1):
    rng = np.random.default_rng(seed)
    return (
        EmbeddingMatrixFile(
            "item",
            np.arange(bundle.store.num_items),
            rng.normal(size=(bundle.store.num_items, h)),
        ),
        EmbeddingMatrixFile(
            "user",
            np.arange(bundle.store.num_users),
            rng.normal(size=(bundle.store.num_users, h)),
        ),
    )


def tiny_tables(bundle):
    """tiny_content's pair as the dense (item, user) tables the loss reads."""
    store = bundle.store
    return exchange_tables(*tiny_content(bundle), np.arange(store.num_items), np.arange(store.num_users), 8)


def test_loss_parts_total_is_linear_combination():
    parts = LossParts(bpr=1.0, l2=2.0, dcorr=3.0, cs=4.0)
    w = LossWeights(l2=0.5, dcorr=0.25, cross_system=2.0)
    assert parts.total(w) == pytest.approx(1.0 + 1.0 + 0.75 + 8.0)


def test_objective_value_agrees_with_and_without_grads():
    b = tiny_bundle()
    p = tiny_params(b)
    w = LossWeights(l2=0.01, dcorr=0.5, cross_system=0.2, pca_keep=0.5)
    content = tiny_tables(b)
    users = np.array([0, 1, 2])
    pos = np.array([0, 2, 4])
    neg = np.array([3, 5, 1])
    total1, grads, parts, basis = kmpn_loss_and_grads(
        p, b.graph, b.store, users, pos, neg, w, content=content
    )
    total2, no_grads, parts2, _ = kmpn_loss_and_grads(
        p, b.graph, b.store, users, pos, neg, w, content=content,
        frozen_basis=basis, compute_grads=False,
    )
    assert no_grads is None and grads is not None
    assert total1 == pytest.approx(total2, rel=1e-13)
    assert parts.total(w) == pytest.approx(total1, rel=1e-13)
    assert parts2 == parts
    assert parts.bpr > 0 and parts.l2 > 0 and parts.dcorr > 0 and parts.cs > 0


def test_objective_skips_disabled_terms():
    b = tiny_bundle()
    p = tiny_params(b)
    users, pos, neg = np.array([0, 1]), np.array([1, 2]), np.array([4, 0])
    w = LossWeights(l2=0.01, dcorr=0.0, cross_system=0.0)
    total, _, parts, basis = kmpn_loss_and_grads(
        p, b.graph, b.store, users, pos, neg, w, content=tiny_tables(b)
    )
    assert parts.dcorr == 0.0 and parts.cs == 0.0 and basis is None
    assert total == pytest.approx(parts.bpr + w.l2 * parts.l2, rel=1e-13)


# -- training loops -----------------------------------------------------------------


def test_train_zero_epochs_returns_untouched_copy():
    b = tiny_bundle()
    p = tiny_params(b)
    out, lines = train_kmpn(b, p, TrainConfig(epochs=0))
    assert lines == [] and out is not p
    for name, t in p.tensors().items():
        np.testing.assert_array_equal(t, out.tensors()[name])


def test_train_is_deterministic_and_logs_every_epoch():
    b = tiny_bundle()
    p = tiny_params(b)
    cfg = TrainConfig(epochs=4, batch_size=4, lr_start=0.01, seed=5)
    out1, lines1 = train_kmpn(b, p, cfg)
    out2, lines2 = train_kmpn(b, p, cfg)
    assert lines1 == lines2
    for name, t in out1.tensors().items():
        np.testing.assert_array_equal(t, out2.tensors()[name])
    assert len(lines1) == 4
    for k, line in enumerate(lines1):
        fields = line.split("\t")
        assert len(fields) == 7  # epoch total bpr l2 dcorr cs lr
        assert fields[0] == str(k + 1)
        assert float(fields[2]) > 0  # ranking term present
        assert fields[5] == "0.0"  # no alignment term in the plain run


def test_non_finite_gradient_names_epoch_and_batch(monkeypatch):
    b = tiny_bundle()  # 8 train interactions: 3 batches of at most 3 per epoch
    real, calls = training.kmpn_loss_and_grads, []

    def poisoned(*args, **kwargs):
        total, grads, parts, basis = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 5:
            grads["pref_logits"][0, 0] = np.nan
        return total, grads, parts, basis

    monkeypatch.setattr(training, "kmpn_loss_and_grads", poisoned)
    with pytest.raises(ValueError, match="^epoch 2 batch 2: non-finite gradient in pref_logits$"):
        train_kmpn(b, tiny_params(b), TrainConfig(epochs=3, batch_size=3, lr_start=0.01, seed=5))


def test_per_user_tuple_store_trains_and_evaluates_like_build_store(synth_bundle):
    """A store rebuilt with `replace(store, train=<tuple of arrays>)`, as the
    benchmark shards it, behaves as the build_store store of the same rows."""
    store = synth_bundle.store
    empty = np.empty(0, dtype=np.int64)
    rows = tuple(np.array(store.train[u]) if u % 3 else empty for u in range(store.num_users))
    held = (store.valid, store.test, store.cold_history, store.cold_test)
    built = build_store(
        *({u: v for u, v in enumerate(split) if len(v)} for split in (rows, *held)),
        num_users=store.num_users,
        num_items=store.num_items,
    )
    bundles = [replace(synth_bundle, store=replace(store, train=rows)), replace(synth_bundle, store=built)]
    g = synth_bundle.graph
    p = init_params(g.num_entities, g.num_relations, store.num_users, h=8, n_layers=2, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=256, lr_start=0.01, seed=4)
    (out_a, lines_a), (out_b, lines_b) = (train_kmpn(b, p, cfg) for b in bundles)
    assert lines_a == lines_b
    for name, t in out_a.tensors().items():
        np.testing.assert_array_equal(t, out_b.tensors()[name], err_msg=name)
    for split in ("test", "cold_start"):
        reports = [evaluate(out_a, b, split).render() for b in bundles]
        assert reports[0] == reports[1]


def test_train_with_zero_alignment_weight_matches_plain_run():
    b = tiny_bundle()
    p = tiny_params(b)
    w = LossWeights(l2=0.01, dcorr=0.1, cross_system=0.0)
    cfg = TrainConfig(epochs=3, batch_size=4, lr_start=0.01, seed=2, weights=w)
    out_plain, lines_plain = train_kmpn(b, p, cfg)
    out_ck, lines_ck = train_ckmpn(b, p, tiny_content(b), cfg)
    assert lines_plain == lines_ck
    for name, t in out_plain.tensors().items():
        np.testing.assert_array_equal(t, out_ck.tensors()[name])


def test_train_alignment_term_changes_the_run():
    b = tiny_bundle()
    p = tiny_params(b)
    base = TrainConfig(epochs=2, batch_size=4, lr_start=0.01, seed=2)
    with_cs = TrainConfig(
        epochs=2, batch_size=4, lr_start=0.01, seed=2,
        weights=LossWeights(cross_system=0.5),
    )
    _, lines_plain = train_kmpn(b, p, base)
    _, lines_ck = train_ckmpn(b, p, tiny_content(b), with_cs)
    assert lines_plain != lines_ck
    assert float(lines_ck[0].split("\t")[5]) > 0.0


def test_train_ckmpn_requires_content():
    b = tiny_bundle()
    with pytest.raises(ValueError, match="content embeddings required"):
        train_ckmpn(b, tiny_params(b), None, TrainConfig(epochs=1))


def test_train_content_pair_validation_errors():
    b = tiny_bundle()
    p = tiny_params(b)
    cfg = TrainConfig(epochs=1, batch_size=4)

    items, users = tiny_content(b)
    short = EmbeddingMatrixFile("item", np.arange(4), items.vectors[:4])
    with pytest.raises(ValueError, match=r"^embedding file \(item\) is missing id 4$"):
        train_ckmpn(b, p, (short, users), cfg)

    rng = np.random.default_rng(0)
    wrong_dim = EmbeddingMatrixFile(
        "item", np.arange(6), rng.normal(size=(6, 4))
    )
    with pytest.raises(ValueError, match="content embedding dim 4 != model h 8"):
        train_ckmpn(b, p, (wrong_dim, users), cfg)

    with pytest.raises(ValueError, match=r"\(item file, user file\)"):
        train_ckmpn(b, p, (users, items), cfg)


def test_exchange_rows_in_any_id_order_give_identical_runs(synth_bundle, tmp_path):
    """The dense tables gather each id's row through the file's own id
    order: a pair written with its rows shuffled, and with ids beyond the
    catalog, trains and scores byte for byte like the canonical pair."""
    store, g = synth_bundle.store, synth_bundle.graph
    rng = np.random.default_rng(11)
    item_vecs, user_vecs = rng.normal(size=(store.num_items + 3, 8)), rng.normal(size=(store.num_users + 3, 8))
    p = init_params(g.num_entities, g.num_relations, store.num_users, h=8, n_layers=1, n_pref=2, n_meta=2, seed=3)
    cfg = TrainConfig(epochs=1, batch_size=512, lr_start=0.01, seed=4, weights=LossWeights(cross_system=0.5))
    outputs = []
    for tag, item_ids, user_ids in (
        ("canonical", np.arange(store.num_items), np.arange(store.num_users)),
        ("permuted", rng.permutation(store.num_items + 3), rng.permutation(store.num_users + 3)),
    ):
        pair = []
        for kind, vecs, ids in (("item", item_vecs, item_ids), ("user", user_vecs, user_ids)):
            write_embeddings_text(EmbeddingMatrixFile(kind, ids, vecs[ids]), tmp_path / f"{tag}_{kind}s.txt")
            pair.append(read_embeddings(tmp_path / f"{tag}_{kind}s.txt"))
        trained, lines = train_ckmpn(synth_bundle, p, tuple(pair), cfg)
        save_checkpoint(trained, tmp_path / f"{tag}.kmpn")
        report = evaluate_embeddings(pair[1], pair[0], synth_bundle, "test")
        outputs.append(("".join(line + "\n" for line in lines), (tmp_path / f"{tag}.kmpn").read_bytes(), report.render()))
    assert float(outputs[0][0].split("\t")[5]) > 0.0  # the alignment term read the rows
    assert outputs[1] == outputs[0]


# -- gradient checker -----------------------------------------------------------------


def test_grad_check_passes_on_graph_model():
    report = grad_check("kmpn", tolerance=1e-4, seed=0)
    assert report.passed, report.render()
    assert report.max_rel_err < 1e-4
    assert {e.tensor for e in report.entries} == {
        "entity_emb", "relation_emb", "user_emb", "meta_pref_emb", "pref_logits",
    }
    assert report.runtime_s < 30.0


def test_grad_check_zero_tolerance_flags_every_tensor():
    report = grad_check("content", tolerance=0.0, seed=0)
    assert not report.passed
    assert all(not e.passed for e in report.entries)
    text = report.render()
    assert "result=FAIL" in text and "FAIL" in text.splitlines()[1]


def test_grad_check_render_shape():
    report = grad_check("content", tolerance=1e-4, seed=1)
    assert report.passed
    lines = report.render().splitlines()
    assert lines[0].startswith("gradcheck kind=content")
    assert len(lines) == 2 + len(report.entries)
    assert lines[-1].startswith("max_rel_err=")
    with pytest.raises(ValueError, match="unknown gradcheck kind"):
        grad_check("bogus")


def pair_loop_fd_conditioning(params, keep_fraction):
    """_fd_conditioning as a loop over rows and row pairs (the pre-Gram
    form, kept as the reference)."""
    _, pref = preference_embeddings(params)
    _, Z = pca_project(pref, keep_fraction)
    n, k = Z.shape
    margin = np.inf
    centered = []
    for row in Z:
        diff = np.abs(row[:, None] - row[None, :])
        iu = np.triu_indices(k, 1)
        if len(iu[0]):
            margin = min(margin, float(diff[iu].min()))
        centered.append(dist_and_centered(row)[1])
    k2 = float(k * k)
    for i in range(n):
        for j in range(i + 1, n):
            A, B = centered[i], centered[j]
            margin = min(
                margin,
                float((A * B).sum() / k2),
                float((A * A).sum() / k2),
                float((B * B).sum() / k2),
            )
    return margin


def test_fd_conditioning_matches_pair_loop_reference():
    for seed in range(10):
        params = training._kmpn_instance(seed, with_content=False)[0]
        # the shrunk logits give near-identical rows, a candidate the search rejects
        shrunk = params.copy()
        shrunk.pref_logits *= 1e-3
        for p in (params, shrunk):
            for keep in (0.5, 1.0):
                want = pair_loop_fd_conditioning(p, keep)
                assert training._fd_conditioning(p, keep) == pytest.approx(want, rel=1e-12)
        assert training._fd_conditioning(params, 0.5) > 1e-3 > training._fd_conditioning(shrunk, 0.5)


@pytest.mark.parametrize("seed", range(4))
def test_gradcheck_instance_is_a_rich_synthetic_dataset(seed):
    # criterion 1 runs on these instances: pin where they come from and that
    # they reach several head degrees, a padded chunk, every relation and
    # uneven histories
    _, graph, store, _, _, _ = training._kmpn_instance(seed, with_content=False)
    want_store, want_graph, corpus = make_synthetic_dataset(training.GRADCHECK_SPEC, seed)
    assert graph.num_entities == want_graph.num_entities
    np.testing.assert_array_equal(graph.raw_triplets(), want_graph.raw_triplets())
    assert (store.num_users, store.num_items) == (want_store.num_users, want_store.num_items)
    for name in SPLIT_NAMES:
        np.testing.assert_array_equal(store.split(name).indptr, want_store.split(name).indptr)
        np.testing.assert_array_equal(store.split(name).items, want_store.split(name).items)
    content_params, table = training._content_instance(seed)[:2]
    for got, want in zip(table, corpus.buckets(content_params.num_buckets)):
        np.testing.assert_array_equal(got, want)

    assert len(set(graph.degrees[graph.degrees > 0].tolist())) >= 3
    assert len(graph.walk.chunks) >= 2 and (graph.walk.scale == 0).any()
    assert set(graph.edge_rel.tolist()) == set(range(graph.num_relations))
    assert len(set(store.train.counts().tolist())) >= 2


# -- degenerate shapes -----------------------------------------------------------------


def degenerate_instance(seed, n_layers):
    """Random tiny instance with an isolated entity (9), an item without KG
    edges (5), one-item users (0 and 2) and a repeated batch user."""
    rng = np.random.default_rng(seed)
    linked = [0, 1, 2, 3, 4, 6, 7, 8]
    triplets = [
        (int(rng.choice(linked)), int(rng.integers(2)), int(rng.choice(linked))) for _ in range(10)
    ]
    graph = kg_from_triplets(triplets, num_relations_raw=2, num_entities=10)
    train = {0: [int(rng.integers(6))], 1: [0, 2], 2: [5], 3: [int(rng.integers(5)), 5]}
    store = build_store(train, num_users=4, num_items=6)
    params = init_params(10, graph.num_relations, 4, h=3, n_layers=n_layers, n_pref=2, n_meta=3,
                         seed=seed)
    users = np.array([0, 1, 2, 3, 0])
    pos = np.array([train[int(u)][-1] for u in users])
    neg = np.array([5, 4, 1, 0, 3])
    return params, graph, store, (users, pos, neg)


@pytest.mark.parametrize("n_layers", [0, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degenerate_shapes_finite_and_gradchecked(seed, n_layers):
    params, graph, store, (users, pos, neg) = degenerate_instance(seed, n_layers)
    assert graph.degrees[5] == 0 and graph.degrees[9] == 0
    trace, pos_s, neg_s = forward(params, graph, store, users, pos, neg)
    assert len(trace.layers) == n_layers  # the sweep inputs; the last layer lives on in entity_agg
    for layer in trace.layers:
        assert layer.shape == (10, 3) and np.isfinite(layer).all()
        assert layer is trace.layers[0] or np.all(layer[[5, 9]] == 0.0)
    assert np.isfinite(trace.entity_agg).all()
    assert trace.entity_agg.shape == (store.num_items, 3)  # entity 9 is no item: the top sweep skips it
    assert np.all(trace.entity_agg[5] == params.entity_emb[5])  # no sweep reaches item 5
    assert pos_s.shape == neg_s.shape == (5,)
    assert np.isfinite(pos_s).all() and np.isfinite(neg_s).all()
    grads = backward(params, graph, trace, *score_row_grads(trace, np.ones(5), -np.ones(5)))
    for name, t in params.tensors().items():
        assert grads[name].shape == t.shape and np.isfinite(grads[name]).all(), name
    assert np.all(grads["entity_emb"][9] == 0.0)  # reached by no edge, history or batch row
    if n_layers == 0:
        assert np.all(grads["relation_emb"] == 0.0)

    weights = LossWeights(l2=0.05, dcorr=0.0, cross_system=0.0)
    _, grads, _, _ = kmpn_loss_and_grads(params, graph, store, users, pos, neg, weights)

    def value_fn():
        return kmpn_loss_and_grads(
            params, graph, store, users, pos, neg, weights, compute_grads=False
        )[0]

    entries = _fd_sweep(params.tensors(), grads, value_fn, 1e-4, FD_STEP)
    assert all(e.passed for e in entries), entries
