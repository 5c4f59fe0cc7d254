import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from kgrec import content, data
from kgrec.content import (
    EmbeddingMatrixFile,
    click_instance,
    encode_items,
    encode_user,
    exchange_tables,
    export_embeddings,
    init_content,
    load_content_checkpoint,
    read_embeddings,
    save_content_checkpoint,
    train_content,
    write_embeddings_binary,
    write_embeddings_text,
)
from kgrec.data import ItemCorpus, build_store, fnv1a_64, tokenize
from kgrec.optim import TrainConfig, adam_step, init_adam, lr_at
from kgrec.sampling import build_sampler


# -- hashing and tokenization ---------------------------------------------------


def test_fnv1a_64_published_vectors():
    assert fnv1a_64("") == 0xCBF29CE484222325
    assert fnv1a_64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64("foobar") == 0x85944171F73967E8


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World-2!") == ["hello", "world", "2"]
    assert tokenize("") == []
    assert tokenize("  \t\n ") == []
    assert tokenize("a a A") == ["a", "a", "a"]


@pytest.mark.parametrize("num_buckets", [17, 4096, 2**40 + 7])
def test_corpus_buckets_match_hash_mod(num_buckets):
    corpus = ItemCorpus(("red Lamp red", "", "", "Blue-lamp 42"))
    indptr, ids = corpus.buckets(num_buckets)
    assert indptr.dtype == np.int64 and ids.dtype == np.int64
    for i in range(4):  # item 1 has no tokens, item 2 no text
        want = [fnv1a_64(t) % num_buckets for t in tokenize(corpus.texts[i])]
        assert ids[indptr[i] : indptr[i + 1]].tolist() == want  # order and multiplicity preserved

    indptr, ids = ItemCorpus((" -- ", "", "")).buckets(num_buckets)
    assert indptr.tolist() == [0, 0, 0, 0] and len(ids) == 0
    assert indptr.dtype == np.int64 and ids.dtype == np.int64


def test_corpus_is_tokenized_once_per_item(monkeypatch, tmp_path):
    corpus, store = _sparse_dataset()
    real, texts = data.tokenize, []
    monkeypatch.setattr(data, "tokenize", lambda text: texts.append(text) or real(text))
    for num_buckets in (256, 64):
        p = init_content(h=8, num_buckets=num_buckets, history_size=2, num_negatives=3, seed=1)
        train_content(corpus, store, p, TrainConfig(epochs=1, seed=num_buckets))
    export_embeddings(p, corpus, store, tmp_path, write_binary=False)
    assert sorted(texts) == sorted(corpus.texts[i] for i in range(corpus.num_items))


# -- item encoder ----------------------------------------------------------------


def _item_mean(p, text):
    """Reference item vector: the mean of its token buckets' rows, zero for none."""
    b = [fnv1a_64(t) % p.num_buckets for t in tokenize(text)]
    return p.bucket_emb[b].mean(axis=0) if b else np.zeros(p.h)


@pytest.mark.parametrize(
    "h,num_buckets,seed,texts,check",
    [
        (4, 8, 0, ["axe bolt"], lambda v: True),
        (4, 8, 0, ["", "axe"], lambda v: not v[0].any() and v[1].any()),
        (6, 32, 1, ["axe bolt coal", "coal axe bolt"], lambda v: np.array_equal(v[0], v[1])),
        (4, 64, 2, ["axe axe bolt", "axe", "bolt"],
         lambda v: np.allclose(v[0], (2 * v[1] + v[2]) / 3.0, rtol=1e-15, atol=0.0)),
    ],
    ids=["mean", "empty-text-zero", "order-invariant", "multiplicity"],
)
def test_encode_items_matches_per_item_mean(h, num_buckets, seed, texts, check):
    p = init_content(h=h, num_buckets=num_buckets, seed=seed)
    corpus = ItemCorpus(tuple(texts))
    vecs, concat, counts = encode_items(p.bucket_emb, corpus.buckets(num_buckets), np.arange(len(texts)))
    for i, text in enumerate(texts):
        np.testing.assert_array_equal(vecs[i], _item_mean(p, text))
    assert counts.tolist() == [len(tokenize(t)) for t in texts]
    assert concat.tolist() == [fnv1a_64(t) % num_buckets for text in texts for t in tokenize(text)]
    assert check(vecs)


# -- user encoder ----------------------------------------------------------------


def test_encode_user_single_row_is_identity():
    p = init_content(h=4, num_buckets=8, seed=3)
    E = np.array([[1.0, -2.0, 0.5, 3.0]])
    vec, alpha = encode_user(E, p)
    np.testing.assert_array_equal(alpha, [1.0])
    np.testing.assert_allclose(vec, E[0], rtol=1e-15)


def test_encode_user_identical_rows_uniform_attention():
    p = init_content(h=4, num_buckets=8, seed=4)
    E = np.tile(np.array([0.3, 0.1, -0.2, 0.9]), (3, 1))
    vec, alpha = encode_user(E, p)
    np.testing.assert_allclose(alpha, np.full(3, 1 / 3), rtol=1e-14)
    np.testing.assert_allclose(vec, E[0], rtol=1e-14)


def test_encode_user_matches_manual_mlp():
    p = init_content(h=6, num_buckets=8, seed=5)
    rng = np.random.default_rng(6)
    E = rng.normal(size=(4, 6))
    vec, alpha = encode_user(E, p)

    scores = []
    for row in E:
        hidden = np.tanh(row @ p.fc1_w + p.fc1_b)
        scores.append(float(hidden @ p.fc2_w[:, 0] + p.fc2_b[0]))
    exp = np.exp(np.array(scores) - max(scores))
    want_alpha = exp / exp.sum()
    np.testing.assert_allclose(alpha, want_alpha, rtol=1e-13)
    np.testing.assert_allclose(vec, want_alpha @ E, rtol=1e-13)
    assert alpha.sum() == pytest.approx(1.0, rel=1e-14)


def test_encode_user_validates_input():
    p = init_content(h=4, num_buckets=8, seed=0)
    with pytest.raises(ValueError):
        encode_user(np.zeros((0, 4)), p)
    with pytest.raises(ValueError):
        encode_user(np.zeros((2, 5)), p)


# -- click instance ----------------------------------------------------------------


def _table(lists):
    """(indptr, bucket ids) table whose item k has the buckets lists[k]."""
    indptr = np.concatenate(([0], np.cumsum([len(b) for b in lists], dtype=np.int64)))
    return indptr, np.concatenate([*lists, np.empty(0, dtype=np.int64)]).astype(np.int64)


def _tiny_instance(seed=0):
    """Bucket lists of items 0-2 (history), 3 (positive) and 4-5 (negatives),
    and that instance as click_instance arguments after `p`."""
    p = init_content(h=4, num_buckets=10, history_size=3, num_negatives=2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    hist = [rng.integers(10, size=rng.integers(1, 4)) for _ in range(3)]
    pos = rng.integers(10, size=2)
    negs = [rng.integers(10, size=rng.integers(1, 3)) for _ in range(2)]
    lists = [*hist, pos, *negs]
    return p, lists, (_table(lists), np.arange(3), 3, np.array([4, 5]))


def test_click_instance_value_composes_encoders():
    from kgrec.losses import click_softmax_loss

    p, lists, args = _tiny_instance(1)
    loss, _ = click_instance(p, *args)

    E = np.stack([p.bucket_emb[b].mean(axis=0) for b in lists[:3]])
    user, _ = encode_user(E, p)
    pos_s = float(user @ p.bucket_emb[lists[3]].mean(axis=0))
    neg_s = np.array([float(user @ p.bucket_emb[b].mean(axis=0)) for b in lists[4:]])
    want, _, _ = click_softmax_loss(np.array([pos_s]), neg_s[None, :])
    assert loss == pytest.approx(want, rel=1e-13)


def test_click_instance_gradients_match_finite_differences():
    p, _, args = _tiny_instance(2)
    _, grads = click_instance(p, *args)
    step = 1e-6
    for name, tensor in p.tensors().items():
        flat = tensor.reshape(-1)
        fd = np.zeros_like(flat)
        for k in range(len(flat)):
            orig = flat[k]
            flat[k] = orig + step
            vp, _ = click_instance(p, *args, compute_grads=False)
            flat[k] = orig - step
            vm, _ = click_instance(p, *args, compute_grads=False)
            flat[k] = orig
            fd[k] = (vp - vm) / (2 * step)
        np.testing.assert_allclose(
            grads[name].reshape(-1), fd, rtol=5e-6, atol=1e-9, err_msg=name
        )


def test_click_instance_empty_item_encodes_zero_and_gets_no_grad():
    p = init_content(h=4, num_buckets=10, seed=7)
    table = _table([np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])])
    loss, grads = click_instance(p, table, np.array([0]), 1, np.array([2]))
    assert math.isfinite(loss)
    # positive item had no tokens, so only buckets 1, 2, 3 can receive grads
    touched = {k for k in range(10) if np.any(grads["bucket_emb"][k] != 0.0)}
    assert touched <= {1, 2, 3}


def test_click_instance_item_vectors_are_per_item_means():
    # one gather and one segment sum give each item's bucket mean bit for
    # bit (an empty item included), so the loss equals a per-item forward
    from kgrec.losses import click_softmax_loss

    p, lists, _ = _tiny_instance(4)
    lists += [np.array([], dtype=np.int64), np.arange(3), np.arange(1, 8)]
    hist, pos, negs = [0, 1, 2, 6, 7, 8], 3, [4, 5]

    def item_vec(b):
        return p.bucket_emb[b].mean(axis=0) if len(b) else np.zeros(p.h)

    user, _ = encode_user(np.stack([item_vec(lists[i]) for i in hist]), p)
    neg_s = np.stack([item_vec(lists[i]) for i in negs]) @ user
    want, _, _ = click_softmax_loss(np.array([float(user @ item_vec(lists[pos]))]), neg_s[None, :])
    loss, _ = click_instance(p, _table(lists), np.array(hist), pos, np.array(negs), compute_grads=False)
    assert loss == want


def test_click_instance_without_grads_returns_none():
    p, _, args = _tiny_instance(3)
    loss, grads = click_instance(p, *args, compute_grads=False)
    assert grads is None and math.isfinite(loss)


# -- training ------------------------------------------------------------------


def _cluster_dataset():
    texts = (
        "alpha axe",
        "alpha bolt",
        "alpha coal",
        "beta dire",
        "beta echo",
        "beta fang",
    )
    corpus = ItemCorpus(texts)
    store = build_store(
        {0: [0, 1, 2], 1: [0, 1, 2], 2: [3, 4, 5], 3: [3, 4, 5]},
        num_items=6,
    )
    return corpus, store


def test_train_content_zero_epochs_is_a_noop_copy():
    corpus, store = _cluster_dataset()
    p = init_content(h=8, num_buckets=32, history_size=2, num_negatives=2, seed=0)
    out, lines = train_content(corpus, store, p, TrainConfig(epochs=0))
    assert lines == []
    assert out is not p
    for name, t in p.tensors().items():
        np.testing.assert_array_equal(t, out.tensors()[name])


def test_train_content_deterministic_and_learns_clusters():
    corpus, store = _cluster_dataset()
    p = init_content(h=8, num_buckets=32, history_size=2, num_negatives=2, seed=0)
    cfg = TrainConfig(epochs=60, lr_start=0.05, lr_end=0.0, seed=3)
    out1, lines1 = train_content(corpus, store, p, cfg)
    out2, lines2 = train_content(corpus, store, p, cfg)
    assert lines1 == lines2
    for name, t in out1.tensors().items():
        np.testing.assert_array_equal(t, out2.tensors()[name])

    first = float(lines1[0].split("\t")[1])
    last = float(lines1[-1].split("\t")[1])
    assert last < first
    assert last < math.log(p.num_negatives + 1)  # better than uniform guessing
    assert len(lines1) == 60
    assert lines1[0].split("\t")[0] == "1"


def test_train_content_non_finite_gradient_names_epoch_and_user(monkeypatch):
    corpus, store = _cluster_dataset()  # 4 train users: one instance each per epoch
    real, calls = content.click_instance, []

    def poisoned(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 6:
            grads["fc2_b"][0] = np.inf
        return loss, grads

    monkeypatch.setattr(content, "click_instance", poisoned)
    p = init_content(h=8, num_buckets=32, history_size=2, num_negatives=2, seed=0)
    with pytest.raises(ValueError, match="^epoch 2 user [0-3]: non-finite gradient in fc2_b$"):
        train_content(corpus, store, p, TrainConfig(epochs=3, lr_start=0.05, seed=3))


def test_train_content_validates_corpus_store_pairing():
    corpus, store = _cluster_dataset()
    p = init_content(h=8, num_buckets=32, seed=0)
    with pytest.raises(ValueError, match="mismatch"):
        train_content(ItemCorpus(("",) * 5), store, p, TrainConfig(epochs=1))


def _dense_train_content(corpus, store, params, config):
    """Reference loop: click_instance and adam_step over the full
    [num_buckets, h] tensors, with the RNG calls of train_content."""
    params = params.copy()
    table = corpus.buckets(params.num_buckets)
    users = np.array([u for u in range(store.num_users) if len(store.train[u])], dtype=np.int64)
    sampler = build_sampler(store, uniform=True)
    rng = np.random.default_rng(config.seed)
    state = init_adam(params.tensors())
    lines = []
    for epoch in range(1, config.epochs + 1):
        lr = lr_at(config, epoch - 1, config.epochs)
        order = rng.permutation(users)
        negatives = sampler.sample_negatives(rng, np.repeat(order, params.num_negatives))
        total = 0.0
        for u, negs in zip(order, negatives.reshape(len(order), params.num_negatives)):
            items = store.train[u]
            pos = int(items[rng.integers(len(items))])
            rest = items[items != pos]
            pool = rest if len(rest) else items
            hist = rng.choice(pool, size=min(params.history_size, len(pool)), replace=False)
            loss, grads = click_instance(params, table, hist, pos, negs)
            assert grads["bucket_emb"].shape == (params.num_buckets, params.h)
            adam_step(params.tensors(), grads, state, lr)
            total += loss
        lines.append(f"{epoch}\t{total / len(users)!r}\t{lr!r}")
    return params, lines


def _sparse_dataset():
    """Eight items over a few tokens (one item has none): at most 9 of 256
    buckets are hit."""
    texts = ("alpha axe", "alpha bolt bolt", "alpha coal", "beta dire",
             "beta echo", "beta fang", "", "alpha beta")
    corpus = ItemCorpus(texts)
    store = build_store(
        {0: [0, 1, 2, 6], 1: [0, 1, 7], 2: [3, 4, 5], 3: [3, 4, 6, 7], 4: [2]}, num_items=8
    )
    return corpus, store


def test_train_content_equals_dense_reference_loop():
    corpus, store = _sparse_dataset()
    p = init_content(h=8, num_buckets=256, history_size=2, num_negatives=3, seed=1)
    cfg = TrainConfig(epochs=6, lr_start=0.05, lr_end=0.01, seed=5)
    out, lines = train_content(corpus, store, p, cfg)
    ref, ref_lines = _dense_train_content(corpus, store, p, cfg)
    assert lines == ref_lines
    for name, t in ref.tensors().items():
        assert out.tensors()[name].shape == t.shape
        np.testing.assert_array_equal(out.tensors()[name], t, err_msg=name)
    assert not np.array_equal(out.bucket_emb, p.bucket_emb)


def test_train_content_leaves_unhit_bucket_rows_bit_identical():
    corpus, store = _sparse_dataset()
    p = init_content(h=8, num_buckets=256, history_size=2, num_negatives=3, seed=2)
    out, _ = train_content(corpus, store, p, TrainConfig(epochs=4, lr_start=0.05, seed=6))
    hit = np.zeros(p.num_buckets, dtype=bool)
    hit[corpus.buckets(p.num_buckets)[1]] = True
    assert 0 < hit.sum() < p.num_buckets // 20
    np.testing.assert_array_equal(out.bucket_emb[~hit], p.bucket_emb[~hit])
    assert (out.bucket_emb[hit] != p.bucket_emb[hit]).any(axis=1).all()


def test_train_content_with_no_tokens_anywhere():
    corpus = ItemCorpus(("", "  --  ", "...", ""))
    store = build_store({0: [0, 1], 1: [2, 3]}, num_items=4)
    p = init_content(h=4, num_buckets=16, history_size=2, num_negatives=2, seed=3)
    out, lines = train_content(corpus, store, p, TrainConfig(epochs=2, lr_start=0.05, seed=1))
    assert len(lines) == 2
    for name, t in out.tensors().items():
        assert np.isfinite(t).all(), name
        # every item encodes to zero, so every gradient is zero
        np.testing.assert_array_equal(t, p.tensors()[name], err_msg=name)
    assert float(lines[0].split("\t")[1]) == pytest.approx(math.log(3))


# -- exchange files ---------------------------------------------------------------


def _emb(kind="item", n=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrixFile(
        kind=kind,
        ids=np.arange(n, dtype=np.int64),
        vectors=rng.normal(size=(n, dim)).astype(np.float32),
    )


def test_embedding_set_validation():
    with pytest.raises(ValueError, match="kind"):
        _emb(kind="thing")
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingMatrixFile("item", np.array([1, 1]), np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingMatrixFile("item", np.array([0]), np.array([[np.nan, 0.0]], dtype=np.float32))
    # the binary format stores u64 ids, so a negative id is refused up front
    with pytest.raises(ValueError, match="negative id -2"):
        EmbeddingMatrixFile("user", np.array([3, -2]), np.zeros((2, 2), dtype=np.float32))


def test_embedding_rows_lookup_and_missing_id():
    emb = _emb(n=5, dim=2)
    rows = emb.rows([3, 0])
    assert rows.dtype == np.float64
    np.testing.assert_array_equal(rows[0], emb.vectors[3].astype(np.float64))
    with pytest.raises(ValueError, match="missing id 9"):
        emb.rows([0, 9])


def test_embedding_rows_names_first_missing_id_in_wanted_order():
    emb = EmbeddingMatrixFile("user", np.array([7, 2, 5]), np.arange(6, dtype=np.float32).reshape(3, 2))
    np.testing.assert_array_equal(emb.rows([5, 7, 2]), [[4.0, 5.0], [0.0, 1.0], [2.0, 3.0]])
    assert emb.rows([]).shape == (0, 2)
    with pytest.raises(ValueError, match=r"\(user\) is missing id 9$"):
        emb.rows([2, 9, 1, 8])  # 9 sorts past every id, 1 before them; 9 comes first
    with pytest.raises(ValueError, match=r"missing id 3$"):
        emb.rows([7, 3, 99])


def test_text_round_trip_is_byte_stable(tmp_path):
    emb = _emb(n=6, dim=4, seed=1)
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_embeddings_text(emb, f1)
    back = read_embeddings(f1)
    assert back.kind == emb.kind
    np.testing.assert_array_equal(back.vectors, emb.vectors)  # %.9g is f32-exact
    write_embeddings_text(back, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_text_rows_are_the_id_then_each_value_as_9g(tmp_path):
    path = tmp_path / "e.txt"
    values = np.array([[0.0, -0.0, 1e-45, 3.4028235e38, 0.1, -2.5]], dtype=np.float32)
    write_embeddings_text(EmbeddingMatrixFile(kind="item", ids=[7], vectors=values), path)
    assert path.read_bytes() == b"EMB1 item 1 6\n7 0 -0 1.40129846e-45 3.40282347e+38 0.100000001 -2.5\n"
    write_embeddings_text(EmbeddingMatrixFile(kind="user", ids=[0, 3], vectors=np.zeros((2, 0))), path)
    assert path.read_bytes() == b"EMB1 user 2 0\n0 \n3 \n"  # a zero-width row keeps the space after its id


def test_binary_round_trip_is_byte_stable(tmp_path):
    emb = _emb(kind="user", n=6, dim=4, seed=2)
    f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_embeddings_binary(emb, f1)
    back = read_embeddings(f1)
    assert back.kind == "user"
    np.testing.assert_array_equal(back.vectors, emb.vectors)
    write_embeddings_binary(back, f2)
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("write", [write_embeddings_text, write_embeddings_binary])
def test_failed_embedding_write_keeps_earlier_file(tmp_path, write):
    path = tmp_path / "e"
    write(_emb(n=2, dim=2), path)
    before = path.read_bytes()
    # the third id is not an integer, so the write fails after two rows
    broken = SimpleNamespace(kind="item", count=3, dim=2, ids=[0, 1, "x"], vectors=np.ones((3, 2)))
    with pytest.raises(ValueError):
        write(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind


def test_text_and_binary_carry_identical_payloads(tmp_path):
    emb = _emb(n=5, dim=3, seed=3)
    write_embeddings_text(emb, tmp_path / "e.txt")
    write_embeddings_binary(emb, tmp_path / "e.bin")
    t = read_embeddings(tmp_path / "e.txt")
    b = read_embeddings(tmp_path / "e.bin")
    np.testing.assert_array_equal(t.vectors, b.vectors)
    np.testing.assert_array_equal(t.ids, b.ids)


def test_embedding_file_corruption_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("EMB1 item 2 3\n0 1 2 3\n")
    with pytest.raises(ValueError, match="row 1"):
        read_embeddings(bad)
    bad.write_text("EMB1 item 1 2\n0 1\n")
    with pytest.raises(ValueError, match="row 0 has 1 values"):
        read_embeddings(bad)
    bad.write_text("EMB1 gizmo 1 2\n0 1 2\n")
    with pytest.raises(ValueError, match="unknown embedding kind"):
        read_embeddings(bad)
    bad.write_text("EMB1 item 1 2\n0 1 2\nextra\n")
    with pytest.raises(ValueError, match="trailing"):
        read_embeddings(bad)

    emb = _emb(n=2, dim=2)
    write_embeddings_binary(emb, bad)
    raw = bad.read_bytes()
    bad.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        read_embeddings(bad)
    bad.write_bytes(raw + b"\x01")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_embeddings(bad)


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"EMB1 item 2 2\n0 1 2\n1 a 3\n", "row 1: could not convert string to float: 'a'"),
        (b"EMB1 item 3 1\n0 1\n", "truncated at row 1"),
        (b"EMB1 item 2 2\n0 1 2\n\n1 5 6\n", "row 1 is blank, expected an id and 2 values"),
        (b"EMB1 item 2 2\n0 1 2\n1 3 4\n\n2 5 6\n", "trailing data after 2 rows"),
        (b"EMB1 item two 2\n0 1 2\n", "header count 'two' and dim '2' must be integers >= 0"),
        (b"EMB1 item 1 2\n9223372036854775808 1 2\n", "row 0: id 9223372036854775808 is not in [0, 2**63)"),
        (b"EMB1 item 1 1\n-3 1\n", "row 0: id -3 is not in [0, 2**63)"),
        (b"EMB1 user 2 1\n3 1\n3 2\n", "duplicate ids in embedding set"),
        (b"EMB1 item 0 99999999999999999999\n", "dim 99999999999999999999 is too large"),
        (b"EMB1 user 0 9223372036854775807\n", "dim 9223372036854775807 is too large"),
        (b"CSEM" + struct.pack("<IBQI", 1, 0, 2, 2)[:9], "truncated header (13 of 21 bytes)"),
        (b"CSEM" + struct.pack("<IBQI", 1, 0, 2**40, 2) + bytes(32), "truncated at record 2"),
        (
            b"CSEM" + struct.pack("<IBQI", 1, 0, 1, 1) + struct.pack("<Qf", 2**63, 1.0),
            "record 0: id 9223372036854775808 is not in [0, 2**63)",
        ),
    ],
    ids=[
        "text-value", "text-short", "text-blank-row", "text-trailing-after-blank", "text-count", "text-id",
        "text-negative-id", "text-duplicate",
        "text-dim-beyond-int64", "text-dim-too-big",
        "binary-header", "binary-count", "binary-id",
    ],
)
def test_malformed_exchange_file_fails_naming_the_file(tmp_path, payload, message):
    path = tmp_path / "emb"
    path.write_bytes(payload)
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    text = str(err.value)
    assert text.startswith(f"{path}: ") and message in text and "\n" not in text


@pytest.mark.parametrize("head", [b"EMB1 item 2 1\n0 1\n1 caf", b"EMB1 item 9 1\n0 1\n"], ids=["row", "after-a-fault"])
def test_text_exchange_file_that_is_not_utf8_names_the_line(tmp_path, head):
    # decoding comes first: a bad byte on line 3 wins over the short row count
    path = tmp_path / "emb.txt"
    path.write_bytes(head + b"\xe9\n")
    with pytest.raises(data.DatasetError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}:3: not UTF-8"


def _pair_fault(*args) -> str:
    with pytest.raises(ValueError) as err:
        exchange_tables(*args)
    return str(err.value)


def test_exchange_tables_returns_requested_rows():
    items, users = _emb("item", n=5, dim=2), _emb("user", n=3, dim=2, seed=1)
    item_table, user_table = exchange_tables(items, users, np.arange(5), [2, 0], 2)
    assert item_table.dtype == user_table.dtype == np.float64
    np.testing.assert_array_equal(item_table, items.vectors)
    np.testing.assert_array_equal(user_table, users.vectors[[2, 0]])


def test_exchange_pair_faults_name_the_files_read(tmp_path):
    i_path, u_path, wide_path = tmp_path / "i.bin", tmp_path / "u.txt", tmp_path / "wide.txt"
    write_embeddings_binary(_emb("item", n=5, dim=2), i_path)
    write_embeddings_text(_emb("user", n=3, dim=2), u_path)
    write_embeddings_text(_emb("user", n=3, dim=4), wide_path)
    items, users, wide = map(read_embeddings, (i_path, u_path, wide_path))
    assert (items.path, users.path) == (i_path, u_path)
    assert _pair_fault(users, items, [], []) == (
        f"{u_path}, {i_path}: content pair must be (item file, user file), got (user file, item file)"
    )
    assert _pair_fault(items, users, [], [], 4) == f"{i_path}: content embedding dim 2 != model h 4"
    assert _pair_fault(items, wide, [], []) == f"{i_path}, {wide_path}: content pair dims differ: item file 2, user file 4"
    assert _pair_fault(items, users, [4, 0], [1, 3]) == f"{u_path}: embedding file (user) is missing id 3"
    # a set built in memory has no file to name
    assert _pair_fault(_emb("item", dim=2), users, [9], []) == "embedding file (item) is missing id 9"


# -- export ------------------------------------------------------------------------


def test_export_embeddings_items_users_and_cold_zero(tmp_path):
    corpus = ItemCorpus(("axe bolt", "", "coal"))
    store = build_store(
        {0: [0, 1], 1: [2]},
        cold_history={2: [0]},
        cold_test={2: [1]},
        num_items=3,
    )
    p = init_content(h=4, num_buckets=16, history_size=8, seed=0)
    item_set, user_set = export_embeddings(p, corpus, store, tmp_path)

    for name in ("content_items.txt", "content_users.txt", "content_items.bin", "content_users.bin"):
        assert (tmp_path / name).exists()

    np.testing.assert_allclose(item_set.rows([0])[0], _item_mean(p, "axe bolt"), rtol=1e-6)
    assert np.all(item_set.rows([1])[0] == 0.0)  # no text -> zero vector

    # user 0 history fits one attention chunk
    E = np.stack([_item_mean(p, corpus.texts[i]) for i in (0, 1)])
    want, _ = encode_user(E, p)
    np.testing.assert_allclose(user_set.rows([0])[0], want, rtol=1e-6)
    # user 2 is cold: no train rows, zero vector
    assert np.all(user_set.rows([2])[0] == 0.0)

    disk_items = read_embeddings(tmp_path / "content_items.bin")
    np.testing.assert_array_equal(disk_items.vectors, item_set.vectors)


def test_export_embeddings_item_blocks_equal_per_item_means(tmp_path):
    # 2100 items are encoded in two blocks; two in three have text
    texts = (text for i in range(0, 2100, 3) for text in (f"tok{i % 50} word{i % 7}", f"tok{i % 11}", ""))
    corpus = ItemCorpus(tuple(texts))
    store = build_store({0: [0, 1, 2099]}, num_items=2100)
    p = init_content(h=4, num_buckets=64, seed=2)
    item_set, _ = export_embeddings(p, corpus, store, tmp_path, write_binary=False)
    want = np.stack([_item_mean(p, corpus.texts[i]) for i in range(2100)]).astype(np.float32)
    np.testing.assert_array_equal(item_set.vectors, want)


def test_export_embeddings_chunked_pooling(tmp_path):
    # 5 history items with chunk size 2 -> chunks [0,1], [2,3], [4]
    corpus = ItemCorpus(tuple(f"tok{i} word{i}" for i in range(5)))
    store = build_store({0: [0, 1, 2, 3, 4]}, num_items=5)
    p = init_content(h=4, num_buckets=64, history_size=2, seed=1)
    _, user_set = export_embeddings(p, corpus, store, tmp_path, write_binary=False)
    assert not (tmp_path / "content_users.bin").exists()

    vecs = [_item_mean(p, corpus.texts[i]) for i in range(5)]
    chunks = [
        encode_user(np.stack(vecs[0:2]), p)[0],
        encode_user(np.stack(vecs[2:4]), p)[0],
        encode_user(np.stack(vecs[4:5]), p)[0],
    ]
    np.testing.assert_allclose(user_set.rows([0])[0], np.mean(chunks, axis=0), rtol=1e-6)


# -- checkpoint ---------------------------------------------------------------------


def test_content_checkpoint_round_trip(tmp_path):
    p = init_content(h=6, num_buckets=12, history_size=3, num_negatives=5, seed=4)
    f1, f2 = tmp_path / "a.content", tmp_path / "b.content"
    save_content_checkpoint(p, f1)
    q = load_content_checkpoint(f1)
    assert (q.history_size, q.num_negatives) == (3, 5)
    for name, t in p.tensors().items():
        np.testing.assert_array_equal(t, q.tensors()[name])
    save_content_checkpoint(q, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_content_checkpoint_corruption(tmp_path):
    p = init_content(h=4, num_buckets=6, seed=0)
    f = tmp_path / "c"
    save_content_checkpoint(p, f)
    raw = f.read_bytes()
    bad = tmp_path / "bad"
    bad.write_bytes(b"WRONG 1 2 3 4\n")
    with pytest.raises(ValueError, match="not a"):
        load_content_checkpoint(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_content_checkpoint(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_content_checkpoint(bad)


@pytest.mark.parametrize(
    "header,message",
    [
        (b"CLIT1 16 8 three 2\n", "malformed checkpoint header"),
        (b"CLIT1 16 -8 3 2\n", "malformed checkpoint header"),
        # h = 0: every tensor but the (1,) bias is empty, and the shapes agree
        (b"CLIT1 8 0 3 2\n" + np.zeros(1).tobytes(), "h must be >= 1"),
    ],
    ids=["non-integer", "negative", "zero-width"],
)
def test_content_checkpoint_malformed_header_names_file(tmp_path, header, message):
    bad = tmp_path / "bad.content"
    bad.write_bytes(header)
    with pytest.raises(ValueError) as err:
        load_content_checkpoint(bad)
    assert str(err.value) == f"{bad}: {message}"
