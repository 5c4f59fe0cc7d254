import logging
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kgrec.data import (
    SPLIT_NAMES,
    DatasetError,
    ItemCorpus,
    KnowledgeGraph,
    Split,
    SyntheticSpec,
    build_store,
    check_inverse_closure,
    kg_from_triplets,
    load_bundle,
    load_interactions,
    load_items,
    load_kg,
    load_split_file,
    make_synthetic_dataset,
    save_interactions,
    save_items,
    save_kg,
)


def test_split_file_parse_and_duplicate_collapse(tmp_path, caplog):
    p = tmp_path / "train.txt"
    p.write_text("0 3 1 3\n2\t7 7 5\n")
    users, items = load_split_file(p)  # raw columns in file order, duplicates kept
    assert users.tolist() == [0, 0, 0, 2, 2, 2]
    assert items.tolist() == [3, 1, 3, 7, 7, 5]
    p.write_text("0 3 1 3\n1\t7 7 5\n")
    with caplog.at_level(logging.WARNING, logger="kgrec.data"):
        store = load_interactions(p)
    assert "collapsed 2 duplicate interactions" in caplog.text
    assert store.train[0].tolist() == [1, 3]
    assert store.train[1].tolist() == [5, 7]


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0 1 x\n", "non-integer"),
        ("0 -2\n", "negative"),
        ("0 1\n0 2\n", "duplicate line"),
    ],
)
def test_split_file_errors_carry_line_numbers(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(DatasetError) as err:
        load_split_file(p)
    assert fragment in str(err.value)
    assert "bad.txt" in str(err.value)


@pytest.mark.parametrize(
    "a,b", [("train", "valid"), ("train", "test"), ("valid", "test"), ("cold_history", "cold_test")]
)
def test_build_store_rejects_split_overlap(a, b):
    splits = {a: {0: [1, 2], 1: [0]}, b: {0: [2], 1: [0, 1]}}
    with pytest.raises(DatasetError, match=f"^user 0: item 2 in both {a} and {b}$"):
        build_store(**{"train": {}, **splits}, num_items=3)


@pytest.mark.parametrize(
    "splits,message",
    [
        # user 1 overlaps, user 0 is cold and warm: the lower user is reported
        (dict(train={0: [0], 1: [1, 2]}, test={1: [2]}, cold_history={0: [1]}),
         "user 0 is cold-start but also appears in train/valid/test"),
        # one user with two faults: the overlap check comes first
        (dict(train={0: [3], 1: [0, 2]}, test={1: [0, 2]}, cold_history={1: [1]}),
         "user 1: item 0 in both train and test"),
        (dict(train={0: [1]}, cold_history={1: [0], 2: [2]}, cold_test={1: [0], 2: [0]}),
         "user 1: item 0 in both cold_history and cold_test"),
        (dict(train={0: [1], 3: [1]}, cold_history={1: [1]}, cold_test={2: [0], 3: [0]}),
         "user 2: cold_test without cold_history"),
    ],
)
def test_build_store_reports_the_lowest_faulty_user(splits, message):
    with pytest.raises(DatasetError, match=f"^{message}$"):
        build_store(**splits, num_items=4)


def _reference_fault(splits, num_users, num_items):
    """The first fault by a per-user loop over the store rules, or None."""
    sets = {name: {u: set(v) for u, v in splits.get(name, {}).items()} for name in SPLIT_NAMES}
    seen = {u for m in sets.values() for u, v in m.items() if v}
    n_users = num_users if num_users is not None else max(seen, default=-1) + 1
    for u in range(n_users):
        if u not in seen:
            return f"user ids not dense: user {u} has no interactions"
    if seen and max(seen) >= n_users:
        return f"user id {max(seen)} out of range for declared num_users={n_users}"
    max_item = max((max(v) for m in sets.values() for v in m.values() if v), default=-1)
    n_items = num_items if num_items is not None else max_item + 1
    if max_item >= n_items:
        return f"item id {max_item} out of range for declared num_items={n_items}"
    for u in range(n_users):
        tr, va, te, ch, ct = (sets[name].get(u, set()) for name in SPLIT_NAMES)
        for a, b, common in (("train", "valid", tr & va), ("train", "test", tr & te),
                             ("valid", "test", va & te), ("cold_history", "cold_test", ch & ct)):
            if common:
                return f"user {u}: item {min(common)} in both {a} and {b}"
        if (ch or ct) and (tr or va or te):
            return f"user {u} is cold-start but also appears in train/valid/test"
        if ct and not ch:
            return f"user {u}: cold_test without cold_history"
    return None


def test_build_store_matches_per_user_reference():
    rng = np.random.default_rng(0)
    faults = 0
    for _ in range(400):
        n_users, n_items = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        splits = {
            name: {u: rng.integers(0, n_items + 1, size=rng.integers(0, 4)).tolist()
                   for u in range(n_users + int(rng.random() < 0.2)) if rng.random() < 0.5}
            for name in SPLIT_NAMES if rng.random() < 0.6
        }
        sizes = {"num_users": None if rng.random() < 0.7 else int(rng.integers(0, n_users + 2)),
                 "num_items": None if rng.random() < 0.7 else int(rng.integers(0, n_items + 2))}
        want = _reference_fault(splits, **sizes)
        if want is not None:
            faults += 1
            with pytest.raises(DatasetError, match=f"^{want}$"):
                build_store(**{"train": {}, **splits}, **sizes)
            continue
        store = build_store(**{"train": {}, **splits}, **sizes)
        for name in SPLIT_NAMES:
            for u in range(store.num_users):
                assert store.split(name)[u].tolist() == sorted(set(splits.get(name, {}).get(u, [])))
    assert 200 < faults < 340  # both outcomes are exercised


def test_build_store_rejects_cold_user_in_train():
    with pytest.raises(DatasetError, match="cold-start"):
        build_store({0: [1], 1: [2]}, cold_history={1: [0]}, num_items=3)


def test_build_store_rejects_user_id_gap():
    with pytest.raises(DatasetError, match="user ids not dense"):
        build_store({0: [1], 2: [1]}, num_items=2)


def test_sparse_huge_user_id_fails_before_sizing_anything(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("0 1\n1 1\n2 1\n3 1\n1000000000000 1\n")
    with pytest.raises(DatasetError, match="^user ids not dense: user 4 has no interactions$"):
        load_interactions(p)


def test_build_store_rejects_int64_key_overflow():
    with pytest.raises(DatasetError, match="num_users=2 times num_items=4611686018427387905"):
        build_store({0: [2**62], 1: [0]})
    build_store({0: [2**62 - 2], 1: [0]})  # keys below 2 * (2**62 - 1) still fit


def test_split_file_rejects_id_beyond_int64(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text(f"0 1\n1 {2**63}\n")
    with pytest.raises(DatasetError, match="train.txt:2: id 9223372036854775808 does not fit in int64"):
        load_split_file(p)


def test_split_rows_gather_matches_per_user_concatenation():
    split = Split(np.array([0, 2, 2, 3, 6]), np.array([1, 4, 0, 2, 3, 5]))
    assert len(split) == 4 and split.counts().tolist() == [2, 0, 1, 3]
    for users in ([3, 0, 1, 3], [1], [], [2, 2]):
        concat, counts = split.rows(np.array(users, dtype=np.int64))
        assert counts.tolist() == [len(split[u]) for u in users]
        want = np.concatenate([split[u] for u in users] + [np.empty(0, dtype=np.int64)])
        assert concat.dtype == np.int64 and concat.tolist() == want.tolist()
    assert [v.tolist() for v in split] == [[1, 4], [], [0], [2, 3, 5]]


def test_store_converts_per_user_tuples_to_splits():
    store = build_store({0: [2, 1], 1: [0]}, valid={1: [2]}, num_items=3)
    rebuilt = replace(store, train=tuple(np.array(v) for v in ([1, 2], [0])))
    assert isinstance(rebuilt.train, Split) and rebuilt.valid is store.valid
    assert rebuilt.train.indptr.tolist() == store.train.indptr.tolist()
    assert rebuilt.train.items.tolist() == store.train.items.tolist()


def test_build_store_rejects_out_of_range_item():
    with pytest.raises(DatasetError, match="out of range"):
        build_store({0: [5]}, num_items=3)


def test_build_store_rejects_cold_test_without_history():
    with pytest.raises(DatasetError, match="cold_test without cold_history"):
        build_store({0: [1]}, cold_test={1: [2]}, num_users=2, num_items=3)


def test_interactions_round_trip_bytes(tmp_path):
    store = build_store(
        {0: [2, 1], 1: [0]},
        valid={0: [3]},
        test={1: [4]},
        cold_history={2: [1, 2]},
        cold_test={2: [0]},
        num_items=5,
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_interactions(store, d1)
    loaded = load_interactions(d1)
    save_interactions(loaded, d2)
    for name in ("train", "valid", "test", "cold_history", "cold_test"):
        f1, f2 = d1 / f"{name}.txt", d2 / f"{name}.txt"
        assert f1.read_bytes() == f2.read_bytes()


def test_kg_inverse_doubling_and_dedup():
    g = kg_from_triplets([(0, 1, 2), (0, 1, 2), (2, 0, 1)], num_relations_raw=2)
    assert g.num_triplets_raw == 2
    assert g.num_edges == 4  # each raw edge plus its inverse
    assert g.num_relations == 4
    check_inverse_closure(g)
    at_2 = g.edge_head == 2
    edges = set(zip(g.edge_rel[at_2].tolist(), g.edge_tail[at_2].tolist()))
    # inverse of (0,1,2) is (2, 1+2, 0); raw edge (2,0,1) also present
    assert edges == {(0, 1), (3, 0)}


def test_kg_degrees_and_isolated_nodes():
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=4)
    assert g.degrees.tolist() == [1, 1, 0, 0]
    assert g.inv_degree[2] == 0.0
    assert g.edge_head.tolist() == [0, 1]  # edges sorted by head; 2 and 3 have none


def test_kg_rejects_bad_relation_and_entity():
    with pytest.raises(DatasetError, match="relation"):
        kg_from_triplets([(0, 5, 1)], num_relations_raw=2)
    with pytest.raises(DatasetError, match="out of range"):
        kg_from_triplets([(0, 0, 9)], num_relations_raw=1, num_entities=3)


def test_kg_round_trip_bytes(tmp_path):
    g = kg_from_triplets([(3, 1, 0), (0, 0, 2), (1, 1, 3)], num_relations_raw=2)
    p1, p2 = tmp_path / "kg1.txt", tmp_path / "kg2.txt"
    save_kg(g, p1)
    g2 = load_kg(p1, num_relations_raw=2)
    save_kg(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(g.raw_triplets(), g2.raw_triplets())


def test_kg_file_errors(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1 9\n")
    with pytest.raises(DatasetError, match="expected 3 fields"):
        load_kg(p, num_relations_raw=1)
    p.write_text("0 7 1\n")
    with pytest.raises(DatasetError, match="kg.txt:1"):
        load_kg(p, num_relations_raw=1)
    p.write_text("0 1 1\n0 x 1\n")
    with pytest.raises(DatasetError, match="kg.txt:2: non-integer field"):
        load_kg(p)


def test_kg_file_rejects_id_beyond_int64(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1\n1 0 99999999999999999999\n")
    with pytest.raises(DatasetError, match="kg.txt:2: id 99999999999999999999 does not fit in int64"):
        load_kg(p)


def test_kg_file_entity_out_of_range_names_file_and_line(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1\n2 0 5\n")
    with pytest.raises(DatasetError, match="kg.txt:2: entity id 5 out of range for num_entities=3"):
        load_kg(p, num_entities=3)


def without_edges(g, drop):
    """`g` with the edges selected by the boolean mask `drop` removed."""
    keep = ~drop
    head = g.edge_head[keep]
    degrees = np.bincount(head, minlength=g.num_entities)
    inv_degree = np.divide(1.0, degrees, out=np.zeros(g.num_entities), where=degrees > 0)
    return KnowledgeGraph(
        g.num_entities, g.num_relations_raw, g.num_triplets_raw,
        g.edge_rel[keep], g.edge_tail[keep], head, degrees, inv_degree,
    )


def test_inverse_closure_maps_every_edge_to_its_inverse():
    g = kg_from_triplets([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (2, 0, 2)], num_relations_raw=2)
    inverse = check_inverse_closure(g)
    assert inverse.tolist() != list(range(g.num_edges))
    np.testing.assert_array_equal(inverse[inverse], np.arange(g.num_edges))
    np.testing.assert_array_equal(g.edge_head[inverse], g.edge_tail)
    np.testing.assert_array_equal(g.edge_tail[inverse], g.edge_head)
    np.testing.assert_array_equal((g.edge_rel[inverse] - g.edge_rel) % 4, np.full(g.num_edges, 2))
    assert check_inverse_closure(kg_from_triplets([], num_relations_raw=1, num_entities=2)).size == 0
    empty = np.empty(0, dtype=np.int64)
    huge = KnowledgeGraph(2**32, 1, 0, empty, empty, empty, empty, np.empty(0))
    with pytest.raises(DatasetError, match="overflow int64 edge keys"):
        check_inverse_closure(huge)


def test_missing_inverse_names_smallest_raw_triplet():
    g = kg_from_triplets([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0)], num_relations_raw=2)
    # drop the inverses (3, 2, 2) of (2, 0, 3) and (2, 3, 1) of (1, 1, 2)
    drop = ((g.edge_head == 3) & (g.edge_rel == 2)) | ((g.edge_head == 2) & (g.edge_rel == 3))
    broken = without_edges(g, drop)
    for check in (check_inverse_closure, lambda graph: graph.inverse):
        with pytest.raises(DatasetError, match=r"^missing inverse edge for triplet \(1, 1, 2\)$"):
            check(broken)
    # every raw triplet closed, but inverse edge (1, 2, 0) lost its raw (0, 0, 1)
    orphan = without_edges(g, (g.edge_head == 0) & (g.edge_rel == 0))
    with pytest.raises(DatasetError, match=r"^missing inverse edge for triplet \(1, 2, 0\)$"):
        check_inverse_closure(orphan)
    # the smallest, not the first stored: hub 0 (degree 3) is stored after head 4 (degree 1)
    hub = kg_from_triplets([(0, 0, 1), (0, 0, 2), (0, 1, 3), (4, 0, 5)], num_relations_raw=2)
    broken = without_edges(hub, ((hub.edge_head == 1) | (hub.edge_head == 5)) & (hub.edge_rel == 2))
    with pytest.raises(DatasetError, match=r"^missing inverse edge for triplet \(0, 0, 1\)$"):
        check_inverse_closure(broken)


def test_kg_infers_relation_count(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 4 1\n\n2\t1\t0\n")
    g = load_kg(p)
    assert g.num_relations_raw == 5 and g.num_triplets_raw == 2
    p.write_text("")
    assert load_kg(p).num_relations_raw == 0


def test_items_round_trip_and_errors(tmp_path):
    corpus = ItemCorpus(num_items=3, texts={0: "red lamp", 2: "blue tent"})
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_items(corpus, p1)
    loaded = load_items(p1)
    assert loaded.text(0) == "red lamp"
    assert loaded.text(1) == ""  # blank line round-trips as empty text
    save_items(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    bad = tmp_path / "bad.tsv"
    bad.write_text("0\ta\n0\tb\n")
    with pytest.raises(DatasetError, match="duplicate item id"):
        load_items(bad)
    with pytest.raises(DatasetError, match="tab or newline"):
        save_items(ItemCorpus(num_items=1, texts={0: "a\tb"}), tmp_path / "x.tsv")


def test_split_file_int64_edge_on_a_last_line_without_newline(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("0 1\n9223372036854775808")
    with pytest.raises(DatasetError, match="train.txt:2: id 9223372036854775808 does not fit in int64"):
        load_split_file(p)
    p.write_text("0 1\n1 9223372036854775807")
    assert load_split_file(p)[1].tolist() == [1, 2**63 - 1]


@pytest.mark.parametrize("head", ["1_2", "+3", "\u0663", "\uff13", "3x"])
def test_load_items_accepts_only_ascii_digit_ids(tmp_path, head):
    p = tmp_path / "items.tsv"
    p.write_text(f"0\tred lamp\n{head}\tblue tent\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_items(p)
    assert str(err.value) == f"{p}:2: non-integer item id"


def _fails_after(rows):
    yield from rows
    raise OSError("disk full")


def test_failed_dataset_writes_keep_earlier_files(tmp_path):
    save_interactions(build_store({0: [0, 1], 1: [2]}, num_items=3), tmp_path)
    save_kg(kg_from_triplets([(0, 0, 1)], num_relations_raw=1), tmp_path / "kg.txt")
    save_items(ItemCorpus(num_items=2, texts={0: "red lamp"}), tmp_path / "items.tsv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    with pytest.raises(TypeError):  # user 1's list breaks after user 0 is written
        save_interactions(SimpleNamespace(num_users=2, split=lambda name: [[2], None]), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        save_kg(SimpleNamespace(raw_triplets=lambda: _fails_after([(1, 0, 2)])), tmp_path / "kg.txt")
    with pytest.raises(DatasetError, match="tab or newline"):
        save_items(ItemCorpus(num_items=2, texts={0: "ok", 1: "a\tb"}), tmp_path / "items.tsv")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_load_bundle_missing_kg(tmp_path):
    (tmp_path / "train.txt").write_text("0 0\n")
    with pytest.raises(DatasetError, match="kg.txt"):
        load_bundle(tmp_path)


def test_load_bundle_pads_entity_range(tmp_path):
    (tmp_path / "train.txt").write_text("0 0 1\n1 2\n")
    (tmp_path / "kg.txt").write_text("0 0 1\n")
    bundle = load_bundle(tmp_path)
    # three items but kg mentions only entities {0,1}: range must cover items
    assert bundle.graph.num_entities == 3
    assert bundle.store.num_items == 3


def test_synthetic_is_deterministic():
    a = make_synthetic_dataset(SyntheticSpec(), seed=7)
    b = make_synthetic_dataset(SyntheticSpec(), seed=7)
    for u in range(a[0].num_users):
        assert np.array_equal(a[0].train[u], b[0].train[u])
        assert np.array_equal(a[0].cold_test[u], b[0].cold_test[u])
    assert np.array_equal(a[1].edge_rel, b[1].edge_rel)
    assert a[2].texts == b[2].texts
    c = make_synthetic_dataset(SyntheticSpec(), seed=8)
    assert any(
        not np.array_equal(a[0].train[u], c[0].train[u]) for u in range(a[0].num_users)
    )


def test_synthetic_shape_and_cold_carveout(synth_bundle):
    store = synth_bundle.store
    spec = SyntheticSpec()
    assert store.num_users == spec.n_users
    assert store.num_items == spec.n_items
    cold_users = [u for u, hist in enumerate(store.cold_history) if len(hist)]
    n_cold = len(cold_users)
    assert n_cold == round(spec.cold_user_fraction * spec.n_users)
    # cold users are exactly the top ids and have an 80/20-ish split
    assert cold_users == list(range(spec.n_users - n_cold, spec.n_users))
    for u in cold_users:
        hist, test = len(store.cold_history[u]), len(store.cold_test[u])
        assert hist >= 1
        if hist + test >= 5:
            assert 0.6 <= hist / (hist + test) <= 0.95


def test_synthetic_cluster_affinity(synth_bundle):
    store = synth_bundle.store
    C = SyntheticSpec().n_clusters
    own = total = 0
    for u in range(store.num_users):
        for i in store.train[u]:
            own += int(i % C == u % C)
            total += 1
    assert total > 0
    assert own / total > 0.85  # cross-cluster noise is rare


def test_synthetic_kg_links_stay_in_cluster(synth_bundle):
    g = synth_bundle.graph
    spec = SyntheticSpec()
    C = spec.n_clusters
    for h, r, t in g.raw_triplets():
        c = h % C
        lo = spec.n_items + c * spec.attrs_per_cluster
        assert lo <= t < lo + spec.attrs_per_cluster


def test_synthetic_fixed_kg_constants(synth_bundle):
    # 3 raw relations; every item links to 3 distinct attributes of its own cluster
    g = synth_bundle.graph
    spec = SyntheticSpec()
    C = spec.n_clusters
    assert g.num_relations_raw == 3
    raw = g.raw_triplets()
    assert sorted(set(raw[:, 1].tolist())) == [0, 1, 2]
    for i in range(spec.n_items):
        tails = raw[raw[:, 0] == i, 2]
        lo = spec.n_items + (i % C) * spec.attrs_per_cluster
        assert len(tails) == len(set(tails.tolist())) == 3
        assert ((lo <= tails) & (tails < lo + spec.attrs_per_cluster)).all()


def test_synthetic_fixed_text_constants(synth_bundle):
    # 6..12 tokens per text, from c{c}w0..c{c}w39 of the item's cluster or shw0..shw19
    corpus = synth_bundle.corpus
    C = SyntheticSpec().n_clusters
    lengths, own, shared = [], set(), set()
    for i in range(corpus.num_items):
        tokens = corpus.text(i).split()
        lengths.append(len(tokens))
        for tok in tokens:
            if tok.startswith("shw"):
                shared.add(int(tok[3:]))
            else:
                prefix, _, j = tok.partition("w")
                assert prefix == f"c{i % C}", tok
                own.add(int(j))
    assert (min(lengths), max(lengths)) == (6, 12)
    assert own == set(range(40))
    assert shared == set(range(20))


def test_synthetic_cross_cluster_rate():
    # cross-cluster interactions per user ~ Binomial(other-cluster items, density * 0.02)
    spec = SyntheticSpec(n_users=2000, density=1.0)
    store, _, _ = make_synthetic_dataset(spec, seed=7)
    C = spec.n_clusters
    cross = 0
    for name in SPLIT_NAMES:
        split = getattr(store, name)
        users = np.repeat(np.arange(len(split)), split.counts())
        cross += int((split.items % C != users % C).sum())
    rate = cross / (spec.n_users * (spec.n_items - spec.n_items // C) * spec.density)
    assert abs(rate / 0.02 - 1.0) < 0.03, rate


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_users", -5, "user count must be >= 1, got -5"),
        ("n_items", 0, "item count must be >= 1, got 0"),
        ("n_clusters", 0, "cluster count must be >= 1, got 0"),
    ],
)
def test_synthetic_spec_rejects_counts_below_one(field, value, message):
    with pytest.raises(DatasetError, match=f"^{message}$"):
        SyntheticSpec(**{field: value}).validate()


def test_synthetic_validation():
    with pytest.raises(DatasetError):
        SyntheticSpec(density=0.0).validate()
    with pytest.raises(DatasetError):
        SyntheticSpec(n_clusters=1000).validate()
