import logging
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import build_store

from kgrec import data
from kgrec.content import read_embeddings
from kgrec.data import (
    SPLIT_NAMES,
    DatasetError,
    ItemCorpus,
    Split,
    SyntheticSpec,
    kg_from_triplets,
    load_bundle,
    load_interactions,
    load_items,
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
        store = load_interactions(tmp_path)
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


@pytest.mark.parametrize(
    "splits,message",
    [
        (dict(train={-1: [0], 0: [1]}), "train: negative user id -1"),
        (dict(train={0: [1]}, valid={2: [0, -3]}), "valid: negative item id for user 2"),  # before the gap at user 1
    ],
    ids=["user", "item"],
)
def test_build_store_rejects_negative_ids_first(splits, message):
    with pytest.raises(DatasetError, match=f"^{message}$"):
        build_store(**splits, num_items=2)


def test_sparse_huge_user_id_fails_before_sizing_anything(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("0 1\n1 1\n2 1\n3 1\n1000000000000 1\n")
    with pytest.raises(DatasetError, match=f"^{re.escape(str(p))}: user ids not dense: user 4 has no interactions$"):
        load_interactions(tmp_path)


@pytest.mark.parametrize(
    "files,named,message",
    [
        # user 1 is in no file: every split file read is named
        (dict(train="0 1\n2 1\n", valid="0 2\n", test="2 0\n"), ("train", "valid", "test"),
         "user ids not dense: user 1 has no interactions"),
        (dict(train="0 1 2\n1 0\n", valid="0 2\n"), ("train", "valid"),
         "user 0: item 2 in both train and valid"),
        (dict(train="0 1\n1 0\n", valid="1 2\n", cold_history="1 1\n"), ("train", "valid", "cold_history"),
         "user 1 is cold-start but also appears in train/valid/test"),
        (dict(train="0 1\n", cold_test="1 0\n"), ("cold_test", "cold_history"),
         "user 1: cold_test without cold_history"),
    ],
)
def test_cross_file_split_faults_name_their_files(tmp_path, files, named, message):
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
    paths = ", ".join(str(tmp_path / f"{name}.txt") for name in named)
    with pytest.raises(DatasetError, match=f"^{re.escape(paths)}: {re.escape(message)}$"):
        load_interactions(tmp_path)


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


@pytest.mark.parametrize(
    "split,rows,want",
    [
        ("train", ([2, 1], [0]), [[1, 2], [0]]),  # rows come out sorted and deduplicated, as split-file rows do
        ("train", ([1, 2, 1], [0, 0]), [[1, 2], [0]]),
        ("train", ([1, 3], [0]), "item id 3 out of range for declared num_items=3"),
        ("cold_test", ([], [-1]), "cold_test: negative item id for user 1"),
        ("train", ([1, 2],), "train: 1 rows for 2 users"),
        ("valid", ([], [2], []), "valid: 3 rows for 2 users"),
    ],
    ids=["unsorted", "duplicate", "out-of-range", "negative", "too-few-rows", "too-many-rows"],
)
def test_store_rejects_bad_per_user_rows(split, rows, want):
    store = build_store({0: [2, 1], 1: [0]}, valid={1: [2]}, num_items=3)
    rows = tuple(np.array(v, dtype=np.int64) for v in rows)
    if isinstance(want, list):
        rebuilt = replace(store, **{split: rows}).split(split)
        assert isinstance(rebuilt, Split) and [v.tolist() for v in rebuilt] == want
        return
    with pytest.raises(DatasetError, match=f"^{re.escape(want)}$"):
        replace(store, **{split: rows})


@pytest.mark.parametrize(
    "rows,message",
    [
        (([1, 2], []), "user 0: item 2 in both train and test"),
        (([1], [2]), "user 1 is cold-start but also appears in train/valid/test"),
    ],
    ids=["train-test-overlap", "cold-user-in-train"],
)
def test_store_checks_per_user_rows_across_splits(rows, message):
    store = build_store({0: [1]}, test={0: [2]}, cold_history={1: [0]}, num_items=3)
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        replace(store, train=tuple(np.array(v, dtype=np.int64) for v in rows))


@pytest.mark.parametrize(
    "row", [np.array([0.0, 2.9]), np.array(["0", "2"]), np.array([True, False])], ids=["float", "string", "bool"]
)
def test_store_rejects_non_integer_per_user_rows(row):
    store = build_store({0: [2, 1], 1: [0]}, valid={1: [2]}, num_items=3)
    message = f"train: user 1: row has non-integer dtype {row.dtype}"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        replace(store, train=(np.array([1, 2]), row))
    empty = replace(store, train=(np.array([1, 2]), np.array([])))  # an empty row loads whatever its dtype
    assert [v.tolist() for v in empty.train] == [[1, 2], []] and empty.train.items.dtype == np.int64


@pytest.mark.parametrize(
    "indptr, items",
    [
        ([0, 1], [5]),  # two offsets for three users, and an item past the catalog
        ([0, 1, 1, 1], [5]),  # an item past the catalog
        ([0, 1, 1, 1], [-1]),  # a negative item
        ([1, 1, 1, 1], [0]),  # offsets that do not start at 0
        ([0, 1, 1, 2], [0]),  # offsets that end past the items
        ([0, 0, 0, 0], [0]),  # offsets that end before them
    ],
)
def test_store_rejects_a_given_split_that_does_not_fit(indptr, items):
    store = build_store({0: [0], 1: [1], 2: [2]}, num_items=3)
    with pytest.raises(DatasetError, match=r"^train: Split does not fit num_users=3, num_items=3$"):
        replace(store, train=Split(np.array(indptr), np.array(items)))
    fits = Split(np.array([0, 1, 1, 3]), np.array([2, 0, 1]))
    assert replace(store, train=fits).train is fits  # a Split that fits is kept as it is


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
    w = g.walk  # two degree-2 heads, no pads
    assert (w.head[w.inverse] == w.tail).all() and (w.tail[w.inverse] == w.head).all()
    at_2 = g.edge_head == 2
    edges = set(zip(g.edge_rel[at_2].tolist(), g.edge_tail[at_2].tolist()))
    # inverse of (0,1,2) is (2, 1+2, 0); raw edge (2,0,1) also present
    assert edges == {(0, 1), (3, 0)}


def test_kg_degrees_and_isolated_nodes():
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=4)
    assert g.degrees.tolist() == [1, 1, 0, 0]
    assert g.walk.head.tolist() == [0, 1] and g.walk.scale.tolist() == [1.0, 1.0]
    assert g.edge_head.tolist() == [0, 1]  # edges sorted by head; 2 and 3 have none


def test_kg_rejects_bad_relation_and_entity():
    with pytest.raises(DatasetError, match="relation"):
        kg_from_triplets([(0, 5, 1)], num_relations_raw=2)
    with pytest.raises(DatasetError, match="out of range"):
        kg_from_triplets([(0, 0, 9)], num_relations_raw=1, num_entities=3)


def test_kg_dedup_by_edge_keys_matches_row_unique():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_rel, n_ent = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        trip = np.stack([rng.integers(0, n, 60) for n in (n_ent, n_rel, n_ent)], axis=1)
        trip = trip[rng.integers(0, 60, int(rng.integers(0, 120)))]  # duplicates, any order
        g = kg_from_triplets(trip, n_rel, num_entities=n_ent + int(rng.integers(0, 3)))
        # reference: row-wise np.unique, then the (degree, head, relation, tail) order
        uniq = np.unique(trip.reshape(-1, 3), axis=0)
        head = np.concatenate([uniq[:, 0], uniq[:, 2]])
        rel = np.concatenate([uniq[:, 1], uniq[:, 1] + n_rel])
        tail = np.concatenate([uniq[:, 2], uniq[:, 0]])
        degrees = np.bincount(head, minlength=g.num_entities)
        order = np.lexsort((tail, rel, head, degrees[head]))
        assert g.num_triplets_raw == len(uniq)
        for got, want in ((g.edge_head, head[order]), (g.edge_rel, rel[order]), (g.edge_tail, tail[order]),
                          (g.degrees, degrees)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(g.raw_triplets(), uniq)


def test_kg_edge_key_overflow_is_checked_before_sizing():
    # before the check, num_entities=2**32 made np.bincount ask for tens of GB
    message = "^num_entities=1099511627776 and num_relations=2 overflow int64 edge keys$"
    with pytest.raises(DatasetError, match=message):
        kg_from_triplets([(0, 0, 1)], 1, num_entities=2**40)


def test_kg_round_trip_bytes(tmp_path):
    g = kg_from_triplets([(3, 1, 0), (0, 0, 2), (1, 1, 3)], num_relations_raw=2)
    p1, p2 = tmp_path / "kg1.txt", tmp_path / "kg2.txt"
    save_kg(g, p1)
    g2 = kg_from_triplets(*data._read_kg(p1, num_relations_raw=2))
    save_kg(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(g.raw_triplets(), g2.raw_triplets())


def test_kg_file_errors(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1 9\n")
    with pytest.raises(DatasetError, match="expected 3 fields"):
        kg_from_triplets(*data._read_kg(p, num_relations_raw=1))
    p.write_text("0 7 1\n")
    with pytest.raises(DatasetError, match="kg.txt:1"):
        kg_from_triplets(*data._read_kg(p, num_relations_raw=1))
    p.write_text("0 1 1\n0 x 1\n")
    with pytest.raises(DatasetError, match="kg.txt:2: non-integer field"):
        kg_from_triplets(*data._read_kg(p))


def test_kg_file_rejects_id_beyond_int64(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1\n1 0 99999999999999999999\n")
    with pytest.raises(DatasetError, match="kg.txt:2: id 99999999999999999999 does not fit in int64"):
        kg_from_triplets(*data._read_kg(p))


def test_kg_file_entity_out_of_range_names_file_and_line(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 0 1\n2 0 5\n")
    with pytest.raises(DatasetError, match="kg.txt:2: entity id 5 out of range for num_entities=3"):
        kg_from_triplets(*data._read_kg(p, num_entities=3), 3)


def test_inverse_closure_maps_every_edge_to_its_inverse():
    g = kg_from_triplets([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (2, 0, 2)], num_relations_raw=2)
    w = g.walk
    inverse = w.inverse
    assert len(inverse) == g.num_edges  # degrees 2, 2, 3, 3: no pads
    assert inverse.tolist() != list(range(g.num_edges))
    np.testing.assert_array_equal(inverse[inverse], np.arange(g.num_edges))
    np.testing.assert_array_equal(w.head[inverse], w.tail)
    np.testing.assert_array_equal(w.tail[inverse], w.head)
    np.testing.assert_array_equal((w.rel[inverse] - w.rel) % 4, np.full(g.num_edges, 2))
    assert kg_from_triplets([], num_relations_raw=1, num_entities=2).walk.inverse.size == 0


def test_inverse_matches_brute_force_lookup():
    # self-loops, duplicate triplets, isolated entities and (case 0) the empty graph
    rng = np.random.default_rng(21)
    for case in range(240):
        n_rel, n_ent, m = int(rng.integers(1, 4)), int(rng.integers(1, 25)), int(rng.integers(0, 60)) * (case > 0)
        trip = np.stack([rng.integers(0, n_ent, m), rng.integers(0, n_rel, m), rng.integers(0, n_ent, m)], axis=1)
        trip = trip[rng.integers(0, max(m, 1), 2 * m)]  # duplicates, any order
        g = kg_from_triplets(trip, n_rel, num_entities=n_ent + int(rng.integers(0, 3)))
        w = g.walk
        slots = list(zip(w.head.tolist(), w.rel.tolist(), w.tail.tolist(), (w.scale > 0).tolist()))
        index = {(h, r, t): s for s, (h, r, t, real) in enumerate(slots) if real}
        want = [index[t, r + n_rel if r < n_rel else r - n_rel, h] if real else s
                for s, (h, r, t, real) in enumerate(slots)]  # a pad is its own inverse
        assert w.inverse.dtype == np.int64 and w.inverse.tolist() == want, case
        assert g.num_triplets_raw == len(set(map(tuple, trip.tolist()))) == len(index) // 2 == g.num_edges // 2


def test_kg_infers_relation_count(tmp_path):
    p = tmp_path / "kg.txt"
    p.write_text("0 4 1\n\n2\t1\t0\n")
    g = kg_from_triplets(*data._read_kg(p))
    assert g.num_relations_raw == 5 and g.num_triplets_raw == 2
    p.write_text("")
    assert kg_from_triplets(*data._read_kg(p)).num_relations_raw == 0


def test_items_round_trip_and_errors(tmp_path):
    corpus = ItemCorpus(("red lamp", "", "blue tent"))
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_items(corpus, p1)
    loaded = load_items(p1)
    assert loaded.texts[0] == "red lamp"
    assert loaded.texts[1] == ""  # blank line round-trips as empty text
    save_items(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    bad = tmp_path / "bad.tsv"
    bad.write_text("0\ta\n0\tb\n")
    with pytest.raises(DatasetError, match="duplicate item id"):
        load_items(bad)
    with pytest.raises(DatasetError, match="tab or newline"):
        save_items(ItemCorpus(("a\tb",)), tmp_path / "x.tsv")


def test_load_items_takes_ids_in_any_order_but_rejects_a_gap(tmp_path):
    p = tmp_path / "items.tsv"
    p.write_text("1\tblue tent\n0\tred lamp\n")
    assert load_items(p).texts == ("red lamp", "blue tent")
    p.write_text("0\tred lamp\n2\tblue tent\n")
    with pytest.raises(DatasetError) as err:
        load_items(p)
    assert str(err.value) == f"{p}:2: item id 2 out of range: the file lists 2 items, so ids must be 0..1"


def test_empty_items_file_is_an_empty_catalog(tmp_path):
    (tmp_path / "items.tsv").write_text("")
    assert load_items(tmp_path / "items.tsv").texts == ()
    (tmp_path / "train.txt").write_text("0 0\n")
    (tmp_path / "kg.txt").write_text("0 0 1\n")
    with pytest.raises(DatasetError) as err:
        load_bundle(tmp_path)
    assert str(err.value) == f"{tmp_path / 'train.txt'}: item id 0 is not in {tmp_path / 'items.tsv'} (0 items)"


def test_save_items_rejects_carriage_return(tmp_path):
    # a CR would reload as a line break: item 0 "red lamp", then an item 7
    corpus = ItemCorpus(("red lamp\r7", "blue mug"))
    with pytest.raises(DatasetError, match="item 0: text contains tab or newline"):
        save_items(corpus, tmp_path / "items.tsv")
    assert not (tmp_path / "items.tsv").exists()


def test_split_file_int64_edge_on_a_last_line_without_newline(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("0 1\n9223372036854775808")
    with pytest.raises(DatasetError, match="train.txt:2: id 9223372036854775808 does not fit in int64"):
        load_split_file(p)
    p.write_text("0 1\n1 9223372036854775807")
    assert load_split_file(p)[1].tolist() == [1, 2**63 - 1]


_BREAK = rb"\r\n|\r|\n"  # a line ends at an LF, a CRLF or a lone CR


def _reference_read(path, kind, num_relations_raw=None, num_entities=None):
    """A split file ("split": its (user, item) pairs) or kg.txt ("kg": its
    triplets) read one line at a time by the README's grammar, in file
    order, or the text of the first fault in line order."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}:{len(re.findall(_BREAK, raw[: exc.start])) + 1}: not UTF-8"
    rows, seen = [], set()
    for lineno, line in enumerate(re.split(_BREAK.decode(), text), start=1):
        fields, at = [f for f in re.split(r"[ \t]+", line) if f], f"{path}:{lineno}"
        if not fields:
            continue
        if kind == "kg" and len(fields) != 3:
            return f"{at}: expected 3 fields, got {len(fields)}"
        if not all(re.fullmatch(r"-?[0-9]+", f) for f in fields):
            return f"{at}: non-integer field"
        if any(f[0] == "-" for f in fields):
            return f"{at}: negative id"
        ids = [int(f) for f in fields]
        if max(ids) >= 2**63:
            return f"{at}: id {max(ids)} does not fit in int64"
        if kind == "split":
            if ids[0] in seen:
                return f"{at}: duplicate line for user {ids[0]}"
            seen.add(ids[0])
            rows += [(ids[0], i) for i in ids[1:]]
            continue
        h, r, t = ids
        if num_entities is not None and max(h, t) >= num_entities:
            return f"{at}: entity id {max(h, t)} out of range for num_entities={num_entities}"
        if num_relations_raw is not None and r >= num_relations_raw:
            return f"{at}: relation {r} >= {num_relations_raw}"
        rows.append((h, r, t))
    return rows


# ids, with 18- to 20-digit ones on both sides of 2**63, and spellings that are not ids
_IDS = ["0", "3", "7", "12", "007", "999999999999999999", "9223372036854775807", "00000000000000000012",
        "1000000000000000000"]
_BAD_IDS = ["+7", "1_0", "\u0663", "\uff13", "-3", "-0", "x", "9223372036854775808", "99999999999999999999"]
_SEPARATORS = [" ", "\t", " \t  "]
_ENDINGS = ["\n", "\r\n", "\r"]


def _random_table(rng, kind):
    """The bytes of a random split file or kg.txt, mostly clean."""
    dirty = rng.random() < 0.5

    def token(column):
        if dirty and rng.random() < 0.04:
            return str(rng.choice(_BAD_IDS))
        if column == 0 and kind == "split":
            return str(rng.integers(0, 60))  # some users repeat
        return str(rng.choice(_IDS)) if rng.random() < 0.2 else str(rng.integers(0, 40))

    lines = []
    for _ in range(rng.integers(0, 14)):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t"])))  # blank or whitespace-only
            continue
        if kind == "split":
            width = int(rng.integers(1, 6))
        else:  # now and then a kg line of 2 or 4 fields
            width = 3 + int(rng.random() < 0.02) * int(rng.choice([-1, 1]))
        sep = "\x0c" if dirty and rng.random() < 0.05 else str(rng.choice(_SEPARATORS))
        lines.append(sep.join(token(c) for c in range(width)) + (" " if rng.random() < 0.2 else ""))
    ends = [str(rng.choice(_ENDINGS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and rng.random() < 0.3:
        text = text[: -len(ends[-1])]  # no final newline
    raw = text.encode("utf-8")
    if dirty and rng.random() < 0.05:
        cut = int(rng.integers(0, len(raw) + 1))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw


def test_int_table_matches_per_line_reference(tmp_path):
    rng = np.random.default_rng(14)
    seen = {False: 0, True: 0}
    for case in range(800):
        kind = "split" if case % 2 else "kg"
        path = tmp_path / f"{case}.txt"
        path.write_bytes(_random_table(rng, kind))
        sizes = {} if kind == "split" else {"num_entities": 40 if rng.random() < 0.7 else 2**62,
                                            "num_relations_raw": None if rng.random() < 0.5 else 30}
        want = _reference_read(path, kind, **sizes)
        if isinstance(want, str):
            with pytest.raises(DatasetError) as err:
                if kind == "split":
                    load_split_file(path)
                else:
                    kg_from_triplets(*data._read_kg(path, **sizes), sizes["num_entities"])
            assert str(err.value) == want, path.read_bytes()
        elif kind == "split":
            users, items = load_split_file(path)
            assert users.dtype == items.dtype == np.int64
            assert list(zip(users.tolist(), items.tolist())) == want, path.read_bytes()
        else:
            trip = np.array(want, dtype=np.int64).reshape(-1, 3)
            n_rel = sizes["num_relations_raw"] or int(trip[:, 1].max(initial=-1)) + 1
            assert np.array_equal(data._read_kg(path, **sizes)[0], trip)  # file order, duplicates kept
            if sizes["num_entities"] ** 2 * max(2 * n_rel, 1) >= 2**63:  # the reader took it; the graph cannot
                with pytest.raises(DatasetError, match="overflow int64 edge keys"):
                    kg_from_triplets(*data._read_kg(path, **sizes), sizes["num_entities"])
            else:
                g = kg_from_triplets(*data._read_kg(path, **sizes), sizes["num_entities"])
                assert g.num_relations_raw == n_rel
                assert np.array_equal(g.raw_triplets(), np.unique(trip, axis=0))
        seen[isinstance(want, str)] += 1
    assert min(seen.values()) > 200, seen  # with and without a fault


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("split", "0 1\n1 2\n0 3\n", "3: duplicate line for user 0"),
        ("split", "0 1\r\n0 2\r\n1 x\r\n", "2: duplicate line for user 0"),  # duplicate, then non-integer
        ("split", "0 1\r1 x\r0 2\r", "2: non-integer field"),  # non-integer, then duplicate
        ("split", "5 1\n\n+5 2\n", "3: non-integer field"),
        ("kg", "0 0 1\n0 0\n0 0 99\n", "2: expected 3 fields, got 2"),  # width, then entity range
        ("kg", "0 0 1\n\t0 0 99\n0 0\n", "2: entity id 99 out of range for num_entities=10"),
        ("kg", "0 0 1\n0 1 1 1\n0 +1 99\n", "2: expected 3 fields, got 4"),
        ("kg", "0 0 1\n0 0 99\n0 0 -1\n", "2: entity id 99 out of range for num_entities=10"),
    ],
)
def test_int_table_reports_the_first_fault_in_line_order(tmp_path, kind, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text, newline="")
    assert _reference_read(path, kind, num_entities=10) == f"{path}:{message}"
    with pytest.raises(DatasetError) as err:
        load_split_file(path) if kind == "split" else kg_from_triplets(*data._read_kg(path, num_entities=10), 10)
    assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize("head", ["1_2", "+3", "\u0663", "\uff13", "3x"])
def test_load_items_accepts_only_ascii_digit_ids(tmp_path, head):
    p = tmp_path / "items.tsv"
    p.write_text(f"0\tred lamp\n{head}\tblue tent\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_items(p)
    assert str(err.value) == f"{p}:2: non-integer item id"


def test_split_file_range_checks_long_ids_from_their_digits(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("0 00000000000000000012 9223372036854775807 0009223372036854775807\n")
    assert load_split_file(p)[1].tolist() == [12, 2**63 - 1, 2**63 - 1]
    p.write_text("0 1\n1 00009223372036854775808 99999999999999999999\n")
    with pytest.raises(DatasetError, match="train.txt:2: id 99999999999999999999 does not fit in int64$"):
        load_split_file(p)


@pytest.mark.parametrize("head, message", [("+7", "non-integer field"), ("1_0", "non-integer field"),
                                           ("\u0663", "non-integer field"), ("\uff13", "non-integer field"),
                                           ("-0", "negative id")])
def test_split_file_ids_are_ascii_digits_only(tmp_path, head, message):
    p = tmp_path / "train.txt"
    p.write_text(f"0 1\n1 {head}\n", encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_split_file(p)
    assert str(err.value) == f"{p}:2: {message}"


def _read_any(name, path):
    return {"train.txt": load_split_file, "kg.txt": data._read_kg, "items.tsv": load_items,
            "emb.txt": read_embeddings}[name](path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
@pytest.mark.parametrize("name, lines", [("train.txt", ["0 1", "1 2", "2 3 \xff"]),
                                         ("kg.txt", ["0 0 1", "1 0 2", "2 0 \xff"]),
                                         ("items.tsv", ["0\ta", "1\tb", "2\tc\xff"]),
                                         ("emb.txt", ["EMB1 item 2 1", "0 1", "1 \xff"])])
def test_a_byte_that_is_not_utf8_is_named_on_its_line(tmp_path, name, lines, ending):
    p = tmp_path / name
    p.write_bytes("".join(line + ending for line in lines).encode("latin-1"))
    with pytest.raises(DatasetError) as err:
        _read_any(name, p)
    assert str(err.value) == f"{p}:3: not UTF-8"


def _fails_after(rows):
    yield from rows
    raise OSError("disk full")


def test_failed_dataset_writes_keep_earlier_files(tmp_path):
    save_interactions(build_store({0: [0, 1], 1: [2]}, num_items=3), tmp_path)
    save_kg(kg_from_triplets([(0, 0, 1)], num_relations_raw=1), tmp_path / "kg.txt")
    save_items(ItemCorpus(("red lamp", "")), tmp_path / "items.tsv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    with pytest.raises(TypeError):  # user 1's list breaks after user 0 is written
        save_interactions(SimpleNamespace(num_users=2, split=lambda name: [[2], None]), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        save_kg(SimpleNamespace(raw_triplets=lambda: _fails_after([(1, 0, 2)])), tmp_path / "kg.txt")
    with pytest.raises(DatasetError, match="tab or newline"):
        save_items(ItemCorpus(("ok", "a\tb")), tmp_path / "items.tsv")
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


def _assert_same_graph(a, b):
    for name in ("num_entities", "num_relations_raw", "num_triplets_raw",
                 "edge_head", "edge_rel", "edge_tail", "degrees"):
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("head", "tail", "rel", "scale", "inverse", "inv_rel", "inv_scale", "logit", "gate_bin"):
        x, y = getattr(a.walk, name), getattr(b.walk, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert [c[:3] for c in a.walk.chunks] == [c[:3] for c in b.walk.chunks]


def test_load_bundle_builds_the_padded_graph_once(tmp_path):
    # kg.txt names entities below 12 only; the catalog has 40 items
    rng = np.random.default_rng(5)
    trip = np.stack([rng.integers(0, 12, 30), rng.integers(0, 3, 30), rng.integers(0, 12, 30)], axis=1)
    (tmp_path / "kg.txt").write_text("".join(f"{h} {r} {t}\n" for h, r, t in trip[rng.integers(0, 30, 45)]))
    (tmp_path / "train.txt").write_text("0 3 39\n1 0 7\n")
    bundle = load_bundle(tmp_path)
    # the two-step build: the graph of kg.txt, rebuilt from its raw triplets over every item
    kg = kg_from_triplets(*data._read_kg(tmp_path / "kg.txt"))
    padded = kg_from_triplets(kg.raw_triplets(), kg.num_relations_raw, num_entities=bundle.store.num_items)
    assert kg.num_entities < padded.num_entities == 40
    _assert_same_graph(bundle.graph, padded)
    # a kg naming more entities than there are items is not padded
    (tmp_path / "train.txt").write_text("0 3\n1 0 7\n")
    _assert_same_graph(load_bundle(tmp_path).graph, kg)


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
        tokens = corpus.texts[i].split()
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
        ("n_users", -5, "n_users must be >= 1"),
        ("n_items", 0, "n_items must be >= 1"),
        ("n_clusters", 0, "n_clusters must be >= 1"),
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
