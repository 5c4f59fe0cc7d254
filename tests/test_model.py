import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import build_store, score_row_grads

from kgrec import data, evaluation, model
from kgrec.data import DatasetBundle, kg_from_triplets
from kgrec.losses import LossWeights
from kgrec.model import (
    _conv_backward,
    aggregate_layers,
    backward,
    conv_layer,
    entity_forward,
    forward,
    init_params,
    load_checkpoint,
    preference_embeddings,
    save_checkpoint,
    user_forward,
)
from kgrec.numeric import sigmoid
from kgrec.training import _kmpn_instance, kmpn_loss_and_grads


def small_graph(num_entities=6):
    triplets = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (2, 1, 4), (3, 0, 0)]
    return kg_from_triplets(triplets, num_relations_raw=2, num_entities=num_entities)


def small_params(graph, num_users=3, h=5, n_layers=2, n_pref=3, n_meta=4, seed=1):
    return init_params(
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        num_users=num_users,
        h=h,
        n_layers=n_layers,
        n_pref=n_pref,
        n_meta=n_meta,
        seed=seed,
    )


def small_store():
    return build_store({0: [0, 1], 1: [2], 2: [3, 4, 5]}, num_items=6)


# -- gate and one convolution sweep -----------------------------------------


def edge_gates(g, gates):
    """Per-slot gates of g.walk in graph edge order: its real slots, in order."""
    return gates[g.walk.scale > 0]


def edge_inverse(g):
    """Edge index of each edge's inverse, by lookup of its (head, relation, tail)."""
    n, r = g.num_entities, g.num_relations_raw
    keys = (g.edge_head * 2 * r + g.edge_rel) * n + g.edge_tail
    want = (g.edge_tail * 2 * r + (g.edge_rel + r) % (2 * r)) * n + g.edge_head
    order = np.argsort(keys)
    return order[np.searchsorted(keys, want, sorter=order)]


def one_edge_gate(head, rel):
    """Gate of the forward edge (0, r, 1) in a one-triplet graph."""
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=2)
    prev = np.stack([head, np.zeros_like(head)])
    relation_emb = np.stack([rel, np.zeros_like(rel)])
    _, gates = conv_layer(g, prev, relation_emb)
    return float(edge_gates(g, gates)[(g.edge_head == 0) & (g.edge_rel == 0)][0])


def test_gate_anchors():
    assert one_edge_gate(np.zeros(4), np.ones(4)) == 0.5
    e = np.array([2.0, 4.0])
    r = np.array([3.0, 3.5])  # dot = 20
    assert one_edge_gate(e, r) == pytest.approx(1.0 / (1.0 + math.exp(-20.0)), rel=1e-15)


def test_conv_two_entity_hand_computed():
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=2)
    prev = np.array([[1.0, -0.5], [0.25, 2.0]])
    rel = np.array([[0.5, 1.0], [-1.0, 0.75]])  # row 1 is the inverse relation
    out, gates = conv_layer(g, prev, rel)

    s0 = 1.0 / (1.0 + math.exp(-(1.0 * 0.5 + (-0.5) * 1.0)))
    expect0 = [s0 * 0.5 * 0.25, s0 * 1.0 * 2.0]
    s1 = 1.0 / (1.0 + math.exp(-(0.25 * -1.0 + 2.0 * 0.75)))
    expect1 = [s1 * -1.0 * 1.0, s1 * 0.75 * -0.5]
    np.testing.assert_allclose(out[0], expect0, rtol=1e-14)
    np.testing.assert_allclose(out[1], expect1, rtol=1e-14)
    assert sorted(gates.tolist()) == sorted([s0, s1])


def test_conv_isolated_entity_outputs_zero():
    g = small_graph(num_entities=8)  # entities 6, 7 have no edges
    rng = np.random.default_rng(0)
    prev = rng.normal(size=(8, 4))
    out, _ = conv_layer(g, prev, rng.normal(size=(g.num_relations, 4)))
    assert np.all(out[6] == 0.0) and np.all(out[7] == 0.0)


def test_conv_matches_per_entity_loop():
    g = small_graph()
    rng = np.random.default_rng(2)
    prev = rng.normal(size=(g.num_entities, 4))
    rel = rng.normal(size=(g.num_relations, 4))
    out, _ = conv_layer(g, prev, rel)

    for i in range(g.num_entities):
        at_i = g.edge_head == i
        rels, tails = g.edge_rel[at_i], g.edge_tail[at_i]
        acc = np.zeros(4)
        for r, j in zip(rels, tails):
            s = 1.0 / (1.0 + math.exp(-float(prev[i] @ rel[r])))
            acc += s * rel[r] * prev[j]
        if len(rels):
            acc /= len(rels)
        np.testing.assert_allclose(out[i], acc, rtol=1e-12, atol=1e-15)


def test_conv_is_equivariant_under_entity_relabeling():
    triplets = [(0, 0, 1), (1, 1, 2), (2, 0, 3), (0, 1, 3)]
    n = 4
    perm = np.array([2, 0, 3, 1])
    g = kg_from_triplets(triplets, num_relations_raw=2, num_entities=n)
    g_p = kg_from_triplets(
        [(int(perm[h]), r, int(perm[t])) for h, r, t in triplets],
        num_relations_raw=2,
        num_entities=n,
    )
    rng = np.random.default_rng(3)
    prev = rng.normal(size=(n, 3))
    rel = rng.normal(size=(4, 3))
    out, _ = conv_layer(g, prev, rel)
    prev_p = np.empty_like(prev)
    prev_p[perm] = prev
    out_p, _ = conv_layer(g_p, prev_p, rel)
    np.testing.assert_allclose(out_p[perm], out, rtol=1e-12)


def loop_graph():
    """Random 3-relation graph with a self-loop (entity 2) and an isolated
    entity (7)."""
    rng = np.random.default_rng(11)
    triplets = [(2, 1, 2)]
    while len(triplets) < 12:
        h, t = (int(x) for x in rng.integers(0, 7, size=2))
        triplets.append((h, int(rng.integers(3)), t))
    return kg_from_triplets(triplets, num_relations_raw=3, num_entities=8)


def per_edge_conv(g, prev, rel, grad_out, d_rel):
    """conv_layer and its adjoint, one edge at a time."""
    out = np.zeros_like(prev)
    d_prev = np.zeros_like(prev)
    gates = []
    for i, r, j in zip(g.edge_head, g.edge_rel, g.edge_tail):
        w = 1.0 / g.degrees[i]
        s = 1.0 / (1.0 + math.exp(-float(prev[i] @ rel[r])))
        gates.append(s)
        out[i] += w * s * rel[r] * prev[j]
        d_dot = w * float(grad_out[i] @ (rel[r] * prev[j])) * s * (1.0 - s)
        d_prev[j] += w * s * grad_out[i] * rel[r]
        d_rel[r] += w * s * grad_out[i] * prev[j]
        d_prev[i] += d_dot * rel[r]
        d_rel[r] += d_dot * prev[i]
    return out, np.array(gates), d_prev


def test_conv_and_adjoint_match_per_edge_loop():
    g = loop_graph()
    assert g.degrees[7] == 0 and ((g.edge_head == 2) & (g.edge_tail == 2)).any()
    rng = np.random.default_rng(12)
    prev = rng.normal(size=(8, 5))
    rel = rng.normal(size=(g.num_relations, 5))
    grad_out = rng.normal(size=(8, 5))
    start = rng.normal(size=rel.shape)  # d_relation accumulates into a nonzero buffer

    d_rel_want = start.copy()
    out_want, gates_want, d_prev_want = per_edge_conv(g, prev, rel, grad_out, d_rel_want)
    out, gates = conv_layer(g, prev, rel)
    d_rel = start.copy()
    d_prev = _conv_backward(g, prev, rel, gates, grad_out, d_rel)

    np.testing.assert_allclose(out, out_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(edge_gates(g, gates), gates_want, rtol=1e-13)
    np.testing.assert_allclose(d_prev, d_prev_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(d_rel, d_rel_want, rtol=1e-12, atol=1e-15)
    assert np.all(out[7] == 0.0)


def bucket_graph():
    """Heads of degree 1 to 12 in several buckets, some with many heads: a
    hub (entity 0), a self-loop (entity 5) and an isolated entity (13)."""
    triplets = [(0, k % 3, k) for k in range(1, 13)]
    triplets += [(5, 0, 5), (1, 1, 2), (2, 2, 3), (3, 0, 4), (4, 1, 2), (6, 2, 7), (7, 0, 8)]
    return kg_from_triplets(triplets, num_relations_raw=3, num_entities=14)


def head_sums(g, values):
    """Per-head sums of per-edge rows [E, h] as one flat np.bincount over
    every edge in graph order."""
    n, h = g.num_entities, values.shape[1]
    flat = (g.edge_head[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * h).reshape(n, h)


def bincount_conv(g, prev, rel):
    """conv_layer as one flat np.bincount over every edge in graph order."""
    gates = sigmoid((prev @ rel.T)[g.edge_head, g.edge_rel])
    w = gates * (1.0 / g.degrees[g.edge_head])
    return head_sums(g, w[:, None] * (rel[g.edge_rel] * prev[g.edge_tail]))


def bincount_conv_adjoint(g, prev, rel, gates, grad_out):
    """_conv_backward's gradient on `prev` as flat np.bincounts over the
    edges in graph order. Each edge (j, r', i) is the inverse of an edge
    (i, r, j) of gate g; with w = g / deg_i and p = grad_out_i o rel_r, it
    adds w p to row j (the message path) and w (1 - g) (p . prev_j) to the
    bin (i, r) of Dm, which Dm @ rel reduces (the gate path)."""
    n, n_rel = g.num_entities, g.num_relations
    gates, inverse = edge_gates(g, gates), edge_inverse(g)
    rels = g.edge_rel[inverse]
    w = gates[inverse] * (1.0 / g.degrees[g.edge_tail])
    p = rel[rels] * grad_out[g.edge_tail]
    d_dot = np.einsum("eh,eh->e", p, prev[g.edge_head]) * w * (1.0 - gates[inverse])
    dm = np.bincount(g.edge_tail * n_rel + rels, weights=d_dot, minlength=n * n_rel)
    return head_sums(g, w[:, None] * p) + dm.reshape(n, n_rel) @ rel


def assert_walk(g, chunk_edges):
    """g.walk holds every edge in one real slot, in edge order; its pads
    weigh +0.0, repeat their head's last edge and are their own inverse;
    the inverse maps real slots to real slots; its chunks hold whole heads,
    by (degree, id), of degree at most D; and its per-slot constants agree."""
    w, r = g.walk, g.num_relations_raw
    real, slots = w.scale > 0, np.arange(len(w.scale))
    pads = slots[~real]
    edges = np.stack([g.edge_head, g.edge_rel, g.edge_tail], axis=1)
    np.testing.assert_array_equal(np.stack([w.head, w.rel, w.tail], axis=1)[real], edges)
    assert len(set(map(tuple, edges.tolist()))) == g.num_edges
    np.testing.assert_array_equal(w.scale[real], 1.0 / g.degrees[g.edge_head])
    assert not w.scale[pads].view(np.uint64).any()  # +0.0 bits
    assert (w.tail[pads] == w.tail[pads - 1]).all() and (w.rel[pads] == w.rel[pads - 1]).all()
    inv = w.inverse
    np.testing.assert_array_equal(inv[inv], slots)
    np.testing.assert_array_equal(inv[pads], pads)
    assert (w.head[inv] == w.tail)[real].all() and (w.tail[inv] == w.head)[real].all()
    assert ((w.rel[inv] - w.rel)[real] % (2 * r) == r).all()
    for got, want in ((w.inv_rel, w.rel[inv]), (w.inv_scale, w.scale[inv]),
                      (w.logit, w.head * 2 * r + w.rel), (w.gate_bin, w.logit[inv])):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    end, order = 0, []
    for lo, hi, d, heads, low, high, low_tail in w.chunks:
        deg = g.degrees[heads]
        assert lo == end and hi - lo == d * len(heads) and deg.max() == d <= data.PAD_RATIO * deg[0]
        assert len(heads) <= max(1, chunk_edges // deg[0])
        assert (w.head[lo:hi].reshape(-1, d) == heads[:, None]).all()
        assert (real[lo:hi].reshape(-1, d) == (np.arange(d) < deg[:, None])).all()  # the pads last
        assert (low, high, low_tail) == (heads.min(), heads.max(), w.tail[lo:hi].min())
        end, order = hi, order + heads.tolist()
    assert end == len(w.scale) and order == sorted(np.flatnonzero(g.degrees), key=lambda i: (g.degrees[i], i))


@pytest.mark.parametrize("chunk_edges", [1, 4, 1024])
def test_plan_chunks_match_per_edge_loop(monkeypatch, chunk_edges):
    monkeypatch.setattr(data, "CHUNK_EDGES", chunk_edges)
    g = bucket_graph()
    assert g.degrees[13] == 0 and g.degrees[0] == 12 and ((g.edge_head == 5) & (g.edge_tail == 5)).any()
    stored = list(zip(*(a.tolist() for a in (g.degrees[g.edge_head], g.edge_head, g.edge_rel, g.edge_tail))))
    assert stored == sorted(set(stored))  # degree of head, then (head, relation, tail), no repeats
    raw = g.raw_triplets().tolist()
    assert raw == sorted(raw) and len(raw) == g.num_triplets_raw
    assert_walk(g, chunk_edges)
    tops = [d for _, _, d, *_ in g.walk.chunks]
    if chunk_edges == 4:  # a degree split across chunks and a head past the chunk size
        assert any(tops.count(d) > 1 for d in tops) and 12 in tops
    assert (g.walk.scale == 0).any() == (chunk_edges > 1)  # heads of degree 2 and 3 share a chunk

    rng = np.random.default_rng(13)
    prev = rng.normal(size=(14, 5))
    rel = rng.normal(size=(g.num_relations, 5))
    grad_out = rng.normal(size=(14, 5))
    d_rel_want = np.zeros_like(rel)
    out_want, gates_want, d_prev_want = per_edge_conv(g, prev, rel, grad_out, d_rel_want)
    out, gates = conv_layer(g, prev, rel)
    d_rel = np.zeros_like(rel)
    d_prev = _conv_backward(g, prev, rel, gates, grad_out, d_rel)

    assert np.array_equal(out, bincount_conv(g, prev, rel))
    np.testing.assert_allclose(out, out_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(edge_gates(g, gates), gates_want, rtol=1e-13)
    np.testing.assert_allclose(d_prev, d_prev_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(d_rel, d_rel_want, rtol=1e-12, atol=1e-15)
    assert np.all(out[13] == 0.0) and np.all(d_prev[13] == 0.0)


@pytest.mark.parametrize("h", [2, 3, 8, 64])
def test_conv_and_adjoint_equal_flat_bincounts_bit_for_bit(monkeypatch, h):
    # h = 1 is left out: there the head sums and a flat bincount differ in the last bit
    monkeypatch.setattr(data, "CHUNK_EDGES", 4)
    g = bucket_graph()
    assert (g.walk.scale == 0).any()  # a padded chunk: its pads must add nothing, not even a sign
    rng = np.random.default_rng(14)
    prev = rng.normal(size=(14, h))
    rel = rng.normal(size=(g.num_relations, h))
    grad_out = rng.normal(size=(14, h))
    out, gates = conv_layer(g, prev, rel)
    d_prev = _conv_backward(g, prev, rel, gates, grad_out, np.zeros_like(rel))
    assert np.array_equal(out, bincount_conv(g, prev, rel))
    assert np.array_equal(d_prev, bincount_conv_adjoint(g, prev, rel, gates, grad_out))


def test_conv_and_adjoint_match_per_edge_loop_on_a_synthetic_graph():
    # chunks of several widths, padded ones too: the scratch rows of one chunk must not leak into the next
    _, g, _ = data.make_synthetic_dataset(data.SyntheticSpec(), seed=7)
    h = 64
    assert len({d for _, _, d, *_ in g.walk.chunks}) >= 4 and (g.walk.scale == 0).any()
    rng = np.random.default_rng(15)
    prev = rng.normal(size=(g.num_entities, h))
    rel = rng.normal(size=(g.num_relations, h))
    grad_out = rng.normal(size=(g.num_entities, h))
    start = rng.normal(size=rel.shape)

    d_rel_want = start.copy()
    out_want, gates_want, d_prev_want = per_edge_conv(g, prev, rel, grad_out, d_rel_want)
    out, gates = conv_layer(g, prev, rel)
    d_rel = start.copy()
    d_prev = _conv_backward(g, prev, rel, gates, grad_out, d_rel)

    np.testing.assert_allclose(out, out_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(edge_gates(g, gates), gates_want, rtol=1e-13)
    np.testing.assert_allclose(d_prev, d_prev_want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(d_rel, d_rel_want, rtol=1e-12, atol=1e-15)


def mixed_graph():
    """Items 0-7 and attribute entities 8-13 linked every way: item-item,
    item-attribute and attribute-attribute edges, an isolated item (6) and
    an isolated attribute (13)."""
    triplets = [(0, 0, 1), (1, 1, 2), (2, 0, 8), (3, 2, 9), (4, 1, 10), (8, 0, 9), (9, 1, 10),
                (10, 2, 11), (11, 0, 12), (5, 0, 11), (7, 1, 12), (0, 2, 10), (3, 0, 4), (7, 2, 8), (7, 0, 9)]
    return kg_from_triplets(triplets, num_relations_raw=3, num_entities=14)


MIXED_ITEMS = 8


@pytest.mark.parametrize("chunk_edges", [4, 1024])
def test_item_row_sweep_and_adjoint_equal_the_full_ones_on_a_mixed_graph(monkeypatch, chunk_edges):
    monkeypatch.setattr(data, "CHUNK_EDGES", chunk_edges)
    g, n, h = mixed_graph(), MIXED_ITEMS, 6
    assert g.degrees[6] == 0 and g.degrees[13] == 0
    heads, tails, chunks = g.walk.head, g.walk.tail, [(lo, hi) for lo, hi, *_ in g.walk.chunks]
    assert any((heads[lo:hi] < n).any() and (heads[lo:hi] >= n).any() for lo, hi in chunks)
    assert any((tails[lo:hi] < n).any() and (tails[lo:hi] >= n).any() for lo, hi in chunks)
    assert any((tails[heads == i] < n).any() and (tails[heads == i] >= n).any() for i in range(14))
    assert any((heads[lo:hi] >= n).all() for lo, hi in chunks)  # the sweep skips it
    assert any((tails[lo:hi] >= n).all() for lo, hi in chunks)  # the adjoint skips it
    kept = [c[3] < n for c in g.walk.chunks]  # a kept head after one left out: the sweep masks
    assert chunk_edges == 4 or any((k[1:] > k[:-1]).any() for k in kept)
    rng = np.random.default_rng(16)
    prev = rng.normal(size=(14, h))
    rel = rng.normal(size=(g.num_relations, h))
    grad_out = rng.normal(size=(n, h))

    out, gates = conv_layer(g, prev, rel)
    out_n, gates_n = conv_layer(g, prev, rel, n)
    assert out_n.shape == (n, h) and np.array_equal(out_n, out[:n])
    assert np.array_equal(gates_n, np.where(heads < n, gates, 0.0))

    padded = np.zeros((14, h))
    padded[:n] = grad_out
    d_rel, d_rel_n = np.zeros_like(rel), np.zeros_like(rel)
    d_prev = _conv_backward(g, prev, rel, gates, padded, d_rel)
    d_prev_n = _conv_backward(g, prev, rel, gates_n, grad_out, d_rel_n)
    assert np.all(d_prev_n == d_prev) and np.all(d_rel_n == d_rel)  # a zero may change sign


@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_item_row_top_sweep_gives_the_gradients_and_reports_of_full_sweeps(monkeypatch, n_layers):
    g = mixed_graph()
    store = build_store(
        {0: [0, 1], 1: [2, 7], 2: [3, 4, 5], 3: [6]}, test={0: [2, 3], 1: [0], 2: [7], 3: [1]},
        cold_history={4: [1, 2], 5: [7]}, cold_test={4: [4], 5: [0, 3]}, num_items=MIXED_ITEMS,
    )
    bundle = DatasetBundle(store=store, graph=g, corpus=None)
    p = small_params(g, num_users=6, h=6, n_layers=n_layers)
    batch = np.array([0, 1, 2, 3, 2, 0]), np.array([1, 7, 4, 6, 3, 0]), np.array([5, 3, 0, 2, 6, 7])

    def run():
        grads = kmpn_loss_and_grads(p, g, store, *batch, LossWeights())[1]
        return grads, [evaluation.evaluate(p, bundle, split).render() for split in ("test", "cold_start")]

    grads, reports = run()

    def full_sweeps(params, graph, rows=None):  # every sweep over all entities, the top one too
        return entity_forward(params, graph)

    def full_sweeps_item_rows(params, graph, rows):
        layers, gates = entity_forward(params, graph)
        return layers[:-1] + [layers[-1][:rows]], gates

    monkeypatch.setattr(model, "entity_forward", full_sweeps)
    monkeypatch.setattr(evaluation, "entity_forward", full_sweeps_item_rows)
    want_grads, want_reports = run()
    assert reports == want_reports
    for name, t in want_grads.items():
        assert t.shape == grads[name].shape and np.array_equal(t.view(np.uint64), grads[name].view(np.uint64)), name


def test_conv_sweep_makes_no_edge_width_temporary():
    rng = np.random.default_rng(5)
    n, h = 1000, 64
    triplets = np.stack([rng.integers(0, n, 8000), rng.integers(0, 4, 8000), rng.integers(0, n, 8000)], axis=1)
    g = kg_from_triplets(triplets, num_relations_raw=4, num_entities=n)
    assert g.num_edges >= 8 * n
    prev = rng.normal(size=(n, h))
    rel = rng.normal(size=(g.num_relations, h))
    grad_out = rng.normal(size=(n, h))
    d_rel = np.zeros_like(rel)
    tracemalloc.start()
    try:
        _, gates = conv_layer(g, prev, rel)
        _conv_backward(g, prev, rel, gates, grad_out, d_rel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.num_edges * h * 8, f"traced peak {peak} B reaches one [E, h] array"


def test_user_forward_makes_no_history_width_temporary():
    rng = np.random.default_rng(6)
    n_users, n_items, h = 400, 2000, 32
    histories = {u: np.sort(rng.choice(n_items, size=40, replace=False)) for u in range(n_users)}
    store = build_store(histories, num_items=n_items)
    entity_agg = rng.normal(size=(n_items, h))
    rows = len(store.train.items)
    assert rows > 8 * data.CHUNK_EDGES
    tracemalloc.start()
    try:
        user_forward(entity_agg, store.train, np.arange(n_users), np.ones(h))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * h * 8, f"traced peak {peak} B reaches one [history rows, h] gather"


def test_edgeless_graph_forward_and_backward_equal_depth_zero():
    g = kg_from_triplets([], num_relations_raw=1, num_entities=6)
    assert g.num_edges == 0 and g.walk.chunks == ()
    p = small_params(g, n_layers=2)
    layers, gates = entity_forward(p, g)
    assert all(np.all(m == 0.0) for m in layers[1:]) and all(len(x) == 0 for x in gates)
    batch = ([0, 1, 2], [1, 2, 3], [4, 5, 0])
    trace, pos, neg = forward(p, g, small_store(), *batch)
    grads = backward(p, g, trace, *score_row_grads(trace, np.ones(3), -np.ones(3)))
    p0 = replace(p, n_layers=0)
    trace0, pos0, neg0 = forward(p0, g, small_store(), *batch)
    grads0 = backward(p0, g, trace0, *score_row_grads(trace0, np.ones(3), -np.ones(3)))
    assert np.array_equal(pos, pos0) and np.array_equal(neg, neg0)
    for name in grads:
        assert np.array_equal(grads[name], grads0[name]), name
    assert np.all(grads["relation_emb"] == 0.0)


def test_entity_forward_layer_count_and_depth_zero():
    g = small_graph()
    p = small_params(g, n_layers=3)
    layers, gates = entity_forward(p, g)
    assert len(layers) == 4 and len(gates) == 3
    assert layers[0] is p.entity_emb

    p0 = small_params(g, n_layers=0)
    layers0, gates0 = entity_forward(p0, g)
    assert len(layers0) == 1 and gates0 == []


def test_entity_forward_default_layers_are_full_tables():
    # the benchmark's ranking oracle reads every row of every layer
    g = small_graph(num_entities=8)
    for n_layers in (0, 1, 3):
        p = small_params(g, n_layers=n_layers)
        layers, gates = entity_forward(p, g)
        assert len(layers) == n_layers + 1 and len(gates) == n_layers
        assert all(m.shape == (8, p.h) for m in layers)
        assert all(x.shape == g.walk.head.shape for x in gates)  # one gate per walk slot
        top, _ = entity_forward(p, g, 5)
        assert [m.shape[0] for m in top] == [8] * n_layers + [5]
        assert all(np.array_equal(a[: len(b)], b) for a, b in zip(layers, top))


# -- layer aggregation -------------------------------------------------------


def test_aggregate_layers_identity_and_cancellation():
    a = np.arange(6, dtype=float).reshape(2, 3)
    out = aggregate_layers([a])
    np.testing.assert_array_equal(out, a)
    assert out is not a  # a fresh array; the layers are never written
    np.testing.assert_array_equal(aggregate_layers([a, -a]), np.zeros_like(a))
    rng = np.random.default_rng(4)
    layers = [rng.normal(size=(3, 2)) for _ in range(4)]
    np.testing.assert_allclose(aggregate_layers(layers), sum(layers), rtol=1e-14)


# -- preference and user construction ----------------------------------------


def test_preference_embeddings_softmax_rows():
    g = small_graph()
    p = small_params(g)
    beta, pref = preference_embeddings(p)
    np.testing.assert_allclose(beta.sum(axis=1), np.ones(p.num_pref), rtol=1e-13)
    assert (beta > 0).all()
    np.testing.assert_allclose(pref, beta @ p.meta_pref_emb, rtol=1e-14)

    p.pref_logits[:] = 0.0
    beta, _ = preference_embeddings(p)
    np.testing.assert_allclose(beta, np.full_like(beta, 1.0 / p.num_meta), rtol=1e-14)


def test_user_forward_matches_per_preference_sum():
    g = small_graph()
    p = small_params(g)
    store = small_store()
    users = np.array([0, 2])
    trace, _, _ = forward(p, g, store, users, [1, 3], [2, 0])
    alpha, agg = trace.alpha, trace.user_agg

    layers, _ = entity_forward(p, g)
    _, pref = preference_embeddings(p)
    np.testing.assert_allclose(alpha.sum(axis=1), [1.0, 1.0], rtol=1e-13)
    for row, u in enumerate(users):
        hist = store.train[u]
        want = np.zeros(p.h)
        for mat in layers:
            mean_l = mat[hist].mean(axis=0)
            # unfactorized form: sum_p alpha_p * (mean o pref_p)
            want += sum(alpha[row, q] * mean_l * pref[q] for q in range(p.num_pref))
        np.testing.assert_allclose(agg[row], want, rtol=1e-12)
        msum = sum(m[hist].mean(axis=0) for m in layers)
        np.testing.assert_allclose(trace.hist_msum[row], msum, rtol=1e-13)

    # one shared profile row broadcasts over every user
    shared = pref.mean(axis=0)
    msum, vecs, _, _ = user_forward(aggregate_layers(layers), store.train, users, shared)
    np.testing.assert_allclose(vecs, msum * shared[None, :], rtol=1e-15)
    np.testing.assert_array_equal(msum, trace.hist_msum)


def test_user_forward_blocks_equal_one_whole_reduceat():
    rng = np.random.default_rng(21)
    n_items, h = 3000, 6
    # several blocks under CHUNK_EDGES rows, and a 1300-row history that fills one alone
    lengths = [700, 200, 1, 400, 1300, 5, 900, 350, 120, 60, 3, 250]
    assert sum(lengths) > 3 * data.CHUNK_EDGES and max(lengths) > data.CHUNK_EDGES
    store = build_store(
        {u: np.sort(rng.choice(n_items, size=n, replace=False)) for u, n in enumerate(lengths)},
        num_items=n_items,
    )
    entity_agg = rng.normal(size=(n_items, h))
    users = rng.permutation(len(lengths))
    profile = rng.normal(size=(len(users), h))
    msum, vecs, concat, counts = user_forward(entity_agg, store.train, users, profile)

    want_concat, want_counts = store.train.rows(users)
    want = np.add.reduceat(entity_agg[want_concat], np.cumsum(want_counts) - want_counts, axis=0)
    want /= want_counts[:, None]
    assert np.array_equal(msum, want) and np.array_equal(vecs, want * profile)
    assert np.array_equal(concat, want_concat) and np.array_equal(counts, want_counts)


def test_user_forward_single_preference_ignores_query_vector():
    g = small_graph()
    p = small_params(g, n_pref=1)
    store = small_store()
    trace, _, _ = forward(p, g, store, [1], [4], [5])
    np.testing.assert_array_equal(trace.alpha, [[1.0]])
    p2 = p.copy()
    p2.user_emb[:] = 999.0  # with one preference, attention cannot matter
    trace2, _, _ = forward(p2, g, store, [1], [4], [5])
    np.testing.assert_array_equal(trace.user_agg, trace2.user_agg)


def test_user_forward_rejects_empty_history():
    g = small_graph()
    p = small_params(g)
    # user 1 appears only in the validation split, so it has no train rows
    store = build_store({0: [1]}, valid={1: [2]}, num_items=6)
    # the same rows given per user, converted by the store
    as_tuple = replace(store, train=(np.array([1]), np.empty(0, dtype=np.int64)))
    entity_agg = aggregate_layers(entity_forward(p, g)[0])
    for s in (store, as_tuple):
        with pytest.raises(ValueError, match="user 1 has no history"):
            user_forward(entity_agg, s.train, np.array([1]), np.ones(p.h))
        with pytest.raises(ValueError, match="user 1 has no history"):
            forward(p, g, s, [0, 1], [1, 3], [2, 0])


# -- batched forward ----------------------------------------------------------


def test_forward_scores_match_scalar_score():
    g = small_graph()
    p = small_params(g)
    store = small_store()
    trace, pos_s, neg_s = forward(p, g, store, [0, 1, 2], [1, 3, 5], [2, 0, 4])
    agg = trace.entity_agg
    rows = trace.user_rows()
    for b in range(3):
        assert pos_s[b] == pytest.approx(float(rows[b] @ agg[trace.pos_items[b]]), rel=1e-13)
        assert neg_s[b] == pytest.approx(float(rows[b] @ agg[trace.neg_items[b]]), rel=1e-13)


def test_forward_duplicate_users_share_rows():
    g = small_graph()
    p = small_params(g)
    store = small_store()
    trace, pos_s, _ = forward(p, g, store, [1, 1, 0], [2, 4, 0], [5, 5, 5])
    rows = trace.user_rows()
    np.testing.assert_array_equal(rows[0], rows[1])
    single, pos_single, _ = forward(p, g, store, [1], [4], [5])
    assert pos_s[1] == pytest.approx(pos_single[0], rel=1e-13)
    assert len(trace.uniq_users) == 2


def test_forward_does_not_mutate_params():
    g = small_graph()
    p = small_params(g)
    snap = p.copy()
    forward(p, g, small_store(), [0], [1], [2])
    for name, t in p.tensors().items():
        np.testing.assert_array_equal(t, snap.tensors()[name])


def test_forward_validates_ids_and_shapes():
    g = small_graph()
    p = small_params(g)
    store = small_store()
    with pytest.raises(ValueError, match="user id out of range"):
        forward(p, g, store, [9], [0], [1])
    with pytest.raises(ValueError, match="positive item id out of range"):
        forward(p, g, store, [0], [6], [1])
    with pytest.raises(ValueError, match="share one shape"):
        forward(p, g, store, [0, 1], [0], [1])
    with pytest.raises(ValueError, match="empty batch"):
        forward(p, g, store, [], [], [])
    with pytest.raises(ValueError, match="more item rows than entities"):  # 7 items, 6 entities
        forward(p, g, build_store({0: [0, 1], 1: [2], 2: [6]}), [0], [0], [1])


# -- backward -----------------------------------------------------------------


def test_backward_zero_upstream_gives_zero_grads():
    g = small_graph()
    p = small_params(g)
    trace, _, _ = forward(p, g, small_store(), [0, 2], [1, 3], [2, 5])
    grads = backward(p, g, trace, np.zeros((2, p.h)), np.zeros((4, p.h)))
    assert list(grads) == list(p.tensors())
    for name, t in grads.items():
        assert t.shape == p.tensors()[name].shape, name
        assert np.all(t == 0.0), name


def test_backward_hand_derived_depth_zero_single_preference():
    # one user whose history is item 0, positive item 1, negative item 2,
    # no convolution sweeps, a single preference built from a single shared
    # vector: every gradient has a short closed form.
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=3)
    p = init_params(3, 2, 1, h=4, n_layers=0, n_pref=1, n_meta=1, seed=5)
    store = build_store({0: [0]}, num_items=3)
    trace, pos_s, neg_s = forward(p, g, store, [0], [1], [2])

    e0, e1, e2 = p.entity_emb
    em = p.meta_pref_emb[0]
    assert pos_s[0] == pytest.approx(float(np.sum(e0 * em * e1)), rel=1e-13)
    assert neg_s[0] == pytest.approx(float(np.sum(e0 * em * e2)), rel=1e-13)

    grads = backward(p, g, trace, *score_row_grads(trace, np.array([1.0]), np.array([0.0])))
    np.testing.assert_allclose(grads["entity_emb"][1], e0 * em, rtol=1e-13)
    np.testing.assert_allclose(grads["entity_emb"][0], e1 * em, rtol=1e-13)
    np.testing.assert_array_equal(grads["entity_emb"][2], np.zeros(4))
    np.testing.assert_allclose(grads["meta_pref_emb"][0], e0 * e1, rtol=1e-13)
    # one-way softmaxes are constant, so their logits get nothing
    np.testing.assert_array_equal(grads["pref_logits"], np.zeros((1, 1)))
    np.testing.assert_array_equal(grads["user_emb"], np.zeros((1, 4)))
    np.testing.assert_array_equal(grads["relation_emb"], np.zeros((2, 4)))


@pytest.mark.parametrize("seed", range(4))
def test_backward_row_contract_matches_central_difference(seed):
    # backward(v_u, v_i, v_p) is the gradient of
    # <v_u, user rows> + <v_i, item rows> + <v_p, pref>; probe it along one
    # random unit direction per tensor
    params, graph, store, batch, _, _ = _kmpn_instance(seed, False)
    rng = np.random.default_rng(seed)
    trace, _, _ = forward(params, graph, store, *batch)
    B, h = len(batch[0]), params.h
    v_u, v_i = rng.normal(size=(B, h)), rng.normal(size=(2 * B, h))
    v_p = rng.normal(size=trace.pref.shape)
    grads = backward(params, graph, trace, v_u, v_i, v_p)

    def value():
        t, _, _ = forward(params, graph, store, *batch)
        return float((v_u * t.user_rows()).sum() + (v_i * t.item_rows()).sum() + (v_p * t.pref).sum())

    step = 1e-5
    for name, tensor in params.tensors().items():
        delta = rng.normal(size=tensor.shape)
        delta /= np.linalg.norm(delta)
        orig = tensor.copy()
        tensor[...] = orig + step * delta
        f_plus = value()
        tensor[...] = orig - step * delta
        f_minus = value()
        tensor[...] = orig
        fd = (f_plus - f_minus) / (2 * step)
        an = float((grads[name] * delta).sum())
        assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an)), (name, fd, an)


def test_backward_holds_at_most_three_entity_tables():
    # per_depth, one adjoint's input and its output; the rest of the peak is
    # per-edge and per-chunk arrays, under one table here
    rng = np.random.default_rng(9)
    n, n_items, n_users, h = 8000, 1000, 50, 64
    triplets = np.stack([rng.integers(0, n, n), rng.integers(0, 2, n), rng.integers(0, n, n)], axis=1)
    g = kg_from_triplets(triplets, num_relations_raw=2, num_entities=n)
    store = build_store({u: rng.choice(n_items, size=5, replace=False) for u in range(n_users)}, num_items=n_items)
    p = init_params(n, g.num_relations, n_users, h=h, n_layers=3, seed=0)
    batch = rng.integers(0, n_users, 64), rng.integers(0, n_items, 64), rng.integers(0, n_items, 64)
    trace, _, _ = forward(p, g, store, *batch)
    d_user_rows, d_item_rows = rng.normal(size=(64, h)), rng.normal(size=(128, h))
    tracemalloc.start()
    try:
        backward(p, g, trace, d_user_rows, d_item_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = n * h * 8
    assert peak < 4 * table, f"traced peak {peak / table:.2f}x one [N, h] float64 table"


def test_backward_validates_upstream_shape():
    g = small_graph()
    p = small_params(g)
    trace, _, _ = forward(p, g, small_store(), [0], [1], [2])
    with pytest.raises(ValueError, match="shape mismatch"):
        backward(p, g, trace, np.zeros(3), np.zeros(3))


# -- checkpoint io ------------------------------------------------------------


def test_checkpoint_round_trip_bytes(tmp_path):
    g = small_graph()
    p = small_params(g, n_layers=2)
    f1, f2 = tmp_path / "a.kmpn", tmp_path / "b.kmpn"
    save_checkpoint(p, f1)
    q = load_checkpoint(f1)
    assert q.n_layers == p.n_layers
    for name, t in p.tensors().items():
        np.testing.assert_array_equal(t, q.tensors()[name])
    save_checkpoint(q, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_checkpoint_corruption_errors(tmp_path):
    g = small_graph()
    p = small_params(g)
    f = tmp_path / "c.kmpn"
    save_checkpoint(p, f)
    raw = f.read_bytes()

    bad = tmp_path / "bad"
    bad.write_bytes(b"NOPE1 1 1 1 1 1 1 1\n")
    with pytest.raises(ValueError, match="not a"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(bad)
