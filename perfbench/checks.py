"""Output checks. Each returns a list of problems; empty means correct.

The ranking oracle is written here, independent of kgrec.evaluation: user
vectors from the model's public functions, a stable full sort of every
unmasked item (score descending, id ascending), and the metrics from their
textbook definitions.
"""

from __future__ import annotations

import numpy as np

from kgrec import model

METRIC_TOLERANCE = 1e-12


def finite_params(tensors) -> list:
    return [f"non-finite values in {name}" for name, t in tensors.items() if not np.isfinite(t).all()]


def finite_log(lines, fields: int) -> list:
    """Every loss-log line has `fields` tab-separated finite numbers."""
    if not lines:
        return ["empty loss log"]
    for n, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) != fields:
            return [f"loss log line {n} has {len(parts)} fields, expected {fields}"]
        if not all(np.isfinite(float(p)) for p in parts):
            return [f"loss log line {n} is not finite: {line!r}"]
    return []


def trained(out, fields: int) -> list:
    params, lines = out
    return finite_log(lines, fields) + finite_params(params.tensors())


def same_tensors(a, b, what: str) -> list:
    ta, tb = a.tensors(), b.tensors()
    if list(ta) != list(tb):
        return [f"{what}: tensor names differ"]
    for name in ta:
        if ta[name].shape != tb[name].shape or not np.array_equal(ta[name], tb[name]):
            return [f"{what}: tensor {name} differs"]
    if getattr(a, "n_layers", None) != getattr(b, "n_layers", None):
        return [f"{what}: layer count differs"]
    return []


def same_exchange(read, exported, what: str) -> list:
    """A read-back exchange file equals the exported float32 rows."""
    if read.kind != exported.kind:
        return [f"{what}: kind {read.kind} != {exported.kind}"]
    if not np.array_equal(read.ids, exported.ids):
        return [f"{what}: ids differ"]
    if read.vectors.dtype != np.float32 or not np.array_equal(read.vectors, exported.vectors):
        return [f"{what}: vectors differ from the exported float32 values"]
    return []


def same_result(a, b) -> bool:
    """Equality of (params, loss log) pairs, exchange sets and reports."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_result(x, y) for x, y in zip(a, b))
    if hasattr(a, "tensors"):
        return not same_tensors(a, b, "")
    if hasattr(a, "vectors"):
        return not same_exchange(a, b, "")
    return a == b


# --- ranking oracle ----------------------------------------------------------


_DISCOUNT = [1.0 / np.log2(rank + 1) for rank in range(1, 1025)]  # entry r-1 is rank r's gain


def _user_metrics(scores, seen, test, ks):
    """Full stable sort of the unseen catalog; per-user (recall, ndcg, hit)
    per k, summed in rank order as their definitions read."""
    keep = np.ones(len(scores), dtype=bool)
    keep[np.asarray(seen, dtype=np.int64)] = False
    keep = np.flatnonzero(keep)
    ranked = keep[np.argsort(-scores[keep], kind="stable")][: max(ks)]
    hit_ranks = [int(r) for r in np.flatnonzero(np.isin(ranked, test))]
    out = {}
    for k in ks:
        hits = [r for r in hit_ranks if r < k]
        dcg = 0.0
        for r in hits:
            dcg += _DISCOUNT[r]
        ideal = sum(_DISCOUNT[: min(k, len(test))])
        out[k] = (len(hits) / len(test), float(dcg / ideal), 1.0 if hits else 0.0)
    return out


def _compare(report, rows, skipped, ks, what):
    if report.users_evaluated != len(rows) or report.users_skipped != skipped:
        return [
            f"{what}: evaluated/skipped {report.users_evaluated}/{report.users_skipped}, "
            f"oracle {len(rows)}/{skipped}"
        ]
    problems = []
    for j, (metric, table) in enumerate((("recall", report.recall), ("ndcg", report.ndcg), ("hit", report.hit))):
        for k in ks:
            want = float(np.mean([r[k][j] for r in rows]))
            if abs(table[k] - want) > METRIC_TOLERANCE:
                problems.append(f"{what}: {metric}@{k} {table[k]!r} != oracle {want!r}")
    return problems


def _model_vectors(params, graph, num_items):
    layers, _ = model.entity_forward(params, graph)
    agg = layers[0].copy()
    for m in layers[1:]:
        agg = agg + m
    _, pref = model.preference_embeddings(params)
    return layers, agg[:num_items], pref


def oracle_model(report, params, bundle, split: str) -> list:
    """Brute-force check of `evaluate(params, bundle, split)`."""
    store, ks = bundle.store, report.ks
    layers, items, pref = _model_vectors(params, bundle.graph, store.num_items)
    rows, skipped = [], 0
    for u in range(store.num_users):
        if split == "cold_start":
            seen, test = store.cold_history[u], store.cold_test[u]
            if len(seen) == 0:
                continue
            if len(test) == 0:
                skipped += 1
                continue
            vec = sum(m[seen].mean(axis=0) for m in layers) * pref.mean(axis=0)
        else:
            seen, test = store.train[u], store.split(split)[u]
            if len(test) == 0 or len(seen) == 0:
                skipped += int(len(test) > 0 or len(seen) > 0)
                continue
            logits = params.user_emb[u] @ pref.T
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            vec = sum(m[seen].mean(axis=0) for m in layers) * (alpha @ pref)
        rows.append(_user_metrics(items @ vec, seen, test, ks))
    return _compare(report, rows, skipped, ks, f"evaluate {split}")


def oracle_embeddings(report, user_set, item_set, bundle, split: str) -> list:
    """Brute-force check of `evaluate_embeddings` on exchange-file rows."""
    store, ks = bundle.store, report.ks
    item_pos = {int(i): k for k, i in enumerate(item_set.ids)}
    user_pos = {int(u): k for k, u in enumerate(user_set.ids)}
    items = item_set.vectors[[item_pos[i] for i in range(store.num_items)]].astype(np.float64)
    rows, skipped = [], 0
    for u in range(store.num_users):
        seen, test = store.train[u], store.split(split)[u]
        if len(test) == 0 or len(seen) == 0:
            skipped += int(len(test) > 0 or len(seen) > 0)
            continue
        vec = user_set.vectors[user_pos[u]].astype(np.float64)
        rows.append(_user_metrics(items @ vec, seen, test, ks))
    return _compare(report, rows, skipped, ks, f"evaluate_embeddings {split}")
