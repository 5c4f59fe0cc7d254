"""Dataset bundle: interaction splits, knowledge graph, and item texts.

On-disk layout (one directory per dataset):

    train.txt / valid.txt / test.txt    one line per user: ``user item item ...``
    cold_history.txt / cold_test.txt    same layout, only held-out users
    kg.txt                              one line per raw triplet: ``head relation tail``
    items.tsv                           ``item_id<TAB>description``

Tab and single-space separators are both accepted; trailing whitespace is
ignored. Item ids double as entity ids (items occupy the low entity-id
range). Every returned object is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numeric import atomic_open

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test", "cold_history", "cold_test")
SPLIT_FILES = {name: f"{name}.txt" for name in SPLIT_NAMES}


class DatasetError(ValueError):
    """An input file or constructed dataset violates an invariant."""


# ---------------------------------------------------------------------------
# interaction store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionStore:
    """Per-user positive item lists, split into train/valid/test plus a
    cold-start carve-out (users absent from training entirely).

    Each split is a tuple of sorted, deduplicated int64 arrays indexed by
    user id; arrays are owned by the store and must not be mutated.
    """

    num_users: int
    num_items: int
    train: tuple
    valid: tuple
    test: tuple
    cold_history: tuple
    cold_test: tuple

    def split(self, name: str) -> tuple:
        if name not in SPLIT_NAMES:
            raise DatasetError(f"unknown split {name!r}")
        return getattr(self, name)

    def train_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (user, item) train interactions, user-major order."""
        users = np.repeat(
            np.arange(self.num_users, dtype=np.int64),
            [len(self.train[u]) for u in range(self.num_users)],
        )
        items = (
            np.concatenate([self.train[u] for u in range(self.num_users)])
            if self.num_users
            else np.empty(0, dtype=np.int64)
        )
        return users, items.astype(np.int64)

    def interaction_count(self, name: str) -> int:
        return int(sum(len(v) for v in self.split(name)))

    def total_interactions(self) -> int:
        return sum(self.interaction_count(name) for name in SPLIT_NAMES)


def _as_sorted_unique(items) -> np.ndarray:
    return np.unique(np.asarray(list(items), dtype=np.int64))


def build_store(
    train,
    valid=None,
    test=None,
    cold_history=None,
    cold_test=None,
    num_users: int | None = None,
    num_items: int | None = None,
) -> InteractionStore:
    """Assemble and validate an InteractionStore from per-user mappings.

    Each argument maps user id -> iterable of item ids. Raises DatasetError
    on sparse user ids, out-of-range items, per-user split overlap, or a
    cold-start user that also appears in train/valid/test.
    """
    given = (train, valid, test, cold_history, cold_test)
    raw = {name: dict(m or {}) for name, m in zip(SPLIT_NAMES, given)}
    seen_users = set()
    max_item = -1
    for name, mapping in raw.items():
        for u, its in mapping.items():
            if u < 0:
                raise DatasetError(f"{name}: negative user id {u}")
            arr = _as_sorted_unique(its)
            if len(arr) and arr[0] < 0:
                raise DatasetError(f"{name}: negative item id for user {u}")
            mapping[u] = arr
            if len(arr):
                seen_users.add(u)
                max_item = max(max_item, int(arr[-1]))

    n_users = num_users if num_users is not None else (max(seen_users) + 1 if seen_users else 0)
    for u in range(n_users):
        if u not in seen_users:
            raise DatasetError(f"user ids not dense: user {u} has no interactions")
    if seen_users and max(seen_users) >= n_users:
        raise DatasetError(
            f"user id {max(seen_users)} out of range for declared num_users={n_users}"
        )

    n_items = num_items if num_items is not None else max_item + 1
    if max_item >= n_items:
        raise DatasetError(f"item id {max_item} out of range for declared num_items={n_items}")

    splits = {
        name: tuple(mapping.get(u, np.empty(0, dtype=np.int64)) for u in range(n_users))
        for name, mapping in raw.items()
    }

    for u in range(n_users):
        tr, va, te = splits["train"][u], splits["valid"][u], splits["test"][u]
        for a_name, a, b_name, b in (
            ("train", tr, "valid", va),
            ("train", tr, "test", te),
            ("valid", va, "test", te),
            ("cold_history", splits["cold_history"][u], "cold_test", splits["cold_test"][u]),
        ):
            common = np.intersect1d(a, b)
            if len(common):
                raise DatasetError(
                    f"user {u}: item {int(common[0])} in both {a_name} and {b_name}"
                )
        if len(splits["cold_history"][u]) or len(splits["cold_test"][u]):
            if len(tr) or len(va) or len(te):
                raise DatasetError(
                    f"user {u} is cold-start but also appears in train/valid/test"
                )
        if len(splits["cold_test"][u]) and not len(splits["cold_history"][u]):
            raise DatasetError(f"user {u}: cold_test without cold_history")

    return InteractionStore(num_users=n_users, num_items=n_items, **splits)


@dataclass(frozen=True)
class SplitFile:
    """Raw parse of one split file, before cross-file validation."""

    items: dict
    duplicates_collapsed: int


def load_split_file(path) -> SplitFile:
    """Parse one `user item item ...` file; duplicates within a line are
    collapsed and counted."""
    path = Path(path)
    mapping: dict[int, np.ndarray] = {}
    dups = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip()
            if not line:
                continue
            fields = line.replace("\t", " ").split()
            try:
                ids = [int(tok) for tok in fields]
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer field") from None
            if any(v < 0 for v in ids):
                raise DatasetError(f"{path}:{lineno}: negative id")
            user, items = ids[0], ids[1:]
            if user in mapping:
                raise DatasetError(f"{path}:{lineno}: duplicate line for user {user}")
            arr = _as_sorted_unique(items)
            dups += len(items) - len(arr)
            mapping[user] = arr
    return SplitFile(items=mapping, duplicates_collapsed=dups)


def load_interactions(path, num_items: int | None = None) -> InteractionStore:
    """Load an InteractionStore from a directory of split files or from a
    single train-style file (valid/test empty)."""
    path = Path(path)
    if path.is_dir():
        if not (path / SPLIT_FILES["train"]).exists():
            raise DatasetError(f"missing interaction file: {path / SPLIT_FILES['train']}")
        files = {name: path / SPLIT_FILES[name] for name in SPLIT_NAMES}
        parsed = {name: load_split_file(f) for name, f in files.items() if f.exists()}
    else:
        parsed = {"train": load_split_file(path)}
    total_dups = sum(p.duplicates_collapsed for p in parsed.values())
    if total_dups:
        log.warning("collapsed %d duplicate interactions while loading %s", total_dups, path)
    return build_store(num_items=num_items, **{name: p.items for name, p in parsed.items()})


def save_interactions(store: InteractionStore, out_dir) -> None:
    """Write canonical split files (users ascending, items ascending,
    single-space separated, users with empty lists omitted)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        lists = store.split(name)
        if name.startswith("cold") and not any(len(v) for v in lists):
            continue
        with atomic_open(out_dir / SPLIT_FILES[name]) as fh:
            for u in range(store.num_users):
                if len(lists[u]):
                    fh.write((f"{u} " + " ".join(str(int(i)) for i in lists[u]) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# knowledge graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable relational graph as flat edge arrays.

    The raw relation set is doubled: each raw triplet (h, r, t) also stores
    the inverse edge (t, r + num_relations_raw, h). Edges are sorted by
    (head, relation, tail) so traversal order is deterministic. Item id i
    maps to entity id i.
    """

    num_entities: int
    num_relations_raw: int
    num_triplets_raw: int
    edge_rel: np.ndarray  # (num_edges,)
    edge_tail: np.ndarray  # (num_edges,)
    edge_head: np.ndarray  # (num_edges,) expanded head per edge
    degrees: np.ndarray  # (num_entities,)
    inv_degree: np.ndarray  # (num_entities,) 0 for isolated nodes

    @property
    def num_relations(self) -> int:
        return 2 * self.num_relations_raw

    @property
    def num_edges(self) -> int:
        return len(self.edge_rel)

    def raw_triplets(self) -> np.ndarray:
        """The deduplicated raw triplets (relation < num_relations_raw),
        sorted by (head, relation, tail)."""
        fwd = self.edge_rel < self.num_relations_raw
        trip = np.stack(
            [self.edge_head[fwd], self.edge_rel[fwd], self.edge_tail[fwd]], axis=1
        )
        order = np.lexsort((trip[:, 2], trip[:, 1], trip[:, 0]))
        return trip[order]


def kg_from_triplets(
    triplets, num_relations_raw: int, num_entities: int | None = None
) -> KnowledgeGraph:
    """Build a KnowledgeGraph from raw (head, relation, tail) rows.

    Exact duplicate triplets are collapsed; inverse edges are materialized
    with relation id shifted by num_relations_raw.
    """
    trip = np.asarray(list(triplets), dtype=np.int64).reshape(-1, 3)
    if num_relations_raw < 0:
        raise DatasetError("num_relations_raw must be >= 0")
    if len(trip):
        if trip.min() < 0:
            raise DatasetError("negative id in triplet")
        bad = trip[:, 1] >= num_relations_raw
        if bad.any():
            r = int(trip[bad][0, 1])
            raise DatasetError(f"relation {r} >= {num_relations_raw}")
        max_ent = int(max(trip[:, 0].max(), trip[:, 2].max()))
    else:
        max_ent = -1
    n_ent = num_entities if num_entities is not None else max_ent + 1
    if max_ent >= n_ent:
        raise DatasetError(f"entity id {max_ent} out of range for num_entities={n_ent}")

    trip = np.unique(trip, axis=0) if len(trip) else trip
    heads = np.concatenate([trip[:, 0], trip[:, 2]])
    rels = np.concatenate([trip[:, 1], trip[:, 1] + num_relations_raw])
    tails = np.concatenate([trip[:, 2], trip[:, 0]])
    order = np.lexsort((tails, rels, heads))
    heads, rels, tails = heads[order], rels[order], tails[order]

    degrees = np.bincount(heads, minlength=n_ent).astype(np.int64)
    inv_degree = np.zeros(n_ent, dtype=np.float64)
    nz = degrees > 0
    inv_degree[nz] = 1.0 / degrees[nz]

    return KnowledgeGraph(
        num_entities=n_ent,
        num_relations_raw=num_relations_raw,
        num_triplets_raw=len(trip),
        edge_rel=rels,
        edge_tail=tails,
        edge_head=heads,
        degrees=degrees,
        inv_degree=inv_degree,
    )


def load_kg(
    path, num_relations_raw: int | None = None, num_entities: int | None = None
) -> KnowledgeGraph:
    """Load raw triplets from a `head relation tail` file; the relation
    count is one past the largest relation id when not given."""
    path = Path(path)
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip()
            if not line:
                continue
            fields = line.replace("\t", " ").split()
            if len(fields) != 3:
                raise DatasetError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            try:
                h, r, t = (int(tok) for tok in fields)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer field") from None
            if min(h, r, t) < 0:
                raise DatasetError(f"{path}:{lineno}: negative id")
            if num_relations_raw is not None and r >= num_relations_raw:
                raise DatasetError(f"{path}:{lineno}: relation {r} >= {num_relations_raw}")
            rows.append((h, r, t))
    if num_relations_raw is None:
        num_relations_raw = max((r for _, r, _ in rows), default=-1) + 1
    return kg_from_triplets(rows, num_relations_raw, num_entities)


def save_kg(graph: KnowledgeGraph, path) -> None:
    """Write the raw (non-inverse) triplets, sorted, one per line."""
    with atomic_open(path) as fh:
        for h, r, t in graph.raw_triplets():
            fh.write(f"{h} {r} {t}\n".encode("utf-8"))


def check_inverse_closure(graph: KnowledgeGraph) -> None:
    """Full-scan check that every raw edge has its inverse stored."""
    edges = set(zip(graph.edge_head.tolist(), graph.edge_rel.tolist(), graph.edge_tail.tolist()))
    raw = graph.num_relations_raw
    for h, r, t in edges:
        if r < raw and (t, r + raw, h) not in edges:
            raise DatasetError(f"missing inverse edge for triplet ({h}, {r}, {t})")


# ---------------------------------------------------------------------------
# item corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItemCorpus:
    """item id -> description text; missing entries read as empty."""

    num_items: int
    texts: dict

    def text(self, item: int) -> str:
        return self.texts.get(item, "")


def load_items(path, num_items: int | None = None) -> ItemCorpus:
    path = Path(path)
    texts: dict[int, str] = {}
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            head, _, text = line.partition("\t")
            try:
                item = int(head)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer item id") from None
            if item < 0:
                raise DatasetError(f"{path}:{lineno}: negative item id")
            if item in texts:
                raise DatasetError(f"{path}:{lineno}: duplicate item id {item}")
            texts[item] = text
            max_id = max(max_id, item)
    n = num_items if num_items is not None else max_id + 1
    if max_id >= n:
        raise DatasetError(f"item id {max_id} out of range for num_items={n}")
    return ItemCorpus(num_items=n, texts=texts)


def save_items(corpus: ItemCorpus, path) -> None:
    with atomic_open(path) as fh:
        for i in range(corpus.num_items):
            text = corpus.text(i)
            if "\t" in text or "\n" in text:
                raise DatasetError(f"item {i}: text contains tab or newline")
            fh.write(f"{i}\t{text}\n".encode("utf-8"))


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetBundle:
    store: InteractionStore
    graph: KnowledgeGraph
    corpus: ItemCorpus


def load_bundle(
    data_dir, num_relations_raw: int | None = None, num_entities: int | None = None
) -> DatasetBundle:
    """Load a full dataset directory; relation/entity counts are inferred
    from kg.txt when not given."""
    data_dir = Path(data_dir)
    kg_path = data_dir / "kg.txt"
    if not kg_path.exists():
        raise DatasetError(f"missing kg file: {kg_path}")
    graph = load_kg(kg_path, num_relations_raw, num_entities)
    items_path = data_dir / "items.tsv"
    corpus = load_items(items_path) if items_path.exists() else None
    store = load_interactions(
        data_dir, num_items=corpus.num_items if corpus is not None else None
    )
    if corpus is None:
        corpus = ItemCorpus(num_items=store.num_items, texts={})
    if graph.num_entities < store.num_items:
        # items are entities; pad the entity range to cover the catalog
        graph = kg_from_triplets(
            graph.raw_triplets(), graph.num_relations_raw, num_entities=store.num_items
        )
    return DatasetBundle(store=store, graph=graph, corpus=corpus)


def save_bundle(bundle: DatasetBundle, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_interactions(bundle.store, out_dir)
    save_kg(bundle.graph, out_dir / "kg.txt")
    save_items(bundle.corpus, out_dir / "items.tsv")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Clustered synthetic dataset: users in cluster c interact mostly with
    items in cluster c; items link to cluster-specific attribute entities;
    texts draw from cluster-specific token pools.

    `density` controls the expected number of train items per user relative
    to the user's item cluster; held-out (valid/test) interactions are drawn
    on top of that.
    """

    n_users: int = 200
    n_items: int = 300
    n_clusters: int = 4
    density: float = 0.1
    attrs_per_cluster: int = 10
    n_relations_raw: int = 3
    links_per_item: int = 3
    held_out_fraction: float = 0.2
    cold_user_fraction: float = 0.03
    cross_noise: float = 0.02
    pool_size: int = 40
    shared_pool_size: int = 20
    min_tokens: int = 6
    max_tokens: int = 12

    def validate(self) -> None:
        if not (0.0 < self.density <= 1.0):
            raise DatasetError(f"density must be in (0, 1], got {self.density}")
        if self.n_clusters < 1 or self.n_clusters > min(self.n_users, self.n_items):
            raise DatasetError("cluster count exceeds user or item count")
        if not (0.0 <= self.held_out_fraction < 1.0):
            raise DatasetError("held_out_fraction must be in [0, 1)")
        if not (0.0 <= self.cold_user_fraction < 0.5):
            raise DatasetError("cold_user_fraction must be in [0, 0.5)")
        if self.attrs_per_cluster < 1 or self.links_per_item < 1:
            raise DatasetError("attrs_per_cluster and links_per_item must be >= 1")
        if self.n_relations_raw < 1:
            raise DatasetError("n_relations_raw must be >= 1")
        if self.min_tokens < 1 or self.max_tokens < self.min_tokens:
            raise DatasetError("bad token count range")


def _weighted_sample_without_replacement(rng, pool: np.ndarray, weights: np.ndarray, k: int):
    probs = weights / weights.sum()
    k = min(k, len(pool))
    return rng.choice(pool, size=k, replace=False, p=probs)


def make_synthetic_dataset(
    spec: SyntheticSpec, seed: int
) -> tuple[InteractionStore, KnowledgeGraph, ItemCorpus]:
    """Deterministic clustered dataset for desk-scale runs.

    Users/items are assigned to clusters round-robin (id mod n_clusters).
    Within a cluster, item popularity falls off harmonically, so trained
    models have a learnable within-cluster signal beyond cluster membership.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    C = spec.n_clusters

    cluster_items = [
        np.arange(spec.n_items, dtype=np.int64)[np.arange(spec.n_items) % C == c] for c in range(C)
    ]
    cluster_weights = [1.0 / (np.arange(len(ci)) + 1.0) for ci in cluster_items]
    all_items = np.arange(spec.n_items, dtype=np.int64)

    n_cold = int(round(spec.cold_user_fraction * spec.n_users))
    cold_ids = set(range(spec.n_users - n_cold, spec.n_users))

    train: dict[int, np.ndarray] = {}
    valid: dict[int, np.ndarray] = {}
    test: dict[int, np.ndarray] = {}
    cold_history: dict[int, np.ndarray] = {}
    cold_test: dict[int, np.ndarray] = {}

    held = spec.held_out_fraction
    for u in range(spec.n_users):
        c = u % C
        own_pool = cluster_items[c]
        n_train_own = max(1, int(rng.binomial(len(own_pool), spec.density)))
        n_held = max(2, int(round(n_train_own * held / max(1e-12, 1.0 - held))))
        total_own = min(n_train_own + n_held, len(own_pool))
        n_held = min(n_held, total_own - 1)
        own = _weighted_sample_without_replacement(rng, own_pool, cluster_weights[c], total_own)
        rng.shuffle(own)  # interaction time order is independent of popularity

        other_pool = all_items[all_items % C != c]
        n_cross = int(rng.binomial(len(other_pool), spec.density * spec.cross_noise))
        cross = (
            rng.choice(other_pool, size=n_cross, replace=False)
            if n_cross
            else np.empty(0, dtype=np.int64)
        )

        if u in cold_ids:
            pos = np.concatenate([own, cross]).astype(np.int64)
            rng.shuffle(pos)
            if len(pos) < 2:
                cold_history[u] = pos  # too few interactions to hold any out
                cold_test[u] = np.empty(0, dtype=np.int64)
            else:
                n_hist = max(1, int(round(0.8 * len(pos))))
                n_hist = min(n_hist, len(pos) - 1)
                cold_history[u] = pos[:n_hist]
                cold_test[u] = pos[n_hist:]
        else:
            heldout = own[len(own) - n_held :]
            train_items = np.concatenate([own[: len(own) - n_held], cross]).astype(np.int64)
            n_valid = n_held // 2
            train[u] = train_items
            valid[u] = heldout[:n_valid]
            test[u] = heldout[n_valid:]

    store = build_store(
        train,
        valid,
        test,
        cold_history,
        cold_test,
        num_users=spec.n_users,
        num_items=spec.n_items,
    )

    # KG: each item links to attribute entities of its own cluster
    n_attr = C * spec.attrs_per_cluster
    triplets = []
    for i in range(spec.n_items):
        c = i % C
        attrs = spec.n_items + c * spec.attrs_per_cluster + np.arange(spec.attrs_per_cluster)
        k = min(spec.links_per_item, spec.attrs_per_cluster)
        chosen = rng.choice(attrs, size=k, replace=False)
        for t in chosen:
            r = int(rng.integers(spec.n_relations_raw))
            triplets.append((i, r, int(t)))
    graph = kg_from_triplets(
        triplets, spec.n_relations_raw, num_entities=spec.n_items + n_attr
    )

    # texts from cluster token pools plus a shared pool
    shared = [f"shw{j}" for j in range(spec.shared_pool_size)]
    pools = [[f"c{c}w{j}" for j in range(spec.pool_size)] for c in range(C)]
    texts = {}
    for i in range(spec.n_items):
        c = i % C
        n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        toks = []
        for _ in range(n_tok):
            if rng.random() < 0.8:
                toks.append(pools[c][int(rng.integers(spec.pool_size))])
            else:
                toks.append(shared[int(rng.integers(spec.shared_pool_size))])
        texts[i] = " ".join(toks)
    corpus = ItemCorpus(num_items=spec.n_items, texts=texts)

    return store, graph, corpus
