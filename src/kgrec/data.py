"""Dataset bundle: interaction splits, knowledge graph, and item texts.

On-disk layout (one directory per dataset):

    train.txt / valid.txt / test.txt    one line per user: ``user item item ...``
    cold_history.txt / cold_test.txt    same layout, only held-out users
    kg.txt                              one line per raw triplet: ``head relation tail``
    items.tsv                           ``item_id<TAB>description``, ids 0..n-1

Files are UTF-8. Tab and single-space separators are both accepted;
trailing whitespace is ignored. Item ids double as entity ids (items occupy
the low entity-id range). Every returned object is immutable after
construction, cached derived tables aside, and safe to share across threads.

The split files and kg.txt go through one reader, `_int_table`. A file of
ASCII digits, spaces, tabs, CRs and LFs whose ids have at most 18 digits is
parsed by array operations; any other (say with "+7", "1_0", non-ASCII
digits or a 19-digit id) by a per-line `int()` scan, so the accepted inputs
and the errors are those of the per-line scan alone.

In memory each interaction split is one CSR `Split` (offsets plus one item
array). Split files and `build_store` mappings both become (user, item)
columns, which `_assemble` validates by array operations on int64 keys.
`ItemCorpus.token_hashes` holds every item's token hashes in the same CSR
form; `tokenize` and `fnv1a_64` define the text format.
"""

from __future__ import annotations

import io
import logging
import re
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .numeric import atomic_open, csr_rows, sorted_unique
from .settings import SYNTH, check

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test", "cold_history", "cold_test")
SPLIT_FILES = {name: f"{name}.txt" for name in SPLIT_NAMES}


class DatasetError(ValueError):
    """An input file or constructed dataset violates an invariant."""


def _numbered_lines(path):
    """(line number, line) of a UTF-8 text file, universal newlines. Bytes
    that are not UTF-8 raise DatasetError naming the file and their line."""
    raw = Path(path).read_bytes()
    try:
        return enumerate(io.StringIO(raw.decode("utf-8"), newline=None), start=1)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path}:{line}: not UTF-8") from None


def _int_table(path, width: int | None = None):
    """(ids, counts, linenos, fault): the flat ids, field count and line
    number of each non-blank line before the first faulty one, and that
    line's DatasetError (else None). A line is faulty if it has other than
    `width` fields (when given) or an id that is not an integer in [0, 2**63)."""
    raw = path.read_bytes()
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = b - np.uint8(48) < 10  # b"0" to b"9"; smaller bytes wrap round past 10
    edge = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    fast = (digit | (b == 32) | (b == 9) | (b == 10) | (b == 13)).all() and (ends - starts <= 18).all()
    ids = np.fromstring(raw, dtype=np.int64, sep=" ") if fast and len(starts) else np.empty(0, dtype=np.int64)
    rows, fault = [], None
    if fast and len(ids) == len(starts):
        breaks = np.flatnonzero((b == 10) | ((b == 13) & (np.append(b[1:], 0) != 10)))  # LF, CR not before LF
        per_line = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))
        linenos, counts = np.flatnonzero(per_line) + 1, per_line[per_line > 0]
        for row in np.flatnonzero(counts != width)[:1] if width is not None else ():
            fault = DatasetError(f"{path}:{linenos[row]}: expected {width} fields, got {counts[row]}")
            ids, counts, linenos = ids[: counts[:row].sum()], counts[:row], linenos[:row]
        return ids, counts, linenos, fault
    for lineno, line in _numbered_lines(path):  # per-line route: "+7", "1_0", non-ASCII digits...
        fields = line.split()
        if not fields:
            continue
        try:
            ids = list(map(int, fields))
        except ValueError:
            ids = None
        if width is not None and len(fields) != width:
            fault = f"expected {width} fields, got {len(fields)}"
        elif ids is None:
            fault = "non-integer field"
        elif min(ids) < 0:
            fault = "negative id"
        elif max(ids) >= 2**63:
            fault = f"id {max(ids)} does not fit in int64"
        if fault:
            fault = DatasetError(f"{path}:{lineno}: {fault}")
            break
        rows.append((lineno, ids))
    linenos, counts = np.array([(n, len(row)) for n, row in rows], dtype=np.int64).reshape(-1, 2).T
    return np.array([i for _, row in rows for i in row], dtype=np.int64), counts, linenos, fault


# ---------------------------------------------------------------------------
# interaction store
# ---------------------------------------------------------------------------


class Split:
    """One interaction split in CSR form: user u's items are
    `items[indptr[u]:indptr[u + 1]]`, sorted, unique and read-only. `split[u]`
    is a view; iterating yields each user's row until the IndexError past the last."""

    def __init__(self, indptr: np.ndarray, items: np.ndarray):
        self.indptr, self.items = indptr, items
        indptr.flags.writeable = items.flags.writeable = False

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, user) -> np.ndarray:
        return self.items[self.indptr[user] : self.indptr[user + 1]]

    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def rows(self, users) -> tuple[np.ndarray, np.ndarray]:
        """(concatenation, counts) of the item lists of `users`, in order."""
        return csr_rows(self.indptr, self.items, users)


@dataclass(frozen=True)
class InteractionStore:
    """Per-user positive item lists, split into train/valid/test plus a
    cold-start carve-out (users absent from training entirely).

    Each split is a `Split` with one row per user id. A split given as a
    per-user sequence of arrays is converted; it must have one row per user,
    each of an integer dtype (an empty row may have any) and strictly
    increasing within [0, num_items), or DatasetError names the split and
    the first bad user.
    """

    num_users: int
    num_items: int
    train: Split
    valid: Split
    test: Split
    cold_history: Split
    cold_test: Split

    def __post_init__(self):
        for name in SPLIT_NAMES:
            rows = getattr(self, name)
            if not isinstance(rows, Split):
                for u, row in enumerate(rows):
                    dtype = np.asarray(row).dtype
                    if len(row) and dtype.kind not in "iu":
                        raise DatasetError(f"{name}: user {u}: row has non-integer dtype {dtype}")
                indptr = np.concatenate(([0], np.cumsum([len(v) for v in rows], dtype=np.int64)))
                items = np.concatenate([*rows, np.empty(0, dtype=np.int64)]).astype(np.int64, copy=False)
                if len(rows) != self.num_users:
                    raise DatasetError(f"{name}: {len(rows)} rows for {self.num_users} users")
                owner = np.repeat(np.arange(len(rows)), np.diff(indptr))
                bad = (items < 0) | (items >= self.num_items)
                bad[1:] |= (owner[1:] == owner[:-1]) & (items[1:] <= items[:-1])
                for u in owner[bad][:1]:
                    raise DatasetError(f"{name}: user {u}: row is not strictly increasing in [0, {self.num_items})")
                object.__setattr__(self, name, Split(indptr, items))

    def split(self, name: str) -> Split:
        if name not in SPLIT_NAMES:
            raise DatasetError(f"unknown split {name!r}")
        return getattr(self, name)

    def train_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (user, item) train interactions, user-major order."""
        users = np.repeat(np.arange(self.num_users, dtype=np.int64), self.train.counts())
        return users, self.train.items

    def total_interactions(self) -> int:
        return sum(len(self.split(name).items) for name in SPLIT_NAMES)


def _assemble(columns: dict, num_users: int | None, num_items: int | None, data_dir=None) -> InteractionStore:
    """Validate (user, item) columns per split and build the store. Ids are
    range-checked before anything is sized by them; an item outside the
    catalog names its split file and items.tsv if read from `data_dir`. One
    `sorted_unique` of the `user * num_items + item` keys (below 2**63) sorts
    and dedups each split, and the cross-split rules run as set operations.
    Of several faults the lowest user's is reported, in rule order for one
    user; read from `data_dir`, it names the split files involved."""

    def fault(message, names):
        if data_dir is None:
            return DatasetError(message)
        return DatasetError(", ".join(str(data_dir / SPLIT_FILES[name]) for name in names) + f": {message}")

    cols = {name: columns.get(name, (np.empty(0, dtype=np.int64),) * 2) for name in SPLIT_NAMES}
    seen = sorted_unique(np.concatenate([u for u, _ in cols.values()]))
    gap = int((seen == np.arange(len(seen))).sum())  # seen[k] - k never falls: a prefix matches
    n_users = num_users if num_users is not None else (int(seen[-1]) + 1 if len(seen) else 0)
    if gap < n_users:
        read = [name for name in SPLIT_NAMES if name in columns]
        raise fault(f"user ids not dense: user {gap} has no interactions", read)
    if len(seen) and seen[-1] >= n_users:
        raise DatasetError(f"user id {int(seen[-1])} out of range for declared num_users={n_users}")

    max_item, name = max(((int(i.max()), name) for name, (_, i) in cols.items() if len(i)), default=(-1, ""))
    n_items = num_items if num_items is not None else max_item + 1
    if max_item >= n_items:
        if data_dir is None:
            raise DatasetError(f"item id {max_item} out of range for declared num_items={n_items}")
        split, items = data_dir / SPLIT_FILES[name], data_dir / "items.tsv"
        raise DatasetError(f"{split}: item id {max_item} is not in {items} ({n_items} items)")
    if max(n_users, 1) * n_items >= 2**63:
        raise DatasetError(f"num_users={n_users} times num_items={n_items} overflows int64 interaction keys")

    keys = {name: sorted_unique(u * n_items + i) for name, (u, i) in cols.items()}
    pairs = {name: np.divmod(k, max(n_items, 1)) for name, k in keys.items()}
    users = {name: sorted_unique(u) for name, (u, _) in pairs.items()}
    faults = []  # (user, message, the splits involved)
    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test"), ("cold_history", "cold_test")):
        for u, i in zip(*np.divmod(np.intersect1d(keys[a], keys[b], assume_unique=True)[:1], n_items)):
            faults.append((u, f"user {u}: item {i} in both {a} and {b}", (a, b)))
    warm = sorted_unique(np.concatenate([users[name] for name in ("train", "valid", "test")]))
    cold = sorted_unique(np.concatenate([users["cold_history"], users["cold_test"]]))
    for u in np.intersect1d(warm, cold, assume_unique=True)[:1]:
        holding = [name for name in SPLIT_NAMES if np.isin(u, users[name])]
        faults.append((u, f"user {u} is cold-start but also appears in train/valid/test", holding))
    for u in np.setdiff1d(users["cold_test"], users["cold_history"], assume_unique=True)[:1]:
        faults.append((u, f"user {u}: cold_test without cold_history", ("cold_test", "cold_history")))
    if faults:
        raise fault(*min(faults, key=lambda f: f[0])[1:])

    splits = {name: Split(np.searchsorted(u, np.arange(n_users + 1)), i) for name, (u, i) in pairs.items()}
    return InteractionStore(num_users=n_users, num_items=n_items, **splits)


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
    columns = {}
    for name, mapping in zip(SPLIT_NAMES, (train, valid, test, cold_history, cold_test)):
        lists = [np.asarray(list(its), dtype=np.int64).reshape(-1) for its in (mapping or {}).values()]
        users = np.fromiter(mapping or {}, dtype=np.int64)
        owner = np.repeat(np.arange(len(users)), [len(v) for v in lists])  # mapping position of each item
        items = np.concatenate([*lists, np.empty(0, dtype=np.int64)])
        for u in users[sorted_unique(np.concatenate((np.flatnonzero(users < 0), owner[items < 0])))[:1]]:
            what = f"negative user id {u}" if u < 0 else f"negative item id for user {u}"
            raise DatasetError(f"{name}: {what}")
        columns[name] = users[owner], items
    return _assemble(columns, num_users, num_items)


def load_split_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one `user item item ...` file into (user, item) columns in file
    order, duplicates kept. Non-integer, negative or out-of-int64 ids and a
    second line for one user are errors that name the line."""
    path = Path(path)
    ids, counts, linenos, fault = _int_table(path)
    first = np.cumsum(counts) - counts
    users = ids[first]
    order = np.argsort(users, kind="stable")
    for row in np.sort(order[1:][np.diff(users[order]) == 0])[:1]:  # a user some earlier row has
        raise DatasetError(f"{path}:{linenos[row]}: duplicate line for user {users[row]}")
    if fault:
        raise fault
    return np.repeat(users, counts - 1), np.delete(ids, first)


def load_interactions(data_dir, num_items: int | None = None) -> InteractionStore:
    """Load an InteractionStore from a directory of split files. A given
    `num_items` is the size of the catalog the directory's items.tsv sets."""
    data_dir = Path(data_dir)
    if not (data_dir / SPLIT_FILES["train"]).exists():
        raise DatasetError(f"missing interaction file: {data_dir / SPLIT_FILES['train']}")
    parsed = {name: load_split_file(data_dir / f) for name, f in SPLIT_FILES.items() if (data_dir / f).exists()}
    store = _assemble(parsed, None, num_items, data_dir)
    duplicates = sum(len(users) for users, _ in parsed.values()) - store.total_interactions()
    if duplicates:
        log.warning("collapsed %d duplicate interactions while loading %s", duplicates, data_dir)
    return store


def save_interactions(store: InteractionStore, out_dir) -> None:
    """Write canonical split files (users ascending, items ascending,
    single-space separated, users with empty lists omitted)."""
    out_dir = Path(out_dir)
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


CHUNK_EDGES = 1024  # edges per conv chunk; a head of higher degree gets a chunk alone


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable relational graph as flat edge arrays.

    The raw relation set is doubled: each raw triplet (h, r, t) also stores
    the inverse edge (t, r + num_relations_raw, h). Item id i maps to
    entity id i. Edges are sorted by (degree of head, head, relation, tail):
    the one order every sweep walks, in which a degree-d head's d edges are
    one run. kg_from_triplets sorts them and fills in, from that sort,
    `inverse`, the edge index of every edge's inverse, and `chunks`, the
    (lo, hi, d) blocks that cut the runs into cache-sized pieces: edges
    [lo, hi) are (hi - lo) / d whole heads of degree d, about CHUNK_EDGES
    edges in all, so a head reduction over a block is a reshape to
    [heads, d, h] and a weighted sum over axis 1.
    """

    num_entities: int
    num_relations_raw: int
    edge_rel: np.ndarray  # (num_edges,)
    edge_tail: np.ndarray  # (num_edges,)
    edge_head: np.ndarray  # (num_edges,) expanded head per edge
    degrees: np.ndarray  # (num_entities,)
    inv_degree: np.ndarray  # (num_entities,) 0 for isolated nodes
    inverse: np.ndarray  # (num_edges,) edge index of each edge's inverse
    chunks: tuple  # (lo, hi, d) blocks of whole degree-d heads

    @property
    def num_relations(self) -> int:
        return 2 * self.num_relations_raw

    @property
    def num_edges(self) -> int:
        return len(self.edge_rel)

    @property
    def num_triplets_raw(self) -> int:
        return self.num_edges // 2  # each raw triplet makes two edges

    def raw_triplets(self) -> np.ndarray:
        """The deduplicated raw triplets (relation < num_relations_raw),
        sorted by (head, relation, tail)."""
        fwd = self.edge_rel < self.num_relations_raw
        trip = np.stack([self.edge_head[fwd], self.edge_rel[fwd], self.edge_tail[fwd]], axis=1)
        return trip[np.lexsort(trip.T[::-1])]


def kg_from_triplets(triplets, num_relations_raw: int, num_entities: int | None = None) -> KnowledgeGraph:
    """Build a KnowledgeGraph from raw (head, relation, tail) rows.

    Exact duplicate triplets are collapsed by their `_edge_keys`; inverse
    edges are materialized with relation id shifted by num_relations_raw.
    Edges are sorted by (degree of head, head, relation, tail), and the
    sort gives `inverse` and `chunks`, as KnowledgeGraph describes.
    """
    trip = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    if num_relations_raw < 0:
        raise DatasetError("num_relations_raw must be >= 0")
    if len(trip) and trip.min() < 0:
        raise DatasetError("negative id in triplet")
    for r in trip[trip[:, 1] >= num_relations_raw, 1][:1]:
        raise DatasetError(f"relation {r} >= {num_relations_raw}")
    max_ent = int(trip[:, ::2].max(initial=-1))
    n_ent = num_entities if num_entities is not None else max_ent + 1
    if max_ent >= n_ent:
        raise DatasetError(f"entity id {max_ent} out of range for num_entities={n_ent}")

    n_rel = 2 * num_relations_raw
    head_rel, tail = np.divmod(sorted_unique(_edge_keys(n_ent, n_rel, *trip.T)), max(n_ent, 1))
    head, rel = np.divmod(head_rel, max(n_rel, 1))
    heads, tails = np.concatenate([head, tail]), np.concatenate([tail, head])
    rels = np.concatenate([rel, rel + num_relations_raw])
    degrees = np.bincount(heads, minlength=n_ent).astype(np.int64)
    order = np.lexsort((_edge_keys(n_ent, n_rel, heads, rels, tails), degrees[heads]))
    heads, rels, tails = heads[order], rels[order], tails[order]
    # unsorted edge k's inverse is edge (k + T) mod 2T, T = len(head); sorted edge i is unsorted order[i]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    inverse = np.roll(rank, len(head))[order]

    degree = degrees[heads]
    values, starts = np.unique(degree, return_index=True)
    chunks = []
    for d, lo, hi in zip(values.tolist(), starts.tolist(), [*starts[1:].tolist(), len(degree)]):
        step = d * max(1, CHUNK_EDGES // d)
        chunks += [(a, min(a + step, hi), d) for a in range(lo, hi, step)]

    return KnowledgeGraph(
        num_entities=n_ent,
        num_relations_raw=num_relations_raw,
        edge_rel=rels,
        edge_tail=tails,
        edge_head=heads,
        degrees=degrees,
        inv_degree=np.divide(1.0, degrees, out=np.zeros(n_ent), where=degrees > 0),
        inverse=inverse,
        chunks=tuple(chunks),
    )


def _read_kg(path, num_relations_raw: int | None = None, num_entities: int | None = None):
    """([T, 3] raw triplets, relation count) of a `head relation tail` file;
    the count is one past the largest relation id when not given."""
    path = Path(path)
    ids, _, linenos, fault = _int_table(path, width=3)
    trip = ids.reshape(-1, 3)
    ent = trip[:, ::2].max(axis=1, initial=-1)
    big_ent = ent >= (num_entities if num_entities is not None else 2**63)
    big_rel = trip[:, 1] >= (num_relations_raw if num_relations_raw is not None else 2**63)
    for row in np.flatnonzero(big_ent | big_rel)[:1]:
        at = f"{path}:{linenos[row]}"
        if big_ent[row]:
            raise DatasetError(f"{at}: entity id {ent[row]} out of range for num_entities={num_entities}")
        raise DatasetError(f"{at}: relation {trip[row, 1]} >= {num_relations_raw}")
    if fault:
        raise fault
    return trip, num_relations_raw if num_relations_raw is not None else int(trip[:, 1].max(initial=-1)) + 1


def save_kg(graph: KnowledgeGraph, path) -> None:
    """Write the raw (non-inverse) triplets, sorted, one per line."""
    with atomic_open(path) as fh:
        for h, r, t in graph.raw_triplets():
            fh.write(f"{h} {r} {t}\n".encode("utf-8"))


def _edge_keys(n: int, n_rel: int, head, rel, tail) -> np.ndarray:
    """int64 keys `(head * n_rel + rel) * n + tail`, ordered as (head, rel,
    tail); a graph whose keys could overflow int64 raises DatasetError."""
    if n * n * max(n_rel, 1) >= 2**63:
        raise DatasetError(f"num_entities={n} and num_relations={n_rel} overflow int64 edge keys")
    return (head * n_rel + rel) * n + tail


# ---------------------------------------------------------------------------
# item corpus
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def fnv1a_64(token: str) -> int:
    """64-bit FNV-1a (standard offset basis and prime) over the token's UTF-8 bytes."""
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class ItemCorpus:
    """The item catalog: item i's description is `texts[i]`."""

    texts: tuple[str, ...]

    @property
    def num_items(self) -> int:
        return len(self.texts)

    @cached_property
    def token_hashes(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, hashes): item i's tokens, in text order, have the FNV-1a
        hashes `hashes[indptr[i]:indptr[i + 1]]` (uint64). Built on first use
        and kept, as `texts` never changes; each distinct token is hashed once."""
        tokens = [tokenize(text) for text in self.texts]
        indptr = np.concatenate(([0], np.cumsum([len(t) for t in tokens], dtype=np.int64)))
        vocab: dict[str, int] = {}
        ids = np.array([vocab.setdefault(t, len(vocab)) for item in tokens for t in item], dtype=np.int64)
        hashes = np.array([fnv1a_64(t) for t in vocab], dtype=np.uint64)[ids]
        indptr.flags.writeable = hashes.flags.writeable = False
        return indptr, hashes

    def buckets(self, num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, bucket ids): every token's hash modulo `num_buckets`, as
        int64, in the CSR layout of `token_hashes`."""
        indptr, hashes = self.token_hashes
        return indptr, (hashes % np.uint64(num_buckets)).astype(np.int64)


def load_items(path) -> ItemCorpus:
    """Read `item_id<TAB>description` lines. An id must be ASCII digits, and
    the n id lines must hold each of the ids 0..n-1 once, in any order."""
    path = Path(path)
    texts: dict[int, str] = {}
    top = (-1, 0)  # the largest id and its line
    for lineno, line in _numbered_lines(path):
        if not line.strip():
            continue
        head, _, text = line.rstrip("\n").partition("\t")
        head = head.strip()
        if not (head.isascii() and head.isdigit()):
            kind = "negative" if head[:1] == "-" and head[1:].isdigit() else "non-integer"
            raise DatasetError(f"{path}:{lineno}: {kind} item id")
        item = int(head)
        if item in texts:
            raise DatasetError(f"{path}:{lineno}: duplicate item id {item}")
        texts[item] = text
        top = max(top, (item, lineno))
    max_id, line = top
    n = len(texts)  # n distinct ids are 0..n-1 exactly when the largest is n - 1
    if max_id >= n:
        raise DatasetError(
            f"{path}:{line}: item id {max_id} out of range: the file lists {n} items, so ids must be 0..{n - 1}"
        )
    return ItemCorpus(tuple(texts[i] for i in range(n)))


def save_items(corpus: ItemCorpus, path) -> None:
    with atomic_open(path) as fh:
        for i, text in enumerate(corpus.texts):
            if any(c in text for c in "\t\n\r"):  # load_items splits lines at CR too
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


def load_bundle(data_dir) -> DatasetBundle:
    """Load a full dataset directory. items.tsv, if present, sets the item
    catalog; kg.txt gives the relation and entity counts, and the entity
    range is padded to cover every item."""
    data_dir = Path(data_dir)
    kg_path = data_dir / "kg.txt"
    if not kg_path.exists():
        raise DatasetError(f"missing kg file: {kg_path}")
    triplets, num_relations_raw = _read_kg(kg_path)
    items_path = data_dir / "items.tsv"
    corpus = load_items(items_path) if items_path.exists() else None
    store = load_interactions(data_dir, num_items=corpus.num_items if corpus is not None else None)
    if corpus is None:
        corpus = ItemCorpus(("",) * store.num_items)
    num_entities = max(int(triplets[:, ::2].max(initial=-1)) + 1, store.num_items)
    graph = kg_from_triplets(triplets, num_relations_raw, num_entities=num_entities)
    return DatasetBundle(store=store, graph=graph, corpus=corpus)


def save_bundle(bundle: DatasetBundle, out_dir) -> None:
    out_dir = Path(out_dir)
    save_interactions(bundle.store, out_dir)
    save_kg(bundle.graph, out_dir / "kg.txt")
    save_items(bundle.corpus, out_dir / "items.tsv")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


# Fixed generator settings of make_synthetic_dataset.
N_RELATIONS_RAW = 3  # raw relation types; each item link draws one uniformly
LINKS_PER_ITEM = 3  # distinct same-cluster attributes per item (at most attrs_per_cluster)
CROSS_NOISE = 0.02  # other-cluster train density, relative to `density`
POOL_SIZE = 40  # tokens c{c}w0 .. c{c}w39 of cluster c's pool
SHARED_POOL_SIZE = 20  # tokens shw0 .. shw19 shared by every cluster
MIN_TOKENS, MAX_TOKENS = 6, 12  # tokens per item text, both inclusive


@dataclass(frozen=True)
class SyntheticSpec:
    """Clustered synthetic dataset: users in cluster c interact mostly with
    items in cluster c; items link to cluster-specific attribute entities;
    texts draw from cluster-specific token pools.

    `density` controls the expected number of train items per user relative
    to the user's item cluster; held-out (valid/test) interactions are drawn
    on top of that. The other generator settings are fixed: the module
    constants N_RELATIONS_RAW, LINKS_PER_ITEM, CROSS_NOISE, POOL_SIZE,
    SHARED_POOL_SIZE, MIN_TOKENS and MAX_TOKENS.
    """

    n_users: int = SYNTH["n_users"].default
    n_items: int = SYNTH["n_items"].default
    n_clusters: int = SYNTH["n_clusters"].default
    density: float = SYNTH["density"].default
    attrs_per_cluster: int = SYNTH["attrs_per_cluster"].default
    held_out_fraction: float = SYNTH["held_out_fraction"].default
    cold_user_fraction: float = SYNTH["cold_user_fraction"].default

    def validate(self) -> None:
        try:
            for f in fields(self):
                check(f.name, getattr(self, f.name), SYNTH[f.name])
        except ValueError as exc:
            raise DatasetError(str(exc)) from None
        if self.n_clusters > min(self.n_users, self.n_items):
            raise DatasetError("cluster count exceeds user or item count")


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
        weights = cluster_weights[c]
        own = rng.choice(own_pool, size=total_own, replace=False, p=weights / weights.sum())
        rng.shuffle(own)  # interaction time order is independent of popularity

        other_pool = all_items[all_items % C != c]
        n_cross = int(rng.binomial(len(other_pool), spec.density * CROSS_NOISE))
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
        k = min(LINKS_PER_ITEM, spec.attrs_per_cluster)
        chosen = rng.choice(attrs, size=k, replace=False)
        for t in chosen:
            r = int(rng.integers(N_RELATIONS_RAW))
            triplets.append((i, r, int(t)))
    graph = kg_from_triplets(triplets, N_RELATIONS_RAW, num_entities=spec.n_items + n_attr)

    # texts from cluster token pools plus a shared pool
    shared = [f"shw{j}" for j in range(SHARED_POOL_SIZE)]
    pools = [[f"c{c}w{j}" for j in range(POOL_SIZE)] for c in range(C)]
    texts = []
    for i in range(spec.n_items):
        c = i % C
        n_tok = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
        toks = []
        for _ in range(n_tok):
            if rng.random() < 0.8:
                toks.append(pools[c][int(rng.integers(POOL_SIZE))])
            else:
                toks.append(shared[int(rng.integers(SHARED_POOL_SIZE))])
        texts.append(" ".join(toks))
    corpus = ItemCorpus(tuple(texts))

    return store, graph, corpus
