"""Dataset bundle: interaction splits, knowledge graph, and item texts.

On-disk layout (one directory per dataset):

    train.txt / valid.txt / test.txt    one line per user: ``user item item ...``
    cold_history.txt / cold_test.txt    same layout, only held-out users
    kg.txt                              one line per raw triplet: ``head relation tail``
    items.tsv                           ``item_id<TAB>description``, ids 0..n-1

Files are UTF-8, and the README gives each format's grammar. Every text
reader, the exchange files' included, parses a whole file by array
operations on one `TextTokens` (tokens, line breaks, the one id rule); a
faulty file fails on its first faulty line, named from a byte offset. Item
ids double as entity ids (items occupy the low entity-id range). Every
returned object is immutable after construction, cached derived tables
aside, and safe to share across threads.

In memory each interaction split is one CSR `Split` (offsets plus one item
array). Every store is built by `_assemble` from (user, item) columns, which
it validates by array operations on int64 keys: split files and per-user
rows alike.
`ItemCorpus.token_hashes` holds every item's token hashes in the same CSR
form; `tokenize` and `fnv1a_64` define the text format.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_right
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


class TextTokens:
    """A UTF-8 text file as arrays. Its tokens are the runs of bytes other
    than space, tab, CR and LF: token k is `raw[starts[k]:ends[k]]`. A line
    ends at an LF, a CRLF or a lone CR, and line j + 1 holds `counts[j]`
    tokens. A byte that is not UTF-8 fails, naming its line."""

    def __init__(self, path, raw: bytes):
        self.path, self.raw = path, raw
        b = self.b = np.frombuffer(raw, dtype=np.uint8)
        lf, cr = np.flatnonzero(b == 10), np.flatnonzero(b == 13)
        self.breaks = np.sort(np.append(lf, cr[b[np.minimum(cr + 1, len(b) - 1)] != 10]))  # LFs, CRs not before one
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(exc.start, "not UTF-8") from None
        gap = np.concatenate(([True], (b == 32) | (b == 9) | (b == 10) | (b == 13), [True]))
        edges = np.flatnonzero(gap[1:] != gap[:-1])
        self.starts, self.ends = edges[::2], edges[1::2]
        before = np.concatenate(([0], np.searchsorted(self.starts, self.breaks), [len(self.starts)]))  # tokens before
        lines = len(self.breaks) + (raw[-1:] not in b"\r\n")  # each line break; a final one starts no line
        self.counts = (before[1:] - before[:-1])[:lines]

    def error(self, offset, message: str) -> DatasetError:
        """`message` as the error of the line that holds byte `offset`."""
        return DatasetError(f"{self.path}:{np.searchsorted(self.breaks, offset) + 1}: {message}")

    def token(self, k) -> str:
        return self.raw[self.starts[k] : self.ends[k]].decode()

    def ids(self, take=None) -> tuple[np.ndarray, np.ndarray]:
        """(values, kinds) of all tokens, or of those at indices `take`. Kind 0
        is an id: ASCII digits of a value below 2**63, which `values` holds.
        Kind 1 is not an integer, 2 is "-" then digits, 3 is 2**63 or more."""
        starts, ends = (self.starts, self.ends) if take is None else (self.starts[take], self.ends[take])
        b, kinds = self.b, np.zeros(len(starts), dtype=np.int8)
        if take is not None or self.raw.translate(None, b"0123456789 \t\r\n"):  # else every token is digits
            size = ends - starts + 1  # copy each token and the byte after it, which becomes a space
            at = np.cumsum(size) - size
            b = b[np.minimum(np.repeat(starts - at, size) + np.arange(size.sum()), len(b) - 1)]
            starts, ends = at, at + size - 1
            b[ends] = 32
            other = np.concatenate(([0], np.cumsum(b - np.uint8(48) >= 10)))  # non-digits before each offset
            other = other[ends] - other[starts]
            kinds[other > 0] = 1
            kinds[(other == 1) & (b[starts] == 45) & (size > 2)] = 2
            b[np.repeat(kinds > 0, size)] = 32  # and blank the tokens that are not ids
        values = np.zeros(len(starts), dtype=np.uint64)
        values[kinds == 0] = np.fromstring(b.tobytes(), dtype=np.uint64, sep=" ") if len(starts) else 0
        kinds[values >= 2**63] = 3  # np.fromstring reads a value past 2**64 - 1 as 2**64 - 1
        return values.astype(np.int64), kinds


def _int_table(path, width: int | None = None):
    """(ids, counts, linenos, fault): the flat ids, field count and line
    number of each non-blank line before the first faulty one, and that
    line's DatasetError (else None). A line is faulty if it has other than
    `width` fields (when given) or a token that is not an id."""
    text = TextTokens(path, Path(path).read_bytes())
    (ids, kinds), linenos = text.ids(), np.flatnonzero(text.counts) + 1
    counts = text.counts[linenos - 1]
    ends = np.cumsum(counts)
    faulty = np.searchsorted(ends, np.flatnonzero(kinds)[:1], side="right").tolist()  # the first non-id's line
    row = min([len(counts), *faulty, *(np.flatnonzero(counts != width)[:1].tolist() if width else [])])
    if row == len(counts):
        return ids, counts, linenos, None
    first = ends[row] - counts[row]  # the faulty line's first token
    on = first + np.flatnonzero(kinds[first : ends[row]])  # and those of its tokens that are not ids
    fault = (f"expected {width} fields, got {counts[row]}" if width and counts[row] != width else
             "non-integer field" if (kinds[on] == 1).any() else "negative id" if (kinds[on] == 2).any() else
             f"id {max(int(text.token(k)) for k in on)} does not fit in int64")
    return ids[:first], counts[:row], linenos[:row], DatasetError(f"{path}:{linenos[row]}: {fault}")


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

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(user, item) columns of every row, user-major order."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts()), self.items

    def rows(self, users) -> tuple[np.ndarray, np.ndarray]:
        """(concatenation, counts) of the item lists of `users`, in order."""
        return csr_rows(self.indptr, self.items, users)


@dataclass(frozen=True)
class InteractionStore:
    """Per-user positive item lists, split into train/valid/test plus a
    cold-start carve-out (users absent from training entirely).

    Each split is a `Split` with one row per user id. A split given as a
    per-user sequence of arrays needs one row per user, each of an integer
    dtype (an empty row may have any), or DatasetError names the split. Its
    rows are then checked with the other splits by `_assemble`, as split
    files are, and replaced by their sorted, deduplicated `Split`. A split
    given as a `Split` is kept as it is, once its offsets (num_users + 1 of
    them, from 0 to its item count) and item range are checked.
    """

    num_users: int
    num_items: int
    train: Split
    valid: Split
    test: Split
    cold_history: Split
    cold_test: Split

    def __post_init__(self):
        given = {name: getattr(self, name) for name in SPLIT_NAMES}
        rows = {name: v for name, v in given.items() if not isinstance(v, Split)}
        for name, v in given.items():  # a given Split's offsets and item range: O(1) and min/max work
            if isinstance(v, Split) and (len(v.indptr) != self.num_users + 1 or v.indptr[0] != 0
                                         or v.indptr[-1] != len(v.items)
                                         or len(v.items) and (v.items.min() < 0 or v.items.max() >= self.num_items)):
                raise DatasetError(f"{name}: Split does not fit num_users={self.num_users}, num_items={self.num_items}")
        for name, split in rows.items():
            if len(split) != self.num_users:
                raise DatasetError(f"{name}: {len(split)} rows for {self.num_users} users")
            for u, row in enumerate(split):
                dtype = np.asarray(row).dtype
                if len(row) and dtype.kind not in "iu":
                    raise DatasetError(f"{name}: user {u}: row has non-integer dtype {dtype}")
        if rows:
            columns = {name: _columns(range(self.num_users), v) if name in rows else v.pairs()
                       for name, v in given.items()}
            store = _assemble(columns, self.num_users, self.num_items)
            for name in rows:
                object.__setattr__(self, name, getattr(store, name))

    def split(self, name: str) -> Split:
        if name not in SPLIT_NAMES:
            raise DatasetError(f"unknown split {name!r}")
        return getattr(self, name)

    def train_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All (user, item) train interactions, user-major order."""
        return self.train.pairs()

    def total_interactions(self) -> int:
        return sum(len(self.split(name).items) for name in SPLIT_NAMES)


def _assemble(columns: dict, num_users: int | None, num_items: int | None, data_dir=None) -> InteractionStore:
    """Validate (user, item) columns per split and build the store. Ids are
    range-checked before anything is sized by them; an item outside the
    catalog names its split file and items.tsv if read from `data_dir`. One
    `sorted_unique` of the `user * num_items + item` keys (below 2**63) sorts
    and dedups each split, and the cross-split rules run as binary searches.
    Of several faults the lowest user's is reported, in rule order for one
    user; read from `data_dir`, it names the split files involved."""

    def fault(message, names):
        if data_dir is None:
            return DatasetError(message)
        return DatasetError(", ".join(str(data_dir / SPLIT_FILES[name]) for name in names) + f": {message}")

    def held(a, b):  # mask of the values of `a` in `b`, by binary search: `b` is sorted, so nothing is sorted again
        return b[np.searchsorted(b, a).clip(max=len(b) - 1)] == a if len(b) else np.zeros_like(a, bool)

    cols = {name: columns.get(name, (np.empty(0, dtype=np.int64),) * 2) for name in SPLIT_NAMES}
    for name, (u, i) in cols.items():
        for k in np.flatnonzero((u < 0) | (i < 0))[:1]:
            what = f"negative user id {u[k]}" if u[k] < 0 else f"negative item id for user {u[k]}"
            raise DatasetError(f"{name}: {what}")
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
        for u, i in zip(*np.divmod(keys[b][held(keys[b], keys[a])][:1], n_items)):
            faults.append((u, f"user {u}: item {i} in both {a} and {b}", (a, b)))
    shared = [users[c][held(users[c], users[w])][:1] for w in SPLIT_NAMES[:3] for c in SPLIT_NAMES[3:]]
    for u in np.sort(np.concatenate(shared))[:1]:
        holding = [name for name in SPLIT_NAMES if held(u, users[name])]
        faults.append((u, f"user {u} is cold-start but also appears in train/valid/test", holding))
    for u in users["cold_test"][~held(users["cold_test"], users["cold_history"])][:1]:
        faults.append((u, f"user {u}: cold_test without cold_history", ("cold_test", "cold_history")))
    if faults:
        raise fault(*min(faults, key=lambda f: f[0])[1:])

    splits = {name: Split(np.searchsorted(u, np.arange(n_users + 1)), i) for name, (u, i) in pairs.items()}
    return InteractionStore(num_users=n_users, num_items=n_items, **splits)


def _columns(users, rows) -> tuple[np.ndarray, np.ndarray]:
    """(user, item) columns of per-user item rows: users[k] holds rows[k]."""
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    items = np.concatenate([row for row in rows if len(row)] + [np.empty(0, dtype=np.int64)])
    return np.repeat(np.asarray(users, dtype=np.int64), counts), items.astype(np.int64, copy=False)


def load_split_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one `user item item ...` file into (user, item) columns in file
    order, duplicates kept. Non-integer, negative or out-of-int64 ids and a
    second line for one user are errors that name the line."""
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


CHUNK_EDGES = 1024  # slots per conv chunk of degree-1 heads; a head of higher degree gets a chunk alone
PAD_RATIO = 1.5  # a chunk that starts at a degree-d head holds heads of degree up to PAD_RATIO * d


@dataclass(frozen=True)
class Walk:
    """The slots that every convolution sweep and adjoint visits, with the
    per-slot constants a step reads. The heads, by (degree, id), are cut
    into chunks: one that starts at a degree-d head holds up to
    max(1, CHUNK_EDGES // d) heads of degree at most PAD_RATIO * d, and
    gives each D slots, D its top degree: the head's edges, then pads that
    repeat its last edge with scale +0.0 and are their own inverse. So the
    real slots, in order, are the graph's edges, every row a pad gathers is
    finite, every term it adds is zero, and a chunk reshapes to [heads, D]."""

    head: np.ndarray  # [S]
    tail: np.ndarray  # [S]
    rel: np.ndarray  # [S]
    scale: np.ndarray  # [S] 1 / degree of the head; +0.0 on pads
    inverse: np.ndarray  # [S] slot of the inverse edge
    inv_rel: np.ndarray  # [S] rel[inverse]
    inv_scale: np.ndarray  # [S] scale[inverse]: 1 / degree of the tail
    logit: np.ndarray  # [S] head * R + rel: the slot's gate logit in a flat [N, R] table
    gate_bin: np.ndarray  # [S] logit[inverse]
    chunks: tuple  # (lo, hi, D, heads, lowest head, highest head, lowest tail) of slots lo to hi - 1


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable relational graph as flat edge arrays and their walk.

    The raw relation set is doubled: each raw triplet (h, r, t) also stores
    the inverse edge (t, r + num_relations_raw, h). Item id i maps to
    entity id i. Edges are sorted by (degree of head, head, relation, tail).
    """

    num_entities: int
    num_relations_raw: int
    edge_rel: np.ndarray  # (num_edges,)
    edge_tail: np.ndarray  # (num_edges,)
    edge_head: np.ndarray  # (num_edges,) expanded head per edge
    degrees: np.ndarray  # (num_entities,)
    walk: Walk

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
    sort gives the walk, as Walk describes.
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
    by_key = np.argsort(_edge_keys(n_ent, n_rel, heads, rels, tails))  # the keys are unique
    ids = np.argsort(degrees, kind="stable")[np.count_nonzero(degrees == 0) :]  # heads by (degree, id)
    deg = degrees[ids]
    first = np.cumsum(deg) - deg  # each head's first edge
    order = by_key[np.arange(len(heads)) + np.repeat((np.cumsum(degrees) - degrees)[ids] - first, deg)]
    heads, rels, tails = heads[order], rels[order], tails[order]
    walk = _walk(heads, rels, tails, ids, deg, first, order, n_rel)
    return KnowledgeGraph(n_ent, num_relations_raw, rels, tails, heads, degrees, walk)


def _walk(heads, rels, tails, ids, deg, first, order, n_rel: int) -> Walk:
    """The Walk of the sorted edges, whose head ids[k] has edges first[k]
    to first[k] + deg[k] - 1; sorted edge e is unsorted edge order[e]."""
    cuts, degs = [0], deg.tolist()
    while cuts[-1] < len(degs):  # chunk c holds heads cuts[c] to cuts[c + 1] - 1
        d = degs[cuts[-1]]
        cuts.append(min(cuts[-1] + max(1, CHUNK_EDGES // d), bisect_right(degs, PAD_RATIO * d)))
    bounds = np.array(cuts)
    top = deg[bounds[1:] - 1]
    span = np.repeat(top, np.diff(bounds))  # each head's slot count
    slot0 = np.concatenate([[0], np.cumsum(span)])  # each head's first slot
    slot = np.arange(len(heads)) + np.repeat(slot0[:-1] - first, deg)  # each edge's slot
    src = np.repeat(first + deg - 1, span)  # each slot's edge: a pad's is its head's last
    src[slot] = np.arange(len(heads))
    by_raw = np.empty_like(slot)
    by_raw[order] = slot
    fwd, inv = np.split(by_raw, 2)  # unsorted edge k < T has its inverse at k + T
    inverse, scale = np.arange(len(src)), np.zeros(len(src))
    inverse[fwd], inverse[inv], scale[slot] = inv, fwd, np.repeat(1.0 / deg, deg)
    head, rel, tail = np.repeat(ids, span), rels[src], tails[src]
    logit, lo, hi = head * n_rel + rel, slot0[bounds[:-1]], slot0[bounds[1:]]
    low, high, low_tail = (f.reduceat(x, i).tolist() for f, x, i in
                           ((np.minimum, ids, bounds[:-1]), (np.maximum, ids, bounds[:-1]), (np.minimum, tail, lo)))
    chunks = zip(lo.tolist(), hi.tolist(), top.tolist(), np.split(ids, bounds[1:-1]), low, high, low_tail)
    return Walk(head, tail, rel, scale, inverse, rel[inverse], scale[inverse], logit, logit[inverse], tuple(chunks))


def _read_kg(path, num_relations_raw: int | None = None, num_entities: int | None = None):
    """([T, 3] raw triplets, relation count) of a `head relation tail` file;
    the count is one past the largest relation id when not given."""
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
    """Read items.tsv: each non-blank line is an id, then a tab and the
    item's text or nothing, and the n id lines hold each of the ids 0..n-1
    once, in any order. The first faulty line fails."""
    text = TextTokens(path, re.sub(rb"\r\n?", b"\n", Path(path).read_bytes()))  # each line now ends at an LF
    lines = np.flatnonzero(text.counts)
    first = (np.cumsum(text.counts) - text.counts)[lines]  # each line's first token: its id
    (ids, kinds), n, b = text.ids(first), len(lines), np.append(text.b, np.uint8(10))
    after = b[text.ends[first]]  # the id starts its line and ends at a tab or at the line's end
    kinds[(b[text.starts[first] - 1] != 10) | (after == 32)] = 1
    kinds[(kinds == 0) & (ids >= n)] = 3
    order = np.argsort(ids, kind="stable")  # a repeated id is faulty where it comes again
    kinds[order[1:][(ids[order[1:]] == ids[order[:-1]]) & (kinds[order[1:]] == 0)]] = 4
    for k in np.flatnonzero(kinds)[:1]:
        item = int(text.token(first[k])) if kinds[k] >= 3 else None
        raise text.error(text.starts[first[k]], ("non-integer item id", "negative item id",
                         f"item id {item} out of range: the file lists {n} items, so ids must be 0..{n - 1}",
                         f"duplicate item id {item}")[kinds[k] - 1])
    split, tabbed = text.b.copy(), after == 9
    split[text.ends[first][tabbed]] = 10  # each id and its text become two lines; a line with no tab takes ""
    parts = split.tobytes().decode().split("\n") + [""]
    return ItemCorpus(tuple(map(parts.__getitem__, np.where(tabbed, lines + np.cumsum(tabbed), -1)[order].tolist())))


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


def make_synthetic_dataset(spec: SyntheticSpec, seed: int) -> tuple[InteractionStore, KnowledgeGraph, ItemCorpus]:
    """Deterministic clustered dataset for desk-scale runs.

    Users/items are assigned to clusters round-robin (id mod n_clusters).
    Within a cluster, item popularity falls off harmonically, so trained
    models have a learnable within-cluster signal beyond cluster membership.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    C = spec.n_clusters

    cluster_items = [np.arange(spec.n_items, dtype=np.int64)[np.arange(spec.n_items) % C == c] for c in range(C)]
    cluster_weights = [1.0 / (np.arange(len(ci)) + 1.0) for ci in cluster_items]
    all_items = np.arange(spec.n_items, dtype=np.int64)

    first_cold = spec.n_users - int(round(spec.cold_user_fraction * spec.n_users))  # the last users are cold

    rows = {name: [] for name in SPLIT_NAMES}  # (user, items) of each split

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
        cross = rng.choice(other_pool, size=n_cross, replace=False) if n_cross else np.empty(0, dtype=np.int64)

        if u >= first_cold:
            pos = np.concatenate([own, cross]).astype(np.int64)
            rng.shuffle(pos)
            n_hist = max(1, min(int(round(0.8 * len(pos))), len(pos) - 1))  # one interaction is all history
            rows["cold_history"].append((u, pos[:n_hist]))
            rows["cold_test"].append((u, pos[n_hist:]))
        else:
            heldout = own[len(own) - n_held :]
            n_valid = n_held // 2
            rows["train"].append((u, np.concatenate([own[: len(own) - n_held], cross]).astype(np.int64)))
            rows["valid"].append((u, heldout[:n_valid]))
            rows["test"].append((u, heldout[n_valid:]))

    columns = {name: _columns([u for u, _ in r], [items for _, items in r]) for name, r in rows.items()}
    store = _assemble(columns, spec.n_users, spec.n_items)

    # KG: each item links to attribute entities of its own cluster
    n_attr, k = C * spec.attrs_per_cluster, min(LINKS_PER_ITEM, spec.attrs_per_cluster)
    triplets = []
    for i in range(spec.n_items):
        attrs = spec.n_items + (i % C) * spec.attrs_per_cluster + np.arange(spec.attrs_per_cluster)
        triplets += [(i, int(rng.integers(N_RELATIONS_RAW)), int(t)) for t in rng.choice(attrs, size=k, replace=False)]
    graph = kg_from_triplets(triplets, N_RELATIONS_RAW, num_entities=spec.n_items + n_attr)

    # texts from cluster token pools plus a shared pool
    shared = [f"shw{j}" for j in range(SHARED_POOL_SIZE)]
    pools = [[f"c{c}w{j}" for j in range(POOL_SIZE)] for c in range(C)]

    def token(c):  # one draw picks cluster c's pool or the shared one, the next a token in it
        pool = pools[c] if rng.random() < 0.8 else shared
        return pool[int(rng.integers(len(pool)))]

    corpus = ItemCorpus(tuple(" ".join(token(i % C) for _ in range(rng.integers(MIN_TOKENS, MAX_TOKENS + 1)))
                              for i in range(spec.n_items)))

    return store, graph, corpus
