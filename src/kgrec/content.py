"""Content-based side model and the embedding exchange files.

An item is a hashed bag of the tokens of its description: the corpus
(`data.ItemCorpus.buckets`) maps each token's FNV-1a 64-bit hash modulo the
bucket count to a bucket id, and `encode_items` averages the bucket
embeddings of any set of items. Users are attention-weighted sums of their
history item encodings (two-layer scorer, tanh hidden). Training minimizes
a sampled-softmax click objective; gradients are hand-derived.

The exchange formats (one text, one binary) carry (id, vector) rows for a
whole user or item set and are the boundary to the graph model: rows read
from these files are constants there.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import InteractionStore, ItemCorpus, _numbered_lines
from .losses import click_softmax_loss
from .numeric import (atomic_open, csr_rows, read_tensor_file, segment_sum, softmax_rows, sorted_unique,
                      write_tensor_file)
from .optim import TrainConfig, adam_step, init_adam, lr_at
from .sampling import build_sampler
from .settings import TRAIN, check

log = logging.getLogger(__name__)

CONTENT_MAGIC = "CLIT1"
EMB_TEXT_MAGIC = "EMB1"
EMB_BIN_MAGIC = b"CSEM"
KIND_CODES = {"item": 0, "user": 1}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}

@dataclass
class ContentParams:
    """Trainable tensors plus the sampling hyperparameters.

    bucket_emb [num_buckets, h]; the user scorer is
    tanh(E @ fc1_w + fc1_b) @ fc2_w + fc2_b with hidden width h/2.
    """

    bucket_emb: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray
    history_size: int
    num_negatives: int

    @property
    def h(self) -> int:
        return self.bucket_emb.shape[1]

    @property
    def num_buckets(self) -> int:
        return self.bucket_emb.shape[0]

    def tensors(self) -> dict:
        return {
            "bucket_emb": self.bucket_emb,
            "fc1_w": self.fc1_w,
            "fc1_b": self.fc1_b,
            "fc2_w": self.fc2_w,
            "fc2_b": self.fc2_b,
        }

    def validate(self) -> None:
        h = self.h
        check("h", h, TRAIN["h"])
        if h % 2 != 0:
            raise ValueError("h must be even (hidden width is h/2)")
        m = h // 2
        if self.fc1_w.shape != (h, m) or self.fc1_b.shape != (m,):
            raise ValueError("fc1 shape mismatch")
        if self.fc2_w.shape != (m, 1) or self.fc2_b.shape != (1,):
            raise ValueError("fc2 shape mismatch")
        for name in ("num_buckets", "history_size", "num_negatives"):
            check(name, getattr(self, name), TRAIN[name])
        for name, t in self.tensors().items():
            if not np.isfinite(t).all():
                raise ValueError(f"non-finite values in {name}")

    def copy(self) -> "ContentParams":
        return replace(self, **{k: t.copy() for k, t in self.tensors().items()})


def init_content(
    h: int = TRAIN["h"].default,
    num_buckets: int = TRAIN["num_buckets"].default,
    history_size: int = TRAIN["history_size"].default,
    num_negatives: int = TRAIN["num_negatives"].default,
    seed: int = TRAIN["seed"].default,
) -> ContentParams:
    check("h", h, TRAIN["h"])  # before dividing by it
    rng = np.random.default_rng(seed)
    m = h // 2
    bound_emb = np.sqrt(6.0 / h)
    lim1 = np.sqrt(6.0 / (h + m))
    lim2 = np.sqrt(6.0 / (m + 1))
    params = ContentParams(
        bucket_emb=rng.uniform(-bound_emb, bound_emb, size=(num_buckets, h)),
        fc1_w=rng.uniform(-lim1, lim1, size=(h, m)),
        fc1_b=np.zeros(m),
        fc2_w=rng.uniform(-lim2, lim2, size=(m, 1)),
        fc2_b=np.zeros(1),
        history_size=history_size,
        num_negatives=num_negatives,
    )
    params.validate()
    return params


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def encode_items(bucket_emb: np.ndarray, table, items):
    """Item vectors [len(items), h]: each the mean of its `bucket_emb` rows
    (zero without tokens), from one gather and one `segment_sum` over the
    items' bucket lists in `table`, an (indptr, bucket ids) pair as
    `ItemCorpus.buckets` returns. Also returns those concatenated bucket ids
    and the per-item counts, for the adjoint to scatter through."""
    concat, counts = csr_rows(*table, items)
    item_of = np.repeat(np.arange(len(counts)), counts)
    vecs = segment_sum(item_of, bucket_emb[concat], len(counts)) / np.maximum(counts, 1)[:, None]
    return vecs, concat, counts


def encode_user(history_embs: np.ndarray, params: ContentParams):
    """Attention-pooled user vector over history item encodings.

    Returns (vector h, attention weights B).
    """
    E = np.asarray(history_embs, dtype=np.float64)
    if E.ndim != 2 or E.shape[0] < 1 or E.shape[1] != params.h:
        raise ValueError("history_embs must be [B >= 1, h]")
    H = np.tanh(E @ params.fc1_w + params.fc1_b)  # [B, h/2]
    scores = (H @ params.fc2_w)[:, 0] + params.fc2_b[0]  # [B]
    alpha = softmax_rows(scores[None, :])[0]
    return alpha @ E, alpha


def _encode_user_backward(E, alpha, params: ContentParams, d_user):
    """Adjoint of encode_user given its input and attention weights.

    Returns (d_E, d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b).
    """
    H = np.tanh(E @ params.fc1_w + params.fc1_b)
    d_E = alpha[:, None] * d_user[None, :]
    d_alpha = E @ d_user  # [B]
    inner = float(alpha @ d_alpha)
    d_scores = alpha * (d_alpha - inner)  # softmax adjoint, [B]
    d_fc2_w = (H * d_scores[:, None]).sum(axis=0)[:, None]
    d_fc2_b = np.array([d_scores.sum()])
    d_H = d_scores[:, None] * params.fc2_w[:, 0][None, :]  # [B, h/2]
    d_pre = d_H * (1.0 - H * H)
    d_fc1_w = E.T @ d_pre
    d_fc1_b = d_pre.sum(axis=0)
    d_E += d_pre @ params.fc1_w.T
    return d_E, d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b


# ---------------------------------------------------------------------------
# click objective for one (user, pos, negatives) instance
# ---------------------------------------------------------------------------


def click_instance(params: ContentParams, table, hist, pos: int, negs, compute_grads: bool = True):
    """Loss (and gradients) of one sampled-softmax click instance.

    `hist` and `negs` are item-id arrays and `pos` one item id; `table` is
    the (indptr, bucket ids) pair the items are encoded through (see
    `encode_items`). Items with no tokens encode to zero and receive no
    gradient.
    """
    B = len(hist)
    items = np.concatenate([hist, [pos], negs])
    vecs, concat, counts = encode_items(params.bucket_emb, table, items)
    E, e_pos, e_negs = vecs[:B], vecs[B], vecs[B + 1 :]  # [B, h], [h], [K, h]

    user, alpha = encode_user(E, params)
    pos_score = float(user @ e_pos)
    neg_scores = e_negs @ user  # [K]
    loss, d_pos, d_negs = click_softmax_loss(np.array([pos_score]), neg_scores[None, :])
    if not compute_grads:
        return loss, None

    d_pos = float(d_pos[0])
    d_negs = d_negs[0]  # [K]
    d_user = d_pos * e_pos + d_negs @ e_negs
    d_e_pos = d_pos * user
    d_e_negs = d_negs[:, None] * user[None, :]

    d_E, *d_scorer = _encode_user_backward(E, alpha, params, d_user)

    # row k of [d_E; d_e_pos; d_e_negs] goes to every bucket of item k,
    # weighted 1/len(buckets)
    d_items = np.concatenate([d_E, d_e_pos[None, :], d_e_negs]) / np.maximum(counts, 1)[:, None]
    d_bucket = segment_sum(concat, np.repeat(d_items, counts, axis=0), params.num_buckets)
    return loss, dict(zip(params.tensors(), (d_bucket, *d_scorer)))  # same order as tensors()


def train_content(corpus: ItemCorpus, store: InteractionStore, params: ContentParams, config: TrainConfig):
    """Train the content model on click instances drawn from train splits.

    One instance per user per epoch: a positive from the user's train
    items, a history subsample of size <= history_size from the remaining
    train items, and num_negatives uniform non-positive negatives. Each
    epoch draws the negatives of every instance in one call to the uniform
    sampler (`build_sampler(store, uniform=True)`).

    Adam runs over the corpus's active buckets only: instances step a copy
    whose bucket_emb holds just the rows item tokens hash to, written back
    at the end. This is exact, as a bucket no token reaches always gets a
    zero gradient, so its Adam moments and its update stay zero.

    Returns (params, log_lines).
    """
    config.validate()
    if corpus.num_items == 0:
        raise ValueError("empty corpus")
    if corpus.num_items != store.num_items:
        raise ValueError("corpus/store item count mismatch")
    params = params.copy()
    if config.epochs == 0:
        return params, []

    indptr, buckets = corpus.buckets(params.num_buckets)
    active = sorted_unique(buckets)
    compact_ids = np.empty(params.num_buckets, dtype=np.int64)  # bucket -> row of `compact`
    compact_ids[active] = np.arange(len(active))
    table = (indptr, compact_ids[buckets])
    compact = replace(params, bucket_emb=params.bucket_emb[active])  # other tensors shared
    train_users = np.flatnonzero(store.train.counts())
    if len(train_users) == 0:
        raise ValueError("no user has train interactions")
    sampler = build_sampler(store, uniform=True)

    rng = np.random.default_rng(config.seed)
    state = init_adam(compact.tensors())
    lines = []
    for epoch in range(1, config.epochs + 1):
        lr = lr_at(config, epoch - 1, config.epochs)
        order = rng.permutation(train_users)
        negatives = sampler.sample_negatives(rng, np.repeat(order, params.num_negatives))
        total = 0.0
        for u, negs in zip(order, negatives.reshape(len(order), params.num_negatives)):
            items = store.train[u]
            pos = int(items[rng.integers(len(items))])
            rest = items[items != pos]
            pool = rest if len(rest) else items
            hist = rng.choice(pool, size=min(params.history_size, len(pool)), replace=False)
            loss, grads = click_instance(compact, table, hist, pos, negs)
            try:
                adam_step(compact.tensors(), grads, state, lr)
            except ValueError as exc:
                raise ValueError(f"epoch {epoch} user {u}: {exc}") from exc
            total += loss
        lines.append(f"{epoch}\t{total / len(train_users)!r}\t{lr!r}")
    params.bucket_emb[active] = compact.bucket_emb
    return params, lines


# ---------------------------------------------------------------------------
# embedding exchange files
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingMatrixFile:
    """(id, vector) rows for one side of the exchange; float32 payload.
    `path`, the file read (None if built in memory), is named in errors."""

    kind: str
    ids: np.ndarray
    vectors: np.ndarray
    path: Path | None = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"kind must be one of {sorted(KIND_CODES)}, got {self.kind!r}")
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or len(self.ids) != len(self.vectors):
            raise ValueError("ids/vectors shape mismatch")
        self._order = np.argsort(self.ids)
        self._sorted_ids = self.ids[self._order]
        if (self._sorted_ids[1:] == self._sorted_ids[:-1]).any():
            raise ValueError("duplicate ids in embedding set")
        if self.count and self._sorted_ids[0] < 0:
            raise ValueError(f"negative id {self._sorted_ids[0]} in embedding set")
        if not np.isfinite(self.vectors).all():
            raise ValueError("non-finite embedding values")

    @property
    def count(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows(self, wanted) -> np.ndarray:
        """float64 matrix for the requested ids; errors name the first
        missing id."""
        wanted = np.asarray(wanted, dtype=np.int64)
        pos = np.searchsorted(self._sorted_ids, wanted)
        found = pos < self.count
        found[found] = self._sorted_ids[pos[found]] == wanted[found]
        if not found.all():
            first = wanted[np.argmin(found)]
            raise ValueError(f"{_where(self)}embedding file ({self.kind}) is missing id {first}")
        return self.vectors[self._order[pos]].astype(np.float64)


def _where(*sets: EmbeddingMatrixFile) -> str:
    """The error prefix "<path>, <path>: " of the sets read from files."""
    paths = [str(emb.path) for emb in sets if emb.path is not None]
    return f"{', '.join(paths)}: " if paths else ""


def exchange_tables(item_set: EmbeddingMatrixFile, user_set: EmbeddingMatrixFile, item_ids, user_ids, h=None):
    """The one check of an exchange pair: an item file then a user file of
    one dim (the model's `h` when given) that hold every requested id; a
    fault is one ValueError naming its files. Returns the float64 rows of
    `item_ids` and of `user_ids`, in request order, as two dense tables."""
    both = _where(item_set, user_set)
    if (item_set.kind, user_set.kind) != ("item", "user"):
        kinds = f"({item_set.kind} file, {user_set.kind} file)"
        raise ValueError(f"{both}content pair must be (item file, user file), got {kinds}")
    for emb in (item_set, user_set):
        if h is not None and emb.dim != h:
            raise ValueError(f"{_where(emb)}content embedding dim {emb.dim} != model h {h}")
    if item_set.dim != user_set.dim:
        raise ValueError(f"{both}content pair dims differ: item file {item_set.dim}, user file {user_set.dim}")
    return item_set.rows(item_ids), user_set.rows(user_ids)


def write_embeddings_text(emb: EmbeddingMatrixFile, path) -> None:
    with atomic_open(path) as fh:
        fh.write(f"{EMB_TEXT_MAGIC} {emb.kind} {emb.count} {emb.dim}\n".encode("utf-8"))
        row = "%d " + " ".join(["%.9g"] * emb.dim) + "\n"  # "<id> \n" when dim is 0
        for i, vec in zip(map(int, emb.ids), emb.vectors):
            fh.write((row % (i, *vec.tolist())).encode("utf-8"))


def _record_dtype(dim: int) -> np.dtype:
    """One binary exchange record: a u64 id then `dim` float32 values."""
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


def write_embeddings_binary(emb: EmbeddingMatrixFile, path) -> None:
    records = np.empty(emb.count, dtype=_record_dtype(emb.dim))
    records["id"] = emb.ids
    records["vec"] = emb.vectors
    with atomic_open(path) as fh:
        fh.write(EMB_BIN_MAGIC)
        fh.write(struct.pack("<IBQI", 1, KIND_CODES[emb.kind], emb.count, emb.dim))
        fh.write(records.tobytes())


def _read_embeddings_text(path):
    lines = (line for _, line in _numbered_lines(path))
    header = next(lines, "").split()
    if len(header) != 4 or header[0] != EMB_TEXT_MAGIC:
        raise ValueError(f"{path}: not an {EMB_TEXT_MAGIC} embedding file")
    kind = header[1]
    if kind not in KIND_CODES:
        raise ValueError(f"{path}: unknown embedding kind {kind!r}")
    if not all(f.isascii() and f.isdigit() for f in header[2:]):
        raise ValueError(f"{path}: header count {header[2]!r} and dim {header[3]!r} must be integers >= 0")
    count, dim = int(header[2]), int(header[3])
    if 8 + 4 * dim >= 2**31:  # the binary format's limit, which numpy sets
        raise ValueError(f"{path}: dim {dim} is too large")
    ids, vectors = [], []
    for row in range(count):
        line = next(lines, "")
        if not line:
            raise ValueError(f"{path}: truncated at row {row}")
        fields = line.split()
        if not fields:
            raise ValueError(f"{path}: row {row} is blank, expected an id and {dim} values")
        if len(fields) != dim + 1:
            raise ValueError(f"{path}: row {row} has {len(fields) - 1} values, expected {dim}")
        try:
            ids.append(int(fields[0]))
            vectors.append(np.array([np.float32(x) for x in fields[1:]], dtype=np.float32))
        except ValueError as exc:
            raise ValueError(f"{path}: row {row}: {exc}") from None
        if not 0 <= ids[-1] < 2**63:
            raise ValueError(f"{path}: row {row}: id {ids[-1]} is not in [0, 2**63)")
    if any(line.strip() for line in lines):  # only whitespace may follow the declared rows
        raise ValueError(f"{path}: trailing data after {count} rows")
    return kind, np.array(ids, dtype=np.int64), np.array(vectors, dtype=np.float32).reshape(count, dim)


def _read_embeddings_binary(path):
    raw = Path(path).read_bytes()
    head = len(EMB_BIN_MAGIC) + struct.calcsize("<IBQI")
    if len(raw) < head:
        raise ValueError(f"{path}: truncated header ({len(raw)} of {head} bytes)")
    version, kind_code, count, dim = struct.unpack_from("<IBQI", raw, len(EMB_BIN_MAGIC))
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    if kind_code not in KIND_NAMES:
        raise ValueError(f"{path}: unknown kind code {kind_code}")
    size = 8 + 4 * dim
    if size >= 2**31:  # numpy's limit on one record
        raise ValueError(f"{path}: dim {dim} is too large")
    present = (len(raw) - head) // size
    if present < count:
        raise ValueError(f"{path}: truncated at record {present}")
    if len(raw) - head > count * size:
        raise ValueError(f"{path}: trailing bytes after {count} records")
    records = np.frombuffer(raw, dtype=_record_dtype(dim), count=count, offset=head)
    big = np.flatnonzero(records["id"] >= 2**63)
    if len(big):
        raise ValueError(f"{path}: record {big[0]}: id {records['id'][big[0]]} is not in [0, 2**63)")
    return KIND_NAMES[kind_code], records["id"].astype(np.int64), records["vec"].astype(np.float32)


def read_embeddings(path) -> EmbeddingMatrixFile:
    """Load either exchange format (sniffed from the first bytes) into a set
    that records `path`. Every malformed input fails with a one-line
    ValueError naming the file; text goes through `data._numbered_lines`."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    reader = _read_embeddings_binary if magic == EMB_BIN_MAGIC else _read_embeddings_text
    kind, ids, vectors = reader(path)
    try:
        return EmbeddingMatrixFile(kind=kind, ids=ids, vectors=vectors, path=path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def export_embeddings(
    params: ContentParams, corpus: ItemCorpus, store: InteractionStore, out_dir, write_binary: bool = True
):
    """Encode every item and every user and write the exchange files.

    Items: `encode_items` over blocks of about 1024 items, through the
    corpus's bucket table; an item without tokens gets a zero vector, and
    their number is logged. Users: full train history in ascending item
    order, processed in chunks of history_size through encode_user, chunk
    outputs mean-pooled; users with no train items (cold-start) get a zero
    vector.

    Writes content_items.txt / content_users.txt (and .bin twins unless
    disabled). Returns (item_set, user_set).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = corpus.buckets(params.num_buckets)
    blocks = np.array_split(np.arange(corpus.num_items), max(1, corpus.num_items // 1024))  # bounds gather memory
    item_vecs = np.concatenate([encode_items(params.bucket_emb, table, block)[0] for block in blocks])
    n_empty = int((np.diff(table[0]) == 0).sum())
    if n_empty:
        log.warning("export: %d items had no tokens; wrote zero vectors", n_empty)

    user_vecs = np.zeros((store.num_users, params.h), dtype=np.float64)  # cold-start users stay zero
    B = params.history_size
    for u in np.flatnonzero(store.train.counts()):
        items = store.train[u]
        chunks = [encode_user(item_vecs[items[lo : lo + B]], params)[0] for lo in range(0, len(items), B)]
        user_vecs[u] = np.mean(chunks, axis=0)

    item_set = EmbeddingMatrixFile(kind="item", ids=np.arange(corpus.num_items), vectors=item_vecs)
    user_set = EmbeddingMatrixFile(kind="user", ids=np.arange(store.num_users), vectors=user_vecs)
    write_embeddings_text(item_set, out_dir / "content_items.txt")
    write_embeddings_text(user_set, out_dir / "content_users.txt")
    if write_binary:
        write_embeddings_binary(item_set, out_dir / "content_items.bin")
        write_embeddings_binary(user_set, out_dir / "content_users.bin")
    return item_set, user_set


# ---------------------------------------------------------------------------
# content checkpoint
# ---------------------------------------------------------------------------


def save_content_checkpoint(params: ContentParams, path) -> None:
    params.validate()
    header = (params.num_buckets, params.h, params.history_size, params.num_negatives)
    write_tensor_file(path, CONTENT_MAGIC, header, params.tensors().values())


def _checkpoint_shapes(v_b, h, hist, k):
    m = h // 2
    return [(v_b, h), (h, m), (m,), (m, 1), (1,)]


def load_content_checkpoint(path) -> ContentParams:
    header, tensors = read_tensor_file(path, CONTENT_MAGIC, 4, _checkpoint_shapes)
    params = ContentParams(*tensors, history_size=header[2], num_negatives=header[3])
    try:
        params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params
