"""Graph collaborative-filtering model.

Entities (items plus attribute nodes) carry trainable embeddings that are
refined by a gated relational graph convolution; users are represented by
attention-weighted mixtures of preference vectors applied to the mean of
their interacted items at every convolution depth. Scoring is a plain dot
product between the aggregated user and item vectors.

The forward pass caches everything the analytic backward pass needs; no
autodiff framework is involved. All math is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .data import CHUNK_EDGES, InteractionStore, KnowledgeGraph, Walk
from .numeric import read_tensor_file, segment_sum, sigmoid, softmax_rows, write_tensor_file
from .settings import TRAIN, check

CHECKPOINT_MAGIC = "KMPN1"


@dataclass
class KmpnParams:
    """All trainable tensors.

    entity_emb    [num_entities, h]   depth-0 entity vectors
    relation_emb  [2 * num_relations_raw, h]
    user_emb      [num_users, h]      per-user attention query vector
    meta_pref_emb [num_meta, h]       shared meta-preference bank
    pref_logits   [num_pref, num_meta] preference mixing logits
    """

    entity_emb: np.ndarray
    relation_emb: np.ndarray
    user_emb: np.ndarray
    meta_pref_emb: np.ndarray
    pref_logits: np.ndarray
    n_layers: int

    @property
    def h(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def num_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_emb.shape[0]

    @property
    def num_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def num_pref(self) -> int:
        return self.pref_logits.shape[0]

    @property
    def num_meta(self) -> int:
        return self.meta_pref_emb.shape[0]

    def tensors(self) -> dict:
        """Named tensors in a fixed order (checkpoint / optimizer order)."""
        return {
            "entity_emb": self.entity_emb,
            "relation_emb": self.relation_emb,
            "user_emb": self.user_emb,
            "meta_pref_emb": self.meta_pref_emb,
            "pref_logits": self.pref_logits,
        }

    def validate(self) -> None:
        sizes = {"h": self.h, "n_layers": self.n_layers, "n_pref": self.num_pref, "n_meta": self.num_meta}
        for name, value in sizes.items():
            check(name, value, TRAIN[name])
        if self.meta_pref_emb.shape != (self.num_meta, self.h):
            raise ValueError("meta_pref_emb shape mismatch")
        if self.pref_logits.shape[1] != self.num_meta:
            raise ValueError("pref_logits column count must equal num_meta")
        for name, t in self.tensors().items():
            if not np.isfinite(t).all():
                raise ValueError(f"non-finite values in {name}")

    def copy(self) -> "KmpnParams":
        tensors = {k: t.copy() for k, t in self.tensors().items()}
        return KmpnParams(**tensors, n_layers=self.n_layers)


def init_params(
    num_entities: int,
    num_relations: int,
    num_users: int,
    h: int = TRAIN["h"].default,
    n_layers: int = TRAIN["n_layers"].default,
    n_pref: int = TRAIN["n_pref"].default,
    n_meta: int = TRAIN["n_meta"].default,
    seed: int = TRAIN["seed"].default,
) -> KmpnParams:
    """Uniform init in [-sqrt(6/h), +sqrt(6/h)]; mixing logits near zero."""
    check("h", h, TRAIN["h"])  # before dividing by it
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / h)
    params = KmpnParams(
        entity_emb=rng.uniform(-bound, bound, size=(num_entities, h)),
        relation_emb=rng.uniform(-bound, bound, size=(num_relations, h)),
        user_emb=rng.uniform(-bound, bound, size=(num_users, h)),
        meta_pref_emb=rng.uniform(-bound, bound, size=(n_meta, h)),
        pref_logits=rng.uniform(-0.1, 0.1, size=(n_pref, n_meta)),
        n_layers=n_layers,
    )
    params.validate()
    return params


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _head_sum(walk: Walk, table: np.ndarray, relation_emb: np.ndarray, rels, weights, out, chunks):
    """The one chunk walk of conv_layer and its adjoint: writes, for every
    head i of `chunks` (some of walk.chunks), out_i = sum over i's slots s
    of weights_s * (relation_emb[rels_s] o table[tail_s]), and yields each
    chunk.

    A chunk of D slots per head gathers its table rows and relation rows
    into two scratch arrays made once per call and multiplies them in
    place; one einsum sums each head's D products weighted by w_s, in slot
    order, as one np.bincount over the real slots would (for h >= 2): a
    pad adds a zero product after them. Nothing is allocated per chunk and
    no [E, h] array is ever made. Rows of `out` without slots in `chunks`
    are left as they are. Tails past the end of `table` read its last row
    (mode="clip"): the callers give such slots weight 0.

    Yields (lo, hi, heads [n], rows [n, D, h], products [n, D, h]) per chunk
    once its head sums are in `out`: rows holds table[tail], products the
    relation rows times it. Both are scratch views that the caller may
    overwrite and that the next chunk reuses.
    """
    tail, h = walk.tail, table.shape[1]
    size = max((hi - lo for lo, hi, *_ in chunks), default=0)
    rows, prods, sums = np.empty((size, h)), np.empty((size, h)), np.empty((size, h))
    for lo, hi, d, heads, *_ in chunks:
        c = hi - lo
        r = np.take(table, tail[lo:hi], axis=0, out=rows[:c], mode="clip").reshape(-1, d, h)
        m = np.take(relation_emb, rels[lo:hi], axis=0, out=prods[:c], mode="clip").reshape(-1, d, h)
        m *= r
        out[heads] = np.einsum("nd,ndh->nh", weights[lo:hi].reshape(-1, d), m, out=sums[: len(heads)])
        yield lo, hi, heads, r, m


def conv_layer(graph: KnowledgeGraph, prev: np.ndarray, relation_emb: np.ndarray, rows: int | None = None):
    """One gated convolution sweep over the first `rows` entities (all of
    them by default).

    out_i = (1/deg_i) * sum over edges (i, r, j) of
            sigmoid(prev_i . rel_r) * (rel_r o prev_j)

    The gate logits are entries of the small [N, R] product prev @ rel^T,
    read at each slot's walk.logit; the messages are one _head_sum walk,
    weighted by gate * walk.scale, over the chunks that keep a head. It
    sums all heads of such a chunk, those left out into zero rows past
    `rows`. Returns (out [rows, h], gate values per walk slot); the slots
    of the heads left out get gate 0, so the adjoint weighs them 0 too.
    """
    walk, rows = graph.walk, len(prev) if rows is None else rows
    gates = sigmoid(np.take(prev @ relation_emb.T, walk.logit))  # [S]
    gates[walk.head >= rows] = 0.0
    chunks = [c for c in walk.chunks if c[4] < rows]  # by lowest head
    out = np.zeros((max([rows] + [c[5] + 1 for c in chunks]), prev.shape[1]))  # up to the highest head
    for _ in _head_sum(walk, prev, relation_emb, walk.rel, gates * walk.scale, out, chunks):
        pass  # the head sums are all the forward needs
    return out[:rows], gates


def entity_forward(params: KmpnParams, graph: KnowledgeGraph, rows: int | None = None):
    """All per-depth entity matrices plus per-slot gates per sweep.

    Returns (layers, gates): layers[0] is the raw embedding table,
    layers[l] the l-th convolution output; gates[l-1] belongs to sweep l.
    Every layer is [N, h] by default. With `rows` the top layer layers[L]
    holds only the first `rows` entities: a score reads the top layer only
    at item rows (users are means of items), so forward and evaluate pass
    the item count and the last sweep computes nothing else. At depth 0
    the top layer is the leading rows of the raw table.
    """
    if graph.num_entities != params.num_entities:
        raise ValueError("graph/params entity count mismatch")
    if graph.num_relations != params.num_relations:
        raise ValueError("graph/params relation count mismatch")
    top = params.num_entities if rows is None else rows
    if top > params.num_entities:
        raise ValueError("more item rows than entities")
    layers = [params.entity_emb]
    gates = []
    for depth in range(1, params.n_layers + 1):
        out, g = conv_layer(graph, layers[-1], params.relation_emb, top if depth == params.n_layers else None)
        layers.append(out)
        gates.append(g)
    if len(layers[-1]) > top:  # depth 0: no sweep cut the top layer
        layers[-1] = layers[-1][:top]
    return layers, gates


def aggregate_layers(layers: list) -> np.ndarray:
    """Elementwise sum of the per-depth matrices over the rows of the top
    layer (the last one): the aggregated embeddings."""
    n = len(layers[-1])
    out = np.array(layers[0][:n], dtype=np.float64, copy=True)
    for m in layers[1:]:
        out += m[:n]
    return out


def preference_embeddings(params: KmpnParams):
    """(row-softmax mixing weights, preference vectors = weights @ bank)."""
    beta = softmax_rows(params.pref_logits)
    return beta, beta @ params.meta_pref_emb


def user_forward(entity_agg: np.ndarray, histories, users: np.ndarray, profile: np.ndarray):
    """Aggregated vectors for `users` from their interaction histories.

    u = (mean_{i in histories[u]} sum over depths l of e_i^(l)) o profile_u

    `entity_agg` is the depth-summed entity table (aggregate_layers); a
    mean is linear, so averaging it once equals summing the per-depth
    history means up to rounding order. `histories` is the `Split` to read
    (store.train or store.cold_history). `profile` is one preference mix
    per user, alpha_u @ pref [U, h], or a single row shared by all of them
    (uniform attention: pref.mean(axis=0)). The factorized product equals
    the per-preference sum sum_p alpha_p * (hist_mean o pref_p). History
    rows are gathered and summed in cache-sized blocks of whole users, about
    CHUNK_EDGES rows each: bit for bit one whole-history np.add.reduceat.

    Returns (history means of the summed table [U, h], user vectors [U, h],
    and the history concatenation and counts that the backward pass
    scatters over).
    """
    concat, counts = histories.rows(users)
    if not counts.all():
        raise ValueError(f"user {int(users[np.argmin(counts)])} has no history")
    bounds = np.concatenate([[0], np.cumsum(counts)])  # user k's rows: bounds[k] to bounds[k + 1]
    msum = np.empty((len(users), entity_agg.shape[1]))
    a = 0
    while a < len(users):  # users a..b-1 fill at most CHUNK_EDGES rows, or b = a + 1
        b = max(a + 1, int(np.searchsorted(bounds, bounds[a] + CHUNK_EDGES, side="right")) - 1)
        block = np.take(entity_agg, concat[bounds[a] : bounds[b]], axis=0)
        msum[a:b] = np.add.reduceat(block, bounds[a:b] - bounds[a], axis=0)
        a = b
    msum /= counts[:, None]
    return msum, msum * profile, concat, counts


@dataclass
class ForwardTrace:
    """Everything cached by forward() for the backward pass and for
    invariant checks: per-depth entity matrices, their sum and the edge
    gates, the preference pieces, and the batched user pieces; backward()
    takes its upstream gradients on user_rows() and item_rows()."""

    layers: list  # L sweep inputs [N_v, h], layers[0..L-1]; backward never reads layers[L]
    entity_agg: np.ndarray  # sum of the layers at the item rows [num_items, h], all the top sweep made
    gates: list  # L arrays [S], one gate per walk slot
    beta: np.ndarray  # [P, M]
    pref: np.ndarray  # [P, h]
    alpha: np.ndarray  # [U, P] for unique batch users
    user_agg: np.ndarray  # [U, h]
    users: np.ndarray  # batch user ids [B]
    pos_items: np.ndarray  # [B]
    neg_items: np.ndarray  # [B]
    uniq_users: np.ndarray  # [U]
    batch_inv: np.ndarray  # [B] -> index into uniq_users
    hist_concat: np.ndarray  # train histories of uniq_users, concatenated
    hist_counts: np.ndarray  # [U] history lengths
    hist_msum: np.ndarray  # history means of entity_agg [U, h]

    def user_rows(self) -> np.ndarray:
        """Aggregated user vectors expanded to batch order [B, h]."""
        return self.user_agg[self.batch_inv]

    def item_rows(self) -> np.ndarray:
        """Aggregated item vectors of the positives, then the negatives [2B, h]."""
        return self.entity_agg[np.concatenate([self.pos_items, self.neg_items])]


def forward(params: KmpnParams, graph: KnowledgeGraph, store: InteractionStore, users, pos_items, neg_items):
    """Score a batch of (user, positive, negative) triples.

    Returns (trace, pos_scores, neg_scores).
    """
    users = np.asarray(users, dtype=np.int64)
    pos_items = np.asarray(pos_items, dtype=np.int64)
    neg_items = np.asarray(neg_items, dtype=np.int64)
    if not (users.shape == pos_items.shape == neg_items.shape):
        raise ValueError("batch arrays must share one shape")
    if len(users) == 0:
        raise ValueError("empty batch")
    n_items = store.num_items
    for name, arr, hi in (
        ("user", users, params.num_users),
        ("positive item", pos_items, n_items),
        ("negative item", neg_items, n_items),
    ):
        if arr.min() < 0 or arr.max() >= hi:
            raise ValueError(f"{name} id out of range")

    layers, gates = entity_forward(params, graph, n_items)
    entity_agg = aggregate_layers(layers)
    beta, pref = preference_embeddings(params)

    uniq, inv = np.unique(users, return_inverse=True)
    alpha = softmax_rows(params.user_emb[uniq] @ pref.T)
    msum, user_agg, concat, counts = user_forward(entity_agg, store.train, uniq, alpha @ pref)

    user_rows = user_agg[inv]
    pos_scores = (user_rows * entity_agg[pos_items]).sum(axis=1)
    neg_scores = (user_rows * entity_agg[neg_items]).sum(axis=1)

    trace = ForwardTrace(
        layers=layers[:-1],
        entity_agg=entity_agg,
        gates=gates,
        beta=beta,
        pref=pref,
        alpha=alpha,
        user_agg=user_agg,
        users=users,
        pos_items=pos_items,
        neg_items=neg_items,
        uniq_users=uniq,
        batch_inv=inv,
        hist_concat=concat,
        hist_counts=counts,
        hist_msum=msum,
    )
    return trace, pos_scores, neg_scores


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _conv_backward(graph: KnowledgeGraph, prev: np.ndarray, relation_emb: np.ndarray, gates: np.ndarray,
                   grad_out: np.ndarray, d_relation: np.ndarray):
    """Adjoint of conv_layer. Accumulates into d_relation and returns the
    gradient with respect to `prev` [N, h]. A `grad_out` of fewer rows than
    the graph, with the gates of the sweep that made them, is the adjoint
    of that restricted sweep.

    Edge e = (i, r, j) of gate g_e sends g_e / deg_i (rel_r o prev_j) to i.
    Its inverse e' = (j, r', i) is a slot of j in the walk, so one
    _head_sum walk with the inverses' relations r (walk.inv_rel) and
    weights w_e' = g_e * walk.inv_scale = g_e / deg_i gathers, per chunk,
    the upstream rows grad_out_i and the products p_e' = grad_out_i o rel_r,
    and feeds all three paths from them:

    message path to prev: d_prev_j += sum over j's slots of w_e' p_e', the
        walk's own head sum; the upstream gradient is never scaled by 1/deg
        as a whole.
    gate path: d_dot_e = w_e' (1 - g_e) (p_e' . prev_j) is the adjoint of
        logit (i, r), with prev_j gathered once per head; binned at
        walk.gate_bin into Dm [N, R], it gives d_prev += Dm @ rel and
        d_rel += Dm^T @ prev.
    message path to rel: d_rel_r += sum of w_e' grad_out_i o prev_j over
        the edges of relation r, from the upstream rows multiplied in place
        and one [R, c] by [c, h] one-hot product per chunk.

    Every path of e' is a multiple of w_e', which is +0.0 on a pad. An i
    past the rows of `grad_out` was left out of the sweep, so its edges
    carry gate 0 and e' weight 0: the walk skips the chunks whose tails all
    lie there, and in the rest those slots add exact zeros.
    """
    walk, n, n_rel, h = graph.walk, prev.shape[0], relation_emb.shape[0], prev.shape[1]
    rels, inv_gates = walk.inv_rel, gates[walk.inverse]  # of each slot's inverse
    weights = inv_gates * walk.inv_scale
    chunks = [c for c in walk.chunks if c[6] < len(grad_out)]  # by lowest tail
    size = max((hi - lo for lo, hi, *_ in chunks), default=0)
    head_rows, one_hot, idx = np.empty((size, h)), np.zeros((size, n_rel)), np.arange(size)
    d_dot, d_prev = np.zeros(len(gates)), np.zeros(prev.shape)
    for lo, hi, heads, rows, prods in _head_sum(walk, grad_out, relation_emb, rels, weights, d_prev, chunks):
        c = hi - lo
        prev_j = np.take(prev, heads, axis=0, out=head_rows[: len(heads)], mode="clip")
        np.einsum("ndh,nh->nd", prods, prev_j, out=d_dot[lo:hi].reshape(prods.shape[:2]))
        rows *= prev_j[:, None, :]
        one_hot[idx[:c], rels[lo:hi]] = weights[lo:hi]
        d_relation += one_hot[:c].T @ rows.reshape(c, h)
        one_hot[:c] = 0.0
    d_dot *= weights
    d_dot *= 1.0 - inv_gates  # sigmoid' = g (1 - g); g / deg is in the weights
    dm = np.bincount(walk.gate_bin, weights=d_dot, minlength=n * n_rel).reshape(n, n_rel)
    d_relation += dm.T @ prev
    for a in range(0, n, CHUNK_EDGES):  # row blocks: no [N, h] temporary
        d_prev[a : a + CHUNK_EDGES] += dm[a : a + CHUNK_EDGES] @ relation_emb
    return d_prev


def backward(params: KmpnParams, graph: KnowledgeGraph, trace: ForwardTrace, d_user_rows: np.ndarray,
             d_item_rows: np.ndarray, d_pref: np.ndarray | None = None) -> dict:
    """Exact gradients of the batch objective for every trainable tensor.

    Upstream gradients, which training.kmpn_loss_and_grads sums over the
    losses: `d_user_rows` [B, h] on trace.user_rows(), `d_item_rows`
    [2B, h] on trace.item_rows() (positives, then negatives), and optional
    `d_pref` [P, h] on the preference vectors. Returns a dict keyed like
    params.tensors().
    """
    B, h = len(trace.users), params.h
    if np.shape(d_user_rows) != (B, h) or np.shape(d_item_rows) != (2 * B, h):
        raise ValueError("row gradient shape mismatch with trace batch")

    n = len(trace.entity_agg)  # the item rows: all the top sweep made
    items = np.concatenate([trace.pos_items, trace.neg_items])
    d_entity_agg = segment_sum(items, d_item_rows, n)

    # fold batch rows onto unique users
    d_uagg = segment_sum(trace.batch_inv, d_user_rows, len(trace.uniq_users))

    # user aggregation: user_agg = msum o profile, profile = alpha @ pref
    profile = trace.alpha @ trace.pref
    d_msum = d_uagg * profile
    d_profile = d_uagg * trace.hist_msum

    d_alpha = d_profile @ trace.pref.T  # [U, P]
    d_pref_total = trace.alpha.T @ d_profile  # [P, h]
    if d_pref is not None:
        d_pref_total = d_pref_total + d_pref

    # attention softmax: logits_up = pref_p . user_emb_u
    inner = (d_alpha * trace.alpha).sum(axis=1, keepdims=True)
    d_att_logits = trace.alpha * (d_alpha - inner)  # [U, P]
    uemb_rows = params.user_emb[trace.uniq_users]
    d_user_emb = np.zeros_like(params.user_emb)
    d_user_emb[trace.uniq_users] = d_att_logits @ trace.pref  # uniq_users is unique
    d_pref_total += d_att_logits.T @ uemb_rows

    # preference composition: pref = beta @ meta, beta = row-softmax(logits)
    d_meta = trace.beta.T @ d_pref_total
    d_beta = d_pref_total @ params.meta_pref_emb.T
    inner_b = (d_beta * trace.beta).sum(axis=1, keepdims=True)
    d_pref_logits = trace.beta * (d_beta - inner_b)

    # history means: the same scatter feeds every depth. Added in place, it
    # makes d_entity_agg the gradient that reaches the item rows of
    # layers[l] for every l.
    per_depth = d_entity_agg
    per_depth += segment_sum(
        trace.hist_concat,
        np.repeat(d_msum / trace.hist_counts[:, None], trace.hist_counts, axis=0),
        n,
    )
    # layer l's gradient is per_depth plus the adjoint of sweep l + 1, added
    # in place to the item rows of that adjoint's output; rebinding `grad`
    # frees the adjoint's input, so at most three [N, h] arrays live at once.
    # The top layer takes per_depth itself: bincount bins are never -0.0, so
    # it is per_depth + 0. Its n rows make the first adjoint the one of the
    # item-row sweep.
    d_relation = np.zeros_like(params.relation_emb)
    grad = per_depth
    for l in range(params.n_layers, 0, -1):
        grad = _conv_backward(
            graph, trace.layers[l - 1], params.relation_emb, trace.gates[l - 1], grad, d_relation,
        )
        grad[:n] += per_depth
    if params.n_layers == 0:  # the raw table's item rows; no edge reaches the rest
        grad = np.concatenate([per_depth, np.zeros((params.num_entities - n, h))])
    d_entity = grad

    return {
        "entity_emb": d_entity,
        "relation_emb": d_relation,
        "user_emb": d_user_emb,
        "meta_pref_emb": d_meta,
        "pref_logits": d_pref_logits,
    }


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(params: KmpnParams, path) -> None:
    """Header line, then all tensors as row-major little-endian float64."""
    params.validate()
    header = (
        params.num_entities, params.num_relations, params.num_users, params.h,
        params.n_layers, params.num_meta, params.num_pref,
    )
    write_tensor_file(path, CHECKPOINT_MAGIC, header, params.tensors().values())


def _checkpoint_shapes(n_v, n_r2, n_u, h, n_layers, n_m, n_p):
    return [(n_v, h), (n_r2, h), (n_u, h), (n_m, h), (n_p, n_m)]


def load_checkpoint(path) -> KmpnParams:
    header, tensors = read_tensor_file(path, CHECKPOINT_MAGIC, 7, _checkpoint_shapes)
    params = KmpnParams(*tensors, n_layers=header[4])
    try:
        params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params
