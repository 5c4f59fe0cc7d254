"""Training loops for the graph model (with or without content alignment)
and the finite-difference gradient checker.

The composite objective per batch is

    ranking + w_l2 * l2 + w_dcorr * decorrelation (+ w_cs * alignment)

where l2 covers the aggregated user/positive/negative rows of the batch,
decorrelation acts on the preference vectors, and alignment ties scores to
fixed content embeddings. Ranking, l2 and alignment all enter the model as
gradients on the batch's aggregated user and item rows; decorrelation
enters as a gradient on the preference vectors (model.backward's d_pref).
All gradients are analytic; the FD harness here is the referee.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import logging

from .content import EmbeddingMatrixFile, click_instance, exchange_tables, init_content
from .data import DatasetBundle, InteractionStore, KnowledgeGraph, SyntheticSpec, make_synthetic_dataset
from .evaluation import evaluate
from .losses import LossWeights, bpr_loss, cross_system_loss, dcorr_fd_margin, pca_project, soft_dcorr_loss
from .model import KmpnParams, backward, forward, init_params, preference_embeddings
from .optim import TrainConfig, adam_step, init_adam, lr_at
from .sampling import build_sampler

log = logging.getLogger(__name__)

FD_STEP = 1e-4
_REL_FLOOR = 1e-8
# the dataset of every gradcheck instance: 12 entities (6 items, 6 attributes),
# 36 edges and 4 users; a test pins that it reaches several head degrees,
# every relation and uneven train histories
GRADCHECK_SPEC = SyntheticSpec(
    n_users=4, n_items=6, n_clusters=1, attrs_per_cluster=6, density=0.5, cold_user_fraction=0.0
)


@dataclass(frozen=True)
class LossParts:
    """Unweighted component values of one evaluation."""

    bpr: float
    l2: float
    dcorr: float
    cs: float

    def total(self, w: LossWeights) -> float:
        return self.bpr + w.l2 * self.l2 + w.dcorr * self.dcorr + w.cross_system * self.cs


def _row_terms(weights: LossWeights, rows: np.ndarray, d_align) -> np.ndarray:
    """Gradient on batch rows of the terms that act on them directly:
    l2 * rows, plus cross_system * d_align when alignment is on."""
    out = weights.l2 * rows
    if d_align is not None:
        out += weights.cross_system * d_align
    return out


def kmpn_loss_and_grads(
    params: KmpnParams,
    graph: KnowledgeGraph,
    store: InteractionStore,
    users: np.ndarray,
    pos_items: np.ndarray,
    neg_items: np.ndarray,
    weights: LossWeights,
    content=None,
    frozen_basis: np.ndarray | None = None,
    compute_grads: bool = True,
):
    """Composite objective on one batch.

    `content`, the (item_table, user_table) of content.exchange_tables
    indexed by item and user id, enables the alignment term; the batch
    reads its rows by plain indexing. `frozen_basis` pins the decorrelation
    PCA basis (used by the FD harness); when None it is recomputed here.
    The gradients of every term are summed here on the batch rows
    (trace.user_rows(), trace.item_rows()) and passed to model.backward.

    Returns (total, grads-or-None, LossParts, basis-or-None).
    """
    trace, pos_s, neg_s = forward(params, graph, store, users, pos_items, neg_items)
    bpr_val, d_pos, d_neg = bpr_loss(pos_s, neg_s)

    user_rows, item_rows = trace.user_rows(), trace.item_rows()
    pos_rows, neg_rows = np.split(item_rows, 2)
    l2_val = 0.5 * float((user_rows**2).sum() + (pos_rows**2).sum() + (neg_rows**2).sum())

    basis = frozen_basis
    d_pref = None
    dcorr_val = 0.0
    if weights.dcorr != 0.0:
        dcorr_val, d_pref, basis = soft_dcorr_loss(trace.pref, weights.pca_keep, basis=frozen_basis)

    cs_val = 0.0
    d_cu = d_ci = None  # alignment gradients on the user rows and the item rows
    if content is not None and weights.cross_system != 0.0:
        items, users = content
        cs_val, d_cu, *d_ci = cross_system_loss(
            user_rows, pos_rows, neg_rows, users[trace.users], items[trace.pos_items], items[trace.neg_items]
        )
        d_ci = np.concatenate(d_ci)

    parts = LossParts(bpr=bpr_val, l2=l2_val, dcorr=dcorr_val, cs=cs_val)
    total = parts.total(weights)
    if not compute_grads:
        return total, None, parts, basis

    # a score is <user row, item row>: its gradient reaches each row
    # scaled by the other row; l2 and alignment act on the rows directly.
    # Each sum (score terms) + (row terms) is built in place and the batch
    # rows are dropped, so backward runs with only the two sums alive.
    d_user_rows = d_pos[:, None] * pos_rows
    d_user_rows += d_neg[:, None] * neg_rows
    d_user_rows += _row_terms(weights, user_rows, d_cu)
    d_item_rows = np.concatenate([d_pos, d_neg])[:, None] * np.tile(user_rows, (2, 1))
    d_item_rows += _row_terms(weights, item_rows, d_ci)
    del user_rows, item_rows, pos_rows, neg_rows, d_cu, d_ci
    d_pref = None if d_pref is None else weights.dcorr * d_pref
    grads = backward(params, graph, trace, d_user_rows, d_item_rows, d_pref)
    return total, grads, parts, basis


def _format_log_line(epoch, parts_sum, lr) -> str:
    total, bpr, l2, dc, cs = parts_sum
    return f"{epoch}\t{total!r}\t{bpr!r}\t{l2!r}\t{dc!r}\t{cs!r}\t{lr!r}"


def _train_cf(bundle: DatasetBundle, params: KmpnParams, config: TrainConfig, content=None):
    """Shared loop. `content`, an (item set, user set) exchange pair, is
    checked once by content.exchange_tables, which returns its dense
    tables; they are only consulted when the alignment weight is nonzero,
    so a zero weight reproduces the plain run bit-for-bit."""
    config.validate()
    params = params.copy()
    store, graph = bundle.store, bundle.graph
    if content is not None:
        content = exchange_tables(*content, np.arange(store.num_items), np.arange(store.num_users), params.h)

    lines: list[str] = []
    if config.epochs == 0:
        return params, lines
    sampler = build_sampler(store)
    users_all, pos_all = store.train_pairs()
    if len(users_all) == 0:
        raise ValueError("no train interactions")
    rng = np.random.default_rng(config.seed)
    state = init_adam(params.tensors())

    for epoch in range(1, config.epochs + 1):
        lr = lr_at(config, epoch - 1, config.epochs)
        perm = rng.permutation(len(users_all))
        sums = np.zeros(5)  # total bpr l2 dcorr cs
        for batch, lo in enumerate(range(0, len(perm), config.batch_size), start=1):
            idx = perm[lo : lo + config.batch_size]
            u = users_all[idx]
            p = pos_all[idx]
            n = sampler.sample_negatives(rng, u)
            total, grads, parts, _ = kmpn_loss_and_grads(
                params, graph, store, u, p, n, config.weights, content=content
            )
            try:
                adam_step(params.tensors(), grads, state, lr)
            except ValueError as exc:
                raise ValueError(f"epoch {epoch} batch {batch}: {exc}") from exc
            sums += (total, parts.bpr, parts.l2, parts.dcorr, parts.cs)
        lines.append(_format_log_line(epoch, [float(x) for x in sums], lr))
        if config.eval_every > 0 and epoch % config.eval_every == 0:
            if len(store.valid.items):
                report = evaluate(params, bundle, "valid", ks=(20,))
                log.info("epoch %d valid recall@20 %.6f", epoch, report.recall[20])
    return params, lines


def train_kmpn(bundle: DatasetBundle, params: KmpnParams, config: TrainConfig):
    """Graph-only training. Returns (trained params, loss-log lines)."""
    return _train_cf(bundle, params, config, content=None)


def train_ckmpn(bundle: DatasetBundle, params: KmpnParams, content, config: TrainConfig):
    """Training with the content-alignment term; `content` is an
    (item EmbeddingMatrixFile, user EmbeddingMatrixFile) pair of constants."""
    if content is None:
        raise ValueError("content embeddings required")
    return _train_cf(bundle, params, config, content=content)


# ---------------------------------------------------------------------------
# finite-difference gradient check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckEntry:
    tensor: str
    max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class GradCheckReport:
    kind: str
    tolerance: float
    step: float
    entries: tuple
    runtime_s: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = [f"gradcheck kind={self.kind} step={self.step!r} tolerance={self.tolerance!r}"]
        for e in self.entries:
            lines.append(f"{e.tensor}\t{e.max_rel_err!r}\t{'PASS' if e.passed else 'FAIL'}")
        lines.append(
            f"max_rel_err={self.max_rel_err!r} result={'PASS' if self.passed else 'FAIL'} "
            f"runtime_s={self.runtime_s:.3f}"
        )
        return "\n".join(lines)


def _fd_sweep(tensors: dict, analytic: dict, value_fn, tolerance: float, step: float):
    """Central differences over every scalar of every tensor, in place."""
    entries = []
    for name, t in tensors.items():
        an_flat = analytic[name].ravel()
        flat = t.ravel()
        if not np.shares_memory(flat, t):
            raise ValueError(f"tensor {name} is not contiguous; FD sweep needs a view")
        max_rel = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = value_fn()
            flat[i] = orig - step
            f_minus = value_fn()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            a = an_flat[i]
            denom = max(abs(fd), abs(a))
            rel = 0.0 if denom < _REL_FLOOR else abs(fd - a) / denom
            if rel > max_rel:
                max_rel = rel
        max_rel = float(max_rel)
        entries.append(GradCheckEntry(tensor=name, max_rel_err=max_rel, passed=max_rel < tolerance))
    return entries


def _fd_conditioning(params: KmpnParams, keep_fraction: float) -> float:
    """How safely a step-1e-4 central difference can probe the
    decorrelation term on this instance (losses.dcorr_fd_margin of the
    projected preference rows); bigger is safer."""
    _, pref = preference_embeddings(params)
    _, Z = pca_project(pref, keep_fraction)
    return dcorr_fd_margin(Z)


def _kmpn_instance(seed: int, with_content: bool):
    rng = np.random.default_rng(seed)
    store, graph, _ = make_synthetic_dataset(GRADCHECK_SPEC, seed)
    params = None
    for attempt in range(256):
        inst_rng = np.random.default_rng(seed + 1 + 1000 * attempt)
        candidate = init_params(
            graph.num_entities,
            graph.num_relations,
            store.num_users,
            h=8,
            n_layers=2,
            n_pref=4,
            n_meta=4,
            seed=seed + 1 + 1000 * attempt,
        )
        # spread the mixing logits so preference rows are well separated;
        # near-identical rows make the decorrelation term too ill-
        # conditioned for a fixed-step finite difference
        candidate.pref_logits[:] = inst_rng.uniform(-2.0, 2.0, size=candidate.pref_logits.shape)
        if _fd_conditioning(candidate, 0.5) > 1e-3:
            params = candidate
            break
    if params is None:
        raise RuntimeError("could not build an FD-safe gradcheck instance")
    users = np.array([0, 1, 2, 3, 0, 2], dtype=np.int64)
    pos = np.array([int(store.train[int(u)][rng.integers(len(store.train[int(u)]))]) for u in users])
    neg = build_sampler(store, uniform=True).sample_negatives(rng, users)
    weights = LossWeights(l2=0.05, dcorr=0.5, cross_system=0.3 if with_content else 0.0, pca_keep=0.5)
    content = None
    if with_content:
        ids = np.arange(store.num_items), np.arange(store.num_users)
        vecs = [rng.normal(0.0, 0.5, size=(len(i), params.h)) for i in ids]
        content = exchange_tables(*map(EmbeddingMatrixFile, ("item", "user"), ids, vecs), *ids)
    return params, graph, store, (users, pos, neg), weights, content


def _content_instance(seed: int):
    params = init_content(h=8, num_buckets=16, history_size=3, num_negatives=2, seed=seed + 1)
    table = make_synthetic_dataset(GRADCHECK_SPEC, seed)[2].buckets(params.num_buckets)
    return params, table, np.arange(3), 3, np.array([4, 5])


def grad_check(kind: str, tolerance: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """FD-vs-analytic comparison on a tiny instance of the given kind
    ('kmpn', 'ckmpn', or 'content'). The decorrelation PCA basis is
    computed once from the unperturbed parameters and pinned for every
    evaluation, matching the training-time convention that the basis is
    not differentiated through."""
    t0 = time.perf_counter()
    if kind in ("kmpn", "ckmpn"):
        params, graph, store, (users, pos, neg), weights, content = _kmpn_instance(
            seed, with_content=(kind == "ckmpn")
        )
        _, grads, _, basis = kmpn_loss_and_grads(
            params, graph, store, users, pos, neg, weights, content=content
        )

        def value_fn():
            return kmpn_loss_and_grads(
                params, graph, store, users, pos, neg, weights,
                content=content, frozen_basis=basis, compute_grads=False,
            )[0]

        entries = _fd_sweep(params.tensors(), grads, value_fn, tolerance, FD_STEP)
    elif kind == "content":
        params, table, hist, pos, negs = _content_instance(seed)
        _, grads = click_instance(params, table, hist, pos, negs)

        def value_fn():
            loss, _ = click_instance(params, table, hist, pos, negs, compute_grads=False)
            return loss

        entries = _fd_sweep(params.tensors(), grads, value_fn, tolerance, FD_STEP)
    else:
        raise ValueError(f"unknown gradcheck kind {kind!r}")
    return GradCheckReport(
        kind=kind,
        tolerance=tolerance,
        step=FD_STEP,
        entries=tuple(entries),
        runtime_s=time.perf_counter() - t0,
    )
