"""Spans around kgrec's public functions, recorded from outside the library.

`Tracer.install` rebinds each target named in TARGETS to a wrapper that
records one span per call (name, start, end, parent span) in memory. A
function is rebound in every kgrec module that holds it, so calls through
`from .model import forward` style imports are seen too. A target that no
longer exists is listed in `Tracer.missing` and otherwise ignored, so the
traced run survives a later change that deletes or renames a helper.

`layer_metrics` turns the spans into the per-layer numbers: busy seconds,
self seconds (busy minus traced children) and call counts. Self times of
all spans add up to the wall time of the root span, so time spent in calls
that are not wrapped shows as `trace.unexplained_s` instead of vanishing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "bench.workload"
HARNESS_LAYER = "bench"

LAYERS = ("data", "sampling", "model", "losses", "optim", "training", "evaluation", "content")


# --- per-call hooks: counts taken at the same boundary as the span ---------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_edges(tracer, args, kwargs, out):
    tracer.counters["model.conv_layer.edges"] += _arg(args, kwargs, 0, "graph").num_edges


def _file_bytes(counter, index):
    def hook(tracer, args, kwargs, out):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, index, "path"))

    return hook


def _adam_scalars(tracer, args, kwargs, out):
    tensors = _arg(args, kwargs, 0, "tensors")
    tracer.counters["optim.adam_step.scalars"] += sum(t.size for t in tensors.values())


def _table_draws(tracer, args, kwargs, out):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    tracer.counters["sampling.table_draws"] += 1 if size is None else int(size)


def _negatives(tracer, args, kwargs, out):
    users = np.asarray(_arg(args, kwargs, 2, "users"), dtype=np.int64)
    tracer.counters["sampling.negatives"] += len(out)
    with tracer.harness("bench.check_negatives"):
        tracer.check_negatives(users, np.asarray(out, dtype=np.int64))


def _enter_training(tracer, args, kwargs):
    tracer.training_store = _arg(args, kwargs, 0, "bundle").store


def _split_attr(index):
    def attrs(args, kwargs):
        return {"split": _arg(args, kwargs, index, "split")}

    return attrs


# (span name, "module:attribute", module whose binding is replaced or None for
#  every kgrec module, options). Span names are "<layer>.<function>".
TARGETS = (
    ("data.load_bundle", "kgrec.data:load_bundle", None, {}),
    ("data.load_interactions", "kgrec.data:load_interactions", None, {}),
    ("data.load_kg", "kgrec.data:load_kg", None, {}),
    ("data.load_items", "kgrec.data:load_items", None, {}),
    ("sampling.build_sampler", "kgrec.sampling:build_sampler", None, {}),
    ("sampling.sample_negatives", "kgrec.sampling:ReciprocalSampler.sample_negatives", None,
     {"after": _negatives}),
    ("sampling.table_draw", "kgrec.sampling:AliasTable.draw", None, {"after": _table_draws, "span": False}),
    ("model.init_params", "kgrec.model:init_params", None, {}),
    ("model.forward", "kgrec.model:forward", None, {}),
    ("model.entity_forward", "kgrec.model:entity_forward", None, {}),
    ("model.conv_layer", "kgrec.model:conv_layer", None, {"after": _count_edges}),
    ("model.backward", "kgrec.model:backward", None, {}),
    ("model.cold_start_user", "kgrec.model:cold_start_user", None, {}),
    ("model.save_checkpoint", "kgrec.model:save_checkpoint", None, {"after": _file_bytes("model.checkpoint_bytes", 1)}),
    ("model.load_checkpoint", "kgrec.model:load_checkpoint", None, {"after": _file_bytes("model.checkpoint_bytes", 0)}),
    ("losses.bpr_loss", "kgrec.losses:bpr_loss", None, {}),
    ("losses.soft_dcorr_loss", "kgrec.losses:soft_dcorr_loss", None, {}),
    ("losses.cross_system_loss", "kgrec.losses:cross_system_loss", None, {}),
    ("optim.adam_step.graph", "kgrec.optim:adam_step", "kgrec.training", {"after": _adam_scalars}),
    ("optim.adam_step.content", "kgrec.optim:adam_step", "kgrec.content", {"after": _adam_scalars}),
    ("training.train", "kgrec.training:train_kmpn", None, {"before": _enter_training}),
    ("training.train", "kgrec.training:train_ckmpn", None, {"before": _enter_training}),
    ("training.kmpn_loss_and_grads", "kgrec.training:kmpn_loss_and_grads", None, {}),
    ("evaluation.evaluate", "kgrec.evaluation:evaluate", None, {"attrs": _split_attr(2)}),
    ("evaluation.rank_items", "kgrec.evaluation:rank_items", None, {}),
    ("evaluation.evaluate_embeddings", "kgrec.evaluation:evaluate_embeddings", None,
     {"attrs": _split_attr(3)}),
    ("content.init_content", "kgrec.content:init_content", None, {}),
    ("content.train_content", "kgrec.content:train_content", None, {}),
    ("content.click_instance", "kgrec.content:click_instance", None, {}),
    ("content.export_embeddings", "kgrec.content:export_embeddings", None, {}),
    ("content.write_embeddings_text", "kgrec.content:write_embeddings_text", None,
     {"after": _file_bytes("content.bytes_written", 1)}),
    ("content.write_embeddings_binary", "kgrec.content:write_embeddings_binary", None,
     {"after": _file_bytes("content.bytes_written", 1)}),
    ("content.read_embeddings", "kgrec.content:read_embeddings", None,
     {"after": _file_bytes("content.bytes_read", 0)}),
    ("content.rows", "kgrec.content:EmbeddingMatrixFile.rows", None, {}),
)


class Tracer:
    """In-memory span recorder; inactive until `install` and `root`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self.counters = defaultdict(float)
        self.missing = []
        self.problems = []
        self.training_store = None
        self._stack = []
        self._restore = []
        self._paused = 0
        self._train_keys = (None, None)

    # --- recording ---------------------------------------------------------

    def _open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span every other span descends from: the traced pass."""
        rec = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def harness(self, name):
        """Benchmark-side work (checks, oracles) in its own span, with the
        wrappers passing calls straight through."""
        rec = self._open(name)
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            self._close(rec)

    def _wrap(self, name, fn, opts):
        before, after, attrs = opts.get("before"), opts.get("after"), opts.get("attrs")
        record = opts.get("span", True)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused or not tracer._stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            if not record:
                out = fn(*args, **kwargs)
            else:
                rec = tracer._open(name, attrs(args, kwargs) if attrs else None)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    # --- installing ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "kgrec" or key.startswith("kgrec.")]
        for name, target, scope, opts in TARGETS:
            mod_name, attr = target.split(":")
            try:
                owner = importlib.import_module(mod_name)
                *cls_path, fn_name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(name, original, opts)
            if cls_path:
                self._rebind(owner, fn_name, wrapper)
                continue
            holders = [sys.modules[scope]] if scope else modules
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- checks at traced boundaries ---------------------------------------

    def check_negatives(self, users, negatives):
        """No sampled negative may be one of the user's train positives."""
        store = self.training_store
        if store is None:
            return
        cached, keys = self._train_keys
        if cached is not store:
            u, i = store.train_pairs()
            keys = np.sort(u * store.num_items + i)
            self._train_keys = (store, keys)
        probe = users * store.num_items + negatives
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        clash = keys[pos] == probe
        if clash.any():
            k = int(np.flatnonzero(clash)[0])
            self.problems.append(f"negative {int(negatives[k])} is a train positive of user {int(users[k])}")

    # --- output --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer):
    """Per-function and per-layer numbers derived from the spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    wall = unexplained = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        own = dur - child[idx]
        if name == ROOT_SPAN:
            wall += dur
            unexplained += own
            continue
        layer = name.split(".")[0]
        total[name] += dur
        self_s[name] += own
        calls[name] += 1
        durations[name].append(dur)
        layer_self[layer] += own
        layer_calls[layer] += 1
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            layer_busy[layer] += dur
    return {
        "total": total,
        "self": self_s,
        "calls": calls,
        "durations": durations,
        "layer_busy": layer_busy,
        "layer_self": layer_self,
        "layer_calls": layer_calls,
        "wall": wall,
        "unexplained": unexplained,
    }


def split_share(tracer, split, parent_name, child_name):
    """Seconds of `parent_name` spans for one split, and of their
    `child_name` descendants."""
    spans = tracer.spans
    inside = {}
    parent_s = child_s = 0.0
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        if name == parent_name and attrs and attrs.get("split") == split:
            inside[idx] = True
            parent_s += end - start
            continue
        anc = parent
        while anc >= 0 and anc not in inside:
            anc = spans[anc][3]
        if anc >= 0 and name == child_name:
            child_s += end - start
    return parent_s, child_s
