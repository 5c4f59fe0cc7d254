"""The benchmark's workloads: inputs, set-up, timed stages and checks.

Every workload times every end-to-end metric, because each run reports all
of them; each workload spends most of its run on the stage it exists for:

- train_large: `train_kmpn` at the large scale. Graph propagation dominates.
- eval_large: full-catalog `evaluate` from a checkpoint. Ranking dominates.
- fusion_toy: content training, exchange files, `train_ckmpn` and
  evaluation at the toy scale. Per-call Python overhead dominates.

The other stages run as short probes on the same dataset. The library is
called through module attributes (`training.train_kmpn`, not an imported
name), so the traced pass sees every call.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from kgrec import content, data, evaluation, model, training
from kgrec.optim import TrainConfig

import checks

LARGE_SPEC = dict(n_users=4000, n_items=8000, n_clusters=16, density=0.02, attrs_per_cluster=50)
TOY_SPEC = {}  # SyntheticSpec() defaults
SMOKE_LARGE_SPEC = dict(n_users=80, n_items=120, n_clusters=4, density=0.1, attrs_per_cluster=5)
SMOKE_TOY_SPEC = dict(n_users=40, n_items=60, n_clusters=2)

CHECKPOINT = "checkpoint.kmpn"
CKMPN_LR = 1e-2  # ten times the default: 20 epochs reach the recall 100 epochs reach at the default


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per timed call; SMOKE_SIZES shrinks every one of them."""

    batch_size: int = 1024  # also the most train interactions of one user shard
    content_probe_users: int = 100
    content_epochs: int = 2
    ckmpn_epochs: int = 20
    recall_floor: float | None = 0.4  # test recall@20 the fusion model must reach


SMOKE_SIZES = Sizes(batch_size=64, content_probe_users=10, content_epochs=1,
                    ckmpn_epochs=2, recall_floor=None)


def spec_for(workload: str, smoke: bool) -> dict:
    if workload == "fusion_toy":
        return SMOKE_TOY_SPEC if smoke else TOY_SPEC
    return SMOKE_LARGE_SPEC if smoke else LARGE_SPEC


def generate(workload: str, seed: int, smoke: bool, out_dir: Path) -> None:
    """Write the workload's inputs; they depend only on (workload, seed)."""
    spec = data.SyntheticSpec(**spec_for(workload, smoke))
    store, graph, corpus = data.make_synthetic_dataset(spec, seed=seed)
    data.save_bundle(data.DatasetBundle(store=store, graph=graph, corpus=corpus), out_dir)
    if workload == "eval_large":
        params = model.init_params(graph.num_entities, graph.num_relations, store.num_users, seed=seed)
        model.save_checkpoint(params, out_dir / CHECKPOINT)


# --- repetition plans --------------------------------------------------------


class Plan:
    """How often each stage repeats.

    With `counts` every stage runs that many steps, one stage after the
    other. Otherwise the stages share the run's seconds by `shares`, and
    the steps interleave: the next step always goes to the stage furthest
    behind its share, so every stage is sampled across the whole run and
    slow drifts in machine speed fall on all metrics alike."""

    def __init__(self, counts=None, shares=None, seconds=0.0):
        self.counts = counts
        self.shares = shares
        self.seconds = seconds

    def run(self, steps):
        """`steps` maps a stage name to a callable doing one step."""
        if self.counts is not None:
            for name, step in steps.items():
                for _ in range(self.counts[name]):
                    step()
            return
        spent = {name: 0.0 for name in steps}
        done = {name: 0 for name in steps}
        start = time.perf_counter()
        while True:
            name = min(steps, key=lambda n: (done[n] > 0, spent[n] / self.shares[n]))
            if done[name] and time.perf_counter() - start + spent[name] / done[name] > self.seconds:
                return
            t0 = time.perf_counter()
            steps[name]()
            spent[name] += time.perf_counter() - t0
            done[name] += 1


class Recorder:
    """Counts operations and failures, collects timing samples."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)
        self.info = {}

    def op(self, label, fn, *args, check=None, **kwargs):
        """Run one operation; returns (result, seconds), or (None, None)
        when it raised or its check failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(label, f"raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None, None
        seconds = time.perf_counter() - start
        if check is not None:
            problems = self.verify(check, out)
            if problems:
                self.fail(label, "; ".join(problems[:3]))
                return None, None
        return out, seconds

    def verify(self, check, *args):
        """Run a check outside the traced layers."""
        if self.tracer is None:
            return check(*args)
        with self.tracer.harness("bench.check"):
            return check(*args)

    def check(self, label, problems):
        """A check that is an operation of its own."""
        self.attempted += 1
        if problems:
            self.fail(label, "; ".join(problems[:3]))

    def fail(self, label, why):
        self.failed += 1
        self.problems.append(f"{label}: {why}")

    def sample(self, metric, units, seconds):
        """One timed call that did `units` of work."""
        self.samples[metric].append((units, seconds))


# --- stages shared by the workloads ------------------------------------------


def train_interactions(bundle) -> int:
    return int(sum(len(v) for v in bundle.store.train))


def user_shards(bundle, target: int):
    """Bundles whose train split holds whole users, at most `target`
    interactions each, closed as soon as the next user would not fit; the
    graph, catalog and every user's history stay those of `bundle`."""
    store = bundle.store
    empty = np.empty(0, dtype=np.int64)
    groups, current, count = [], [], 0
    for u in range(store.num_users):
        n = len(store.train[u])
        if n == 0:
            continue
        if count + n > target and current:
            groups.append(current)
            current, count = [], 0
        current.append(u)
        count += n
    if not groups:
        groups.append(current)
    shards = []
    for group in groups:
        members = set(group)
        train = tuple(store.train[u] if u in members else empty for u in range(store.num_users))
        shards.append(dataclasses.replace(bundle, store=dataclasses.replace(store, train=train)))
    return shards


class GraphTrainer:
    """One-epoch `train_kmpn` calls over successive user shards; the
    parameters carry over from call to call."""

    def __init__(self, rec, shards, params, seed, sizes):
        self.rec, self.shards, self.params, self.seed, self.sizes = rec, shards, params, seed, sizes
        self.calls = 0

    def __call__(self):
        shard = self.shards[self.calls % len(self.shards)]
        config = TrainConfig(epochs=1, batch_size=self.sizes.batch_size, seed=self.seed + self.calls)
        self.calls += 1
        out, seconds = self.rec.op("train_kmpn", training.train_kmpn, shard, self.params, config,
                                   check=lambda o: checks.trained(o, 7))
        if out is not None:
            self.params = out[0]
            self.rec.sample("train_interactions_per_s", train_interactions(shard), seconds)


class Evaluator:
    """Repeated `evaluate` of fixed parameters on test and cold_start.
    Every report must equal its split's first one; `finish` can check the
    first ones against the brute-force oracle."""

    METRICS = {"test": "eval_users_per_s", "cold_start": "cold_eval_users_per_s"}

    def __init__(self, rec, params, bundle):
        self.rec, self.params, self.bundle = rec, params, bundle
        self.first = {}

    def step(self, split):
        report, seconds = self.rec.op(f"evaluate {split}", evaluation.evaluate, self.params, self.bundle, split)
        if report is None:
            return
        first = self.first.setdefault(split, report)
        if report != first:
            self.rec.fail(f"evaluate {split}", "report differs from the first call's")
            return
        self.rec.sample(self.METRICS[split], report.users_evaluated, seconds)

    def test(self):
        self.step("test")

    def cold(self):
        self.step("cold_start")

    def finish(self, oracle: bool):
        if oracle:
            for split, report in self.first.items():
                self.rec.check(f"oracle {split}",
                               self.rec.verify(checks.oracle_model, report, self.params, self.bundle, split))
        return self.first


def content_probe(rec, corpus, store, seed):
    """One-epoch `train_content` calls from fresh parameters."""
    cparams = content.init_content(seed=seed)
    users = sum(1 for v in store.train if len(v))
    calls = 0

    def step():
        nonlocal calls
        calls += 1
        out, seconds = rec.op("train_content", content.train_content, corpus, store, cparams,
                              TrainConfig(epochs=1, seed=seed + calls), check=lambda o: checks.trained(o, 3))
        if out is not None:
            rec.sample("content_train_instances_per_s", users, seconds)

    return step


def probe_store(store, users: int):
    """The first `users` users with train history keep it; the rest have none."""
    keep = set([u for u in range(store.num_users) if len(store.train[u])][:users])
    empty = np.empty(0, dtype=np.int64)
    train = tuple(store.train[u] if u in keep else empty for u in range(store.num_users))
    return dataclasses.replace(store, train=train)


def checkpoint_stage(rec, params, path):
    """save_checkpoint then load_checkpoint; the loaded tensors must equal
    the saved ones."""
    _, seconds = rec.op("save_checkpoint", model.save_checkpoint, params, path)
    if seconds is not None:
        rec.op("load_checkpoint", model.load_checkpoint, path,
               check=lambda loaded: checks.same_tensors(loaded, params, "checkpoint round trip"))


def setup_stage(rec, fn):
    """One set-up for the run to use, and a step that repeats it so that
    set-up time is sampled across the run like every other stage."""

    def step():
        out, seconds = rec.op("setup", fn)
        if out is not None:
            rec.sample("setup_s", 1, seconds)
        return out

    return step(), step


# --- the workloads -----------------------------------------------------------


def _init_params(bundle, seed):
    g = bundle.graph
    return model.init_params(g.num_entities, g.num_relations, bundle.store.num_users, seed=seed)


def _probes(rec, setup, bundle, params, seed, sizes):
    """Steps of the stages every large workload runs: set-up, shard
    training, evaluation of the fixed `params`, and a content probe."""
    trainer = GraphTrainer(rec, user_shards(bundle, sizes.batch_size), params, seed, sizes)
    evaluator = Evaluator(rec, params, bundle)
    probe = content_probe(rec, bundle.corpus, probe_store(bundle.store, sizes.content_probe_users), seed)
    steps = {"setup": setup, "train": trainer, "eval_test": evaluator.test, "eval_cold": evaluator.cold,
             "content": probe}
    return steps, trainer, evaluator


def run_train_large(rec, plan, in_dir, work_dir, seed, sizes):
    """Set-up is load_bundle + init_params; training writes the checkpoint."""

    def setup():
        bundle = data.load_bundle(in_dir)
        return bundle, _init_params(bundle, seed)

    (bundle, params), again = setup_stage(rec, setup)
    steps, trainer, evaluator = _probes(rec, again, bundle, params, seed, sizes)
    plan.run(steps)
    evaluator.finish(oracle=False)
    checkpoint_stage(rec, trainer.params, work_dir / CHECKPOINT)
    return bundle


def run_eval_large(rec, plan, in_dir, work_dir, seed, sizes):
    """Set-up is load_bundle + load_checkpoint of init_params(seed)."""

    def setup():
        return data.load_bundle(in_dir), model.load_checkpoint(in_dir / CHECKPOINT)

    (bundle, params), again = setup_stage(rec, setup)
    steps, _, evaluator = _probes(rec, again, bundle, params, seed, sizes)
    plan.run(steps)
    evaluator.finish(oracle=True)
    checkpoint_stage(rec, params, work_dir / CHECKPOINT)
    return bundle


EXCHANGE_FILES = ("content_items.txt", "content_users.txt", "content_items.bin", "content_users.bin")


def run_fusion_toy(rec, plan, in_dir, work_dir, seed, sizes):
    """The fusion path: train_content, export and read the exchange files,
    train_ckmpn on what was read, evaluate. The first round runs the steps
    in that order; later steps repeat one of them on the same inputs, so
    each result must equal the first round's."""

    def setup():
        bundle = data.load_bundle(in_dir)
        return bundle, _init_params(bundle, seed), content.init_content(seed=seed)

    (bundle, params, cparams), again = setup_stage(rec, setup)
    store = bundle.store
    exchange = work_dir / "exchange"
    config = TrainConfig(epochs=sizes.ckmpn_epochs, batch_size=sizes.batch_size, lr_start=CKMPN_LR, seed=seed)
    users = sum(1 for v in store.train if len(v))
    first = {}
    evaluator = None

    def repeats(key, value, label):
        """Keep the first result under `key`; later ones must equal it."""
        if key not in first:
            first[key] = value
            return True
        if not checks.same_result(value, first[key]):
            rec.fail(label, "result differs from the first round's")
            return False
        return True

    def train_content():
        out, seconds = rec.op("train_content", content.train_content, bundle.corpus, store, cparams,
                              TrainConfig(epochs=sizes.content_epochs, seed=seed),
                              check=lambda o: checks.trained(o, 3))
        if out is not None and repeats("content", out, "train_content"):
            rec.sample("content_train_instances_per_s", sizes.content_epochs * users, seconds)

    def exchange_files():
        if "content" not in first:
            return
        exported, _ = rec.op("export_embeddings", content.export_embeddings, first["content"][0], bundle.corpus,
                             store, exchange)
        if exported is None or not repeats("exported", exported, "export_embeddings"):
            return
        for name, want in zip(EXCHANGE_FILES, exported * 2):
            read, _ = rec.op(f"read_embeddings {name}", content.read_embeddings, exchange / name,
                             check=lambda r, w=want, n=name: checks.same_exchange(r, w, n))
            first.setdefault(name, read)

    def train_ckmpn():
        pair = (first.get("content_items.txt"), first.get("content_users.txt"))
        if None in pair:
            return
        out, seconds = rec.op("train_ckmpn", training.train_ckmpn, bundle, params, pair, config,
                              check=lambda o: checks.trained(o, 7))
        if out is not None and repeats("ckmpn", out, "train_ckmpn"):
            rec.sample("train_interactions_per_s", sizes.ckmpn_epochs * train_interactions(bundle), seconds)
            checkpoint_stage(rec, out[0], work_dir / CHECKPOINT)

    def evaluate():
        nonlocal evaluator
        if "ckmpn" not in first:
            return
        evaluator = evaluator or Evaluator(rec, first["ckmpn"][0], bundle)
        evaluator.test()
        for _ in range(4):
            evaluator.cold()
        user_set, item_set = first["content_users.txt"], first["content_items.txt"]
        report, _ = rec.op("evaluate_embeddings", evaluation.evaluate_embeddings, user_set, item_set, bundle, "test")
        if report is None:
            return
        if "emb_report" not in first:
            rec.check("oracle evaluate_embeddings",
                      rec.verify(checks.oracle_embeddings, report, user_set, item_set, bundle, "test"))
        repeats("emb_report", report, "evaluate_embeddings")

    plan.run({"setup": again, "content": train_content, "exchange": exchange_files, "ckmpn": train_ckmpn,
              "eval": evaluate})
    if evaluator is not None:
        reports = evaluator.finish(oracle=True)
        if "test" in reports:
            recall = reports["test"].recall[20]
            rec.info["recall_at_20"] = recall
            if sizes.recall_floor is not None:
                rec.check("recall gate", [] if recall >= sizes.recall_floor else
                          [f"test recall@20 {recall:.4f} below {sizes.recall_floor}"])
    return bundle


RUNNERS = {"train_large": run_train_large, "eval_large": run_eval_large, "fusion_toy": run_fusion_toy}

# Share of an untraced run's seconds per stage.
SHARES = {
    "train_large": {"setup": 0.08, "train": 0.45, "eval_test": 0.27, "eval_cold": 0.1, "content": 0.1},
    "eval_large": {"setup": 0.08, "train": 0.2, "eval_test": 0.47, "eval_cold": 0.15, "content": 0.1},
    "fusion_toy": {"setup": 0.03, "content": 0.44, "exchange": 0.05, "ckmpn": 0.33, "eval": 0.15},
}

# Fixed steps for each of the two passes of a traced run, so the span totals
# of two traced runs cover the same calls.
TRACE_COUNTS = {
    "train_large": {"setup": 2, "train": 6, "eval_test": 1, "eval_cold": 5, "content": 4},
    "eval_large": {"setup": 2, "train": 3, "eval_test": 1, "eval_cold": 6, "content": 3},
    "fusion_toy": {"setup": 2, "content": 3, "exchange": 2, "ckmpn": 3, "eval": 10},
}


def plan_for(workload: str, seconds: float, traced: bool) -> Plan:
    if traced:
        return Plan(counts=TRACE_COUNTS[workload])
    return Plan(shares=SHARES[workload], seconds=seconds)


def run(workload, in_dir, work_dir, seed, sizes, plan, tracer=None):
    """One pass of the workload; returns (recorder, loaded bundle)."""
    rec = Recorder(tracer)
    bundle = RUNNERS[workload](rec, plan, Path(in_dir), Path(work_dir), seed, sizes)
    return rec, bundle
