"""End-to-end acceptance checks.

Each test prints exactly one `criterion N ...: PASS/FAIL` line to the real
terminal (bypassing capture) so the whole gate can be read at a glance.
The expensive artifacts (a fully trained graph model, content embeddings,
and the fusion comparison runs) are built once per module and shared.
"""

import math
import time

import numpy as np
import pytest
from conftest import run_cli
from dcor_reference import distance_correlation

from kgrec.content import (
    EmbeddingMatrixFile,
    export_embeddings,
    init_content,
    read_embeddings,
    train_content,
    write_embeddings_binary,
    write_embeddings_text,
)
from kgrec.data import (
    DatasetError,
    _read_kg,
    kg_from_triplets,
    load_interactions,
    save_interactions,
    save_kg,
)
from kgrec.evaluation import evaluate, rank_block
from kgrec.losses import (
    LossWeights,
    bpr_loss,
    click_softmax_loss,
    cross_system_loss,
    pca_project,
    soft_dcorr_loss,
)
from kgrec.model import init_params, save_checkpoint
from kgrec.optim import TrainConfig
from kgrec.sampling import ReciprocalSampler
from kgrec.training import grad_check, train_ckmpn, train_kmpn

RANDOM_RECALL_AT_20 = 20.0 / 300.0  # analytic chance level on the synthetic set


def _emit(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


def _fresh_params(bundle, seed, h=64, n_layers=3, n_pref=8, n_meta=64):
    return init_params(
        bundle.graph.num_entities,
        bundle.graph.num_relations,
        bundle.store.num_users,
        h=h,
        n_layers=n_layers,
        n_pref=n_pref,
        n_meta=n_meta,
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained_model(synth_bundle):
    """300-epoch graph-model run on the seed-7 synthetic dataset."""
    params = _fresh_params(synth_bundle, seed=7)
    cfg = TrainConfig(epochs=300, batch_size=1024, lr_start=1e-3, seed=7)
    t0 = time.perf_counter()
    trained, lines = train_kmpn(synth_bundle, params, cfg)
    return trained, lines, time.perf_counter() - t0


@pytest.fixture(scope="module")
def content_sets(synth_bundle, tmp_path_factory):
    """Informative content embeddings from the cluster-token corpus."""
    params = init_content(h=64, num_buckets=512, history_size=8, num_negatives=4, seed=7)
    cfg = TrainConfig(epochs=40, lr_start=1e-3, seed=7)
    trained, _ = train_content(synth_bundle.corpus, synth_bundle.store, params, cfg)
    out = tmp_path_factory.mktemp("content_emb")
    return export_embeddings(trained, synth_bundle.corpus, synth_bundle.store, out)


@pytest.fixture(scope="module")
def fusion_runs(synth_bundle, content_sets):
    """Recall@100 for plain and content-aligned training over 3 seeds."""
    results = {"kmpn": [], "ckmpn": []}
    for seed in (7, 8, 9):
        params = _fresh_params(synth_bundle, seed=seed)
        cfg = TrainConfig(epochs=150, batch_size=1024, lr_start=1e-3, seed=seed)
        plain, _ = train_kmpn(synth_bundle, params, cfg)
        fused, _ = train_ckmpn(synth_bundle, params, content_sets, cfg)
        results["kmpn"].append(evaluate(plain, synth_bundle, "test", ks=(100,)).recall[100])
        results["ckmpn"].append(evaluate(fused, synth_bundle, "test", ks=(100,)).recall[100])
    return results


def test_criterion_01_gradient_correctness(capsys):
    t0 = time.perf_counter()
    reports = [grad_check(kind, tolerance=1e-4, seed=0) for kind in ("kmpn", "ckmpn", "content")]
    runtime = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in reports)
    ok = all(r.passed for r in reports) and runtime < 30.0
    _emit(capsys, 1, "gradient correctness", ok,
          f"max rel err {worst:.2e}, runtime {runtime:.1f}s")
    assert ok, "\n".join(r.render() for r in reports)


def test_criterion_02_metric_oracle_equivalence(capsys):
    rng = np.random.default_rng(42)
    ks = (1, 5, 20)
    worst = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(12, 51))
        item_embs = rng.normal(size=(n, 3))
        user = rng.normal(size=3)
        mask = rng.choice(n, size=int(rng.integers(0, n - 11)), replace=False)
        avail = np.setdiff1d(np.arange(n), mask)
        t = int(rng.integers(1, min(10, len(avail)) + 1))
        test = set(int(x) for x in rng.choice(avail, size=t, replace=False))

        scores = item_embs @ user
        order = sorted(
            (i for i in range(n) if i not in set(mask.tolist())),
            key=lambda i: (-scores[i], i),
        )
        # one user per instance through the kernel; seen list may be empty
        test_ids = np.array(sorted(test), dtype=np.int64)
        ids, metrics = rank_block(
            user[None], item_embs, (mask.astype(np.int64), np.array([len(mask)])),
            (test_ids, np.array([len(test_ids)])), ks,
        )
        prev_recall, prev_hit = 0.0, 0.0
        for j, k in enumerate(ks):
            want_ids = order[: min(k, len(avail))]
            ok &= ids[0, : min(k, n)].tolist() == want_ids + [-1] * (min(k, n) - len(want_ids))

            head = want_ids
            hits = [r + 1 for r, i in enumerate(head) if i in test]
            want_recall = len(hits) / len(test)
            want_dcg = sum(1.0 / math.log2(r + 1) for r in hits)
            want_ideal = sum(
                1.0 / math.log2(r + 1) for r in range(1, min(k, len(test)) + 1)
            )
            want_ndcg = want_dcg / want_ideal
            want_hit = 1.0 if hits else 0.0

            d = max(
                abs(metrics[0, j, 0] - want_recall),
                abs(metrics[1, j, 0] - want_ndcg),
                abs(metrics[2, j, 0] - want_hit),
            )
            worst = max(worst, d)
            ok &= d <= 1e-12
            ok &= want_recall >= prev_recall and want_hit >= prev_hit
            prev_recall, prev_hit = want_recall, want_hit
    _emit(capsys, 2, "metric oracle equivalence", ok, f"max diff {worst:.1e} over 200 instances")
    assert ok


def test_criterion_03_sampler_fidelity(capsys):
    from scipy import stats

    sampler = ReciprocalSampler(3, np.array([1, 1, 2]), (frozenset(),) * 0)
    analytic_ok = np.allclose(sampler.weights / sampler.weights.sum(), [0.4, 0.4, 0.2], atol=1e-15)

    rng = np.random.default_rng(0)
    draws = sampler.draw(rng, size=100_000)
    freqs = np.bincount(draws, minlength=3) / 100_000
    freq_ok = bool(np.all(np.abs(freqs - [0.4, 0.4, 0.2]) < 0.01))

    gof_ok = True
    min_p = 1.0
    for trial in range(20):
        m = int(rng.integers(2, 51))
        counts = rng.integers(0, 5, size=m)
        s = ReciprocalSampler(m, counts, (frozenset(),) * 0)
        n = 30_000
        observed = np.bincount(s.draw(rng, size=n), minlength=m)
        _, p = stats.chisquare(observed, f_exp=s.weights / s.weights.sum() * n)
        min_p = min(min_p, float(p))
        gof_ok &= p > 0.001

    ok = analytic_ok and freq_ok and gof_ok
    _emit(capsys, 3, "sampler fidelity", ok,
          f"freq dev {np.abs(freqs - [0.4, 0.4, 0.2]).max():.4f}, min GOF p {min_p:.3f}")
    assert ok


def test_criterion_04_distance_correlation_properties(capsys):
    rng = np.random.default_rng(1)
    ok = True

    for _ in range(50):
        x = rng.normal(size=8)
        ok &= abs(distance_correlation(x, x) - 1.0) <= 1e-9

    for _ in range(1000):
        x, y = rng.normal(size=8), rng.normal(size=8)
        v = distance_correlation(x, y)
        ok &= -1e-12 <= v <= 1.0 + 1e-12

    for _ in range(50):
        x, y = rng.normal(size=8), rng.normal(size=8)
        c = float(rng.normal() * 10)
        ok &= abs(distance_correlation(x + c, y) - distance_correlation(x, y)) <= 1e-9

    worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(4, 8))
        value, _, _ = soft_dcorr_loss(X, 0.5)
        _, Z = pca_project(X, 0.5)
        oracle = sum(
            distance_correlation(Z[i], Z[j]) for i in range(4) for j in range(i + 1, 4)
        )
        worst = max(worst, abs(value - oracle))
        ok &= abs(value - oracle) <= 1e-9

    _emit(capsys, 4, "distance-correlation properties", ok, f"composition max diff {worst:.1e}")
    assert ok


def test_criterion_05_smoke_learning(capsys, synth_bundle, trained_model):
    params, lines, runtime = trained_model
    report = evaluate(params, synth_bundle, "test", ks=(20,))
    recall = report.recall[20]
    bpr_first = float(lines[0].split("\t")[2])
    bpr_last = float(lines[-1].split("\t")[2])
    ratio = bpr_last / bpr_first
    ok = (
        recall >= 5.0 * RANDOM_RECALL_AT_20
        and ratio <= 0.5
        and runtime < 120.0
        and len(lines) <= 300
    )
    _emit(capsys, 5, "smoke learning", ok,
          f"recall@20 {recall:.3f} = {recall / RANDOM_RECALL_AT_20:.1f}x chance, "
          f"bpr ratio {ratio:.3f}, runtime {runtime:.0f}s")
    assert ok


def test_criterion_06_fusion_directionality(capsys, synth_bundle, content_sets, fusion_runs):
    mean_plain = float(np.mean(fusion_runs["kmpn"]))
    mean_fused = float(np.mean(fusion_runs["ckmpn"]))
    direction_ok = mean_fused >= mean_plain

    # a zero alignment weight must reproduce the plain loss log bit-for-bit
    params = _fresh_params(synth_bundle, seed=7)
    cfg = TrainConfig(
        epochs=5, batch_size=1024, lr_start=1e-3, seed=7,
        weights=LossWeights(cross_system=0.0),
    )
    _, plain_lines = train_kmpn(synth_bundle, params, cfg)
    _, fused_lines = train_ckmpn(synth_bundle, params, content_sets, cfg)
    bitwise_ok = plain_lines == fused_lines

    ok = direction_ok and bitwise_ok
    _emit(capsys, 6, "fusion directionality", ok,
          f"recall@100 fused {mean_fused:.4f} vs plain {mean_plain:.4f} over 3 seeds, "
          f"zero-weight log identical: {bitwise_ok}")
    assert ok, fusion_runs


def test_criterion_07_closed_form_loss_anchors(capsys):
    bpr_val, _, _ = bpr_loss(np.array([1.3]), np.array([1.3]))
    click_val, _, _ = click_softmax_loss(np.zeros(1), np.zeros((1, 3)))
    z = np.zeros((1, 4))
    cs_val, _, _, _ = cross_system_loss(z, z, z, z, z, z)
    diffs = (
        abs(bpr_val - math.log(2.0)),
        abs(click_val - math.log(4.0)),
        abs(cs_val - 2.0 * math.log(2.0)),
    )
    ok = all(d <= 1e-12 for d in diffs)
    _emit(capsys, 7, "closed-form loss anchors", ok, f"max diff {max(diffs):.1e}")
    assert ok


def test_criterion_08_determinism(capsys, synth_dir, tmp_path):
    args = [
        "train", "--data", synth_dir, "--mode", "kmpn", "--deterministic",
        "--seed", 7, "--epochs", 30, "--h", 16, "--layers", 2,
        "--n-pref", 4, "--n-meta", 8,
    ]
    r1 = run_cli(*args, "--out", tmp_path / "a")
    r2 = run_cli(*args, "--out", tmp_path / "b")
    runs_ok = r1.returncode == 0 and r2.returncode == 0
    logs_ok = ckpt_ok = reports_ok = False
    if runs_ok:
        logs_ok = (tmp_path / "a" / "loss.log").read_bytes() == (tmp_path / "b" / "loss.log").read_bytes()
        ckpt_ok = (
            (tmp_path / "a" / "checkpoint.kmpn").read_bytes()
            == (tmp_path / "b" / "checkpoint.kmpn").read_bytes()
        )
        e1 = run_cli("eval", "--data", synth_dir, "--checkpoint", tmp_path / "a" / "checkpoint.kmpn",
                     "--split", "test", "--k", "20", "--out", tmp_path / "ea")
        e2 = run_cli("eval", "--data", synth_dir, "--checkpoint", tmp_path / "b" / "checkpoint.kmpn",
                     "--split", "test", "--k", "20", "--out", tmp_path / "eb")
        reports_ok = (
            e1.returncode == 0
            and e2.returncode == 0
            and (tmp_path / "ea" / "report.txt").read_bytes() == (tmp_path / "eb" / "report.txt").read_bytes()
        )
    ok = runs_ok and logs_ok and ckpt_ok and reports_ok
    _emit(capsys, 8, "determinism", ok,
          f"loss log {logs_ok}, checkpoint {ckpt_ok}, eval report {reports_ok}")
    assert ok, (r1.stderr, r2.stderr)


def test_criterion_09_cold_start_path(capsys, synth_bundle, trained_model, tmp_path):
    params, _, _ = trained_model
    report = evaluate(params, synth_bundle, "cold_start", ks=(20,))
    recall = report.recall[20]
    above_chance = recall > RANDOM_RECALL_AT_20 and report.users_evaluated > 0

    # and the command fails cleanly when the carve-out files do not exist
    (tmp_path / "train.txt").write_text("0 0 1\n1 2\n")
    (tmp_path / "test.txt").write_text("0 2\n1 0\n")
    (tmp_path / "kg.txt").write_text("0 0 1\n1 0 2\n2 0 0\n")
    ck = tmp_path / "c.kmpn"
    save_checkpoint(init_params(3, 2, 2, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    res = run_cli("eval", "--data", tmp_path, "--checkpoint", ck, "--split", "cold_start")
    clean_error = res.returncode == 2 and "split absent" in res.stderr

    with pytest.raises(DatasetError, match="split absent"):
        evaluate(params, _no_cold_bundle(synth_bundle), "cold_start")

    ok = above_chance and clean_error
    _emit(capsys, 9, "cold-start path", ok,
          f"cold recall@20 {recall:.3f} vs chance {RANDOM_RECALL_AT_20:.3f}, "
          f"missing-files error clean: {clean_error}")
    assert ok


def _no_cold_bundle(bundle):
    from dataclasses import replace

    from kgrec.data import DatasetBundle, Split

    empty = Split(np.zeros(bundle.store.num_users + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    store = replace(bundle.store, cold_history=empty, cold_test=empty)
    return DatasetBundle(store=store, graph=bundle.graph, corpus=bundle.corpus)


def test_criterion_10_format_round_trips(capsys, synth_bundle, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_interactions(synth_bundle.store, d1)
    save_interactions(load_interactions(d1), d2)
    inter_ok = all(
        (d1 / f).read_bytes() == (d2 / f).read_bytes()
        for f in ("train.txt", "valid.txt", "test.txt", "cold_history.txt", "cold_test.txt")
    )

    save_kg(synth_bundle.graph, tmp_path / "kg1.txt")
    g = kg_from_triplets(*_read_kg(tmp_path / "kg1.txt", num_relations_raw=synth_bundle.graph.num_relations_raw))
    save_kg(g, tmp_path / "kg2.txt")
    kg_ok = (tmp_path / "kg1.txt").read_bytes() == (tmp_path / "kg2.txt").read_bytes()

    rng = np.random.default_rng(5)
    emb = EmbeddingMatrixFile(
        "item", np.arange(10), rng.normal(size=(10, 8)).astype(np.float32)
    )
    write_embeddings_text(emb, tmp_path / "e1.txt")
    write_embeddings_text(read_embeddings(tmp_path / "e1.txt"), tmp_path / "e2.txt")
    write_embeddings_binary(emb, tmp_path / "e1.bin")
    write_embeddings_binary(read_embeddings(tmp_path / "e1.bin"), tmp_path / "e2.bin")
    emb_ok = (
        (tmp_path / "e1.txt").read_bytes() == (tmp_path / "e2.txt").read_bytes()
        and (tmp_path / "e1.bin").read_bytes() == (tmp_path / "e2.bin").read_bytes()
    )
    t = read_embeddings(tmp_path / "e1.txt")
    b = read_embeddings(tmp_path / "e1.bin")
    agree = float(np.max(np.abs(t.vectors.astype(np.float64) - b.vectors.astype(np.float64))))
    variant_ok = agree <= 1e-6

    ok = inter_ok and kg_ok and emb_ok and variant_ok
    _emit(capsys, 10, "format round-trips", ok,
          f"interactions {inter_ok}, kg {kg_ok}, embeddings {emb_ok}, "
          f"text/binary max diff {agree:.1e}")
    assert ok
